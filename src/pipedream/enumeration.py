"""Exhaustive generation of alternating sign matrices and grid families.

One table of moves drives a depth-first walk over the rows of
alternating sign matrices, with each column's running sum confined to
{0, 1}; each move is the record of its tile row (``grid.row_record``),
holding the row's entries, its tiles and the column sums below it.  The
walk yields every matrix as its path of moves, and at size 0 the one
empty path, so the empty grid is an ordinary member of the stream.  The
matrix stream reads the entries off a path and the grid stream its tile
rows, building each grid once out of the table's own rows with
``BpdGrid._of_table_rows``, which skips the per-tile coercion.  The
table is filled lazily: ``table_tiles`` turns any matrix into its tile
rows by building only the moves it takes, so removal, which builds its
grids that way, costs time in the rows it touches at any size and shares
the table's rows with the stream.  Grid families (all grids with a given
permutation, the reduced ones, the minimal ones, and so on) are filters
over the grid stream, and ``removable_pipes`` finds the unit rows whose
+1 is alone in its column with two passes over the +1 masks of the rows'
records; its report holds the kept indices and builds the subword
selection only when it is read, and ``removal`` hands the records it
already holds to the same pass (``_removable``).  Each table is kept per
size in the table store, and ``query`` checks its size against the guard
in force (``store.size_guard``).  The nu and Grothendieck tables do not
read these grids: ``specialization`` builds them from a Hecke product,
and loads this module only for the minimal grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .errors import GuardExceeded, InconsistentAsm, SubwordMismatch
from .grid import Asm, BpdGrid, row_record, row_records, tile_row, trace
from .ktheory import resolve
from .perms import Permutation, SubwordSelection
from .store import check_guard, stored

# grid lists are memoized up to this size; larger sizes stream uncached
_MEMO_MAX_N = 6


def _valid_rows(n: int):
    """All {0,+-1} rows that sum to 1 with alternating signs, as
    (entries, plus_mask, minus_mask), in lexicographic entry order."""
    rows = []
    for entries in product((-1, 0, 1), repeat=n):
        if _alternating_line(entries):
            rows.append((entries, *_masks(entries)))
    rows.sort()
    return tuple(rows)


def _masks(entries) -> tuple[int, int]:
    """The bitmasks of a row's +1 and -1 entries (bit j for column j+1)."""
    plus = sum(1 << k for k, v in enumerate(entries) if v == 1)
    minus = sum(1 << k for k, v in enumerate(entries) if v == -1)
    return plus, minus


def _alternating_line(entries) -> bool:
    running = 0
    for v in entries:
        running += v
        if running not in (0, 1):
            return False
    return running == 1


def _no_moves(n: int) -> dict:
    return {}


def _transitions(n: int) -> dict:
    """The size-n table of moves, {state: {entries: move}}, completed: for
    each column-sum state, every legal row in lexicographic entry order.

    A move is the record of its tile row, from state ``north`` to state
    ``south``.  ``table_tiles`` fills the table one row at a time; records
    are kept by their tile row, so its moves come back as the same objects.
    """
    moves = stored("moves", n, _no_moves)
    rows = _valid_rows(n)
    for state in range(1 << n):
        moves[state] = {entries: row_record(tile_row(state, entries))
                        for entries, plus, minus in rows
                        if not (state & plus or minus & ~state)}
    return moves


def table_tiles(rows, n: int) -> tuple:
    """The tile rows of an alternating sign matrix of size n, read off the
    table of moves, so they are the table's own row tuples.

    Only the moves the matrix takes are built, so the cost grows with the
    rows, not with the table; a row that cannot follow the rows above it
    raises ``InconsistentAsm``.  Gives the same tiles as
    ``grid.tiles_from_asm_rows``.
    """
    moves = stored("moves", n, _no_moves)
    state = 0
    out = []
    for entries in rows:
        by_entries = moves.get(state)
        if by_entries is None:
            by_entries = moves[state] = {}
        move = by_entries.get(entries)
        if move is None:
            # the move of this row from this column-sum state, on first use
            plus, minus = _masks(entries)
            if state & plus or minus & ~state or not _alternating_line(entries):
                raise InconsistentAsm(f"row {entries} cannot follow column sums {state:b}")
            move = by_entries[entries] = row_record(tile_row(state, entries))
        state = move.south
        out.append(move.tiles)
    return tuple(out)


def _paths(n: int) -> Iterator[tuple]:
    """Yield each alternating sign matrix of size n as its path of moves,
    the records of its tile rows, through the transition table.

    Deterministic order: depth-first, rows in lexicographic entry order.
    Size 0 yields the one empty path.  Every path of n moves is a matrix:
    each row sums to 1 and each column sum stays in {0, 1}, so the n
    columns hold n ones between them and all of them end full.
    """
    table = stored("transitions", n, _transitions)
    work = [((), 0)]
    while work:
        path, state = work.pop()
        if len(path) == n:
            yield path
            continue
        for move in reversed(table[state].values()):
            work.append((path + (move,), move.south))


def iter_asm_rows(n: int) -> Iterator[tuple]:
    """Yield each alternating sign matrix of size n as a tuple of row tuples,
    in the order of ``_paths``."""
    for path in _paths(n):
        yield tuple(move.entries for move in path)


def enumerate_asm(n: int) -> Iterator[Asm]:
    """The public ASM stream; each matrix is yielded exactly once."""
    for rows in iter_asm_rows(n):
        yield Asm(rows)


def count_asms_literal(n: int) -> int:
    """Count ASMs by filtering every matrix in {0,+-1}^(n x n).

    Purely an oracle; feasible only for n <= 3 (3^9 candidates).
    """
    if n > 3:
        raise GuardExceeded("literal brute force is capped at n = 3")
    count = 0
    for cells in product((-1, 0, 1), repeat=n * n):
        rows = [cells[i * n:(i + 1) * n] for i in range(n)]
        if all(_alternating_line(r) for r in rows) and \
           all(_alternating_line(c) for c in zip(*rows)):
            count += 1
    return count


def count_asms_bruteforce(n: int) -> int:
    """Count ASMs by brute force, factored through the row condition.

    The defining filter is a conjunction of per-row and per-column
    conditions, so enumerating row-valid rows first and then applying the
    full column filter scans the same set as the literal filter while
    staying feasible at n = 4.
    """
    valid = [entries for entries, _, _ in _valid_rows(n)]
    count = 0
    for rows in product(valid, repeat=n):
        if all(_alternating_line(c) for c in zip(*rows)):
            count += 1
    return count


def bpd_stream(n: int) -> Iterator[BpdGrid]:
    """Every grid of size n, in the ASM stream's order.

    Each grid is built from the tile rows of its path, so all grids share
    the transition table's row tuples.
    """
    grids = (BpdGrid._of_table_rows(tuple(move.tiles for move in path))
             for path in _paths(n))
    yield from stored("bpd", n, lambda _: tuple(grids)) if n <= _MEMO_MAX_N else grids


class RemovablePipeReport:
    """The removable pipes of a grid and the subword they leave behind.

    A pipe y->x is removable when the r-elbow at (x, y) is the only one in
    its row and column; such a pipe is always hook-shaped.  The subword
    keeps the entries of the permutation other than the removed values, at
    ``indices``; it is built only when read, since removal's own checks
    need only ``trace.perm``, its host.  A plain slotted class, so reports
    have no value equality.
    """

    __slots__ = ("pipes", "indices", "trace", "_subword")

    def __init__(self, pipes, indices, trace):
        self.pipes = pipes        # (y, x), sorted by y
        self.indices = indices    # the rows of the kept pipes
        self.trace = trace        # the trace the permutation was read from
        self._subword = None

    @property
    def subword(self) -> SubwordSelection:
        sel = self._subword
        if sel is None:
            sel = self._subword = SubwordSelection(self.trace.perm, self.indices)
        return sel

    @property
    def minimal(self) -> bool:
        return not self.pipes


def removable_pipes(grid: BpdGrid) -> RemovablePipeReport:
    return _removable(grid, row_records(grid.rows))


def _removable(grid: BpdGrid, records) -> RemovablePipeReport:
    """``removable_pipes`` of a grid whose row records the caller holds."""
    tr = trace(grid)
    seen = twice = 0  # the columns holding a +1, and those holding two
    for record in records:
        twice |= seen & record.plus
        seen |= record.plus
    lone = seen & ~twice
    # pipe y -> x is removable when row x is the unit row with its +1 in
    # column y = w(x), alone in its column; without bumps a unit row with
    # a lone +1 is always such a row
    pipes, indices = [], []
    for x, (record, y) in enumerate(zip(records, tr.perm), start=1):
        p = record.plus
        if p & lone and p == 1 << y - 1:
            pipes.append((y, x))
        else:
            indices.append(x)
    pipes.sort()
    return RemovablePipeReport(tuple(pipes), tuple(indices), tr)


QUERY_KINDS = ("BPD", "bpd", "BPD_K", "mBPD", "mbpd", "BPD_v", "bpd_v")


@dataclass(frozen=True)
class SetQuery:
    """A named grid family: permutation/type filters over the full stream.

    The subword kinds take a selection ``v`` of w itself; a selection of
    another host raises ``SubwordMismatch``.
    """

    kind: str
    w: Permutation
    v: Optional[SubwordSelection] = None

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(f"unknown query kind {self.kind!r}")
        needs_v = self.kind in ("BPD_v", "bpd_v")
        if needs_v != (self.v is not None):
            raise ValueError(f"kind {self.kind} {'requires' if needs_v else 'forbids'} a subword")
        if needs_v and self.v.host != self.w:
            # a grid's removable pipes select a subword of its own permutation
            raise SubwordMismatch(f"subword of {self.v.host.text()} queried "
                                  f"for {self.w.text()}")


def query(q: SetQuery) -> list[BpdGrid]:
    """Materialize a grid family, in the enumeration stream's order.

    BPD_K selects grids by type and every other kind by permutation; the
    lowercase kinds keep only reduced grids, and the minimal (m*) and
    subword (*_v) kinds keep the grids whose removable pipes leave the
    full word or the subword v.
    """
    n = q.w.size
    check_guard(n)
    if q.kind == "BPD_K":
        return [grid for grid in bpd_stream(n) if resolve(grid)[1] == q.w]
    reduced_only = "bpd" in q.kind
    leaves = SubwordSelection.full(q.w) if q.kind[0] == "m" else q.v
    out = []
    for grid in bpd_stream(n):
        tr = trace(grid)
        if tr.perm != q.w or (reduced_only and not tr.is_reduced):
            continue
        if leaves is None or removable_pipes(grid).subword == leaves:
            out.append(grid)
    return out
