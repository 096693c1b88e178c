"""Exhaustive generation of alternating sign matrices and grid families.

One table of moves drives a depth-first walk over the rows of
alternating sign matrices, with each column's running sum confined to
{0, 1}; each move is the record of its tile row (``grid.row_record``),
holding the row's entries, its tiles and the column sums below it.  The
walk yields every matrix as its path of moves, and at size 0 the one
empty path, so the empty grid is an ordinary member of the stream.  The
matrix stream reads the entries off a path and the grid stream its tile
rows, building each grid out of the table's own rows with
``BpdGrid._of_table_rows``, which skips the per-tile coercion.  The
table is filled lazily: ``table_path`` turns any matrix into its path of
moves by building only the moves it takes, so removal, which builds its
grids that way, costs time in the rows it touches at any size and shares
the table's rows with the stream.  Up to ``_MEMO_MAX_N`` every grid
read off the table is ``table_grid`` of its path of moves, the one grid
per tuple of tile rows kept in the store, which keeps the path as its
row records: the stream's grids, removal's images and insertion's
expansions are then the same objects, and the records, trace, removal
and resolution kept on a grid serve every check that reads it.  Above
that size each grid is built anew and dropped with the stream.  Grid
families (all grids of a permutation, the reduced ones, the minimal
ones, the strata of a subword, the grids of a type) are each one call,
``query(kind, w, v)``.  The grids of a type are a filter over the grid
stream.  Every other family is read off a walk over the grids of w
alone (``_word_paths``): the same depth-first walk, carrying each
pipe's exit row on the partial path and cutting a branch as soon as a
pipe sits east of where it may go, or, for the reduced kinds, two pipes
cross that may not; it never streams the grids of other words.  It
completes only the states of the table of moves it visits
(``_state_moves``), and its grids are ``table_grid`` of their paths, so
up to ``_MEMO_MAX_N`` they are the stream's own grids.
``removable_pipes`` finds the unit rows whose +1 is alone in its column
with two passes over the +1 masks of the rows' records, and ``query``
compares its report's kept indices with the rows a minimal kind or a
subword stratum keeps; ``removal`` hands the records it already holds to
the same pass (``_removable``).  Each table is kept per size in the
table store, and ``query`` checks its size against the guard in force
(``store.size_guard``).  The nu and Grothendieck tables do not read
these grids: ``specialization`` builds them from a Hecke product, and
loads this module only for the minimal grids.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

from .errors import GuardExceeded, InconsistentAsm, SubwordMismatch
from .grid import (_J_ELBOW, _R_ELBOW, Asm, BpdGrid, grid_records, row_record, tile_row,
                   trace)
from .perms import Permutation, SubwordSelection
from .store import check_guard, stored

# grid lists and grid objects are kept up to this size; larger sizes
# stream uncached
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


def _no_states(n: int) -> set:
    return set()


def _state_moves(n: int, state: int) -> dict:
    """The moves from one column-sum state of the size-n table of moves,
    completed: every legal row, in lexicographic entry order.

    A move is the record of its tile row, from state ``north`` to state
    ``south``.  ``table_path`` fills a state one row at a time, in any
    order, so a state is rebuilt in order the first time it is asked for
    here; records are kept by their tile row, so the moves
    ``table_path`` made come back as the same objects.
    """
    moves = stored("moves", n, _no_moves)
    complete = stored("complete states", n, _no_states)
    if state not in complete:
        moves[state] = {entries: row_record(tile_row(state, entries))
                        for entries, plus, minus in stored("valid rows", n, _valid_rows)
                        if not (state & plus or minus & ~state)}
        complete.add(state)
    return moves[state]


def _transitions(n: int) -> dict:
    """The size-n table of moves, {state: {entries: move}}, with every
    state completed (``_state_moves``)."""
    for state in range(1 << n):
        _state_moves(n, state)
    return stored("moves", n, _no_moves)


def table_path(rows, n: int) -> list:
    """The path of moves an alternating sign matrix of size n takes through
    the table of moves: the records of its tile rows, whose tiles are the
    table's own row tuples.

    Only the moves the matrix takes are built, so the cost grows with the
    rows, not with the table; a row that cannot follow the rows above it
    raises ``InconsistentAsm``.  The tiles are those of
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
        out.append(move)
    return out


def _no_grids(n: int) -> dict:
    return {}


def table_grid(path) -> BpdGrid:
    """The grid of a path of moves through the table of moves.

    Up to size ``_MEMO_MAX_N`` it is the one grid of the path's tile rows
    in the process, kept in the store, so the results kept on it (its
    trace, its removal, its resolution) are shared by every caller, and it
    keeps the path as its row records (``grid.grid_records``); above that
    size each call builds a new grid that keeps nothing, so large streams
    leave nothing behind.
    """
    tiles = tuple([move.tiles for move in path])
    n = len(tiles)
    if n > _MEMO_MAX_N:
        return BpdGrid._of_table_rows(tiles)
    grids = stored("grids", n, _no_grids)
    grid = grids.get(tiles)
    if grid is None:
        grid = grids[tiles] = BpdGrid._of_table_rows(tiles, tuple(path))
    return grid


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
    the transition table's row tuples.  Up to ``_MEMO_MAX_N`` the list is
    kept and each grid is ``table_grid`` of its path, the same object that
    removal and insertion return; above it each grid is built fresh.
    """
    if n > _MEMO_MAX_N:
        yield from map(table_grid, _paths(n))
        return
    yield from stored("bpd", n, lambda _: tuple(map(table_grid, _paths(n))))


class RemovablePipeReport:
    """The removable pipes of a grid and the subword they leave behind.

    A pipe y->x is removable when the r-elbow at (x, y) is the only one in
    its row and column; such a pipe is always hook-shaped.  The subword
    keeps the entries of the permutation other than the removed values, at
    ``indices``, built when read and not checked again: the indices are
    increasing and the host is the trace's permutation.  A plain slotted
    class, so reports have no value equality.
    """

    __slots__ = ("pipes", "indices", "trace")

    def __init__(self, pipes, indices, trace):
        self.pipes = pipes        # (y, x), sorted by y
        self.indices = indices    # the rows of the kept pipes
        self.trace = trace        # the trace the permutation was read from

    @property
    def subword(self) -> SubwordSelection:
        return SubwordSelection._trusted(self.trace.perm, self.indices)

    @property
    def minimal(self) -> bool:
        return not self.pipes


def _lone_plus(records) -> int:
    """The columns holding exactly one +1 among the rows of these records.

    Pipe y -> x is removable when row x is the unit row with its +1 in
    column y = w(x), alone in its column: ``p & lone and p == 1 << y - 1``
    for the row's +1 mask p.  Without bumps a unit row with a lone +1 is
    always such a row.
    """
    seen = twice = 0  # the columns holding a +1, and those holding two
    for record in records:
        twice |= seen & record.plus
        seen |= record.plus
    return seen & ~twice


def removable_pipes(grid: BpdGrid) -> RemovablePipeReport:
    return _removable(grid, grid_records(grid))


def _removable(grid: BpdGrid, records) -> RemovablePipeReport:
    """``removable_pipes`` of a grid whose row records the caller holds."""
    tr = trace(grid)
    lone = _lone_plus(records)
    pipes, indices = [], []
    for x, (record, y) in enumerate(zip(records, tr.perm), start=1):
        p = record.plus
        if p & lone and p == 1 << y - 1:
            pipes.append((y, x))
        else:
            indices.append(x)
    pipes.sort()
    return RemovablePipeReport(tuple(pipes), tuple(indices), tr)


QUERY_KINDS = ("BPD", "bpd", "BPD_K", "mBPD", "mbpd")


def query(kind: str, w: Permutation, v: Optional[SubwordSelection] = None) -> list[BpdGrid]:
    """Materialize a grid family, in the enumeration stream's order.

    BPD_K selects grids by type and every other kind by permutation; the
    lowercase kinds keep only reduced grids, the minimal (m*) kinds the
    grids with no removable pipe, and BPD and bpd with a subword v of w
    the grids whose removable pipes leave v.  A subword of another host,
    or with any other kind, is rejected.  BPD_K filters the grid stream
    of size |w|; every other kind reads the walk over the grids of w
    alone (``_word_paths``).  ``iter_query`` yields the same grids one
    at a time.
    """
    return list(iter_query(kind, w, v))


def iter_query(kind: str, w: Permutation,
               v: Optional[SubwordSelection] = None) -> Iterator[BpdGrid]:
    """The grids of ``query(kind, w, v)``, in order, read as they are
    found; the arguments and the size guard are checked on the call."""
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    if v is not None:
        if kind not in ("BPD", "bpd"):
            raise ValueError(f"kind {kind} forbids a subword")
        if v.host != w:
            # a grid's removable pipes select a subword of its own permutation
            raise SubwordMismatch(f"subword of {v.host.text()} queried for {w.text()}")
    n = w.size
    check_guard(n)
    if kind == "BPD_K":
        # imported here: ktheory builds on grid, which reads this module
        from .ktheory import resolve
        return (grid for grid in bpd_stream(n) if resolve(grid)[1] == w)
    grids = map(table_grid, _word_paths(w, "bpd" in kind))
    if kind[0] == "m":
        kept = tuple(range(1, n + 1))
    elif v is not None:
        kept = v.indices
    else:
        return grids
    return (grid for grid in grids if removable_pipes(grid).indices == kept)


def _word_paths(w: Permutation, reduced: bool) -> Iterator[tuple]:
    """Yield the paths of ``_paths(n)`` whose grids have permutation w, and
    with ``reduced`` are reduced, in the same order, cutting a partial
    path as soon as it breaks one of the rules below.  A path that keeps
    them may still find no way to finish, so the walk can cost far more
    than its grids (the identity, whose pipes may not cross, most of all).

    A partial path carries ``labels[j]``, the exit row of the pipe in
    column j below its last row (0 for none), as ``grid._exit_labels``
    finds them: each move's program runs east to west with h = the row
    index.  Pipes move only west as they go down, so an r-elbow in
    column j may send pipe h down only when w(h) <= j + 1; a j-elbow
    takes h from its column.  With ``reduced`` the pipes of a cross must
    be an inversion of w that has not crossed yet.  A full path needs no
    check: its n pipes sit in distinct columns c_a with c_a + 1 >= w(a),
    and both sides sum to n(n+1)/2, so c_a + 1 = w(a) for every pipe a.
    """
    n = w.size
    word = (0, *w)
    # the bit of each inverted pair of exit rows, either way round; 0 for
    # a pair that may not cross in a reduced grid
    inversion = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if word[a] > word[b]:
                inversion[a][b] = inversion[b][a] = 1 << a * (n + 1) + b
    work = [((), 0, [0] * n, 0)]
    while work:
        path, state, labels, crossed = work.pop()
        x = len(path) + 1
        if x > n:
            yield path
            continue
        for move in reversed(_state_moves(n, state).values()):
            below = labels[:]
            h, crosses = x, crossed
            for j, t in move.program if reduced else move.turns:
                if t is _R_ELBOW:
                    if word[h] > j + 1:
                        break
                    below[j] = h
                elif t is _J_ELBOW:
                    h = below[j]
                    below[j] = 0
                else:
                    bit = inversion[below[j]][h]
                    if not bit or crosses & bit:
                        break
                    crosses |= bit
            else:
                work.append((path + (move,), move.south, below, crosses))
