"""Tile grids of pipe networks and their alternating-sign-matrix avatars.

A grid of size n is an n x n matrix of tiles (matrix coordinates, row 1 at
the top) forming n pipes.  Pipe y->x enters from the south edge of column y
and leaves through the east edge of row x, travelling weakly northeast.
The elbow tiles are in bijection with the nonzero entries of an
alternating sign matrix: r-elbows are the +1s and j-elbows the -1s.

Checking a grid, reading its permutation and weighing it are row-local,
so all three read one record per tile row (``row_record``), kept per
size in the table store: its tiles and entries, its +1 mask, the columns
it opens north and south, whether its neighbouring tiles agree, its label
program (crosses, elbows and bumps, east to west), whether it holds a
bump, and its counts of crosses, blanks and j-elbows, which a grid's
counts are the sums of.  Each move of the transition table is the record
of its row, so grids of the stream and of removal share the records' row
tuples.  ``grid_records`` gives a grid's records: a grid read off the
table of moves keeps the path of moves it was read off, any other grid up
to the size grids are interned at keeps its records on first read, and
a larger grid keeps none, so a sweep above that size holds no more than
its grids.  ``trace`` reads the permutation by running
the rows' turns top-down (``_exit_labels``) and keeps the result on the
grid (``BpdGrid._trace``).  A grid is reduced exactly when its crosses
number the inversions of its permutation, and all reduced grids of one
permutation share one ``PipeTrace``, whose crossings are those
inversions, as a read-only mapping; only a nonreduced grid walks its
crosses for its own counts.  The shared traces are a weak store entry
per size, so streamed grids leave nothing behind.

``BpdGrid(rows)`` coerces every tile to a ``Tile`` and checks the grid is
square.  Grids whose rows come from the table of moves, which are
already tuples of ``Tile`` members (the stream's and removal's), are
built by ``BpdGrid._of_table_rows``, which skips both; up to size 6
``enumeration.table_grid`` keeps one such grid per tuple of rows, so a
removal image or an insertion is the stream's own grid.  A grid keeps
what is read off it in slots beside its rows, unseen by equality and
hashing: its trace, its removal (``removal.remove``), its column-major
resolution (``ktheory.resolve``) and its row records, so each is
computed once per grid however many callers ask.

``scan`` is the one pass over a grid's tiles: it labels every edge with
the entry column of the pipe on it, and so checks the grid, reads its
permutation and crossing counts, and (with ``resolve``) turns repeated
crossings into bumps.  ``ktheory.resolve`` calls it, and ``validate`` and
``trace`` call it on a malformed grid to raise the fault a full check
reports first.  ``BpdGrid.count`` counts one kind of tile over the rows.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain, combinations
from types import MappingProxyType
from weakref import WeakValueDictionary

from .errors import BoundaryLeak, BrokenStrand, InconsistentAsm, NotBijective
from .perms import Permutation
from .store import stored


class Tile(IntEnum):
    """The seven tile kinds; BUMP only appears in resolved diagrams."""

    BLANK = 0       # no strands
    HORIZONTAL = 1  # west-east
    VERTICAL = 2    # north-south
    CROSS = 3       # both straight strands, crossing
    R_ELBOW = 4     # south-east turn
    J_ELBOW = 5     # west-north turn
    BUMP = 6        # south-east and west-north, bouncing

    @property
    def char(self) -> str:
        return ".-|+rjb"[self]


_CHAR_TO_TILE = {t.char: t for t in Tile}
_TILES_ONLY = frozenset({Tile})

# Edge openness per tile kind.
_EAST = frozenset({Tile.HORIZONTAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP})
_WEST = frozenset({Tile.HORIZONTAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP})
_NORTH = frozenset({Tile.VERTICAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP})
_SOUTH = frozenset({Tile.VERTICAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP})


@dataclass(frozen=True, slots=True)
class BpdGrid:
    """An immutable n x n tile grid.

    ``rows[i][j]`` holds the tile at matrix position (i+1, j+1).  Grids are
    plain value types: cheap to hash, compare, and stick in sets.  Equality
    and hashing see only ``rows``; the results kept beside them are slots,
    so a grid has no instance dict.
    """

    rows: tuple[tuple[Tile, ...], ...]
    # kept on first use, each set once and never changed: the trace
    # (``trace``), the removal image and subword when the image is another
    # grid (``removal.remove``), the column-major resolved diagram and type
    # when the diagram is another grid (``ktheory.resolve``), and the row
    # records up to the size grids are interned (``grid_records``)
    _trace: PipeTrace | None = field(default=None, init=False, compare=False, repr=False)
    _removal: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _resolution: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _records: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if not _TILES_ONLY.issuperset(map(type, chain.from_iterable(rows))):
            rows = tuple(tuple(Tile(t) for t in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("grid must be square")

    @classmethod
    def _of_table_rows(cls, rows, records=None) -> "BpdGrid":
        """A grid of ``rows`` as the table of moves and the resolving scan
        build them: a tuple of n tuples of n ``Tile`` members, with the
        tuple of their row records to keep, if the caller holds it.  Skips
        the coercion and the square check of ``BpdGrid(rows)``, which the
        stream, removal and resolution would pay on every grid they build.
        Sets every slot, as ``__init__`` would."""
        grid = object.__new__(cls)
        _set_rows(grid, rows)
        _set_trace(grid, None)
        _set_removal(grid, None)
        _set_resolution(grid, None)
        _set_records(grid, records)
        return grid

    @property
    def n(self) -> int:
        return len(self.rows)

    def tile(self, i: int, j: int) -> Tile:
        """1-based matrix access."""
        return self.rows[i - 1][j - 1]

    @classmethod
    def from_ascii(cls, text: str) -> "BpdGrid":
        lines = [line for line in text.strip().splitlines() if line.strip()]
        try:
            return cls(tuple(tuple(_CHAR_TO_TILE[ch] for ch in line.strip())
                             for line in lines))
        except KeyError as exc:
            raise ValueError(f"unknown tile character {exc.args[0]!r}") from None

    @classmethod
    def identity(cls, n: int) -> "BpdGrid":
        """The unique grid of the identity permutation: elbows on the diagonal."""
        return cls(tuple(
            tuple(Tile.R_ELBOW if i == j else Tile.HORIZONTAL if j > i else Tile.VERTICAL
                  for j in range(n))
            for i in range(n)))

    def to_ascii(self) -> str:
        return "\n".join("".join(t.char for t in row) for row in self.rows)

    def count(self, kind: Tile) -> int:
        return sum([row.count(kind) for row in self.rows])

    def __str__(self):
        return self.to_ascii()


# the setters of a grid's slots, which skip the frozen dataclass's
# __setattr__ and cost less per call than ``object.__setattr__``
_set_rows, _set_trace, _set_removal, _set_resolution, _set_records = (
    getattr(BpdGrid, name).__set__ for name in BpdGrid.__slots__)


@dataclass(frozen=True)
class Asm:
    """An alternating sign matrix: rows/columns sum to 1, signs alternate."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise InconsistentAsm("matrix must be square")
        for label, lines in (("row", self.rows), ("column", zip(*self.rows))):
            for k, line in enumerate(lines, start=1):
                running = 0
                for v in line:
                    if v not in (-1, 0, 1):
                        raise InconsistentAsm(f"entry {v} outside -1/0/+1")
                    running += v
                    if running not in (0, 1):
                        raise InconsistentAsm(
                            f"{label} {k} violates the alternating-sign condition")
                if running != 1:
                    raise InconsistentAsm(f"{label} {k} does not sum to +1")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows) -> "Asm":
        try:
            entries = tuple(tuple(operator.index(v) for v in row) for row in rows)
        except TypeError:
            raise InconsistentAsm("matrix must be a sequence of rows of integers") from None
        return cls(entries)

    def __str__(self):
        return "\n".join(" ".join(f"{v:2d}" for v in row) for row in self.rows)


@dataclass(frozen=True)
class PipeTrace:
    """The permutation of a grid and how often each pair of pipes crosses."""

    perm: Permutation
    crossings: Mapping  # (a, b) with a < b -> number of shared crossing tiles

    @cached_property
    def is_reduced(self) -> bool:
        return all(c <= 1 for c in self.crossings.values())

    def multi_crossing_pairs(self) -> list[tuple[int, int, int]]:
        """Pairs crossing at least twice, as (a, b, count), sorted."""
        return sorted((a, b, c) for (a, b), c in self.crossings.items() if c >= 2)


_BLANK, _HORIZONTAL, _VERTICAL, _CROSS, _R_ELBOW, _J_ELBOW = (
    Tile.BLANK, Tile.HORIZONTAL, Tile.VERTICAL, Tile.CROSS, Tile.R_ELBOW, Tile.J_ELBOW)


COL_MAJOR = "col-major"  # columns left to right, rows bottom to top (the default)
ROW_MAJOR = "row-major"  # rows bottom to top, columns left to right

# the builders of ``scan``'s cell orders, whose cells the table store keeps
_CELL_ORDERS = {
    COL_MAJOR: lambda n: tuple((i, j) for j in range(n) for i in range(n - 1, -1, -1)),
    ROW_MAJOR: lambda n: tuple((i, j) for i in range(n - 1, -1, -1) for j in range(n)),
}

# Whether each tile kind (indexed by its value) opens its south / west edge.
_SOUTH_OPEN = tuple(t in _SOUTH for t in Tile)
_WEST_OPEN = tuple(t in _WEST for t in Tile)


def scan(rows, n, order=COL_MAJOR, resolve=False, allow_bump=True):
    """Check, trace and optionally resolve a grid in one pass over its tiles.

    Tiles are visited in ``order``; both orders reach a tile after its
    south and west neighbours.  Every open edge carries a label, the entry
    column of the pipe on it, and a closed edge carries 0.  At each tile
    the incoming south and west labels must agree with the tile's open
    edges; the tile then writes its north and east labels.  Straight tiles
    pass labels through, elbows and bumps turn them.  A cross counts its
    pair; with ``resolve`` a pair that already crossed turns the cross into
    a bump and the two labels swap.  Every tile downstream of that bump
    comes later in the scan, so one pass resolves the whole grid.

    Faults raise in the order of a full check: ``BrokenStrand`` (a
    neighbour mismatch or a disallowed bump), then a north and then a west
    ``BoundaryLeak``, then ``NotBijective``.  Boundary faults are recorded
    and raised after the pass; a leaking west edge carries the label -1,
    an unknown pipe, so the tiles east of it are still checked.

    Returns (word, crossings, tiles): the one-line word read off the east
    labels, the crossing count of each pair (a, b) with a < b, and the
    tile rows, which are ``rows`` itself unless resolution turned a cross
    into a bump.
    """
    build = _CELL_ORDERS.get(order)
    if build is None:
        raise ValueError(f"unknown scan order {order!r}")
    cells = stored(order, n, build)
    up = list(range(1, n + 1))  # label on the north edge of the last tile per column
    east = [0] * n              # label on the east edge of the last tile per row
    opens_south, opens_west = _SOUTH_OPEN, _WEST_OPEN
    crossings: dict[tuple[int, int], int] = {}
    no_entry, west_leaks = [], []
    work = rows
    for i, j in cells:
        t = rows[i][j]
        s, w = up[j], east[i]
        if (s != 0) is not opens_south[t]:
            if i < n - 1:
                raise BrokenStrand((i + 1, j + 1), "south edge disagrees with neighbour")
            no_entry.append(j + 1)
            s = up[j] = 0
        if (w != 0) is not opens_west[t]:
            if j:
                raise BrokenStrand((i + 1, j), "east edge disagrees with neighbour")
            west_leaks.append(i + 1)
            w = east[i] = -1
        if t < _CROSS:  # blank, horizontal, vertical: labels pass through
            continue
        if t == _CROSS:
            key = (s, w) if s < w else (w, s)
            if not (resolve and key in crossings):
                crossings[key] = crossings.get(key, 0) + 1
                continue
            if work is rows:
                work = [list(row) for row in rows]
            work[i][j] = Tile.BUMP
        elif t == _R_ELBOW:
            up[j], east[i] = 0, s
            continue
        elif t == _J_ELBOW:
            up[j], east[i] = w, 0
            continue
        elif not allow_bump:
            raise BrokenStrand((i + 1, j + 1), "bump tile in a raw grid")
        up[j], east[i] = w, s
    north_leaks = [j + 1 for j in range(n) if up[j]]
    if north_leaks:
        raise BoundaryLeak(("N", north_leaks[0]))
    if west_leaks:
        raise BoundaryLeak(("W", min(west_leaks)))
    no_exit = [i + 1 for i in range(n) if not east[i]]
    if no_entry or no_exit:
        raise NotBijective(f"columns without entry {no_entry}, rows without exit {no_exit}")
    if work is not rows:
        work = tuple(map(tuple, work))
    return tuple(east), crossings, work


class RowRecord:
    """One tile row and what the row-at-a-time readers need of it.

    Masks hold column j+1 at bit j.  In a well-formed grid ``north`` and
    ``south`` are the column-sum states above and below the row, so each
    move of the transition table is its row's record.  ``program`` lists
    the row's crosses, elbows and bumps from east to west as (column index,
    tile) steps, and ``turns`` is the same without the crosses.  The tile
    counts a grid is weighed and traced by (crosses, blanks, j-elbows) are
    summed over its records.  Records are shared by every grid holding the
    row and are never changed; a plain slotted class is cheaper to define
    and to build than a frozen dataclass.
    """

    __slots__ = ("tiles", "entries", "plus", "north", "south", "across", "program",
                 "turns", "crosses", "blanks", "jelbows", "bump")

    def __init__(self, tiles, entries, plus, north, south, across, program, turns,
                 crosses, blanks, jelbows, bump):
        self.tiles = tiles        # the row itself, a tuple of Tile members
        self.entries = entries    # +1 at r-elbows, -1 at j-elbows
        self.plus = plus          # the columns of the +1 entries
        self.north = north        # the columns whose tile opens north
        self.south = south        # the columns whose tile opens south
        self.across = across      # each tile opens east exactly when the next opens west
        self.program = program
        self.turns = turns
        self.crosses = crosses
        self.blanks = blanks
        self.jelbows = jelbows
        self.bump = bump


def _no_records(n: int) -> dict:
    return {}


def row_record(row) -> RowRecord:
    """The record of one tile row, built on first use and kept in the store."""
    records = stored("rows", len(row), _no_records)
    record = records.get(row)
    if record is None:
        record = records[row] = _new_record(row)
    return record


def _new_record(row) -> RowRecord:
    """One pass over a row of Tile members, as grids and ``tile_row`` hold."""
    plus = north = south = 0
    across, opens_east = True, False
    program = []
    for j, t in enumerate(row):
        bit = 1 << j
        if t in _NORTH:
            north |= bit
        if t in _SOUTH:
            south |= bit
        if t is _R_ELBOW:
            plus |= bit
        if j and opens_east is not (t in _WEST):
            across = False
        opens_east = t in _EAST
        if t >= _CROSS:
            program.append((j, t))
    program = tuple(reversed(program))
    return RowRecord(row, asm_row(row), plus, north, south, across, program,
                     tuple(step for step in program if step[1] is not _CROSS),
                     row.count(_CROSS), row.count(_BLANK), row.count(_J_ELBOW),
                     Tile.BUMP in row)


def grid_records(grid: BpdGrid) -> tuple[RowRecord, ...]:
    """The record of each of a grid's rows, the objects ``row_record``
    gives.

    A grid read off the table of moves keeps the path it was read off
    (``enumeration.table_grid``); any other grid up to the size grids are
    interned at (``enumeration._MEMO_MAX_N``) keeps its records on first
    read, and a larger grid looks its rows up on every call.
    """
    records = grid._records
    if records is None:
        get = stored("rows", grid.n, _no_records).get
        records = tuple([get(row) or row_record(row) for row in grid.rows])
        if grid.n <= enumeration._MEMO_MAX_N:
            _set_records(grid, records)
    return records


def _well_formed(records, n: int) -> bool:
    """Whether ``scan`` accepts the rows of these records, bumps allowed:
    each row's neighbouring tiles agree, each row opens north the columns
    the row above opens south, the top row opens none north and the bottom
    row all south.  The west and east edges need no check of their own:
    every tile lets out as many strands as it takes in, so the n strands
    entering at the bottom leave through the n rows' east edges, one each,
    and none enters from the west."""
    above = 0
    for record in records:
        if not record.across or record.north != above:
            return False
        above = record.south
    return above == (1 << n) - 1


def bumped(records) -> bool:
    """Whether any of these row records holds a bump tile."""
    for record in records:
        if record.bump:
            return True
    return False


def _exit_labels(records, n: int, pairs=None) -> list[int]:
    """Run the rows of a well-formed grid top-down, labelling each strand
    by the row it exits through; returns the labels on the south edge of
    the last row, column by column.

    A row is read east to west, so the label coming in from the east is
    the row itself.  An r-elbow passes the horizontal label down its
    column, a j-elbow takes the label coming down its column west, a bump
    swaps the two, and a cross passes both.  With ``pairs``, a dict, the
    crosses are walked too and each pair of exit rows (a, b), a < b, is
    counted at every cross they share.
    """
    labels = [0] * n
    for x, record in enumerate(records, start=1):
        h = x
        for j, t in record.turns if pairs is None else record.program:
            if t is _R_ELBOW:
                labels[j] = h
            elif t is _J_ELBOW:
                h = labels[j]
                labels[j] = 0
            elif t is _CROSS:
                a = labels[j]
                key = (a, h) if a < h else (h, a)
                pairs[key] = pairs.get(key, 0) + 1
            else:
                labels[j], h = h, labels[j]
    return labels


def validate(grid: BpdGrid, allow_bump: bool = False) -> None:
    """Raise unless the grid is a well-formed pipe network.

    The check reads the row records; a malformed grid is scanned to raise
    its fault.  Bump tiles are faults unless ``allow_bump``; see ``scan``
    for the order in which faults are reported.
    """
    records = grid_records(grid)
    if not _well_formed(records, grid.n) or not allow_bump and bumped(records):
        scan(grid.rows, grid.n, allow_bump=allow_bump)


def is_valid(grid: BpdGrid, allow_bump: bool = False) -> bool:
    try:
        validate(grid, allow_bump=allow_bump)
    except (BrokenStrand, BoundaryLeak, NotBijective):
        return False
    return True


def _no_traces(n: int) -> WeakValueDictionary:
    return WeakValueDictionary()


def trace(grid: BpdGrid) -> PipeTrace:
    """The permutation and crossing multiplicities, read once per grid.

    Raises on a malformed grid; bump tiles are accepted, so resolved grids
    trace to their type.  The trace is kept on the grid and returned again
    on later calls.  A grid whose crosses number the inversions of its
    permutation is reduced and gets the one trace of that permutation,
    whose crossings are a read-only mapping; any other grid walks its
    crosses for its own counts.
    """
    tr = grid._trace
    if tr is None:
        n = grid.n
        records = grid_records(grid)
        if not _well_formed(records, n):
            # a fault caches nothing, so a malformed grid raises on every call
            scan(grid.rows, n)
        word = [0] * n
        for y, x in enumerate(_exit_labels(records, n), start=1):
            word[x - 1] = y
        word = tuple(word)
        # the one trace of each permutation's reduced grids, held weakly
        shared = stored("traces", n, _no_traces)
        tr = shared.get(word)
        perm = Permutation(word) if tr is None else tr.perm
        length = perm.length() if tr is None else len(tr.crossings)
        # every inverted pair crosses an odd number of times and every other
        # pair an even number, so the grid is reduced exactly when its
        # crosses number the inversions
        if sum(record.crosses for record in records) == length:
            if tr is None:
                inversions = {(b, a): 1 for a, b in combinations(word, 2) if a > b}
                tr = shared[word] = PipeTrace(perm, MappingProxyType(inversions))
        else:
            pairs: dict[tuple[int, int], int] = {}
            _exit_labels(records, n, pairs)
            # re-key each pair of exit rows by the pipes' entry columns
            crossings = {}
            for (a, b), count in pairs.items():
                p, q = word[a - 1], word[b - 1]
                crossings[(p, q) if p < q else (q, p)] = count
            tr = PipeTrace(perm, crossings)
        _set_trace(grid, tr)
    return tr


def asm_row(tiles) -> tuple[int, ...]:
    """The matrix entries of one tile row: +1 at r-elbows, -1 at j-elbows."""
    return tuple(1 if t is _R_ELBOW else -1 if t is _J_ELBOW else 0 for t in tiles)


def to_asm(grid: BpdGrid) -> Asm:
    """The alternating sign matrix with +1 at r-elbows and -1 at j-elbows."""
    return Asm(tuple(map(asm_row, grid.rows)))


def tile_row(above: int, entries) -> tuple[Tile, ...]:
    """The tiles of one grid row from its ASM entries.

    ``above`` is the column-sum state of the rows above as a bitmask (bit
    j set when column j+1 sums to 1 there), i.e. the columns whose strand
    enters this row from the north.  The running row sum says whether a
    strand runs east through a zero entry; these are the corner sums of
    the matrix read one row at a time.
    """
    tiles = []
    running = 0
    for e in entries:
        if e:
            running += e
            tiles.append(_R_ELBOW if e == 1 else _J_ELBOW)
        elif above & 1:
            tiles.append(_CROSS if running else _VERTICAL)
        else:
            tiles.append(_HORIZONTAL if running else _BLANK)
        above >>= 1
    return tuple(tiles)


def tiles_from_asm_rows(rows, n):
    """Reconstruct tile rows from ASM entry rows, one ``tile_row`` each.

    Assumes the entries already satisfy the alternating-sign invariants.
    """
    out = []
    above = 0
    for entries in rows:
        out.append(tile_row(above, entries))
        for j, e in enumerate(entries):
            if e:
                above ^= 1 << j
    return tuple(out)


def from_asm(asm) -> BpdGrid:
    """Inverse of ``to_asm``; raises ``InconsistentAsm`` on bad input."""
    if not isinstance(asm, Asm):
        asm = Asm.from_rows(asm)
    return BpdGrid(tiles_from_asm_rows(asm.rows, asm.n))


# -- rendering ---------------------------------------------------------------

_SVG_CELL = 24


def _svg_paths(rows, n):
    s = _SVG_CELL
    paths = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = rows[i - 1][j - 1]
            x0, y0 = (j - 1) * s, (i - 1) * s
            cx, cy = x0 + s / 2, y0 + s / 2
            if t in (Tile.HORIZONTAL, Tile.CROSS):
                paths.append(f"M {x0} {cy} L {x0 + s} {cy}")
            if t in (Tile.VERTICAL, Tile.CROSS):
                paths.append(f"M {cx} {y0} L {cx} {y0 + s}")
            if t is Tile.R_ELBOW:
                # quarter circle from the south edge to the east edge
                paths.append(f"M {cx} {y0 + s} A {s / 2} {s / 2} 0 0 0 {x0 + s} {cy}")
            if t is Tile.J_ELBOW:
                paths.append(f"M {x0} {cy} A {s / 2} {s / 2} 0 0 0 {cx} {y0}")
            if t is Tile.BUMP:
                # two bouncing strands hugging opposite corners
                paths.append(f"M {cx} {y0 + s} A {s / 2} {s / 2} 0 0 1 {x0 + s} {cy}")
                paths.append(f"M {x0} {cy} A {s / 2} {s / 2} 0 0 1 {cx} {y0}")
    return paths


def render(grid: BpdGrid, format: str = "ascii") -> str:
    """Serialize a grid as 'ascii', 'json', or 'svg' text."""
    validate(grid, allow_bump=True)
    if format == "ascii":
        return grid.to_ascii()
    if format == "json":
        perm = list(trace(grid).perm)
        payload = {"n": grid.n,
                   "tiles": ["".join(t.char for t in row) for row in grid.rows],
                   "perm": perm}
        return json.dumps(payload, separators=(",", ":"))
    if format == "svg":
        n = grid.n
        size = max(n, 1) * _SVG_CELL
        lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
                 f'width="{size}" height="{size}">']
        for k in range(n + 1):
            c = k * _SVG_CELL
            lines.append(f'<line x1="0" y1="{c}" x2="{size}" y2="{c}" '
                         'stroke="#ccc" stroke-width="0.5"/>')
            lines.append(f'<line x1="{c}" y1="0" x2="{c}" y2="{size}" '
                         'stroke="#ccc" stroke-width="0.5"/>')
        for d in _svg_paths(grid.rows, n):
            lines.append(f'<path d="{d}" fill="none" stroke="#d2691e" stroke-width="2"/>')
        lines.append("</svg>")
        return "\n".join(lines)
    raise ValueError(f"unknown render format {format!r}")


def from_json(text: str) -> BpdGrid:
    """Inverse of ``render(grid, "json")``; raises ``ValueError`` on bad input."""
    payload = json.loads(text)
    tiles = payload.get("tiles") if isinstance(payload, dict) else None
    if not (isinstance(tiles, list) and all(isinstance(row, str) for row in tiles)):
        raise ValueError("expected an object whose 'tiles' is a list of tile rows")
    grid = BpdGrid.from_ascii("\n".join(tiles)) if tiles else BpdGrid(())
    if grid.n != payload.get("n"):
        raise ValueError("tile rows disagree with declared size")
    return grid


# last, as enumeration builds on this module: ``grid_records`` reads the
# size grids are interned at when it is called
from . import enumeration  # noqa: E402
