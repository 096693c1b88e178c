"""Tile grids of pipe networks and their alternating-sign-matrix avatars.

A grid of size n is an n x n matrix of tiles (matrix coordinates, row 1 at
the top) forming n pipes.  Pipe y->x enters from the south edge of column y
and leaves through the east edge of row x, travelling weakly northeast.
The elbow tiles are in bijection with the nonzero entries of an
alternating sign matrix: r-elbows are the +1s and j-elbows the -1s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

from .errors import BoundaryLeak, BrokenStrand, InconsistentAsm, NotBijective
from .perms import Permutation


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

# Edge openness per tile kind, used for local consistency checks.
_EAST = frozenset({Tile.HORIZONTAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP})
_WEST = frozenset({Tile.HORIZONTAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP})
_NORTH = frozenset({Tile.VERTICAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP})
_SOUTH = frozenset({Tile.VERTICAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP})


def east_open(tile) -> bool:
    return tile in _EAST


def west_open(tile) -> bool:
    return tile in _WEST


def north_open(tile) -> bool:
    return tile in _NORTH


def south_open(tile) -> bool:
    return tile in _SOUTH


@dataclass(frozen=True)
class BpdGrid:
    """An immutable n x n tile grid.

    ``rows[i][j]`` holds the tile at matrix position (i+1, j+1).  Grids are
    plain value types: cheap to hash, compare, and stick in sets.
    """

    rows: tuple[tuple[Tile, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(t if type(t) is Tile else Tile(t) for t in row)
                     for row in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("grid must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def tile(self, i: int, j: int) -> Tile:
        """1-based matrix access."""
        return self.rows[i - 1][j - 1]

    @classmethod
    def from_rows(cls, rows) -> "BpdGrid":
        return cls(tuple(tuple(Tile(t) for t in row) for row in rows))

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
        return sum(row.count(kind) for row in self.rows)

    def positions(self, kind: Tile) -> list[tuple[int, int]]:
        """1-based positions of all tiles of the given kind, row-major."""
        return [(i, j)
                for i, row in enumerate(self.rows, start=1)
                for j, t in enumerate(row, start=1) if t == kind]

    def __str__(self):
        return self.to_ascii()


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
        return cls(tuple(tuple(int(v) for v in row) for row in rows))

    def __str__(self):
        return "\n".join(" ".join(f"{v:2d}" for v in row) for row in self.rows)


@dataclass(frozen=True)
class PipeTrace:
    """Everything a single strand walk learns about a grid."""

    perm: Permutation
    crossings: dict  # (a, b) with a < b -> number of shared crossing tiles
    jelbow_count: int
    blank_count: int

    @cached_property
    def is_reduced(self) -> bool:
        return all(c <= 1 for c in self.crossings.values())

    def multi_crossing_pairs(self) -> list[tuple[int, int, int]]:
        """Pairs crossing at least twice, as (a, b, count), sorted."""
        return sorted((a, b, c) for (a, b), c in self.crossings.items() if c >= 2)


def validate(grid: BpdGrid, allow_bump: bool = False) -> None:
    """Raise unless the grid is a well-formed pipe network.

    Checks, in order: no stray bump tiles (unless resolving), local edge
    consistency between every pair of neighbours, closed north and west
    boundaries, and one strand per column (south) and per row (east).
    """
    n = grid.n
    rows = grid.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = rows[i - 1][j - 1]
            if t == Tile.BUMP and not allow_bump:
                raise BrokenStrand((i, j), "bump tile in a raw grid")
            if j < n and east_open(t) != west_open(rows[i - 1][j]):
                raise BrokenStrand((i, j), "east edge disagrees with neighbour")
            if i < n and south_open(t) != north_open(rows[i][j - 1]):
                raise BrokenStrand((i, j), "south edge disagrees with neighbour")
    for j in range(1, n + 1):
        if north_open(rows[0][j - 1]):
            raise BoundaryLeak(("N", j))
    for i in range(1, n + 1):
        if west_open(rows[i - 1][0]):
            raise BoundaryLeak(("W", i))
    missing_entry = [j for j in range(1, n + 1) if not south_open(rows[n - 1][j - 1])]
    missing_exit = [i for i in range(1, n + 1) if not east_open(rows[i - 1][n - 1])]
    if missing_entry or missing_exit:
        raise NotBijective(
            f"columns without entry {missing_entry}, rows without exit {missing_exit}")


def is_valid(grid: BpdGrid, allow_bump: bool = False) -> bool:
    try:
        validate(grid, allow_bump=allow_bump)
    except (BrokenStrand, BoundaryLeak, NotBijective):
        return False
    return True


def walk_strands(rows, n):
    """Follow every strand from its south entry to its east exit.

    Accepts rows of ``Tile`` members or plain tile integers.  Returns
    (exit_row_by_strand, vertical_owner, horizontal_owner) where the owner
    tables are (n+1) x (n+1) with 1-based indexing and record which strand
    occupies each cell's vertical/horizontal channel.  Crosses carry both;
    elbows carry the turning strand.
    """
    h, v, cross, relbow, jelbow, bump = 1, 2, 3, 4, 5, 6
    vown = [[0] * (n + 1) for _ in range(n + 1)]
    hown = [[0] * (n + 1) for _ in range(n + 1)]
    exits = [0] * (n + 1)
    for y in range(1, n + 1):
        i, j, heading_north = n, y, True
        while True:
            t = rows[i - 1][j - 1]
            if heading_north:
                vown[i][j] = y
                if t == v or t == cross:
                    i -= 1
                elif t == relbow or t == bump:
                    heading_north = False
                    j += 1
                else:
                    raise BrokenStrand((i, j),
                                       f"strand {y} heading north hit {Tile(t).name}")
            else:
                hown[i][j] = y
                if t == h or t == cross:
                    j += 1
                elif t == jelbow or t == bump:
                    heading_north = True
                    i -= 1
                else:
                    raise BrokenStrand((i, j),
                                       f"strand {y} heading east hit {Tile(t).name}")
            if j > n:
                exits[y] = i
                break
            if i < 1:
                raise BoundaryLeak(("N", j))
    return exits, vown, hown


def trace(grid: BpdGrid) -> PipeTrace:
    """Compute the permutation, crossing multiplicities, and tile counts."""
    n = grid.n
    exits, vown, hown = walk_strands(grid.rows, n)
    word = [0] * n
    for y in range(1, n + 1):
        word[exits[y] - 1] = y
    crossings: dict[tuple[int, int], int] = {}
    jelbows = blanks = 0
    for i, row in enumerate(grid.rows, start=1):
        for j, t in enumerate(row, start=1):
            if t is Tile.CROSS:
                a, b = vown[i][j], hown[i][j]
                key = (a, b) if a < b else (b, a)
                crossings[key] = crossings.get(key, 0) + 1
            elif t is Tile.J_ELBOW:
                jelbows += 1
            elif t is Tile.BLANK:
                blanks += 1
    return PipeTrace(Permutation(word), crossings, jelbows, blanks)


def to_asm(grid: BpdGrid) -> Asm:
    """The alternating sign matrix with +1 at r-elbows and -1 at j-elbows."""
    return Asm(tuple(
        tuple(1 if t is Tile.R_ELBOW else -1 if t is Tile.J_ELBOW else 0 for t in row)
        for row in grid.rows))


_BLANK, _HORIZONTAL, _VERTICAL, _CROSS, _R_ELBOW, _J_ELBOW = (
    Tile.BLANK, Tile.HORIZONTAL, Tile.VERTICAL, Tile.CROSS, Tile.R_ELBOW, Tile.J_ELBOW)


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
        perm = list(trace_resolved_perm(grid))
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


def trace_resolved_perm(grid: BpdGrid) -> Permutation:
    """Permutation of a grid that may contain bump tiles."""
    n = grid.n
    exits, _, _ = walk_strands(grid.rows, n)
    word = [0] * n
    for y in range(1, n + 1):
        word[exits[y] - 1] = y
    return Permutation(word)


def from_json(text: str) -> BpdGrid:
    payload = json.loads(text)
    grid = BpdGrid.from_ascii("\n".join(payload["tiles"])) if payload["tiles"] else BpdGrid(())
    if grid.n != payload["n"]:
        raise ValueError("tile rows disagree with declared size")
    return grid
