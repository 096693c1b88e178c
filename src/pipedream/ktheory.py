"""First-crossing resolution of a grid and the weights it carries.

Repeated crossings of the same two pipes, after their first shared cross,
are reinterpreted as bumps.  Crosses are scanned left-to-right and
bottom-to-top; at each one we ask whether the two strands currently
passing through it have already crossed at an earlier retained cross, and
if so the tile becomes a bump and the two strand tails swap.  The
permutation of the resolved network is the grid's type.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NegativeExponent, WitnessNotFound
from .grid import BpdGrid, Tile, trace, validate, walk_strands
from .perms import PATTERN_1243, PATTERN_2143, Permutation, SubwordSelection, ranks
from .polynomials import BetaPolynomial

_H, _V, _CROSS, _J, _BUMP = (
    int(Tile.HORIZONTAL), int(Tile.VERTICAL), int(Tile.CROSS),
    int(Tile.J_ELBOW), int(Tile.BUMP))

COL_MAJOR = "col-major"  # columns ascending, rows descending (the default)
ROW_MAJOR = "row-major"  # rows descending, columns ascending


class ResolvedGrid(BpdGrid):
    """A grid whose repeated crossings have been turned into bumps.

    Compares equal to any grid with the same tiles, so a reduced grid and
    its (unchanged) resolution are the same value.
    """

    def underlying(self) -> BpdGrid:
        """Forget the cross/bump distinction, recovering the source grid."""
        return BpdGrid(tuple(
            tuple(Tile.CROSS if t is Tile.BUMP else t for t in row)
            for row in self.rows))

    def __eq__(self, other):
        if isinstance(other, BpdGrid):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows,))


def _relabel(work, vown, hown, n, i, j, heading_north, owner):
    """Re-own the strand tail starting at (i, j); returns its exit row."""
    while j <= n:
        t = work[i - 1][j - 1]
        if heading_north:
            vown[i][j] = owner
            if t == _V or t == _CROSS:
                i -= 1
            else:  # r-elbow or bump: turn east
                heading_north = False
                j += 1
        else:
            hown[i][j] = owner
            if t == _H or t == _CROSS:
                j += 1
            else:  # j-elbow or bump: turn north
                heading_north = True
                i -= 1
    return i


def resolve_engine(rows, n, order=COL_MAJOR):
    """Core resolution on integer tile rows.

    Returns (work_rows, exits, raw_exits): the tile rows with bumps in
    place, the exit row of each strand in the resolved network, and the
    exit rows before resolution (which read off the grid's permutation).
    """
    work = [list(r) for r in rows]
    exits, vown, hown = walk_strands(rows, n)
    raw_exits = list(exits)
    if order == COL_MAJOR:
        cross_positions = [(i, j)
                           for j in range(1, n + 1)
                           for i in range(n, 0, -1)
                           if rows[i - 1][j - 1] == _CROSS]
    elif order == ROW_MAJOR:
        cross_positions = [(i, j)
                           for i in range(n, 0, -1)
                           for j in range(1, n + 1)
                           if rows[i - 1][j - 1] == _CROSS]
    else:
        raise ValueError(f"unknown scan order {order!r}")
    crossed = set()
    for i, j in cross_positions:
        a = vown[i][j]
        b = hown[i][j]
        key = (a, b) if a < b else (b, a)
        if key in crossed:
            work[i - 1][j - 1] = _BUMP
            # the vertical strand a adopts b's east tail and vice versa
            exits[a] = _relabel(work, vown, hown, n, i, j + 1, False, a)
            exits[b] = _relabel(work, vown, hown, n, i - 1, j, True, b)
        else:
            crossed.add(key)
    return work, exits, raw_exits


def resolve(grid: BpdGrid, order: str = COL_MAJOR) -> tuple[ResolvedGrid, Permutation]:
    """Resolve repeated crossings into bumps; returns the diagram and its type.

    A reduced grid resolves to itself and its type equals its permutation.
    """
    validate(grid)
    n = grid.n
    work, exits, _ = resolve_engine(grid.rows, n, order)
    word = [0] * n
    for y in range(1, n + 1):
        word[exits[y] - 1] = y
    resolved = ResolvedGrid(tuple(tuple(Tile(t) for t in row) for row in work))
    return resolved, Permutation(word)


def resolve_stats(rows, n):
    """(permutation word, type word, blanks, jelbows, bumps) in one pass.

    Operates on plain integer tile rows; this is the hot path behind the
    exhaustive sweeps, so it skips grid-object construction entirely.
    """
    work, exits, raw_exits = resolve_engine(rows, n, COL_MAJOR)
    perm = [0] * n
    type_word = [0] * n
    for y in range(1, n + 1):
        perm[raw_exits[y] - 1] = y
        type_word[exits[y] - 1] = y
    bumps = blanks = jelbows = 0
    for row in work:
        for t in row:
            if t == _BUMP:
                bumps += 1
            elif t == 0:
                blanks += 1
            elif t == _J:
                jelbows += 1
    return tuple(perm), tuple(type_word), blanks, jelbows, bumps


def beta_weight(grid: BpdGrid, reference_length: int) -> BetaPolynomial:
    """b^(blanks - reference_length) * (1+b)^jelbows.

    The caller chooses the reference: the length of the grid's type for
    weight sums, which makes every weight a genuine polynomial.
    """
    blanks = grid.count(Tile.BLANK)
    jelbows = grid.count(Tile.J_ELBOW)
    if blanks < reference_length:
        raise NegativeExponent(
            f"{blanks} blanks cannot support reference length {reference_length}")
    return (BetaPolynomial.monomial(blanks - reference_length)
            * BetaPolynomial.one_plus_beta_power(jelbows))


@dataclass(frozen=True)
class NonreducedWitness:
    """A pattern occurrence forced by a pair of pipes crossing twice."""

    parity: str  # "even" or "odd"
    pattern: Permutation
    occurrence: SubwordSelection


def _first_occurrence(pattern: Permutation, w: Permutation):
    for idx in combinations(range(1, len(w) + 1), len(pattern)):
        if ranks([w[i - 1] for i in idx]) == pattern:
            return SubwordSelection(w, idx)
    return None


def nonreduced_witness(grid: BpdGrid):
    """Locate the pattern a nonreduced grid is guaranteed to contain.

    Returns None on reduced grids.  Pipes crossing a nonzero even number
    of times force a 1243 occurrence in the permutation; an odd number
    (at least three) forces 2143.  The type must contain 2143 either way.
    """
    tr = trace(grid)
    doubled = tr.multi_crossing_pairs()
    if not doubled:
        return None
    _, _, count = doubled[0]
    if count % 2 == 0:
        parity, pattern = "even", PATTERN_1243
    else:
        parity, pattern = "odd", PATTERN_2143
    occurrence = _first_occurrence(pattern, tr.perm)
    if occurrence is None:
        raise WitnessNotFound(
            f"permutation {tr.perm.text()} lacks the promised {pattern.text()} pattern")
    _, type_perm = resolve(grid)
    if _first_occurrence(PATTERN_2143, type_perm) is None:
        raise WitnessNotFound(
            f"type {type_perm.text()} lacks the promised 2143 pattern")
    return NonreducedWitness(parity, pattern, occurrence)
