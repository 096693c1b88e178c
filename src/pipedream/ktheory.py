"""First-crossing resolution of a grid and the weights it carries.

Repeated crossings of the same two pipes, after their first shared cross,
are reinterpreted as bumps.  Resolution is ``grid.scan`` with ``resolve``
set: tiles are visited columns left to right and rows bottom to top (or
rows first), and a cross whose two pipes have already crossed at an
earlier retained cross becomes a bump, after which the two pipes carry
on along each other's tails.  The permutation of the resolved network is
the grid's type.  The resolved diagram is a plain ``BpdGrid``; when no
cross became a bump, which is exactly when the grid is reduced, it is the
source grid itself.  A reduced grid that holds its trace resolves
without a scan, and a nonreduced grid keeps its column-major diagram and
type, so each grid is scanned in that order at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import NegativeExponent, WitnessNotFound
# the scan orders live in grid and are re-exported here
from .grid import (COL_MAJOR, ROW_MAJOR, BpdGrid, Tile, _set_resolution, bumped,
                   grid_records, scan, trace)
from .perms import PATTERN_1243, PATTERN_2143, Permutation, SubwordSelection, occurrences
from .polynomials import BetaPolynomial
from .store import stored


def resolve(grid: BpdGrid, order: str = COL_MAJOR) -> tuple[BpdGrid, Permutation]:
    """Resolve repeated crossings into bumps; returns the diagram and its type.

    A reduced grid resolves to itself, the same object, and its type
    equals its permutation.  Bump tiles in the input are faults.  A grid
    that already holds a reduced trace and no bump tile is returned
    without a scan: no pair crosses twice, so no cross can become a bump
    in either order.  A nonreduced grid keeps its column-major result and
    returns it again on later calls; the row-major one is scanned each
    time.
    """
    if order == COL_MAJOR and grid._resolution is not None:
        return grid._resolution
    tr = grid._trace
    if (tr is not None and tr.is_reduced and order in (COL_MAJOR, ROW_MAJOR)
            and not bumped(grid_records(grid))):
        return grid, tr.perm
    word, _, tiles = scan(grid.rows, grid.n, order, resolve=True, allow_bump=False)
    if tiles is grid.rows:
        return grid, Permutation(word)
    # the scan's tile rows are tuples of Tile members, square as the grid
    resolved = BpdGrid._of_table_rows(tiles), Permutation(word)
    if order == COL_MAJOR:
        _set_resolution(grid, resolved)
    return resolved


def resolve_stats(rows, n):
    """(permutation word, type word, blanks, jelbows, bumps) of tile rows.

    Operates on plain tile rows, skipping grid-object construction.  When
    no cross turns into a bump the resolving scan is the plain one, so the
    permutation is read off it; otherwise a second, plain scan reads it.
    Blanks and j-elbows are counted on the rows, bumps on the resolved
    tiles.
    """
    type_word, _, tiles = scan(rows, n, resolve=True)
    perm = type_word if tiles is rows else scan(rows, n)[0]
    return (perm, type_word, sum(row.count(Tile.BLANK) for row in rows),
            sum(row.count(Tile.J_ELBOW) for row in rows),
            sum(row.count(Tile.BUMP) for row in tiles))


def _no_weights(n: int) -> dict:
    return {}


def beta_weight(grid: BpdGrid, reference_length: int) -> BetaPolynomial:
    """b^(blanks - reference_length) * (1+b)^jelbows.

    The caller chooses the reference: the length of the grid's type for
    weight sums, which makes every weight a genuine polynomial.  The tile
    counts are summed over the grid's row records, and each size keeps one
    polynomial per (blanks - reference_length, jelbows) in the table
    store, so equal weights of one size are one object.
    """
    blanks = jelbows = 0
    for record in grid_records(grid):
        blanks += record.blanks
        jelbows += record.jelbows
    if blanks < reference_length:
        raise NegativeExponent(
            f"{blanks} blanks cannot support reference length {reference_length}")
    key = blanks - reference_length, jelbows
    weights = stored("weights", grid.n, _no_weights)
    weight = weights.get(key)
    if weight is None:
        # the binomial row of (1+b)^jelbows, shifted up by the b power
        weight = weights[key] = BetaPolynomial(
            (0,) * key[0] + tuple(comb(jelbows, k) for k in range(jelbows + 1)))
    return weight


@dataclass(frozen=True)
class NonreducedWitness:
    """A pattern occurrence forced by a pair of pipes crossing twice."""

    parity: str  # "even" or "odd"
    pattern: Permutation
    occurrence: SubwordSelection


def _first_occurrence(pattern: Permutation, w: Permutation):
    # occurrences yields a subword's values in word order, as of_values selects
    values = next(occurrences(pattern, w), None)
    return None if values is None else SubwordSelection.of_values(w, values)


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
    if type_perm.avoids(PATTERN_2143):
        raise WitnessNotFound(
            f"type {type_perm.text()} lacks the promised 2143 pattern")
    return NonreducedWitness(parity, pattern, occurrence)
