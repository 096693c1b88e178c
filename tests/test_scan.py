"""The edge-label scan against the strand walks it replaced.

``oracle_validate``, ``walk_strands``, ``_relabel`` and ``resolve_engine``
below are the neighbour-pair check, the per-pipe walk and the
relabelling resolution that ``grid.scan`` superseded, kept here only as
independent oracles.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedream import (BoundaryLeak, BpdGrid, BrokenStrand, GridError,
                       NotBijective, Tile, resolve, trace, validate)
from pipedream.enumeration import iter_asm_rows
from pipedream.grid import COL_MAJOR, ROW_MAJOR, tiles_from_asm_rows
from pipedream.ktheory import resolve_stats

# the tiles open on each edge
_EAST = {Tile.HORIZONTAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP}
_WEST = {Tile.HORIZONTAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP}
_NORTH = {Tile.VERTICAL, Tile.CROSS, Tile.J_ELBOW, Tile.BUMP}
_SOUTH = {Tile.VERTICAL, Tile.CROSS, Tile.R_ELBOW, Tile.BUMP}


def oracle_validate(grid, allow_bump=False):
    """Every neighbour pair first, then the north, west and bijectivity checks."""
    n = grid.n
    rows = grid.rows
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = rows[i - 1][j - 1]
            if t == Tile.BUMP and not allow_bump:
                raise BrokenStrand((i, j), "bump tile in a raw grid")
            if j < n and (t in _EAST) != (rows[i - 1][j] in _WEST):
                raise BrokenStrand((i, j), "east edge disagrees with neighbour")
            if i < n and (t in _SOUTH) != (rows[i][j - 1] in _NORTH):
                raise BrokenStrand((i, j), "south edge disagrees with neighbour")
    for j in range(1, n + 1):
        if rows[0][j - 1] in _NORTH:
            raise BoundaryLeak(("N", j))
    for i in range(1, n + 1):
        if rows[i - 1][0] in _WEST:
            raise BoundaryLeak(("W", i))
    missing_entry = [j for j in range(1, n + 1) if rows[n - 1][j - 1] not in _SOUTH]
    missing_exit = [i for i in range(1, n + 1) if rows[i - 1][n - 1] not in _EAST]
    if missing_entry or missing_exit:
        raise NotBijective(
            f"columns without entry {missing_entry}, rows without exit {missing_exit}")


def walk_strands(rows, n):
    """Follow every strand from its south entry to its east exit; returns
    the exit row of each strand and the (n+1) x (n+1) tables of the strand
    on each cell's vertical and horizontal channel."""
    vown = [[0] * (n + 1) for _ in range(n + 1)]
    hown = [[0] * (n + 1) for _ in range(n + 1)]
    exits = [0] * (n + 1)
    for y in range(1, n + 1):
        i, j, heading_north = n, y, True
        while j <= n:
            t = rows[i - 1][j - 1]
            if heading_north:
                vown[i][j] = y
                if t in (Tile.VERTICAL, Tile.CROSS):
                    i -= 1
                else:
                    assert t in (Tile.R_ELBOW, Tile.BUMP)
                    heading_north = False
                    j += 1
            else:
                hown[i][j] = y
                if t in (Tile.HORIZONTAL, Tile.CROSS):
                    j += 1
                else:
                    assert t in (Tile.J_ELBOW, Tile.BUMP)
                    heading_north = True
                    i -= 1
        exits[y] = i
    return exits, vown, hown


def _relabel(work, vown, hown, n, i, j, heading_north, owner):
    """Re-own the strand tail starting at (i, j); returns its exit row."""
    while j <= n:
        t = work[i - 1][j - 1]
        if heading_north:
            vown[i][j] = owner
            if t in (Tile.VERTICAL, Tile.CROSS):
                i -= 1
            else:
                heading_north = False
                j += 1
        else:
            hown[i][j] = owner
            if t in (Tile.HORIZONTAL, Tile.CROSS):
                j += 1
            else:
                heading_north = True
                i -= 1
    return i


def resolve_engine(rows, n, order):
    """Visit the crosses in scan order; a pair that already crossed turns
    its cross into a bump and both strand tails are re-walked.  Returns
    (resolved rows, resolved exits, raw exits, raw owner tables)."""
    work = [list(r) for r in rows]
    exits, vown, hown = walk_strands(rows, n)
    raw = (list(exits), [list(r) for r in vown], [list(r) for r in hown])
    if order == COL_MAJOR:
        cells = [(i, j) for j in range(1, n + 1) for i in range(n, 0, -1)]
    else:
        cells = [(i, j) for i in range(n, 0, -1) for j in range(1, n + 1)]
    crossed = set()
    for i, j in cells:
        if rows[i - 1][j - 1] != Tile.CROSS:
            continue
        a, b = vown[i][j], hown[i][j]
        key = (a, b) if a < b else (b, a)
        if key in crossed:
            work[i - 1][j - 1] = Tile.BUMP
            exits[a] = _relabel(work, vown, hown, n, i, j + 1, False, a)
            exits[b] = _relabel(work, vown, hown, n, i - 1, j, True, b)
        else:
            crossed.add(key)
    return tuple(map(tuple, work)), exits, raw


def word_of(exits, n):
    word = [0] * n
    for y in range(1, n + 1):
        word[exits[y] - 1] = y
    return tuple(word)


def oracle_crossings(rows, n, vown, hown):
    crossings = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rows[i - 1][j - 1] == Tile.CROSS:
                a, b = vown[i][j], hown[i][j]
                key = (a, b) if a < b else (b, a)
                crossings[key] = crossings.get(key, 0) + 1
    return crossings


def outcome(check, *args, **kwargs):
    """The class of the fault ``check`` raises, or None; boundary and
    bijectivity faults also carry their message.  A ``BrokenStrand`` may
    name a different neighbour pair, so only its class is kept."""
    try:
        check(*args, **kwargs)
    except BrokenStrand:
        return BrokenStrand, None
    except GridError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", range(7))
def test_scan_matches_strand_walk_oracle(n):
    for asm_rows in iter_asm_rows(n) if n else [()]:
        rows = tiles_from_asm_rows(asm_rows, n)
        grid = BpdGrid(rows)
        tr = trace(grid)
        by_order = {}
        for order in (COL_MAJOR, ROW_MAJOR):
            work, exits, (raw_exits, vown, hown) = resolve_engine(rows, n, order)
            resolved, typ = resolve(grid, order)
            assert resolved.rows == work
            assert tuple(typ) == word_of(exits, n)
            by_order[order] = (work, word_of(exits, n))
        assert tuple(tr.perm) == word_of(raw_exits, n)
        assert tr.crossings == oracle_crossings(rows, n, vown, hown)
        work, typ = by_order[COL_MAJOR]
        assert resolve_stats(rows, n) == (
            tuple(tr.perm), typ, grid.count(Tile.BLANK), grid.count(Tile.J_ELBOW),
            sum(row.count(Tile.BUMP) for row in work))
        # a resolved grid traces to its type
        assert tuple(trace(BpdGrid(work)).perm) == typ


def malformed_grids():
    """Every grid of size <= 2, and every single-tile change of every
    well-formed grid of size 3 and 4."""
    for n in range(3):
        for tiles in product(Tile, repeat=n * n):
            yield BpdGrid(tuple(tiles[i * n:(i + 1) * n] for i in range(n)))
    for n in (3, 4):
        for asm_rows in iter_asm_rows(n):
            rows = tiles_from_asm_rows(asm_rows, n)
            for i, j in product(range(n), repeat=2):
                for t in Tile:
                    if t is rows[i][j]:
                        continue
                    changed = [list(row) for row in rows]
                    changed[i][j] = t
                    yield BpdGrid(tuple(map(tuple, changed)))


def test_fault_classes_match_validate_oracle():
    seen = {}
    for grid in malformed_grids():
        for allow_bump in (False, True):
            expected = outcome(oracle_validate, grid, allow_bump)
            assert outcome(validate, grid, allow_bump) == expected, (grid, allow_bump)
            if allow_bump:
                assert outcome(trace, grid) == expected, grid
            else:
                assert outcome(resolve, grid) == expected, grid
                assert outcome(resolve, grid, ROW_MAJOR) == expected, grid
            kind = expected[0] if expected else None
            seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == {None, BrokenStrand, BoundaryLeak, NotBijective}


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(list(Tile)), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_random_grids_match_validate_oracle(rows):
    grid = BpdGrid(tuple(map(tuple, rows)))
    for allow_bump in (False, True):
        assert outcome(validate, grid, allow_bump) == outcome(oracle_validate, grid,
                                                              allow_bump)


def test_trace_rejects_malformed_grid():
    # the pipe entering column 1 used to walk out through row 2 here,
    # giving 21 although the r-elbow at (1, 2) has no pipe coming in
    with pytest.raises(GridError):
        trace(BpdGrid.from_ascii("-r\nr+"))


def test_unknown_scan_order():
    with pytest.raises(ValueError):
        resolve(BpdGrid.identity(2), "diagonal")
