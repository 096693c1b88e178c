"""Removing hook pipes from a grid and putting them back.

``remove`` erases every removable pipe and contracts the freed rows and
columns; on grids with permutation w it lands in the minimal grids of the
flattened subword, and ``insert`` is its two-sided inverse.  Removal is
implemented as a submatrix of the alternating sign matrix: deleting the
removed rows and columns from the matrix of elbows and rebuilding the
tiles is equivalent to the stepwise contraction, and keeps the code small.
"""

from __future__ import annotations

from bisect import bisect_left

from .enumeration import removable_pipes
from .errors import NotMinimal, SubwordMismatch
from .grid import (Asm, BpdGrid, Tile, east_open, from_asm, north_open,
                   south_open, to_asm, trace, validate)
from .perms import Permutation, SubwordSelection


def remove(grid: BpdGrid) -> tuple[BpdGrid, SubwordSelection]:
    """Erase all removable pipes; returns the contracted grid and subword.

    The result is a minimal grid whose permutation is the flattening of
    the returned subword.  Grids that are already minimal come back
    unchanged with the full-word selection.
    """
    validate(grid)
    report = removable_pipes(grid)
    if not report.pipes:
        return grid, report.subword
    removed_rows = {x for _, x in report.pipes}
    removed_cols = {y for y, _ in report.pipes}
    asm = to_asm(grid)
    sub = tuple(
        tuple(v for j, v in enumerate(row, start=1) if j not in removed_cols)
        for i, row in enumerate(asm.rows, start=1) if i not in removed_rows)
    image = from_asm(Asm(sub))
    return image, report.subword


def insert(image: BpdGrid, w: Permutation, v: SubwordSelection) -> BpdGrid:
    """Expand ``image`` into the grid of w whose removable pipes realize v.

    Column and row expansion move the image to the subword's entry and
    index positions, filling the gaps so every strand stays linked; the
    removed pipes are then re-added as undrooped hooks.
    """
    if v.host != w:
        raise SubwordMismatch("selection does not live in the target permutation")
    m = image.n
    if m != len(v):
        raise SubwordMismatch(f"image size {m} != subword size {len(v)}")
    if trace(image).perm != v.pattern():
        raise SubwordMismatch("image permutation differs from the flattened subword")
    if not removable_pipes(image).minimal:
        raise NotMinimal("image still has removable pipes")

    n = w.size
    s = v.indices                      # rows the image occupies
    t = tuple(sorted(v.values()))      # columns the image occupies
    t_set = frozenset(t)
    s_set = frozenset(s)
    winv = w.inverse()
    hooks = [(y, winv[y - 1]) for y in range(1, n + 1) if y not in t_set]

    # step 1: spread the image columns out to positions t, bridging gaps
    # with dashes wherever a strand runs between adjacent image columns
    mid = []
    for i in range(m):
        irow = image.rows[i]
        row = []
        for c in range(1, n + 1):
            if c in t_set:
                row.append(irow[bisect_left(t, c)])
            else:
                left = bisect_left(t, c)  # image columns strictly left of c
                if left and east_open(irow[left - 1]):
                    row.append(Tile.HORIZONTAL)
                else:
                    row.append(Tile.BLANK)
        mid.append(row)

    # step 2: spread the rows out to positions s, bridging with bars
    full = []
    for r in range(1, n + 1):
        if r in s_set:
            full.append(list(mid[bisect_left(s, r)]))
        elif m == 0:
            full.append([Tile.BLANK] * n)
        else:
            above = bisect_left(s, r)  # image rows strictly above r
            if above < m:
                full.append([Tile.VERTICAL if north_open(t_) else Tile.BLANK
                             for t_ in mid[above]])
            else:
                full.append([Tile.VERTICAL if south_open(t_) else Tile.BLANK
                             for t_ in mid[m - 1]])

    # step 3: add the undrooped hook pipes, crossing whatever they meet
    for y, x in hooks:
        for i in range(x + 1, n + 1):
            cur = full[i - 1][y - 1]
            if cur is Tile.BLANK:
                full[i - 1][y - 1] = Tile.VERTICAL
            elif cur is Tile.HORIZONTAL:
                full[i - 1][y - 1] = Tile.CROSS
            else:
                raise SubwordMismatch(f"hook column {y} blocked at row {i}")
        if full[x - 1][y - 1] is not Tile.BLANK:
            raise SubwordMismatch(f"hook corner ({x}, {y}) is occupied")
        full[x - 1][y - 1] = Tile.R_ELBOW
        for c in range(y + 1, n + 1):
            cur = full[x - 1][c - 1]
            if cur is Tile.BLANK:
                full[x - 1][c - 1] = Tile.HORIZONTAL
            elif cur is Tile.VERTICAL:
                full[x - 1][c - 1] = Tile.CROSS
            else:
                raise SubwordMismatch(f"hook row {x} blocked at column {c}")

    out = BpdGrid(tuple(tuple(row) for row in full))
    validate(out)
    return out
