"""
Grids, pipes, and alternating sign matrices
===========================================

A size-n grid is an n x n arrangement of seven tile kinds through which n
pipes travel from the south edge to the east edge.  This script builds the
running 7 x 7 example, reads off its permutation, and round-trips it
through its matrix of elbows.
"""

import os
import tempfile

from pipedream import BpdGrid, Tile, from_asm, render, to_asm, trace

# Tiles: '.' blank, '-' dash, '|' bar, '+' cross, 'r' and 'j' elbows.
grid = BpdGrid.from_ascii("""
....r--
..r-+--
..|.|r-
..|r++-
.r++j|r
r+j|r++
||r++++
""")

print(grid.to_ascii())

# Pipe y -> x enters at column y and leaves through row x, so the
# permutation w sends each exit row to its entry column.
tr = trace(grid)
print("permutation:", tr.perm.text())
print("reduced?", tr.is_reduced)
print("pairs crossing more than once:", tr.multi_crossing_pairs())

# r-elbows become +1 and j-elbows -1; the result is an alternating sign
# matrix, and the correspondence is a bijection.
asm = to_asm(grid)
print(asm)
assert from_asm(asm) == grid

# The unique grid of the identity keeps every pipe as a plain hook.
print(BpdGrid.identity(4).to_ascii())

# Rendering: ascii for fixtures, one-line json for machines, svg to look at.
print(render(grid, "json"))
svg_path = os.path.join(tempfile.gettempdir(), "pipedream_demo.svg")
with open(svg_path, "w") as handle:
    handle.write(render(grid, "svg"))
print("wrote", svg_path)

# Tile counts drive everything downstream: blanks measure how far the grid
# is above the minimum, j-elbows measure how often pipes bounce.
print("blanks:", grid.count(Tile.BLANK), "j-elbows:", grid.count(Tile.J_ELBOW))
