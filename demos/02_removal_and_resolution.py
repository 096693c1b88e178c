"""
Removable pipes, contraction, and first-crossing resolution
===========================================================

A pipe is removable when its corner elbow is the only one in its row and
column; erasing all removable pipes and contracting the freed rows and
columns is a bijection onto smaller minimal grids.  Separately, repeated
crossings of a pipe pair resolve into bumps, which changes the network's
permutation into its "type".
"""

from pipedream import (BpdGrid, SubwordSelection, insert, query,
                       removable_pipes, remove, resolve, trace)
from pipedream.perms import Permutation

grid = BpdGrid.from_ascii("""
....r--
..r-+--
..|.|r-
..|r++-
.r++j|r
r+j|r++
||r++++
""")
w = trace(grid).perm
print("permutation:", w.text())

# Two pipes are removable here: the one entering column 4 and the one
# entering column 6.  Dropping their values 4 and 6 from 2164753 leaves
# the subword 21753.
report = removable_pipes(grid)
print("removable pipes (entry -> exit):", report.pipes)
print("subword left behind:", "".join(map(str, report.subword.values())))

# Removal contracts two rows and two columns; the image is a minimal grid
# whose permutation is the flattening 21543 of the subword.
image, v = remove(grid)
print(image.to_ascii())
print("image permutation:", trace(image).perm.text())

# Insertion undoes removal exactly.
assert insert(image, w, v) == grid

# Resolution: scanning crosses left-to-right and bottom-to-top, a cross
# where two pipes meet for the second time becomes a bump ('b').
resolved, kind = resolve(grid)
print(resolved.to_ascii())
print("type:", kind.text())

# The four grids with permutation 1243 sort into subword strata, one grid
# apiece.  Among the three reduced grids, the stratum of subword 143 is
# empty, which is exactly why the counting bound for 1243 is strict: its
# pattern 132 still has a minimal reduced grid with nothing mapping to it.
w = Permutation.from_text("1243")
for values in [(1, 2, 4, 3), (2, 4, 3), (1, 4, 3), ()]:
    sel = SubwordSelection.of_values(w, values)
    full = query("BPD", w, sel)
    reduced = query("bpd", w, sel)
    label = "".join(map(str, values)) or "(empty)"
    print(f"stratum {label}: {len(full)} grid(s), {len(reduced)} reduced")
