"""
Machine checks and the maxima table
===================================

Every statement the library encodes has a named exhaustive check.  This
script runs a fast selection and rebuilds the small rows of the table of
maximal evaluated specializations.
"""

from pipedream import CHECK_IDS, maxima_table, run_check

# A quick sweep of every check at size 4 (under a second each).
for check_id in CHECK_IDS:
    report = run_check(check_id, 4)
    print(report.text())

# Heavier, still snappy: the removal bijection over every grid of size 5.
print(run_check("bijection-roundtrip", 5).text())

# The evaluated maxima at b = 1.  Winners are layered permutations, and
# the same permutations maximize both columns.
print()
print(" n | max nu | max c | winners")
for n in range(7):
    row = maxima_table(n, 1)
    names = ", ".join(w.text() or "empty" for w in row.argmax_nu)
    print(f" {n} | {row.max_nu:6d} | {row.max_c:5d} | {names}")

# Size 7 reproduces 38259 / 32160 at 1327654 in a few extra seconds;
# sizes 8 and 9 spend most of their time in the pattern census.
