"""
Weight polynomials, principal specializations, and pattern coefficients
=======================================================================

Summing a weight over all grids of a given type produces a polynomial in
x_1..x_{n-1} and the deformation parameter b.  Setting every x to 1 gives
the principal specialization, and subtracting pattern-weighted copies of
smaller permutations defines the coefficients c.
"""

from pipedream import (Permutation, coefficient, grothendieck, nu, schubert,
                       skew_identities, skew_sum)


def P(text):
    return Permutation.from_text(text)


# The full generating polynomial for 132 has one term per grid feature:
# a blank in row 1, a blank in row 2, and a b-weighted j-elbow product.
print("poly(132)   =", grothendieck(P("132")))
print("schubert(132) =", schubert(P("132")))

# At x = 1 the polynomial collapses to a polynomial in b alone; its
# constant term counts reduced grids.
for text in ("1", "132", "1243", "1432", "2143"):
    w = P(text)
    print(f"nu({text}) = {nu(w)}   [reduced grids: {nu(w).constant_term}]")

# The coefficients start at 1 on the empty word and vanish surprisingly
# often; 132 and 1432 are the only small permutations with c = 1.
for text in ("", "1", "132", "1432", "1243"):
    w = P(text)
    print(f"c({text or 'empty'}) = {coefficient(w)}")

# Both definitions of c agree: the transform over the patterns of w and the
# signed subword sum.
w = P("21543")
assert coefficient(w, "recursive") == coefficient(w, "ie")
print("c(21543) =", coefficient(w))

# Skew sums multiply: stacking 132 above-left of 21 gives 35421, and both
# nu and c factor accordingly.
report = skew_identities(P("132"), P("21"))
print("35421 == 132 (-) 21:", skew_sum(P("132"), P("21")).text())
print("nu factorizes:", report.nu_ok, "| c factorizes:", report.c_ok)
print("nu(35421) =", report.nu_skew)
