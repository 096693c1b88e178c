import pytest

from pipedream import (BetaPolynomial, GuardExceeded, Permutation,
                       coefficient, coefficient_table, grothendieck, nu,
                       nu_table, schubert, skew_identities, skew_sum)
from pipedream.enumeration import bpd_stream
from pipedream.perms import all_perms, pattern_census
from pipedream.polynomials import MultivariatePolynomial
from pipedream.specialization import (clear_caches, coefficient_values,
                                      grothendieck_table, minimal_sets,
                                      minimal_summary)


def P(text):
    return Permutation.from_text(text)


def beta(*coeffs):
    return BetaPolynomial.from_coeffs(coeffs)


class TestNu:
    def test_empty_and_identity(self):
        assert nu(Permutation()) == beta(1)
        for n in range(1, 6):
            assert nu(Permutation.identity(n)) == beta(1)

    def test_1243(self):
        assert nu(P("1243")) == beta(3, 3, 1)
        assert str(nu(P("1243"))) == "b^2+3b+3"

    def test_132(self):
        assert nu(P("132")) == beta(2, 1)

    def test_1432_constant_term(self):
        value = nu(P("1432"))
        assert value.constant_term == 5
        # the lower bound 1 + p_132 + p_1432 is met with equality here
        assert value.constant_term == 1 + 3 + 1

    def test_nonnegative_coefficients(self):
        for n in range(7):
            for poly in nu_table(n).values():
                assert poly.is_nonnegative()

    def test_two_enumeration_of_the_full_stream(self):
        # summing the beta=1 specializations over a whole symmetric group
        # double-counts grids by their j-elbows: total 2^(n(n-1)/2)
        for n in range(1, 7):
            total = sum(poly(1) for poly in nu_table(n).values())
            assert total == 2 ** (n * (n - 1) // 2)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            nu(Permutation.identity(5), guard=4)

    def test_negative_size_rejected(self):
        with pytest.raises(GuardExceeded):
            nu_table(-1)

    def test_process_pool_matches_serial(self, cold_caches):
        serial = nu_table(5)
        clear_caches()
        pooled = nu_table(5, jobs=2)
        assert pooled is not serial
        assert pooled == serial


class TestGrothendieck:
    def test_identity_is_one(self):
        for n in (0, 1, 3):
            poly = grothendieck(Permutation.identity(n))
            assert poly == MultivariatePolynomial.constant(max(n - 1, 0), 1)

    def test_21(self):
        poly = grothendieck(P("21"))
        assert str(poly) == "x1"

    def test_132(self):
        assert str(grothendieck(P("132"))) == "x1+x2+b*x1*x2"
        assert str(schubert(P("132"))) == "x1+x2"

    def test_principal_specialization_consistency(self):
        for n in range(5):
            for w in all_perms(n):
                assert grothendieck(w).all_ones() == nu(w)

    def test_schubert_monomial_positivity(self):
        for w in all_perms(4):
            for coeff in schubert(w).terms.values():
                assert coeff.is_nonnegative()


class TestCoefficient:
    def test_ground_truth_small_sizes(self):
        ones = {Permutation(), P("132"), P("1432")}
        for n in range(5):
            for w in all_perms(n):
                expected = 1 if w in ones else 0
                assert coefficient(w).constant_term == expected

    def test_1243(self):
        assert coefficient(P("1243")) == beta(0, 1, 1)
        assert coefficient(P("1243")).constant_term == 0
        # nu - c_empty - 2 c_132 = 3 - 1 - 2
        census = pattern_census(P("1243"))
        assert census[(1, 3, 2)] == 2

    def test_132_beta(self):
        assert coefficient(P("132")) == beta(1, 1)

    def test_modes_agree(self):
        for n in range(6):
            for w in all_perms(n):
                assert coefficient(w, "recursive") == coefficient(w, "inclusion_exclusion")

    def test_ie_alias(self):
        assert coefficient(P("1243"), "ie") == coefficient(P("1243"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            coefficient(P("12"), "newton")

    def test_table_matches_pointwise(self):
        table = coefficient_table(4)
        for w in all_perms(4):
            assert table[w] == coefficient(w)

    def test_values_match_polynomial_evaluation(self):
        for beta_value in (0, 1, 2):
            values = coefficient_values(4, beta_value)
            for w in all_perms(4):
                assert values[w] == coefficient(w)(beta_value)

    def test_pattern_sum_recovers_nu(self):
        table = coefficient_table(5)
        for w in all_perms(5):
            total = sum(count * table[Permutation(key)].constant_term
                        for key, count in pattern_census(w).items())
            assert total == nu(w).constant_term


class TestSkewIdentities:
    def test_single_cells(self):
        report = skew_identities(P("1"), P("1"))
        assert report.ok
        assert report.nu_skew == beta(1)

    def test_132_skew_1(self):
        report = skew_identities(P("132"), P("1"))
        assert skew_sum(P("132"), P("1")) == P("2431")
        assert report.ok

    def test_4321_coefficient_vanishes(self):
        report = skew_identities(P("21"), P("21"))
        assert report.ok
        assert report.c_skew == BetaPolynomial.zero()

    def test_exhaustive_small(self):
        for m in range(4):
            for n in range(4 - m):
                for u in all_perms(m):
                    for v in all_perms(n):
                        assert skew_identities(u, v).ok

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            skew_identities(Permutation.identity(3), Permutation.identity(3), guard=5)


class TestCaches:
    def test_clear_caches_drops_every_memo(self, cold_caches):
        w = P("1243")
        builders = [lambda: nu_table(3), lambda: nu(w), lambda: coefficient(w),
                    lambda: grothendieck_table(3), lambda: minimal_summary(3),
                    lambda: minimal_sets(3), lambda: next(bpd_stream(3))]
        before = [build() for build in builders]
        assert [build() for build in builders] == before
        clear_caches()
        after = [build() for build in builders]
        assert after == before
        for old, new in zip(before, after):
            assert old is not new
