import gc
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from pipedream import (BetaPolynomial, GuardExceeded,
                       Permutation, coefficient, coefficient_table,
                       grothendieck, insert, is_vexillary, nu, nu_table,
                       remove, schubert, size_guard, skew_identities, skew_sum)
from pipedream import store
from pipedream.enumeration import bpd_stream, iter_asm_rows, removable_pipes
from pipedream.grid import (BpdGrid, RowRecord, Tile, row_record, scan,
                            tiles_from_asm_rows, trace)
from pipedream.ktheory import beta_weight, resolve_stats
from pipedream.perms import all_perms, layered, pattern_census
from pipedream.polynomials import MultivariatePolynomial, kronecker_bits
from pipedream.specialization import (MinimalSummary, _ascents, _build_nu_table,
                                      _by_word, _deletions, _nu_values,
                                      _transform, coefficient_values,
                                      grothendieck_table, interval_nu,
                                      minimal_sets, minimal_summary)
from pipedream.store import clear_caches


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
        # double-counts grids by their j-elbows: total 2^(n(n-1)/2); this
        # bounds every nu coefficient, which ``kronecker_bits`` rests on
        for n in range(1, 9):
            total = sum(poly(1) for poly in nu_table(n).values())
            assert total == 2 ** (n * (n - 1) // 2)

    def test_guard(self):
        with size_guard(4), pytest.raises(GuardExceeded):
            nu(Permutation.identity(5))

    def test_negative_size_rejected(self):
        with pytest.raises(GuardExceeded):
            nu_table(-1)


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

    def test_2143_has_a_squared_variable_and_a_b_squared_term(self):
        assert str(grothendieck(P("2143"))) == (
            "x1^2+x1*x2+x1*x3+b*x1^2*x2+b*x1^2*x3+b*x1*x2*x3+b^2*x1^2*x2*x3")

    def test_principal_specialization_consistency(self):
        for n in range(5):
            for w in all_perms(n):
                assert grothendieck(w).all_ones() == nu(w)

    def test_per_word_walk_matches_the_table(self):
        for n in range(7):
            table = grothendieck_table(n)
            for w in all_perms(n):
                assert grothendieck(w) == table[w], w

    def test_specializes_to_the_array_kernel_on_layered_words(self):
        # nu_table runs the array product, not the walk
        for n in range(8):
            table = nu_table(n)
            for w in layered(n):
                assert grothendieck(w).all_ones() == table[w], w
        w = P("2164753")
        assert grothendieck(w).all_ones() == nu_table(7)[w]

    @pytest.mark.slow
    def test_specializes_to_the_array_kernel_on_layered_words_of_size_8(self):
        # 87654321 walks all of S_8: most of the test's 50-70 s, and a 1.8 GB peak
        table = nu_table(8)
        for w in layered(8):
            assert grothendieck(w).all_ones() == table[w], w

    def test_per_word_walk_builds_no_table(self, cold_caches):
        # nu at b = 1 of the size-8 maximum that ``maxima --n 8`` reports
        assert grothendieck(P("13287654")).all_ones()(1) == 1711251
        assert not {("groth", 8), ("perms", 8)} & set(store._TABLES)

    def test_schubert_monomial_positivity(self):
        for w in all_perms(4):
            for coeff in schubert(w).terms.values():
                assert coeff.is_nonnegative()


def one_plus_bx(nvars, index):
    """1 + b*x_index (1-based) in nvars variables."""
    return (MultivariatePolynomial.constant(nvars, 1)
            + MultivariatePolynomial.variable(nvars, index) * BetaPolynomial.beta())


def per_matrix_tables(n, groth):
    """nu and (when ``groth``) Grothendieck tables of size n >= 1, summed one
    matrix at a time through the stream, the tile rebuild and a resolving
    scan, which reads each grid's type."""
    counts = Counter()
    for rows in iter_asm_rows(n):
        tiles = tiles_from_asm_rows(rows, n)
        typ = scan(tiles, n, resolve=True)[0]
        counts[typ, tuple(row.count(Tile.BLANK) for row in tiles),
               tuple(row.count(Tile.J_ELBOW) for row in tiles)] += 1
    nvars = n - 1
    factors = [one_plus_bx(nvars, i) for i in range(1, n)]
    nus, groths = {}, {}
    for (typ, blanks, jelbows), count in counts.items():
        w = Permutation(typ)
        assert blanks[-1] == jelbows[-1] == 0
        # the weight's lowest power of b is b^(blanks), so it divides by b^l(w)
        assert sum(blanks) >= w.length()
        low = BetaPolynomial.monomial(sum(blanks) - w.length(), count)
        nus[w] = (nus.get(w, BetaPolynomial.zero())
                  + low * (1 + BetaPolynomial.beta()) ** sum(jelbows))
        if groth:
            term = MultivariatePolynomial(nvars, {blanks[:nvars]: low})
            for factor, k in zip(factors, jelbows):
                for _ in range(k):
                    term = term * factor
            groths[w] = groths[w] + term if w in groths else term
    return nus, groths


def divided_difference_table(n):
    """Grothendieck polynomials of S_n (n >= 1) from G_{w0} = x1^(n-1)...x_(n-1)
    by G_{w s_i} = pi_i G_w, where pi_i f = d_i((1 + b x_(i+1)) f) and d_i is
    the divided difference in x_i, x_(i+1).  Works in x_1..x_n and drops x_n,
    which no result contains."""
    def isobaric(i, f):
        g = f * one_plus_bx(n, i + 1)
        out = {}
        for expo, coeff in g.terms.items():
            p, q, sign = expo[i - 1], expo[i], 1
            if p < q:
                p, q, sign = q, p, -1
            for k in range(p - q):
                e = list(expo)
                e[i - 1], e[i] = p - 1 - k, q + k
                e = tuple(e)
                out[e] = out.get(e, BetaPolynomial.zero()) + sign * coeff
        return MultivariatePolynomial(n, out)

    w0 = Permutation(range(n, 0, -1))
    table = {w0: MultivariatePolynomial(n, {tuple(range(n - 1, -1, -1)): 1})}
    todo = [w0]
    while todo:
        w = todo.pop()
        for i in range(1, n):
            if w[i - 1] > w[i]:
                v = Permutation(w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:])
                if v not in table:
                    table[v] = isobaric(i, table[w])
                    todo.append(v)
    out = {}
    for w, poly in table.items():
        assert all(expo[-1] == 0 for expo in poly.terms)
        out[w] = MultivariatePolynomial(n - 1, {e[:-1]: c for e, c in poly.terms.items()})
    return out


class TestRowTransfer:
    def test_tables_match_per_matrix_oracle(self):
        for n in range(1, 8):
            nus, groths = per_matrix_tables(n, groth=n <= 6)
            assert nu_table(n) == nus, n
            if n <= 6:
                assert grothendieck_table(n) == groths, n

    def test_tables_are_keyed_by_the_all_perms_instances(self):
        # both tables iterate over all_perms(n), in its lexicographic order
        for n in range(7):
            for table in (nu_table(n), grothendieck_table(n)):
                assert len(table) == len(all_perms(n))
                assert all(key is w for key, w in zip(table, all_perms(n))), n

    def test_grothendieck_matches_divided_differences(self):
        for n in range(1, 6):
            oracle = divided_difference_table(n)
            assert len(oracle) == len(all_perms(n))
            assert grothendieck_table(n) == oracle, n
        assert str(divided_difference_table(3)[P("132")]) == "x1+x2+b*x1*x2"


class TestHeckeProduct:
    def test_ascents_pair_each_ascent_with_its_swap(self):
        for n in range(7):
            perms = all_perms(n)
            rank = {w: r for r, w in enumerate(perms)}
            for p in range(n - 1):
                sources, targets = _ascents(n, p)
                assert list(sources) == [r for r, w in enumerate(perms) if w[p] < w[p + 1]]
                assert len(targets) == len(perms) // 2
                for r, t in zip(sources, targets):
                    w = perms[r]
                    assert t == rank[w[:p] + (w[p + 1], w[p]) + w[p + 2:]]

    def test_tiled_ascents_match_a_per_rank_reference(self):
        # the reference reads both Lehmer digits off every rank in turn
        for n in (7, 8):
            for p in range(n - 1):
                f1, f2 = factorial(n - 1 - p), factorial(n - 2 - p)
                sources, targets = [], []
                for r in range(factorial(n)):
                    a, b = r // f1 % (n - p), r // f2 % (n - 1 - p)
                    if a <= b:
                        sources.append(r)
                        targets.append(r + (b + 1 - a) * f1 + (a - b) * f2)
                assert tuple(map(list, _ascents(n, p))) == (sources, targets), (n, p)

    def test_tables_build_no_grid(self, cold_caches):
        # the product never reads the table of moves or a row record
        nu_table(5)
        grothendieck_table(5)
        assert not {"transitions", "moves", "rows"} & {kind for kind, _ in store._TABLES}


class TestIntervalNu:
    def test_matches_the_tables_up_to_size_6(self):
        for n in range(7):
            table = nu_table(n)
            for w in all_perms(n):
                assert interval_nu(w) == table[w], w
                for b in (0, 1, 2):
                    assert interval_nu(w)(b) == table[w](b), (w, b)

    def test_matches_the_tables_on_layered_words_up_to_size_8(self):
        for n in range(9):
            table = nu_table(n)
            for w in layered(n):
                assert interval_nu(w) == table[w], w

    def test_builds_no_table(self, cold_caches):
        assert interval_nu(P("143298765"))(1) == 190013835
        assert not store._TABLES

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            interval_nu(Permutation(range(1, 11)))
        with size_guard(10):
            assert interval_nu(Permutation(range(1, 11))) == BetaPolynomial.one()


def random_word(rng, n, length, keep=None):
    """A word of size n and the given length, from the identity by random
    adjacent swaps that each add one inversion (and, given ``keep``, lead
    to a word it accepts)."""
    word = list(range(1, n + 1))
    while Permutation(word).length() < length:
        j = rng.randrange(n - 1)
        if word[j] < word[j + 1]:
            step = word[:j] + [word[j + 1], word[j]] + word[j + 2:]
            if keep is None or keep(Permutation(step)):
                word = step
    return Permutation(word)


def determinant(rows):
    """The determinant of a square integer matrix, by elimination over the
    rationals."""
    a, det = [[Fraction(x) for x in row] for row in rows], Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            ratio = a[i][k] / a[k][k]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return int(det)


def flagged_jacobi_trudi(w):
    """nu_w(0) of a 2143-avoiding w by the flagged Jacobi-Trudi determinant
    of Wachs (1985): the Schubert polynomial of a vexillary w is the flagged
    Schur polynomial det[h_(lam_r - r + s)(x_1..x_(phi_r))], so at x = 1 it
    is det[h_(lam_r - r + s)(1^phi_r)] with h_k(1^m) = C(m + k - 1, k).
    lam is the nonzero letters of the Lehmer code k sorted down; phi takes,
    for each i with k_i > 0, the last j >= i with k_j >= k_i (from 1),
    sorted up."""
    code = [sum(b < a for b in w[i + 1:]) for i, a in enumerate(w)]
    lam = sorted((k for k in code if k), reverse=True)
    phi = sorted(max(j for j in range(i, len(code)) if code[j] >= code[i]) + 1
                 for i, k in enumerate(code) if k)

    def h(k, m):
        return comb(m + k - 1, k) if k > 0 else int(k == 0)

    return determinant([[h(lam[r] - r + s, phi[r]) for s in range(len(lam))]
                        for r in range(len(lam))])


class TestClosedForms:
    """Identities of nu and c that hold in closed form at every size."""

    def test_at_beta_minus_one(self):
        # G^(-1)_w(1, ..., 1) = 1, so nu is 1 and c vanishes off the empty word
        for n in range(9):
            assert _nu_values(n, -1) == [1] * factorial(n), n
        values = coefficient_values(8, -1)
        assert values.pop(Permutation()) == 1
        assert set(values.values()) == {0}

    def test_nu_table_is_inverse_symmetric(self):
        for n in range(8):
            table = nu_table(n)
            for w, value in table.items():
                assert value == table[w.inverse()], w

    def test_walk_is_inverse_symmetric_above_the_default_guard(self):
        rng = random.Random(26)
        with size_guard(12):
            for n in (10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12):
                w = random_word(rng, n, 14)
                value = interval_nu(w)
                assert value == interval_nu(w.inverse()), w.text()
                assert value(-1) == 1, w.text()

    def test_vexillary_nu_is_a_flagged_jacobi_trudi_determinant(self):
        # every vexillary word through size 7 against the array product,
        # then seeded ones of sizes 10-12 against the walk
        vexillary = 0
        for n in range(8):
            table = nu_table(n)
            for w in filter(is_vexillary, all_perms(n)):
                vexillary += 1
                assert flagged_jacobi_trudi(w) == table[w].constant_term, w
        assert vexillary == 3410
        rng = random.Random(27)
        with size_guard(12):
            for n in (10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12):
                w = random_word(rng, n, 14, is_vexillary)
                assert flagged_jacobi_trudi(w) == interval_nu(w).constant_term, w.text()


def streamed_minimal_summary(n):
    """The minimal-grid summary as one pass over the grid stream builds it:
    every minimal grid adds its weight, against the length of its type, to
    the sums of its permutation.  Independent of ``minimal_sets``."""
    if n == 0:
        one = BetaPolynomial.one()
        return {Permutation(): MinimalSummary(1, 1, one, one)}
    acc = {}
    for grid in bpd_stream(n):
        if not removable_pipes(grid).minimal:
            continue
        tr = trace(grid)
        _, typ, _, _, _ = resolve_stats(grid.rows, n)
        wt = beta_weight(grid, Permutation(typ).length())
        slot = acc.setdefault(tr.perm, [0, 0, BetaPolynomial.zero(), BetaPolynomial.zero()])
        slot[0] += 1
        slot[2] = slot[2] + wt
        if tr.is_reduced:
            slot[1] += 1
            slot[3] = slot[3] + wt
    return {w: MinimalSummary(*vals) for w, vals in acc.items()}


class TestMinimalSummary:
    def test_matches_stream_oracle(self):
        for n in range(7):
            assert minimal_summary(n) == streamed_minimal_summary(n), n

    def test_counts_are_the_set_sizes(self):
        for n in range(7):
            sets = minimal_sets(n)
            assert set(minimal_summary(n)) == set(sets)
            for w, summary in minimal_summary(n).items():
                assert (summary.count_all, summary.count_reduced) == tuple(map(len, sets[w]))


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

    def test_census_sum_matches_the_table_on_layered_words_up_to_size_8(self):
        for n in range(9):
            table = coefficient_table(n)
            for w in layered(n):
                assert coefficient(w, "ie") == table[w], w

    def test_census_sum_builds_no_table(self, cold_caches):
        assert coefficient(P("143298765"), "ie")(1) == 177205856
        assert not store._TABLES

    def test_census_sum_at_the_size_10_maxima(self):
        # the argmax words of c and nu over S_10 at b = 0 and b = 1, which
        # ``maxima --n 10`` reports; both values through the walks
        rows = {"1,4,3,2,10,9,8,7,6,5": (0, 3321346, 4424420),
                "1,2,5,4,3,10,9,8,7,6": (1, 29142336728, 30350452999),
                "2,1,5,4,3,10,9,8,7,6": (1, 29142336728, 30350452999)}
        with size_guard(10):
            for text, (b, c, nu_w) in rows.items():
                w = P(text)
                assert (coefficient(w, "ie")(b), interval_nu(w)(b)) == (c, nu_w), text

    def test_ie_alias(self):
        assert coefficient(P("1243"), "ie") == coefficient(P("1243"))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            coefficient(P("12"), "newton")

    def test_table_matches_pointwise(self):
        # coefficient(w) reads the table of the size of w, so a smaller
        # word compares the transforms over S_<=n and over S_<=|w|
        for n in range(7):
            table = coefficient_table(n)
            assert list(table) == [w for m in range(n + 1) for w in all_perms(m)]
            for w in table:
                assert table[w] == coefficient(w)

    def test_guard(self):
        with size_guard(4):
            for mode in ("recursive", "ie"):
                with pytest.raises(GuardExceeded):
                    coefficient(P("12345"), mode)
            with pytest.raises(GuardExceeded):
                coefficient_table(5)

    def test_nu_leaves_get_the_callers_guard(self, cold_caches, monkeypatch):
        # below the default guard a leaf table of size 4 can only be built
        # under the caller's guard
        w, modes = P("1243"), ("recursive", "ie")
        expected = [coefficient_table(4)] + [coefficient(w, mode) for mode in modes]
        clear_caches()
        monkeypatch.setattr(store, "DEFAULT_GUARD", 3)
        with size_guard(4):
            got = [coefficient_table(4)] + [coefficient(w, mode) for mode in modes]
        assert got == expected

    def test_values_match_polynomial_evaluation(self):
        # the kernels at an integer beta against the polynomial table
        for n in range(8):
            table = coefficient_table(n)
            for beta_value in (-1, 0, 1, 2, 3):
                values = coefficient_values(n, beta_value)
                assert list(values) == list(table)
                assert values == {w: c(beta_value) for w, c in table.items()}, (n, beta_value)

    def test_deletion_maps_flatten_the_word_left(self):
        for j in range(6):
            for m, deletion in enumerate(_deletions(j, 6), start=j + 1):
                k, rank = m - j - 1, {w: r for r, w in enumerate(all_perms(m - 1))}
                assert len(deletion) == len(all_perms(m))
                for r, w in enumerate(all_perms(m)):
                    left = tuple(x - (x > w[k]) for x in w[:k] + w[k + 1:])
                    assert deletion[r] == rank[left], (m, k, w)

    def test_values_get_the_callers_guard(self, monkeypatch):
        expected = coefficient_values(4, 2)
        monkeypatch.setattr(store, "DEFAULT_GUARD", 3)
        with size_guard(4):
            assert coefficient_values(4, 2) == expected
        with pytest.raises(GuardExceeded):
            coefficient_values(4, 2)

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
        with size_guard(5), pytest.raises(GuardExceeded):
            skew_identities(Permutation.identity(3), Permutation.identity(3))


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_decodes_restore_the_collector(self, enabled, monkeypatch):
        real = BetaPolynomial.from_kronecker.__func__
        seen = []

        def spy(cls, value, bits):
            seen.append(gc.isenabled())
            return real(cls, value, bits)

        def fail(cls, value, bits):
            raise ZeroDivisionError

        bits = kronecker_bits(3)
        rows = _transform(3, [_nu_values(m, 1 << bits) for m in range(4)])
        nu_3, c_3 = nu_table(3), coefficient_table(3)
        prior = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(BetaPolynomial, "from_kronecker", classmethod(spy))
            assert _build_nu_table(3) == nu_3
            assert gc.isenabled() is enabled
            assert _by_word(rows, bits) == c_3
            assert gc.isenabled() is enabled
            # a decode that raises restores it too
            monkeypatch.setattr(BetaPolynomial, "from_kronecker", classmethod(fail))
            with pytest.raises(ZeroDivisionError):
                _by_word(rows, bits)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if prior else gc.disable)()
        # the 6 words of S_3 and the 10 of S_<=3, each decoded with the
        # collector paused
        assert len(seen) == 6 + 10 and not any(seen)


class TestCaches:
    def test_clear_caches_drops_every_memo(self, cold_caches):
        w = P("1243")
        row = BpdGrid.identity(3).rows[1]

        def removed():
            return remove(BpdGrid.from_ascii("...r\n.r-+\nrjr+\n|r++"))

        def reinserted():
            image, v = removed()
            return insert(image, v.host, v)

        def value(obj):
            # a row record has no value equality: compare its slots
            if isinstance(obj, RowRecord):
                return [getattr(obj, name) for name in RowRecord.__slots__]
            return obj

        builders = [lambda: nu_table(3), lambda: nu(w), lambda: coefficient(w),
                    lambda: grothendieck_table(3), lambda: minimal_summary(3),
                    lambda: minimal_sets(3), lambda: next(bpd_stream(3)),
                    lambda: all_perms(3), lambda: row_record(row),
                    # the shared trace of a fresh reduced grid of size 5
                    lambda: trace(BpdGrid.identity(5)),
                    # the shared weight of a fresh grid's counts
                    lambda: beta_weight(BpdGrid.identity(5), 0),
                    # the interned removal image of a fresh grid: pipe 4
                    # comes off 4132 and leaves the grid of 132
                    lambda: removed()[0],
                    # the tables that removal contracts by, and that
                    # insertion spreads and takes unit rows from
                    lambda: store._TABLES["contractions", 4],
                    reinserted,
                    lambda: store._TABLES["spreads", 4],
                    lambda: store._TABLES["unit rows", 4]]
        before = [build() for build in builders]
        assert [build() for build in builders] == before
        # a second removal of a fresh twin returns the same interned image
        assert builders[-5]() is before[-5]
        clear_caches()
        assert not store._TABLES
        after = [build() for build in builders]
        assert list(map(value, after)) == list(map(value, before))
        for old, new in zip(before, after):
            assert old is not new
