from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedream import (NotAPermutation, Permutation, SubwordSelection,
                       is_vexillary, layered, pattern_count, skew_sum,
                       subwords)
from pipedream.ktheory import _first_occurrence
from pipedream.perms import (PATTERN_132, PATTERN_1243, PATTERN_2143,
                             all_perms, occurrences, pattern_census, ranks)


def P(text):
    return Permutation.from_text(text)


class TestParse:
    def test_paper_word(self):
        w = Permutation([2, 1, 6, 4, 7, 5, 3])
        assert w.size == 7
        assert w.text() == "2164753"

    def test_empty(self):
        assert Permutation([]).size == 0
        assert Permutation.from_text("") == Permutation()

    def test_repeated_entry_rejected(self):
        with pytest.raises(NotAPermutation):
            Permutation([1, 1, 2])

    def test_out_of_range_rejected(self):
        with pytest.raises(NotAPermutation):
            Permutation([2, 3])

    @pytest.mark.parametrize("text", [",", "1,,2", "1,a", "1 2", "12a", "1,2,"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(NotAPermutation):
            Permutation.from_text(text)

    def test_comma_form(self):
        w = Permutation.from_text("10,1,2,3,4,5,6,7,8,9")
        assert w.size == 10
        assert w.text() == "10,1,2,3,4,5,6,7,8,9"

    @given(st.permutations(list(range(1, 9))))
    def test_text_round_trip(self, word):
        w = Permutation(word)
        assert Permutation.from_text(w.text()) == w


class TestLength:
    def test_empty(self):
        assert Permutation().length() == 0

    def test_paper_word(self):
        assert P("2164753").length() == 8

    def test_skew_sum_cross_check(self):
        # 35421 = 132 (-) 21: blocks contribute 3*2 plus the part lengths
        w = skew_sum(P("132"), P("21"))
        assert w == P("35421")
        assert w.length() == 8
        assert w.length() == 3 * 2 + P("132").length() + P("21").length()

    def test_length_equals_21_count(self):
        # against both definitions: 21 patterns, and pairs out of order
        for n in range(8):
            for w in all_perms(n):
                assert w.length() == pattern_count(P("21"), w)
                assert w.length() == sum(a > b for a, b in combinations(w, 2))


class TestFlatten:
    def test_paper_example(self):
        host = P("12453")
        sel = SubwordSelection.of_values(host, (2, 5, 3))
        assert sel.values() == (2, 5, 3)
        assert sel.pattern() == P("132")

    def test_full_word_is_identity_selection(self):
        w = P("2164753")
        assert SubwordSelection.full(w).pattern() == w

    def test_subword_21753(self):
        sel = SubwordSelection.of_values(P("2164753"), (2, 1, 7, 5, 3))
        assert sel.indices == (1, 2, 5, 6, 7)
        assert sel.pattern() == P("21543")

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            SubwordSelection(P("123"), (2, 2))

    def test_public_flatten_keeps_its_check(self):
        # only a selection's pattern skips the check, and a selection's host
        # is checked: a word with a repeated letter has repeated ranks
        with pytest.raises(NotAPermutation):
            Permutation(ranks((2, 2)))
        with pytest.raises(NotAPermutation):
            SubwordSelection((2, 2, 1), (1, 2))
        assert SubwordSelection((2, 3, 1), (1, 2)).pattern() == P("12")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 200), unique=True, max_size=12).map(tuple))
    def test_ranks_equal_a_sorted_oracle(self, values):
        # values above 64 included: the bitmask of the letters is a Python int
        rank = {v: r for r, v in enumerate(sorted(values), start=1)}
        assert ranks(values) == tuple(rank[v] for v in values)

    def test_pattern_matches_checked_flatten(self):
        for n in range(6):
            for w, m in product(all_perms(n), range(n + 1)):
                for sel in subwords(w, m):
                    pattern = sel.pattern()
                    assert type(pattern) is Permutation
                    assert pattern == Permutation(ranks(sel.values()))


class TestSubwords:
    def test_size_zero(self):
        sels = list(subwords(P("132"), 0))
        assert len(sels) == 1
        assert sels[0].pattern() == Permutation()

    def test_full_size(self):
        sels = list(subwords(P("132"), 3))
        assert len(sels) == 1

    def test_counts(self):
        assert len(list(subwords(P("1243"), 3))) == 4

    def test_lexicographic_order(self):
        idx = [s.indices for s in subwords(P("1243"), 2)]
        assert idx == sorted(idx)

    def test_size_out_of_range(self):
        for m in (-1, 4):
            with pytest.raises(ValueError, match="out of range"):
                list(subwords(P("132"), m))

    def test_census_totals(self):
        # the patterns of each size add up to the number of index subsets
        from math import comb

        for n in range(8):
            for w in all_perms(n):
                census = pattern_census(w)
                by_size = {}
                for key, count in census.items():
                    by_size[len(key)] = by_size.get(len(key), 0) + count
                for m in range(n + 1):
                    assert by_size.get(m, 0) == comb(n, m)


class TestPatternCount:
    def test_avoidance_example(self):
        # 12453 avoids 2143; the near-miss 21453 contains it twice
        assert pattern_count(P("2143"), P("12453")) == 0
        assert pattern_count(P("2143"), P("21453")) == 2

    def test_empty_pattern(self):
        for w in (Permutation(), P("1"), P("2164753")):
            assert pattern_count(Permutation(), w) == 1

    def test_132_in_1243(self):
        assert pattern_count(P("132"), P("1243")) == 2

    def test_132_in_1432(self):
        assert pattern_count(P("132"), P("1432")) == 3

    def test_contains_avoids(self):
        assert P("12453").contains(P("132"))
        assert P("12453").avoids(P("2143"))

    def test_value_order_matches_the_ranks_definition(self):
        # every pattern of size <= 4 in every word of size <= 6, against the
        # subwords whose ranks spell the pattern
        for n in range(7):
            for w in all_perms(n):
                for k in range(min(n, 4) + 1):
                    by_ranks = {}
                    for idx in combinations(range(1, n + 1), k):
                        values = tuple(w[i - 1] for i in idx)
                        by_ranks.setdefault(ranks(values), []).append((values, idx))
                    for u in all_perms(k):
                        want = by_ranks.get(u, [])
                        assert list(occurrences(u, w)) == [values for values, _ in want]
                        assert pattern_count(u, w) == len(want)
                        assert w.contains(u) == bool(want) == (not w.avoids(u))
                        first = _first_occurrence(u, w)
                        assert first == (SubwordSelection(w, want[0][1]) if want else None)


class TestSkewSum:
    def test_trivial(self):
        assert skew_sum(P("1"), P("1")) == P("21")

    def test_definition(self):
        assert skew_sum(P("132"), P("21")) == P("35421")

    def test_empty_left(self):
        v = P("1243")
        assert skew_sum(Permutation(), v) == v

    def test_length_additive_exhaustive(self):
        for m in range(9):
            for n in range(9 - m):
                for u in all_perms(m):
                    lu = u.length()
                    for v in all_perms(n):
                        w = skew_sum(u, v)
                        assert w.length() == m * n + lu + v.length()

    @given(st.data())
    @settings(max_examples=60)
    def test_length_additive_random(self, data):
        m = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 8 - m))
        u = Permutation(data.draw(st.permutations(list(range(1, m + 1)))))
        v = Permutation(data.draw(st.permutations(list(range(1, n + 1)))))
        assert skew_sum(u, v).length() == m * n + u.length() + v.length()


class TestLayered:
    def test_size_two(self):
        assert layered(2) == [P("12"), P("21")]

    def test_size_four(self):
        out = layered(4)
        assert len(out) == 8
        assert P("1432") in out
        assert P("2143") in out

    def test_size_nine_contains_table_entry(self):
        assert P("143298765") in layered(9)

    def test_counts(self):
        for n in range(1, 8):
            assert len(layered(n)) == 2 ** (n - 1)

    def test_negative_size(self):
        with pytest.raises(ValueError, match="nonnegative"):
            layered(-1)

    def test_layered_patterns(self):
        # layered words are exactly the {231, 312}-avoiders; note that 1243
        # and 2143 are themselves layered, so those patterns do occur
        p231, p312 = P("231"), P("312")
        for n in range(7):
            expected = {w for w in all_perms(n)
                        if w.avoids(p231) and w.avoids(p312)}
            assert set(layered(n)) == expected
        assert P("1243") in layered(4)
        assert not P("1243").avoids(PATTERN_1243)
        assert P("2143") in layered(4)
        assert not P("2143").avoids(PATTERN_2143)

    def test_lexicographic_order(self):
        for n in range(9):
            assert layered(n) == sorted(set(layered(n)))


def test_is_vexillary_avoids_2143():
    for w in all_perms(5):
        assert is_vexillary(w) == w.avoids(PATTERN_2143)


def test_named_patterns():
    assert PATTERN_132 == P("132")
    assert Permutation(ranks((4, 1, 9, 7))).text() == "2143"
