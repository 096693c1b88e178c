import hashlib
import json

import pytest

from pipedream import (CHECK_IDS, Asm, BetaPolynomial, BpdGrid, GuardExceeded,
                       Permutation, PipedreamError, SetQuery, SubwordSelection,
                       UnknownCheck, checks, count_asms_bruteforce,
                       count_asms_literal, enumerate_asm, layered, maxima_table,
                       nu, pattern_count, query, run_check, size_guard)
from pipedream import store
from pipedream.checks import MAX_COUNTEREXAMPLES, MaximaRow
from pipedream.cli import main
from pipedream.enumeration import QUERY_KINDS
from pipedream.grid import COL_MAJOR, Tile
from pipedream.perms import PATTERN_132, PATTERN_1432, all_perms, pattern_census
from pipedream.specialization import EMPTY_SUMMARY, coefficient_table, nu_table
from pipedream.store import clear_caches


def P(text):
    return Permutation.from_text(text)


class TestRunCheck:
    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_every_check_passes_at_n4(self, check_id):
        report = run_check(check_id, 4)
        assert report.passed, report.failures
        assert report.instances_checked > 0

    def test_unknown_check(self):
        with pytest.raises(UnknownCheck):
            run_check("not-a-check", 3)

    def test_guard(self):
        with size_guard(4), pytest.raises(GuardExceeded):
            run_check("thm-1243", 5)

    def test_guard_reaches_every_table(self, cold_caches, monkeypatch):
        # below the default guard the size-4 tables a check reads can only
        # be built under the guard the caller set around run_check
        def outcome(check_id):
            report = run_check(check_id, 4)
            return report.passed, report.instances_checked, report.failures

        expected = {cid: outcome(cid) for cid in CHECK_IDS}
        clear_caches()
        monkeypatch.setattr(store, "DEFAULT_GUARD", 3)
        with size_guard(4):
            assert {cid: outcome(cid) for cid in CHECK_IDS} == expected

    def test_report_text_and_json(self):
        report = run_check("stanley", 3)
        assert "stanley n=3: PASS" in report.text()
        payload = json.loads(report.to_json())
        assert payload["passed"] is True
        assert payload["instances_checked"] == 6

    def test_thm_1243_exhaustive_n5(self):
        report = run_check("thm-1243", 5)
        assert report.passed
        # every permutation of size 5 avoiding 1243 is covered
        expected = sum(1 for w in all_perms(5) if w.avoids(P("1243")))
        assert report.instances_checked == expected

    def test_upper_bound_strict_at_1243(self):
        # nu = 3 but the pattern-weighted count of minimal reduced grids is
        # 1*1 + 1*2 + 1*1 = 4: the bound is strict exactly because the
        # stratum of subword 143 is empty
        from pipedream.specialization import EMPTY_SUMMARY, minimal_summary
        from pipedream.perms import pattern_census

        w = P("1243")
        bound = 0
        for key, count in pattern_census(w).items():
            u = Permutation(key)
            bound += minimal_summary(len(key)).get(u, EMPTY_SUMMARY).count_reduced * count
        assert nu(w).constant_term == 3
        assert bound == 4

    def test_size_zero_is_an_ordinary_size(self, capsys):
        # the stream of size 0 holds the one empty matrix and grid, so
        # every check runs there like at any other size
        for check_id in CHECK_IDS:
            assert main(["verify", check_id, "--n", "0"]) == 0
            assert ": PASS (" in capsys.readouterr().out
        assert list(enumerate_asm(0)) == [Asm(())]
        assert count_asms_bruteforce(0) == count_asms_literal(0) == 1
        empty = Permutation()
        for kind in QUERY_KINDS:
            v = SubwordSelection(empty, ()) if kind.endswith("_v") else None
            assert query(SetQuery(kind, empty, v)) == [BpdGrid(())]


def _odd(grid):
    return grid.count(Tile.BLANK) % 2 == 1


# Faulty stand-ins for layer functions the check bodies call, each built
# from the real function: (name in pipedream.checks, builder).
FAULTS = {
    "insert-identity": ("insert", lambda real: lambda image, w, v: image),
    "nu-plus-one": ("nu", lambda real: lambda w, guard=None: real(w) + 1),
    "remove-unchanged": ("remove", lambda real: lambda grid: (
        (grid, real(grid)[1]) if _odd(grid) else real(grid))),
    "resolve-to-perm": ("resolve", lambda real: lambda grid, order=COL_MAJOR: (
        real(grid, order)[0], checks.trace(grid).perm)),
    "minimal-sets-short": ("minimal_sets", lambda real: lambda n, guard=None: {
        w: (a, r[:-1] if len(r) > 1 else r) for w, (a, r) in real(n).items()}),
    "minimal-summary-size3": ("minimal_summary", lambda real: lambda n, guard=None: (
        {} if n == 3 else real(n))),
    "c-odd-minus-one": ("coefficient_table", lambda real: lambda n, guard=None: {
        w: c - 1 if w.length() % 2 else c for w, c in real(n).items()}),
    "pattern-count-plus": ("pattern_count", lambda real: lambda u, w: (
        real(u, w) + (w.length() == 2))),
    "witness-empty": ("nonreduced_witness", lambda real: lambda grid: (
        None if _odd(grid) else real(grid))),
    "weight-odd-plus-one": ("beta_weight", lambda real: lambda grid, ref: (
        real(grid, ref) + 1 if _odd(grid) else real(grid, ref))),
    "skew-swapped": ("skew_sum", lambda real: lambda u, v: real(v, u)),
}

# The outcome of every check at n = 1..5 under each fault: the sha256 of
# the outcomes, the number of failing reports and the number of reports
# stopped at the cap.  A change to the check layer must leave them as
# they are.
FAULT_PINS = {
    "c-odd-minus-one": ("adf1aaac3b3feca466e314761bbd89db2cb8fcbb9f0eef80216835b7f6c0ad5e", 12, 6),
    "insert-identity": ("34878862d67f94528b169bf61c292f4555a0bafbbf714ba531d9a2d7a145132f", 10, 4),
    "minimal-sets-short": ("7f289ffdb64771a11a217dc5803ae3c60472074e6539ab620bbd8762d9a0a723", 1, 0),
    "minimal-summary-size3": ("047137483b107654e12e549c675756e966972436bd6725a34a704102ae0c5c6b", 12, 6),
    "none": ("4e9acef112f94996595f1f006ba6d48d64e2baad7e2a1629f863d61aa1356a2a", 0, 0),
    "nu-plus-one": ("14b8444f78c4cc2efec46828f27e50c87c5bef010ae28400f8abed61827b08e1", 25, 10),
    "pattern-count-plus": ("3521478c935d5c21baacd85e2aa6dac1aadcb276e4f449ed29e969db4eba3e22", 3, 0),
    "remove-unchanged": ("37bea5e97e7857a5f032d1bae4c9bb8dc89ffbc059e8331aa95f8977c74864de", 4, 2),
    "resolve-to-perm": ("288fd620f5987efa2feb3a144871e16a8a14fcb4e89ff2012516a28b85d1ca9d", 4, 2),
    "skew-swapped": ("3a00ed5f41d05dc9347cd65e530dd73616a751f5da8782d5fdee7aac43b00ec6", 3, 2),
    "weight-odd-plus-one": ("3b661d0d3d791a30320e19e929e5aa96ca57d7bd32e1f9ffb33bd12ebdc22c76", 4, 2),
    "witness-empty": ("898e48947594d815bdc268fbfafd94044977abe35b0a794ccbb4c323c9c1baa1", 2, 1),
}


def _outcome(check_id, n):
    try:
        report = run_check(check_id, n)
    except PipedreamError as exc:  # a faulty layer may make a check raise
        return ["raised", type(exc).__name__, str(exc)]
    return [report.passed, report.instances_checked, list(report.failures)]


def _inject(monkeypatch, fault):
    attr, make = FAULTS[fault]
    monkeypatch.setattr(checks, attr, make(getattr(checks, attr)))


class TestFailurePaths:
    @pytest.mark.parametrize("fault", sorted(FAULT_PINS))
    def test_reports_under_injected_faults(self, fault, monkeypatch):
        if fault in FAULTS:
            _inject(monkeypatch, fault)
        outcomes = {cid: [_outcome(cid, n) for n in range(1, 6)] for cid in CHECK_IDS}
        reports = [o for runs in outcomes.values() for o in runs if o[0] is False]
        capped = [o for o in reports if len(o[2]) == MAX_COUNTEREXAMPLES]
        digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert (digest, len(reports), len(capped)) == FAULT_PINS[fault]

    def test_counterexamples_stop_at_the_cap(self, monkeypatch):
        _inject(monkeypatch, "nu-plus-one")
        report = run_check("stanley", 5)
        assert len(report.failures) == MAX_COUNTEREXAMPLES
        # the instance count of a whole-group sweep does not shrink at the cap
        assert report.instances_checked == 120
        assert report.text().count("counterexample:") == MAX_COUNTEREXAMPLES


class TestIntroBounds:
    def test_stanley_equivalence(self):
        for n in range(7):
            assert run_check("stanley", n).passed

    def test_132_1432_lower_bound(self):
        for n in range(7):
            for w in all_perms(n):
                bound = 1 + pattern_count(PATTERN_132, w) + pattern_count(PATTERN_1432, w)
                assert nu(w).constant_term >= bound

    def test_pattern_sum_through_size_six(self):
        for n in range(7):
            assert run_check("pattern-sum", n).passed


def _census_sum(w, summaries, field):
    """The pattern-weighted sum over w's census, one word at a time: the
    oracle of the bound checks' zeta sums."""
    total = BetaPolynomial.zero()
    for key, count in pattern_census(w).items():
        total = total + count * getattr(summaries[len(key)].get(key, EMPTY_SUMMARY), field)
    return total


class TestMinimalSums:
    @pytest.mark.parametrize("fault", ["none", "minimal-summary-size3"])
    def test_zeta_sums_match_the_census_form(self, fault, monkeypatch):
        # under the fault every size-3 summary is missing and counts as 0
        # the sums are of weight_reduced; their constant terms, which the
        # count bounds read, are the sums of count_reduced
        if fault in FAULTS:
            _inject(monkeypatch, fault)
        summaries, sums = checks._minimal_sums(6)
        assert (summaries[3] == {}) == (fault != "none")
        assert len(sums) == sum(len(all_perms(m)) for m in range(7))
        for m in range(7):
            for w in all_perms(m):
                assert sums[w] == _census_sum(w, summaries, "weight_reduced"), w
                assert BetaPolynomial.const(sums[w].constant_term) == _census_sum(
                    w, summaries, "count_reduced"), w


EXPECTED_MAXIMA = {
    0: (1, 1, ("",)),
    1: (1, 0, ("1",)),
    2: (1, 0, ("12", "21")),
    3: (3, 2, ("132",)),
    4: (11, 4, ("1432",)),
    5: (71, 44, ("12543", "21543")),
    6: (1101, 828, ("132654",)),
}


class TestMaxima:
    @pytest.mark.parametrize("n", sorted(EXPECTED_MAXIMA))
    def test_small_rows(self, n):
        max_nu, max_c, argmax = EXPECTED_MAXIMA[n]
        row = maxima_table(n, 1)
        assert row.max_nu == max_nu
        assert row.max_c == max_c
        assert tuple(w.text() for w in row.argmax_nu) == argmax
        assert row.argmax_nu == row.argmax_c

    def test_argmaxes_layered(self):
        for n in range(6):
            row = maxima_table(n, 1)
            layer = set(layered(n))
            assert set(row.argmax_nu) <= layer
            assert set(row.argmax_c) <= layer

    def test_beta_zero_row(self):
        row = maxima_table(4, 0)
        assert row.max_nu == 5  # attained by 1432
        assert row.max_c == 1
        assert P("1432") in row.argmax_nu

    @pytest.mark.parametrize("n", range(8))
    def test_rows_match_the_tables_at_every_beta(self, n):
        # the integer kernels against both polynomial tables at each beta
        perms = all_perms(n)
        for beta_value in (-1, 0, 1, 2, 3):
            nu_vals = [nu_table(n)[w](beta_value) for w in perms]
            c_vals = [coefficient_table(n)[w](beta_value) for w in perms]
            max_nu, max_c = max(nu_vals), max(c_vals)
            expected = MaximaRow(
                n, beta_value, max_nu, max_c,
                tuple(sorted(w for w, v in zip(perms, nu_vals) if v == max_nu)),
                tuple(sorted(w for w, v in zip(perms, c_vals) if v == max_c)))
            assert maxima_table(n, beta_value) == expected

    def test_guard_reaches_the_kernels(self, monkeypatch):
        expected = maxima_table(4, 2)
        monkeypatch.setattr(store, "DEFAULT_GUARD", 3)
        with size_guard(4):
            assert maxima_table(4, 2) == expected
        with pytest.raises(GuardExceeded):
            maxima_table(4, 2)

    def test_cli_names_parse_back_from_size_10(self, monkeypatch, capsys):
        # from size 10 a word's letters are comma-separated, so the words
        # of an argmax set are joined with semicolons
        words = (P("1,2,3,4,5,6,7,10,9,8"), P("1,3,2,10,9,8,7,6,5,4"))
        monkeypatch.setattr(checks, "maxima_table", lambda n, beta_value:
                            MaximaRow(n, beta_value, 1, 1, words, words[1:]))
        assert main(["--guard", "10", "maxima", "--n", "10"]) == 0
        fields = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
        assert tuple(map(P, fields["argmax_nu"].split(";"))) == words
        assert tuple(map(P, fields["argmax_c"].split(";"))) == words[1:]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            maxima_table(12, 1)
        with pytest.raises(GuardExceeded):
            maxima_table(-1, 1)
