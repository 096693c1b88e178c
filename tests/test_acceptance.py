"""End-to-end acceptance suite.

Every criterion is pinned to its exact expected values and its exhaustive
size schedule; each test prints one PASS line on success so a full run
reads as a checklist.  Size 9, and the grid and minimal-grid bound checks
at size 7, are opt-in via the ``slow`` marker.
"""

import hashlib

import pytest

from pipedream import (BetaPolynomial, Permutation, coefficient,
                       count_asms_bruteforce, grothendieck, maxima_table, nu,
                       query, remove, removable_pipes, resolve, run_check,
                       to_asm, trace)
from pipedream.enumeration import bpd_stream, enumerate_asm
from pipedream.perms import all_perms
from pipedream.specialization import coefficient_table, nu_table
from conftest import contract_oracle, load_asm, load_grid


def P(text):
    return Permutation.from_text(text)


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _table_digest(table):
    """sha256 of a {Permutation: value} map, one sorted line per entry."""
    text = "\n".join(f"{w.text()} {table[w]}" for w in sorted(table))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the exact coefficient tables: sizes 7 and 8 were cross-checked
# against the signed subword sum when they were pinned, and size 9, where
# the integer kernels' slot width is widest, was taken from the transform
# run on polynomials
C_TABLE_DIGESTS = {
    7: "ab4a445b01a94ca3a37ace740d71e87e2e9dbb6742f19008f4e9c5bba063bdce",
    8: "28be53380373f3d19d5f08a5aa1cc0e4af7157c903710efb9acbbfcd28b9e501",
    9: "85f4f7375c4773a3268c2f1937a30e1742a1ef6a2f4d2dca9e9ab3e34d0f65e1",
}


def test_criterion_1_figure_fixtures():
    """Committed figure fixtures reproduce every stated value, exactly."""
    bpd_1 = load_grid("fig_bpd_1")
    bpd_2 = load_grid("fig_bpd_2")
    bpd_k = load_grid("fig_bpd_K")
    assert trace(bpd_1).perm == P("2164753")
    assert trace(bpd_2).perm == P("2346175")
    assert not trace(bpd_1).is_reduced
    assert trace(bpd_2).is_reduced

    resolved, typ = resolve(bpd_1)
    assert typ == P("4261753")
    assert resolved.to_ascii() == bpd_k.to_ascii()

    assert to_asm(bpd_1) == load_asm("fig_asm")

    report = removable_pipes(bpd_1)
    # entry columns 4 and 6; the second hook leaves through row 3, the row
    # where 2164753 takes the value 6
    assert report.pipes == ((4, 4), (6, 3))
    assert report.subword.values() == (2, 1, 7, 5, 3)

    image, v = remove(bpd_1)
    assert trace(image).perm == P("21543")
    assert image == load_grid("fig_phi_image")

    red = [load_grid(f"fig_red_bpd_{k}") for k in (1, 2, 3, 4)]
    family = query("BPD", P("1243"))
    assert len(family) == 4
    assert set(family) == set(red)
    assert sum(1 for g in family if trace(g).is_reduced) == 3

    minimal_right = load_grid("fig_min_bpd_right")
    assert trace(minimal_right).perm == P("2164753")
    assert removable_pipes(minimal_right).minimal
    _report("1 figure-fixtures")


def test_criterion_2_coefficient_ground_truth():
    """Exact coefficient values through size 4, plus the 1243 pair."""
    ones = {Permutation(), P("132"), P("1432")}
    for n in range(5):
        for w in all_perms(n):
            expected = 1 if w in ones else 0
            assert coefficient(w).constant_term == expected, w
    assert coefficient(P("1243")) == BetaPolynomial.from_coeffs([0, 1, 1])
    assert coefficient(P("1243")).constant_term == 0
    _report("2 coefficient-ground-truth")


MAXIMA_EXPECTED = {
    0: (1, 1, ("",)),
    1: (1, 0, ("1",)),
    2: (1, 0, ("12", "21")),
    3: (3, 2, ("132",)),
    4: (11, 4, ("1432",)),
    5: (71, 44, ("12543", "21543")),
    6: (1101, 828, ("132654",)),
    7: (38259, 32160, ("1327654",)),
}


def test_criterion_3_maxima_table():
    """The beta = 1 maxima for sizes 0..7, values and winners."""
    for n, (max_nu, max_c, argmax) in MAXIMA_EXPECTED.items():
        row = maxima_table(n, 1)
        assert row.max_nu == max_nu, n
        assert row.max_c == max_c, n
        assert tuple(w.text() for w in row.argmax_nu) == argmax, n
        assert row.argmax_nu == row.argmax_c, n
    _report("3 maxima-table n<=7")


THEOREM_SCHEDULE = [
    ("bijection-roundtrip", range(1, 6)),
    ("upper-bound", range(1, 6)),
    ("thm-1243", range(1, 7)),
    ("reduced-restriction", range(1, 7)),
    ("weight-preservation", range(1, 7)),
    ("vexillary-K", range(1, 6)),
    ("nonreduced-pattern", range(1, 6)),
    ("groth-1243-2143", range(1, 7)),
    ("skew", range(0, 8)),
]


@pytest.mark.parametrize("check_id,sizes", THEOREM_SCHEDULE,
                         ids=[c for c, _ in THEOREM_SCHEDULE])
def test_criterion_4_theorem_suite(check_id, sizes):
    """Exhaustive named checks at their full acceptance sizes."""
    for n in sizes:
        report = run_check(check_id, n)
        assert report.passed, (check_id, n, report.failures)
    _report(f"4 theorem-suite {check_id}")


def test_criterion_4_upper_bound_strictness():
    """At 1243 the bound exceeds nu by exactly one: 3 < 1 + 2 + 1."""
    from pipedream.perms import pattern_census
    from pipedream.specialization import EMPTY_SUMMARY, minimal_summary

    w = P("1243")
    bound = 0
    for key, count in pattern_census(w).items():
        u = Permutation(key)
        bound += minimal_summary(len(key)).get(u, EMPTY_SUMMARY).count_reduced * count
    assert nu(w).constant_term == 3
    assert bound == 4
    _report("4 upper-bound-strictness w=1243")


def test_criterion_5_conjecture_sweeps():
    """Nonnegativity of the coefficients, constant term and coefficientwise,
    for every permutation of every size through 7."""
    table = coefficient_table(7)
    negatives = [w for w, c in table.items() if c.constant_term < 0]
    non_monotone = [w for w, c in table.items() if not c.is_nonnegative()]
    assert negatives == []
    assert non_monotone == []
    assert _table_digest(table) == C_TABLE_DIGESTS[7]
    _report("5 conjecture-sweeps n<=7")


def test_criterion_6_oracle_equivalences():
    """Independent oracles agree with the production paths."""
    assert [count_asms_bruteforce(n) for n in (1, 2, 3, 4)] == [1, 2, 7, 42]
    assert [sum(1 for _ in enumerate_asm(n)) for n in (1, 2, 3, 4)] == [1, 2, 7, 42]

    for n in range(7):
        for w in all_perms(n):
            assert coefficient(w, "recursive") == coefficient(w, "ie")

    for n in range(1, 6):
        for grid in bpd_stream(n):
            image, _ = remove(grid)
            assert image == contract_oracle(grid)

    for n in range(1, 6):
        report = run_check("bk-order", n)
        assert report.passed
    _report("6 oracle-equivalences")


def test_criterion_7_identity_chain():
    """Weight sum, reduced count, and the all-ones substitution agree."""
    for n in range(6):
        table = nu_table(n)
        for w in all_perms(n):
            via_weights = table[w]
            via_count = len(query("bpd", w))
            via_poly = grothendieck(w).all_ones()
            assert via_weights == via_poly, w
            assert via_weights.constant_term == via_count, w
    _report("7 identity-chain n<=5")


# -- size 8 --------------------------------------------------------------------


def test_maxima_n8():
    row = maxima_table(8, 1)
    assert row.max_nu == 1711251
    assert row.max_c == 1501128
    assert tuple(w.text() for w in row.argmax_nu) == ("13287654",)
    assert row.argmax_nu == row.argmax_c
    _report("maxima n=8")


def test_conjecture_sweep_n8():
    table = coefficient_table(8)
    for w in all_perms(8):
        assert table[w].is_nonnegative(), w
    assert _table_digest(table) == C_TABLE_DIGESTS[8]
    _report("conjecture-sweep n=8")


# -- opt-in larger sweeps ------------------------------------------------------


@pytest.mark.slow
def test_maxima_n9():
    row = maxima_table(9, 1)
    assert row.max_nu == 190013835
    assert row.max_c == 177205856
    assert tuple(w.text() for w in row.argmax_nu) == ("143298765",)
    assert row.argmax_nu == row.argmax_c
    _report("slow maxima n=9")


@pytest.mark.slow
def test_maxima_n9_beta_zero():
    row = maxima_table(9, 0)
    assert row.max_c == 109294
    assert P("132987654") in row.argmax_c
    assert P("132987654") in row.argmax_nu
    _report("slow maxima n=9 beta=0")


@pytest.mark.slow
def test_conjecture_sweep_n9():
    table = coefficient_table(9)
    for w in all_perms(9):
        assert table[w].is_nonnegative(), w
    assert _table_digest(table) == C_TABLE_DIGESTS[9]
    _report("slow conjecture-sweep n=9")


# grid checks at size 7 with their instance counts: every 7x7 ASM, the
# vexillary words of S_7, the nonreduced grids of size 7, and the reduced
# grids of the 1243-avoiders of S_7 and of all of S_7, that is, the sum of
# nu_w(0) over those words
GRID_CHECKS_N7 = {"bk-order": 218348, "vexillary-K": 2761, "nonreduced-pattern": 67977,
                  "bijection-roundtrip": 218348, "reduced-restriction": 40136,
                  "weight-preservation": 150371}


@pytest.mark.slow
@pytest.mark.parametrize("check_id", sorted(GRID_CHECKS_N7))
def test_grid_checks_n7(check_id):
    report = run_check(check_id, 7)
    assert report.passed, report.failures
    assert report.instances_checked == GRID_CHECKS_N7[check_id]
    _report(f"slow {check_id} n=7")


# the minimal-grid bound checks at size 7 in one process, whose
# pattern-weighted sums come from one zeta transform over S_<=7, with their
# instance counts: all of S_7, its 1243-avoiders, and its words avoiding
# both 1243 and 2143
BOUND_CHECKS_N7 = {"upper-bound": 5040, "thm-1243": 2761, "groth-1243-2143": 1806}


@pytest.mark.slow
def test_bound_checks_n7():
    for check_id, instances in BOUND_CHECKS_N7.items():
        report = run_check(check_id, 7)
        assert report.passed, (check_id, report.failures)
        assert report.instances_checked == instances, check_id
    _report("slow bound checks n=7")
