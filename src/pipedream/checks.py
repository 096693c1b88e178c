"""Named machine checks for every statement the library implements.

Each check sweeps all permutations (and where relevant, all grids) of one
size, from 0 up, and reports counterexamples instead of asserting, so a
falsified statement surfaces as data.  A check body counts its instances
and files its counterexamples on a ``_Tally``, which stops the body at the
``MAX_COUNTEREXAMPLES``-th one.  The removal checks share one stratum
comparison (``_compare_strata``) and the bound checks one zeta transform
over the minimal grids (``_minimal_sums``).  The default size schedule
lives in the test suite; heavier sizes are opt-in.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, defaultdict
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .enumeration import bpd_stream, check_guard, removable_pipes
from .errors import CHECK_IDS, CheckFailed, UnknownCheck, WitnessNotFound
from .grid import BpdGrid, Tile, trace
from .ktheory import (COL_MAJOR, ROW_MAJOR, beta_weight, nonreduced_witness,
                      resolve)
from .perms import (PATTERN_132, PATTERN_1243, PATTERN_2143, Permutation,
                    all_perms, layered, pattern_census, pattern_count,
                    ranks, skew_sum)
from .polynomials import BetaPolynomial, kronecker_bits
from .removal import insert, remove
from .specialization import (EMPTY_SUMMARY, _by_word, _nu_values, _transform,
                             coefficient, coefficient_table, minimal_sets,
                             minimal_summary, nu, skew_identities)

MAX_COUNTEREXAMPLES = 10


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    n: int
    instances_checked: int
    failures: tuple[str, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.check_id} n={self.n}: {status} ({self.instances_checked} instances)"
        for f in self.failures:
            line += f"\n  counterexample: {f}"
        return line

    def to_json(self) -> str:
        return json.dumps({
            "check_id": self.check_id,
            "n": self.n,
            "instances_checked": self.instances_checked,
            "failures": list(self.failures),
            "passed": self.passed,
            "elapsed": self.elapsed,
        }, separators=(",", ":"))


class _CapReached(Exception):
    """Ends a check body at the last counterexample its report keeps."""


class _Tally:
    """The instances a check body covered and the counterexamples it found;
    it holds no guard, as the body's lookups read ``store.size_guard``."""

    def __init__(self):
        self.instances = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        if len(self.failures) >= MAX_COUNTEREXAMPLES:
            raise _CapReached


def _grid_fixture(grid: BpdGrid) -> str:
    return "/".join("".join(t.char for t in row) for row in grid.rows)


def _minimal_sums(n):
    """The minimal-grid summaries of sizes 0..n, and the sum of their
    ``weight_reduced`` over the subwords of every w in S_<=n (a missing one
    counts 0), whose constant term sums ``count_reduced``."""
    summaries = [minimal_summary(m) for m in range(n + 1)]
    bits = kronecker_bits(n)
    leaves = [[summary.get(w, EMPTY_SUMMARY).weight_reduced.to_kronecker(bits)
               for w in all_perms(m)] for m, summary in enumerate(summaries)]
    return summaries, _by_word(_transform(n, leaves, sign=1), bits)


def _compare_strata(tally, words, strata, predict, describe):
    """Match the stratum of every subword of every word in ``words``, empty
    strata included, with ``predict`` of the subword's flattened pattern,
    given as a tuple of ranks.

    ``strata`` is a defaultdict keyed by (word, indices), read without
    adding keys; ``describe(got, want)`` words a mismatch.  ``predict``
    runs once per value tuple, however many words share it.
    """
    empty = strata.default_factory()
    predicted = {}  # value tuple -> prediction of its pattern
    for w in words:
        positions = range(1, len(w) + 1)
        for m in range(len(w) + 1):
            for indices, values in zip(combinations(positions, m), combinations(w, m)):
                got = strata.get((w, indices), empty)
                want = predicted.get(values)
                if want is None:
                    want = predicted[values] = predict(ranks(values))
                if got != want:
                    tally.fail(f"stratum w={w.text()} indices={indices}: {describe(got, want)}")


def _check_upper_bound(n, tally):
    """nu is at most the pattern-weighted count of minimal reduced grids."""
    _, sums = _minimal_sums(n)
    tally.instances = len(all_perms(n))
    for w in all_perms(n):
        lhs = nu(w).constant_term
        rhs = sums[w].constant_term
        if lhs > rhs:
            tally.fail(f"{w.text()}: nu={lhs} > bound={rhs}")


def _check_thm_1243(n, tally):
    """For 1243-avoiding w the upper bound is an equality and the
    coefficient counts the minimal reduced grids."""
    summaries, sums = _minimal_sums(n)
    for w in all_perms(n):
        if w.contains(PATTERN_1243):
            continue
        tally.instances += 1
        lhs = nu(w).constant_term
        rhs = sums[w].constant_term
        c_w = coefficient(w).constant_term
        mbpd_count = summaries[n].get(w, EMPTY_SUMMARY).count_reduced
        if lhs != rhs:
            tally.fail(f"{w.text()}: nu={lhs} != sum={rhs}")
        elif c_w != mbpd_count:
            tally.fail(f"{w.text()}: c={c_w} != |mbpd|={mbpd_count}")


def _check_vexillary_k(n, tally):
    """Vexillary w: the type-w grids are exactly the reduced perm-w grids;
    add 1243-avoidance and all perm-w grids are reduced.

    One pass over the stream counts both families of every w and notes
    each w that some grid lies in for one family and not the other, so
    no grid is held.
    """
    of_type = Counter()   # w -> number of grids of type w
    reduced = Counter()   # w -> number of reduced grids of permutation w
    differ = set()        # the w whose two families differ
    nonreduced = set()    # the permutations of nonreduced grids
    for grid in bpd_stream(n):
        tr = trace(grid)
        _, typ = resolve(grid)
        of_type[typ] += 1
        if not tr.is_reduced:
            nonreduced.add(tr.perm)
            differ.add(typ)
            continue
        reduced[tr.perm] += 1
        if typ != tr.perm:
            differ.update((typ, tr.perm))
    for w in all_perms(n):
        if w.contains(PATTERN_2143):
            continue
        tally.instances += 1
        if w in differ:
            tally.fail(f"{w.text()}: |BPD_K|={of_type[w]} differs from |bpd|={reduced[w]}")
        elif w.avoids(PATTERN_1243) and w in nonreduced:
            tally.fail(f"{w.text()}: nonreduced grid despite avoiding 1243 and 2143")


def _check_nonreduced_pattern(n, tally):
    """Every nonreduced grid forces 1243 or 2143 in its permutation
    (by crossing parity) and 2143 in its type."""
    for grid in bpd_stream(n):
        tr = trace(grid)
        if tr.is_reduced:
            continue
        tally.instances += 1
        w = tr.perm
        _, typ = resolve(grid)
        for a, b, count in tr.multi_crossing_pairs():
            pattern = PATTERN_1243 if count % 2 == 0 else PATTERN_2143
            if not w.contains(pattern):
                tally.fail(f"{_grid_fixture(grid)}: pipes {a},{b} cross {count}x but "
                           f"{w.text()} avoids {pattern.text()}")
        if not typ.contains(PATTERN_2143):
            tally.fail(f"{_grid_fixture(grid)}: type {typ.text()} avoids 2143")
        try:
            if nonreduced_witness(grid) is None:
                tally.fail(f"{_grid_fixture(grid)}: witness came back empty")
        except WitnessNotFound as exc:
            tally.fail(f"{_grid_fixture(grid)}: {exc}")


def _check_bijection_roundtrip(n, tally):
    """remove is a bijection onto the minimal grids of the flattened
    subword, with insert as its inverse, for every permutation and subword."""
    strata = defaultdict(set)
    for grid in bpd_stream(n):
        tally.instances += 1
        image, v = remove(grid)
        u = v.pattern()
        report = removable_pipes(image)
        if report.trace.perm != u:
            tally.fail(f"{_grid_fixture(grid)}: image permutation is not {u.text()}")
        if not report.minimal:
            tally.fail(f"{_grid_fixture(grid)}: image not minimal")
        if insert(image, v.host, v) != grid:
            tally.fail(f"{_grid_fixture(grid)}: insert(remove(B)) differs")
        strata[v.host, v.indices].add(image)
    sets = [minimal_sets(m) for m in range(n + 1)]
    _compare_strata(tally, all_perms(n), strata,
                    lambda u: set(sets[len(u)].get(u, ((), ()))[0]),
                    lambda got, want: f"{len(got)} images vs {len(want)} minimal grids")


def _check_reduced_restriction(n, tally):
    """For 1243-avoiding w, remove restricts to a bijection between the
    reduced stratum of every subword and the minimal reduced grids."""
    avoiders = [w for w in all_perms(n) if w.avoids(PATTERN_1243)]
    avoiding = set(avoiders)
    strata = defaultdict(set)
    for grid in bpd_stream(n):
        tr = trace(grid)
        if not tr.is_reduced or tr.perm not in avoiding:
            continue
        tally.instances += 1
        image, v = remove(grid)
        if not trace(image).is_reduced:
            tally.fail(f"{_grid_fixture(grid)}: image not reduced")
        if insert(image, v.host, v) != grid:
            tally.fail(f"{_grid_fixture(grid)}: round trip differs")
        strata[v.host, v.indices].add(image)
    sets = [minimal_sets(m) for m in range(n + 1)]
    _compare_strata(tally, avoiders, strata,
                    lambda u: set(sets[len(u)].get(u, ((), ()))[1]),
                    lambda got, want: f"image set has {len(got)} grids, minimal "
                                      f"reduced set has {len(want)}")


def _check_weight_preservation(n, tally):
    """Removal preserves the weight of each reduced grid, and for
    1243-avoiding w each reduced stratum matches the minimal reduced
    weight of its pattern in aggregate."""
    avoiders = [w for w in all_perms(n) if w.avoids(PATTERN_1243)]
    avoiding = set(avoiders)
    strata = defaultdict(BetaPolynomial.zero)
    for grid in bpd_stream(n):
        tr = trace(grid)
        if not tr.is_reduced:
            continue
        tally.instances += 1
        image, v = remove(grid)
        wt_before = beta_weight(grid, tr.perm.length())
        wt_after = beta_weight(image, v.pattern().length())
        if wt_before != wt_after:
            tally.fail(f"{_grid_fixture(grid)}: weight {wt_before} -> {wt_after}")
        if tr.perm in avoiding:
            strata[tr.perm, v.indices] += wt_before
    summaries = [minimal_summary(m) for m in range(n + 1)]
    _compare_strata(tally, avoiders, strata,
                    lambda u: summaries[len(u)].get(u, EMPTY_SUMMARY).weight_reduced,
                    lambda got, want: f"weight {got} != {want}")


def _check_groth(n, tally):
    """For vexillary 1243-avoiding w, nu equals the pattern-weighted sum of
    minimal reduced weights and the coefficient is the minimal weight."""
    summaries, sums = _minimal_sums(n)
    for w in all_perms(n):
        if w.contains(PATTERN_1243) or w.contains(PATTERN_2143):
            continue
        tally.instances += 1
        total = sums[w]
        nu_w = nu(w)
        if nu_w != total:
            tally.fail(f"{w.text()}: nu={nu_w} != weighted sum={total}")
        summary = summaries[n].get(w, EMPTY_SUMMARY)
        c = coefficient(w)
        if c != summary.weight_reduced:
            tally.fail(f"{w.text()}: c={c} != mbpd weight={summary.weight_reduced}")
        if summary.weight_all != summary.weight_reduced:
            tally.fail(f"{w.text()}: minimal weight {summary.weight_all} has nonreduced part")


def _check_nonnegative(terms, n, tally):
    """c has nonnegative coefficients at the powers of b in ``terms``:
    ``slice(1)`` is Gao's conjecture, ``slice(None)`` its beta version."""
    table = coefficient_table(n)
    tally.instances = len(all_perms(n))
    for w in all_perms(n):
        part = BetaPolynomial.from_coeffs(table[w].coeffs[terms])
        if not part.is_nonnegative():
            tally.fail(f"{w.text()}: c = {part}")


def _block_decomposes(grid, mu, mv):
    """Does the grid split as blanks / top-right, bottom-left / crosses?"""
    if any(t is not Tile.BLANK for row in grid.rows[:mu] for t in row[:mv]):
        return None
    if any(t is not Tile.CROSS for row in grid.rows[mu:] for t in row[mv:]):
        return None
    top = BpdGrid(tuple(row[mv:] for row in grid.rows[:mu]))
    bottom = BpdGrid(tuple(row[:mv] for row in grid.rows[mu:]))
    return top, bottom


def _grids_by_type(n):
    table: dict[Permutation, list] = {}
    for grid in bpd_stream(n):
        _, typ = resolve(grid)
        table.setdefault(typ, []).append(grid)
    return table


def _check_skew(n, tally):
    """Multiplicativity of nu and c over skew sums; exhaustively with the
    block decomposition for n <= 5, on seeded random pairs above that."""
    if n > 5:
        rng = random.Random(20_2308 + n)
        for _ in range(50):
            mu = rng.randint(0, n)
            mv = n - mu
            u = Permutation(rng.sample(range(1, mu + 1), mu))
            v = Permutation(rng.sample(range(1, mv + 1), mv))
            tally.instances += 1
            if not skew_identities(u, v).ok:
                tally.fail(f"{u.text()} (-) {v.text()}: identities fail")
        return
    by_type = [_grids_by_type(m) for m in range(n + 1)]
    for mu in range(n + 1):
        mv = n - mu
        for u in all_perms(mu):
            ku = by_type[mu].get(u, [])
            for v in all_perms(mv):
                tally.instances += 1
                if not skew_identities(u, v).ok:
                    tally.fail(f"{u.text()} (-) {v.text()}: identities fail")
                kv = by_type[mv].get(v, [])
                pairs = set()
                for grid in by_type[n].get(skew_sum(u, v), []):
                    blocks = _block_decomposes(grid, mu, mv)
                    if blocks is None:
                        tally.fail(f"{_grid_fixture(grid)}: no block form")
                        break
                    pairs.add(blocks)
                expected = {(a, b) for a in ku for b in kv}
                if pairs != expected:
                    tally.fail(f"{u.text()} (-) {v.text()}: block pairs {len(pairs)} "
                               f"vs product {len(expected)}")


def _check_pattern_sum(n, tally):
    """nu counts subwords weighted by the coefficients of their patterns."""
    table = coefficient_table(n)
    tally.instances = len(all_perms(n))
    for w in all_perms(n):
        total = 0
        for key, count in pattern_census(w).items():
            total += count * table[Permutation(key)].constant_term
        nu_w = nu(w).constant_term
        if total != nu_w:
            tally.fail(f"{w.text()}: sum {total} != nu {nu_w}")


def _check_stanley(n, tally):
    """nu equals 2 exactly when the permutation has a unique 132 pattern."""
    tally.instances = len(all_perms(n))
    for w in all_perms(n):
        nu_w = nu(w).constant_term
        p132 = pattern_count(PATTERN_132, w)
        if (nu_w == 2) != (p132 == 1):
            tally.fail(f"{w.text()}: nu={nu_w}, p132={p132}")


def _check_bk_order(n, tally):
    """Resolution does not depend on the scan order of the crosses."""
    for grid in bpd_stream(n):
        tally.instances += 1
        res_a, typ_a = resolve(grid, COL_MAJOR)
        res_b, typ_b = resolve(grid, ROW_MAJOR)
        if res_a != res_b or typ_a != typ_b:
            tally.fail(f"{_grid_fixture(grid)}: scan orders disagree")


_CHECKS = dict(zip(CHECK_IDS, (
    _check_upper_bound, _check_thm_1243, _check_vexillary_k, _check_nonreduced_pattern,
    _check_bijection_roundtrip, _check_reduced_restriction, _check_weight_preservation,
    _check_groth, partial(_check_nonnegative, slice(1)),
    partial(_check_nonnegative, slice(None)), _check_skew, _check_pattern_sum,
    _check_stanley, _check_bk_order), strict=True))


def run_check(check_id: str, n: int) -> CheckReport:
    """Run one named check over everything of size n."""
    if check_id not in _CHECKS:
        raise UnknownCheck(f"no check named {check_id!r}; known: {', '.join(CHECK_IDS)}")
    check_guard(n)
    tally = _Tally()
    start = time.perf_counter()
    with suppress(_CapReached):
        _CHECKS[check_id](n, tally)
    elapsed = time.perf_counter() - start
    return CheckReport(check_id, n, tally.instances, tuple(tally.failures), elapsed)


@dataclass(frozen=True)
class MaximaRow:
    """Extremes of the evaluated specializations over one symmetric group."""

    n: int
    beta_value: int
    max_nu: int
    max_c: int
    argmax_nu: tuple[Permutation, ...]
    argmax_c: tuple[Permutation, ...]


def maxima_table(n: int, beta_value: int) -> MaximaRow:
    """Maximize the evaluated nu and c over all permutations of size n.

    For beta 0 and 1 the winners are checked to be layered, and for beta 1
    the two argmax sets are checked to coincide.
    """
    check_guard(n)
    leaves = [_nu_values(m, beta_value) for m in range(n + 1)]
    nu_vals, c_vals = leaves[n], _transform(n, leaves)[n]
    max_nu, max_c = max(nu_vals), max(c_vals)
    argmax_nu = tuple(w for w, value in zip(all_perms(n), nu_vals) if value == max_nu)
    argmax_c = tuple(w for w, value in zip(all_perms(n), c_vals) if value == max_c)
    if beta_value in (0, 1):
        layer = set(layered(n))
        for w in argmax_nu + argmax_c:
            if w not in layer:
                raise CheckFailed(f"maximizer {w.text()} is not layered")
    if beta_value == 1 and argmax_nu != argmax_c:
        raise CheckFailed(
            f"argmax sets differ at beta=1: {[w.text() for w in argmax_nu]} vs "
            f"{[w.text() for w in argmax_c]}")
    return MaximaRow(n, beta_value, max_nu, max_c, argmax_nu, argmax_c)
