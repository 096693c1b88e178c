"""Weight generating functions and the pattern-coefficient recursion.

The polynomial attached to a permutation w sums, over all grids of type w,
the monomial built from blank tiles (a beta-weighted variable per row) and
j-elbow tiles (a 1 + beta*x factor per row).  Setting every variable to 1
gives the principal specialization nu; the coefficients c are defined by
subtracting pattern-weighted contributions of smaller permutations.

Everything here funnels through one exhaustive pass per size, kept in
the package's table store; the pass stores one coefficient list per type,
never the grids themselves, so the opt-in large sizes stream in bounded
memory.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .enumeration import (_TABLES, bpd_stream, check_guard, iter_asm_rows,
                          removable_pipes, stored)
from .grid import BpdGrid, Tile, tiles_from_asm_rows, trace
from .ktheory import beta_weight, resolve_stats
from .perms import Permutation, all_perms, pattern_census
from .polynomials import BetaPolynomial, MultivariatePolynomial

# nu of the words asked for, seeded from and snapshotted to the disk cache
_NU_MEMO: dict[Permutation, BetaPolynomial] = {}


def _pascal_rows(limit):
    rows = [(1,)]
    for _ in range(limit):
        prev = rows[-1]
        rows.append(tuple(a + b for a, b in
                          zip((0,) + prev, prev + (0,))))
    return rows


def _nu_shard(args):
    """Accumulate, per type, the coefficient list of the unshifted weight
    sum over one shard of the stream (or the whole stream when column is
    None).  Index k of a list is the count weighted by blanks and the
    binomial expansion of the j-elbow factor."""
    n, column = args
    pascal = _pascal_rows(n * n)
    acc: dict[tuple, list] = {}
    for rows in iter_asm_rows(n, first_column=column):
        tiles = tiles_from_asm_rows(rows, n)
        _, typ, blanks, jelbows, _ = resolve_stats(tiles, n)
        slot = acc.get(typ)
        if slot is None:
            slot = acc[typ] = []
        need = blanks + jelbows + 1
        if len(slot) < need:
            slot.extend([0] * (need - len(slot)))
        for k, c in enumerate(pascal[jelbows]):
            slot[blanks + k] += c
    return acc


def nu_table(n: int, jobs: int = 1, guard=None) -> dict[Permutation, BetaPolynomial]:
    """nu for every permutation of size n, from one pass over the stream."""
    check_guard(n, guard)
    return stored("nu", n, lambda m: _build_nu_table(m, jobs))


def _build_nu_table(n: int, jobs: int) -> dict[Permutation, BetaPolynomial]:
    if n == 0:
        return {Permutation(): BetaPolynomial.one()}
    merged: dict[tuple, list] = {}
    if jobs > 1 and n >= 5:
        with multiprocessing.Pool(min(jobs, n)) as pool:
            for local in pool.imap_unordered(_nu_shard,
                                             [(n, c) for c in range(1, n + 1)]):
                for typ, coeffs in local.items():
                    slot = merged.get(typ)
                    if slot is None:
                        merged[typ] = coeffs
                        continue
                    if len(slot) < len(coeffs):
                        slot.extend([0] * (len(coeffs) - len(slot)))
                    for k, c in enumerate(coeffs):
                        slot[k] += c
    else:
        merged = _nu_shard((n, None))
    table = {}
    for typ, coeffs in merged.items():
        w = Permutation(typ)
        # blanks never dip below the length of the type, so this is exact
        table[w] = BetaPolynomial.from_coeffs(coeffs).shift_down(w.length())
    return table


def nu(w: Permutation, guard=None, jobs: int = 1) -> BetaPolynomial:
    """The principal specialization as a polynomial in b.

    Its constant term counts the reduced grids with permutation w.
    """
    check_guard(w.size, guard)
    if w in _NU_MEMO:
        return _NU_MEMO[w]
    value = nu_table(w.size, jobs=jobs, guard=guard)[w]
    _NU_MEMO[w] = value
    return value


def seed_nu_memo(values: dict[Permutation, BetaPolynomial]) -> None:
    _NU_MEMO.update(values)


def nu_memo_snapshot() -> dict[Permutation, BetaPolynomial]:
    return dict(_NU_MEMO)


def clear_caches() -> None:
    """Drop every in-process table and memo (mainly for tests)."""
    _TABLES.clear()
    _NU_MEMO.clear()


# -- grothendieck polynomials -------------------------------------------------


def grothendieck_table(n: int, guard=None) -> dict[Permutation, MultivariatePolynomial]:
    check_guard(n, guard)
    return stored("groth", n, _build_grothendieck_table)


def _build_grothendieck_table(n: int) -> dict[Permutation, MultivariatePolynomial]:
    if n == 0:
        return {Permutation(): MultivariatePolynomial.constant(0, 1)}
    nvars = n - 1
    one = BetaPolynomial.one()
    beta = BetaPolynomial.beta()
    zero_expo = (0,) * nvars
    jfactor = []
    for i in range(nvars):
        expo = tuple(1 if k == i else 0 for k in range(nvars))
        jfactor.append(MultivariatePolynomial(nvars, {zero_expo: one, expo: beta}))
    sums: dict[tuple, MultivariatePolynomial] = {}
    for rows in iter_asm_rows(n):
        tiles = tiles_from_asm_rows(rows, n)
        _, typ, _, _, _ = resolve_stats(tiles, n)
        expo = [0] * nvars
        blanks = 0
        for i in range(n):
            row = tiles[i]
            for j in range(n):
                t = row[j]
                if t == Tile.BLANK:
                    expo[i] += 1
                    blanks += 1
        term = MultivariatePolynomial(
            nvars, {tuple(expo): BetaPolynomial.monomial(blanks)})
        for i in range(n):
            count = tiles[i].count(Tile.J_ELBOW)
            for _ in range(count):
                term = term * jfactor[i]
        if typ in sums:
            sums[typ] = sums[typ] + term
        else:
            sums[typ] = term
    table = {}
    for typ, total in sums.items():
        w = Permutation(typ)
        table[w] = total.beta_shift_down(w.length())
    return table


def grothendieck(w: Permutation, guard=None) -> MultivariatePolynomial:
    """The full weight generating polynomial in x_1..x_{n-1} over b."""
    return grothendieck_table(w.size, guard=guard)[w]


def schubert(w: Permutation, guard=None) -> MultivariatePolynomial:
    """The b = 0 part of ``grothendieck``."""
    return grothendieck(w, guard=guard).at_beta(0)


# -- pattern coefficients ------------------------------------------------------

RECURSIVE = "recursive"
INCLUSION_EXCLUSION = "inclusion_exclusion"


def coefficient(w: Permutation, mode: str = RECURSIVE, guard=None) -> BetaPolynomial:
    """The pattern coefficient of w, seeded by 1 on the empty permutation.

    ``recursive`` subtracts the pattern-count-weighted coefficients of the
    proper patterns of w from nu; ``inclusion_exclusion`` evaluates the
    equivalent signed sum of nu over all subwords.  The two agree.
    """
    check_guard(w.size, guard)
    if mode == RECURSIVE:
        return _coefficient(w, guard)
    if mode in (INCLUSION_EXCLUSION, "ie"):
        total = BetaPolynomial.zero()
        n = w.size
        for key, count in pattern_census(w).items():
            sign = -1 if (n - len(key)) % 2 else 1
            total = total + sign * count * nu(Permutation(key), guard=guard)
        return total
    raise ValueError(f"unknown coefficient mode {mode!r}")


def _coefficient(w: tuple, guard) -> BetaPolynomial:
    """The memoized recursion behind ``coefficient(w, RECURSIVE)``.

    ``w`` may be a plain census key: a tuple hashes and compares like the
    permutation it spells, so only a memo miss pays for validation.
    """
    n = len(w)
    memo = stored("c", n, lambda m: {})
    value = memo.get(w)
    if value is None:
        acc = [0]
        for key, count in pattern_census(w).items():
            if len(key) < n:
                coeffs = _coefficient(key, guard).coeffs
                acc.extend([0] * (len(coeffs) - len(acc)))
                for k, c in enumerate(coeffs):
                    acc[k] += count * c
        w = Permutation(w)
        value = memo[w] = nu(w, guard=guard) - BetaPolynomial.from_coeffs(acc)
    return value


def coefficient_table(n: int, guard=None) -> dict[Permutation, BetaPolynomial]:
    """Coefficients of every permutation of size <= n."""
    check_guard(n, guard)
    return {w: coefficient(w, guard=guard) for m in range(n + 1) for w in all_perms(m)}


def coefficient_values(n: int, beta_value: int, guard=None) -> dict[Permutation, int]:
    """``coefficient_table(n)`` evaluated at an integer beta."""
    return {w: c(beta_value) for w, c in coefficient_table(n, guard=guard).items()}


# -- skew sums -----------------------------------------------------------------


@dataclass(frozen=True)
class SkewReport:
    """Both sides of the skew-sum product identities."""

    u: Permutation
    v: Permutation
    nu_skew: BetaPolynomial
    nu_product: BetaPolynomial
    c_skew: BetaPolynomial
    c_product: BetaPolynomial

    @property
    def nu_ok(self) -> bool:
        return self.nu_skew == self.nu_product

    @property
    def c_ok(self) -> bool:
        return self.c_skew == self.c_product

    @property
    def ok(self) -> bool:
        return self.nu_ok and self.c_ok


def skew_identities(u: Permutation, v: Permutation, guard=None) -> SkewReport:
    """Compare nu and c of a skew sum against the products of the parts."""
    from .perms import skew_sum

    check_guard(u.size + v.size, guard)
    w = skew_sum(u, v)
    return SkewReport(
        u, v,
        nu_skew=nu(w, guard=guard),
        nu_product=nu(u, guard=guard) * nu(v, guard=guard),
        c_skew=coefficient(w, guard=guard),
        c_product=coefficient(u, guard=guard) * coefficient(v, guard=guard),
    )


# -- minimal-grid aggregates ---------------------------------------------------


@dataclass(frozen=True)
class MinimalSummary:
    """Counts and weight sums of the minimal grids with a fixed permutation."""

    count_all: int
    count_reduced: int
    weight_all: BetaPolynomial
    weight_reduced: BetaPolynomial


EMPTY_SUMMARY = MinimalSummary(0, 0, BetaPolynomial.zero(), BetaPolynomial.zero())


def minimal_summary(n: int, guard=None) -> dict[Permutation, MinimalSummary]:
    """Aggregate the minimal grids of size n by permutation.

    Permutations with no minimal grid are simply absent; use
    ``EMPTY_SUMMARY`` as the default when looking up.
    """
    check_guard(n, guard)
    return stored("minimal-summary", n, _build_minimal_summary)


def _build_minimal_summary(n: int) -> dict[Permutation, MinimalSummary]:
    if n == 0:
        one = BetaPolynomial.one()
        return {Permutation(): MinimalSummary(1, 1, one, one)}
    acc: dict[Permutation, list] = {}
    for grid in bpd_stream(n):
        report = removable_pipes(grid)
        if not report.minimal:
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


def minimal_sets(n: int, guard=None) -> dict[Permutation, tuple]:
    """The actual minimal grids of size n, keyed by permutation.

    Values are (all_minimal, reduced_minimal) tuples of grids, in stream
    order.  Meant for the bijection sweeps at small sizes.
    """
    check_guard(n, guard)
    return stored("minimal-sets", n, _build_minimal_sets)


def _build_minimal_sets(n: int) -> dict[Permutation, tuple]:
    if n == 0:
        empty = BpdGrid(())
        return {Permutation(): ((empty,), (empty,))}
    acc: dict[Permutation, tuple[list, list]] = {}
    for grid in bpd_stream(n):
        report = removable_pipes(grid)
        if not report.minimal:
            continue
        tr = trace(grid)
        slot = acc.setdefault(tr.perm, ([], []))
        slot[0].append(grid)
        if tr.is_reduced:
            slot[1].append(grid)
    return {w: (tuple(a), tuple(r)) for w, (a, r) in acc.items()}
