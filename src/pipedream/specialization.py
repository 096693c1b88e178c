"""Weight generating functions and the pattern coefficients.

The polynomial attached to a permutation w sums, over all grids of type w,
the monomial built from blank tiles (a beta-weighted variable per row) and
j-elbow tiles (a 1 + beta*x factor per row).  Setting every variable to 1
gives the principal specialization nu, and c_w sums (-1)^(n-|S|) nu(w_S)
over the flattened subwords w_S of w.  One transform (``_transform``) sums
over the subwords of every word of S_<=n: signed over nu it gives c (its
oracle, ``mode="ie"``, sums over one word's patterns, each walked), plain
the bound checks' sums.

The nu table of a size comes from the Hecke product of Fomin and
Kirillov, the product of the factors (1 + x_i u_j), over a list aligned
with ``all_perms(n)``, so the table shares its keys and order.  Every
other product is one walk (``_walk``) over a word's lower interval in the
right weak order: ``interval_nu`` and ``grothendieck`` walk their word's
and store nothing, and the Grothendieck table is the walk at the longest
word, whose interval is S_n.  No grid is built: the per-matrix sums over
the grid stream and the divided differences of the tests are the oracles.
The coefficient of u_w is the polynomial of w itself, not of its inverse
and not times a power of b.  The nu product (``_nu_values``) and the
transform are integer kernels that take b as an argument, their states
aligned with ``all_perms``: at an integer beta they give the values
(``coefficient_values``, ``checks.maxima_table``), and at b = 2^S, for a
slot width S (``polynomials.kronecker_bits``) that bounds every
coefficient, the polynomials, each read back once.  The tables are kept
in the table store (``store.stored``), the one place a computed nu is
kept, and ``nu`` of a word is read off the table of its size.  The
minimal grids come from one filter over the grid stream (``minimal_sets``),
and their counts and weight sums (``minimal_summary``) are read off those
sets; only they import the grid stream and ``ktheory``, when they run, so
nu, c and the Grothendieck polynomials load neither.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from math import factorial

from .perms import Permutation, all_perms, pattern_census, skew_sum
from .polynomials import BetaPolynomial, MultivariatePolynomial, kronecker_bits
from .store import check_guard, stored


def nu_table(n: int) -> dict[Permutation, BetaPolynomial]:
    """nu for every permutation of size n, from one Hecke product."""
    check_guard(n)
    return stored("nu", n, _build_nu_table)


def _build_nu_table(n: int) -> dict[Permutation, BetaPolynomial]:
    bits = kronecker_bits(n)
    values = _nu_values(n, 1 << bits)
    with _collector_paused():
        return {w: BetaPolynomial.from_kronecker(value, bits)
                for w, value in zip(all_perms(n), values)}


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector in the block, then restore its
    prior state.  A decode allocates one polynomial per word, none in a
    cycle, and the collector would otherwise walk the young objects again
    every few hundred of them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _nu_values(n: int, beta_value: int) -> list[int]:
    """nu at b = ``beta_value`` of every permutation of size n, aligned with
    ``all_perms(n)``; at b = 2^S the ints hold the polynomials."""
    # every x is 1, so a factor sets each target to vec[t] (1 + b) + vec[r]
    scale, vec = 1 + beta_value, [1] + [0] * (factorial(n) - 1)
    ascents = [_ascents(n, p) for p in range(n - 1)]
    for _, j in _factor_order(n):
        sources, targets = ascents[j - 1]
        for r, t in zip(sources, targets):
            vec[t] = vec[t] * scale + vec[r]
    return vec


def _factor_order(n: int):
    """The (i, j) of the factors (1 + x_i u_j) of the Hecke product, in
    order: i = 1..n-1 and, within each i, j = n-1 down to i.

    Fomin and Kirillov: in the Hecke algebra, where u_v u_j is u_(v s_j)
    when v has an ascent at j and beta u_v otherwise, that product is the
    sum of G^beta_w(x) u_w over S_n.
    """
    return ((i, j) for i in range(1, n) for j in range(n - 1, i - 1, -1))


def _ascents(n: int, p: int) -> tuple[array, array]:
    """The ranks r in ``all_perms(n)`` of the v with v[p] < v[p+1] (p from
    0), and the ranks t of the same v with those two letters swapped.

    The lexicographic rank has the Lehmer code for its factorial digits:
    a and b, the digits of positions p and p+1, count the smaller letters
    to the right of each, so the ascent is a <= b, and swapping makes the
    digits b+1 and a.  The digits below keep their run of (n-2-p)! ranks
    and the digits above their block of (n-p)!, so the first block's runs
    are tiled over the others.
    """
    f1, f2 = factorial(n - 1 - p), factorial(n - 2 - p)
    runs = [(a * f1 + b * f2, (b + 1) * f1 + a * f2)
            for a in range(n - p) for b in range(a, n - 1 - p)]
    blocks = range(0, factorial(n), f1 * (n - p))
    return tuple(array("q", [block + start + c for block in blocks
                             for start in starts for c in range(f2)])
                 for starts in zip(*runs))


def nu(w: Permutation) -> BetaPolynomial:
    """The principal specialization as a polynomial in b.

    Its constant term counts the reduced grids with permutation w.
    """
    return nu_table(w.size)[w]


def interval_nu(w: Permutation) -> BetaPolynomial:
    """``nu(w)`` from the walk below w with every x at 2^S: nu(2^S) shifted
    up length(w) slots, decoded once; no table is built."""
    check_guard(w.size)
    bits = kronecker_bits(w.size)
    value = _walk(w, 1, lambda c, i: c << bits)[w]
    return BetaPolynomial.from_kronecker(value >> bits * w.length(), bits)


def _walk(w: Permutation, one, times_x) -> dict[tuple, object]:
    """The coefficient of u_v in the Hecke product for every v below w in
    the right weak order (Björner and Brenti), keyed by the word of v.

    A coefficient needs only ``+``; its b-degree is its x-degree less the
    length of v.  A factor (1 + x_i u_j) adds ``times_x(c, i)`` to c on a
    descent of v at j (the term b x_i c); on an ascent it keeps c, which is
    all u_v gets, and sends x_i c to u_(v s_j) if w has v(j+1) left of v(j)
    (one lookup in the inverse of w), as no factor lowers a term.  So a pass
    costs the size of the interval, not n!.
    """
    place = (0, *w.inverse())
    vec = {tuple(range(1, w.size + 1)): one}
    for i, j in _factor_order(w.size):
        grown = {}
        for v, c in vec.items():
            a, d = v[j - 1], v[j]
            if a > d:
                t, c = v, c + times_x(c, i)
            else:
                grown[v] = c
                if place[a] < place[d]:
                    continue
                t, c = v[:j - 1] + (d, a) + v[j + 1:], times_x(c, i)
            grown[t] = c + grown[t] if t in grown else c
        vec = grown
    return vec


# -- grothendieck polynomials -------------------------------------------------


def grothendieck_table(n: int) -> dict[Permutation, MultivariatePolynomial]:
    """The Grothendieck polynomial of every permutation of size n: the walk
    at the longest word, whose interval is S_n."""
    check_guard(n)
    return stored("groth", n, lambda _: _grothendieck_walk(
        Permutation(range(n, 0, -1)), all_perms(n)))


def grothendieck(w: Permutation) -> MultivariatePolynomial:
    """The full weight generating polynomial in x_1..x_{n-1} over b, from
    the walk over the lower interval of w; no table is built or read."""
    check_guard(w.size)
    return _grothendieck_walk(w, (w,))[w]


class _Terms(dict):
    """A coefficient of ``_grothendieck_walk``, added termwise: counts keyed
    by x-exponents, base-n digits with x_i (degree <= n - i) at n^(i-1)."""

    def __add__(self, other):
        out = _Terms(self)
        out.update({key: self.get(key, 0) + count for key, count in other.items()})
        return out


def _grothendieck_walk(w: Permutation, words) -> dict[Permutation, MultivariatePolynomial]:
    """The polynomials of ``words``, each below w, from one walk below w."""
    n, powers = w.size, [w.size ** k for k in range(w.size - 1)]
    walked = _walk(w, _Terms({0: 1}), lambda c, i: _Terms(
        {key + powers[i - 1]: count for key, count in c.items()}))
    # plain dicts of ints, which the garbage collector stops traversing
    walked = {v: dict(walked[v]) for v in words}
    for v, counts in walked.items():
        length, terms = v.length(), {}
        for key, count in counts.items():
            expo = tuple(key // p % n for p in powers)
            terms[expo] = BetaPolynomial.monomial(sum(expo) - length, count)
        walked[v] = MultivariatePolynomial(len(powers), terms)
    return walked


def schubert(w: Permutation) -> MultivariatePolynomial:
    """The b = 0 part of ``grothendieck``."""
    return grothendieck(w).at_beta(0)


# -- pattern coefficients ------------------------------------------------------

def coefficient(w: Permutation, mode: str = "recursive") -> BetaPolynomial:
    """The pattern coefficient of w, seeded by 1 on the empty permutation.

    ``"recursive"`` reads the coefficient table of the size of w, one
    transform over S_<=|w|; ``"ie"`` (inclusion-exclusion) evaluates the
    signed sum over the pattern census of w directly, each nu from the
    walk below its pattern (``interval_nu``), so it builds no table.  The
    two agree.
    """
    check_guard(w.size)
    if mode not in ("recursive", "ie"):
        raise ValueError(f"unknown coefficient mode {mode!r}")
    if mode == "recursive":
        return coefficient_table(w.size)[w]
    total = BetaPolynomial.zero()
    for key, count in pattern_census(w).items():
        sign = -1 if (w.size - len(key)) % 2 else 1
        total = total + sign * count * interval_nu(Permutation(key))
    return total


def _transform(n: int, leaves: list[list[int]], sign: int = -1) -> list[list[int]]:
    """Sum the leaves over the subwords of every word of S_<=n: with sign
    -1 a subword counts with the sign of the letters it drops (nu leaves
    give c), with +1 plainly (the zeta sum).

    ``leaves[m]`` and the result's row m are lists of ints aligned with
    ``all_perms(m)``: values at one integer b, or polynomials at b = 2^S.
    The sum for u is sign^|u| h(u, 0), where h(u, j), the sum of
    f(v) = sign^|v| leaf(v) over the subwords v of u that keep its last j
    letters, obeys h(u, |u|) = f(u) and h(u, j) = h(u, j+1) + h(u', j);
    u' drops letter k = |u| - j - 1 (from 0) of u and is flattened, so its
    rank is ``_deletions`` of (|u|, k) at the rank of u.  Sizes ascend so
    each u' precedes u.
    """
    states = [[sign ** m * value for value in row] for m, row in enumerate(leaves)]
    for j in range(n - 1, -1, -1):
        for m, deletion in enumerate(_deletions(j, n), start=j + 1):
            below = states[m - 1]
            states[m] = [h + below[d] for h, d in zip(states[m], deletion)]
    return [[sign ** m * h for h in row] for m, row in enumerate(states)]


def _deletions(j: int, n: int):
    """del(m, m - j - 1) for m = j+1..n in turn: del(m, k)[r] is the rank in
    ``all_perms(m - 1)`` of word r of ``all_perms(m)`` with its letter k
    (from 0) deleted and the rest flattened.

    The first, del(j + 1, 0), keeps r mod j!.  Each later map comes from
    the one before by the first letter a of word r (letters count from 0
    here): with r' the rank of the rest and s its letter k - 1, flattened,
    the word left starts with a - [s < a] and goes on as
    del(m - 1, k - 1)[r'].  ``letters`` holds the letter k of every word,
    lifted past the first letter from one size to the next.
    """
    size = factorial(j)
    deletion = list(range(size)) * (j + 1)
    letters = b"".join(bytes((a,)) * size for a in range(j + 1))
    yield deletion
    for m in range(j + 2, n + 1):
        size = factorial(m - 2)
        shifts = [[(a - (s < a)) * size for s in range(m - 1)] for a in range(m)]
        deletion = [shift[s] + d for shift in shifts for s, d in zip(letters, deletion)]
        lifts = [bytes.maketrans(bytes(range(a, m - 1)), bytes(range(a + 1, m))) for a in range(m)]
        letters = b"".join(letters.translate(lift) for lift in lifts)
        yield deletion


def coefficient_table(n: int) -> dict[Permutation, BetaPolynomial]:
    """Coefficients of every permutation of size <= n, from one transform."""
    check_guard(n)
    bits = kronecker_bits(n)
    return stored("c", n, lambda _: _by_word(
        _transform(n, [_nu_values(m, 1 << bits) for m in range(n + 1)]), bits))


def coefficient_values(n: int, beta_value: int) -> dict[Permutation, int]:
    """``coefficient_table(n)`` at an integer beta, from the kernels at it."""
    check_guard(n)
    return _by_word(_transform(n, [_nu_values(m, beta_value) for m in range(n + 1)]))


def _by_word(rows: list[list[int]], bits=None) -> dict[Permutation, object]:
    """The transform's rows keyed by word, read at b = 2^bits if given."""
    with _collector_paused():
        return {w: value if bits is None else BetaPolynomial.from_kronecker(value, bits)
                for m, row in enumerate(rows) for w, value in zip(all_perms(m), row)}


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


def skew_identities(u: Permutation, v: Permutation) -> SkewReport:
    """Compare nu and c of a skew sum against the products of the parts."""
    check_guard(u.size + v.size)
    w = skew_sum(u, v)
    return SkewReport(
        u, v,
        nu_skew=nu(w), nu_product=nu(u) * nu(v),
        c_skew=coefficient(w), c_product=coefficient(u) * coefficient(v),
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


def minimal_summary(n: int) -> dict[Permutation, MinimalSummary]:
    """Aggregate the minimal grids of size n by permutation.

    Permutations with no minimal grid are simply absent; use
    ``EMPTY_SUMMARY`` as the default when looking up.
    """
    check_guard(n)
    return stored("minimal-summary", n, _build_minimal_summary)


def _build_minimal_summary(n: int) -> dict[Permutation, MinimalSummary]:
    from .ktheory import beta_weight, resolve_stats
    zero = BetaPolynomial.zero()
    summary = {}
    for w, (grids, reduced) in minimal_sets(n).items():
        # a grid is weighted against the length of its type; a reduced
        # grid's type is its permutation, so only the others are resolved
        weight_reduced = sum((beta_weight(g, w.length()) for g in reduced), zero)
        reduced_set = set(reduced)
        weight_all = sum((beta_weight(g, Permutation(resolve_stats(g.rows, n)[1]).length())
                          for g in grids if g not in reduced_set), weight_reduced)
        summary[w] = MinimalSummary(len(grids), len(reduced), weight_all, weight_reduced)
    return summary


def minimal_sets(n: int) -> dict[Permutation, tuple]:
    """The actual minimal grids of size n, keyed by permutation.

    Values are (all_minimal, reduced_minimal) tuples of grids, in stream
    order.  Meant for the bijection sweeps at small sizes.
    """
    check_guard(n)
    return stored("minimal-sets", n, _build_minimal_sets)


def _build_minimal_sets(n: int) -> dict[Permutation, tuple]:
    from .enumeration import bpd_stream, removable_pipes
    acc: dict[Permutation, tuple[list, list]] = {}
    for grid in bpd_stream(n):
        # a grid holding a kept removal has a removable pipe
        if grid._removal is not None:
            continue
        report = removable_pipes(grid)
        if not report.minimal:
            continue
        tr = report.trace
        slot = acc.setdefault(tr.perm, ([], []))
        slot[0].append(grid)
        if tr.is_reduced:
            slot[1].append(grid)
    return {w: (tuple(a), tuple(r)) for w, (a, r) in acc.items()}
