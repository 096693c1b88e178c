"""Weight generating functions and the pattern coefficients.

The polynomial attached to a permutation w sums, over all grids of type w,
the monomial built from blank tiles (a beta-weighted variable per row) and
j-elbow tiles (a 1 + beta*x factor per row).  Setting every variable to 1
gives the principal specialization nu, and c_w sums (-1)^(n-|S|) nu(w_S)
over the flattened subwords w_S of w.  One transform (``_transform``) sums
over the subwords of a pattern-closed set: signed over nu it gives c (its
oracle is the direct sum, ``mode="ie"``), plain the bound checks' sums.

The nu and Grothendieck tables of a size come from one Hecke product
(Fomin and Kirillov), the product of the factors (1 + x_i u_j) over a
list of coefficients aligned with ``all_perms(n)``, so the tables share
its keys and iterate in lexicographic order.  No grid is built: the
per-matrix sums over the grid stream and the divided differences of the
tests are its oracles.  The coefficient of u_w is the polynomial of w
itself, not of its inverse and not times a power of b, so it is read
back as it stands.  The tables are kept in the table store
(``store.stored``), the one place a computed nu is kept, and ``nu`` of a
word and the leaves of c are read off the table of their size.  The nu
product and the transform run on integers, each polynomial taken at
b = 2^S for a slot width S (``polynomials.kronecker_bits``) that bounds
every coefficient (``BetaPolynomial.to_kronecker`` writes the leaves),
and read each word's polynomial back once.  The minimal grids come from
one filter over the grid stream (``minimal_sets``), and their counts
and weight sums (``minimal_summary``) are read off those sets.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import factorial

from .enumeration import bpd_stream, check_guard, removable_pipes
from .ktheory import beta_weight, resolve_stats
from .perms import Permutation, all_perms, pattern_census, skew_sum
from .polynomials import BetaPolynomial, MultivariatePolynomial, kronecker_bits
from .store import stored


def nu_table(n: int, guard=None) -> dict[Permutation, BetaPolynomial]:
    """nu for every permutation of size n, from one Hecke product."""
    check_guard(n, guard)
    return stored("nu", n, _build_nu_table)


def _build_nu_table(n: int) -> dict[Permutation, BetaPolynomial]:
    # every x is 1 and beta is 2^S, so a factor is v + (v << S) + vec[r]
    bits, perms = kronecker_bits(n), all_perms(n)
    vec = [0] * len(perms)
    vec[0] = 1
    for _, sources, targets in _hecke_factors(n):
        for r, t in zip(sources, targets):
            v = vec[t]
            vec[t] = v + (v << bits) + vec[r]
    return {w: BetaPolynomial.from_kronecker(value, bits) for w, value in zip(perms, vec)}


def _hecke_factors(n: int):
    """The factors (1 + x_i u_j) of the Hecke product, in order, as
    (i, sources, targets) with the ranks of ``_ascents(n, j - 1)``.

    Fomin and Kirillov: in the Hecke algebra, where u_v u_j is u_(v s_j)
    when v has an ascent at j and beta u_v otherwise, the product over
    i = 1..n-1 and, within each i, j = n-1 down to i, of (1 + x_i u_j)
    is the sum of G^beta_w(x) u_w over S_n.  The state is the list of
    the coefficients, aligned with ``all_perms(n)``; a factor leaves the
    sources as they are and sets each target to
    vec[t] (1 + beta x_i) + x_i vec[r].
    """
    ascents = [_ascents(n, p) for p in range(n - 1)]
    for i in range(1, n):
        for j in range(n - 1, i - 1, -1):
            yield (i, *ascents[j - 1])


def _ascents(n: int, p: int) -> tuple[array, array]:
    """The ranks r in ``all_perms(n)`` of the v with v[p] < v[p+1] (p from
    0), and the ranks t of the same v with those two letters swapped.

    The lexicographic rank has the Lehmer code for its factorial digits:
    a and b, the digits of positions p and p+1, count the smaller letters
    to the right of each, so the ascent is a <= b, and swapping makes the
    digits b+1 and a.
    """
    f1, f2 = factorial(n - 1 - p), factorial(n - 2 - p)
    sources, targets = array("q"), array("q")
    for r in range(factorial(n)):
        a, b = r // f1 % (n - p), r // f2 % (n - 1 - p)
        if a <= b:
            sources.append(r)
            targets.append(r + (b + 1 - a) * f1 + (a - b) * f2)
    return sources, targets


def nu(w: Permutation, guard=None) -> BetaPolynomial:
    """The principal specialization as a polynomial in b.

    Its constant term counts the reduced grids with permutation w.
    """
    return nu_table(w.size, guard=guard)[w]


# -- grothendieck polynomials -------------------------------------------------


def grothendieck_table(n: int, guard=None) -> dict[Permutation, MultivariatePolynomial]:
    check_guard(n, guard)
    return stored("groth", n, _build_grothendieck_table)


def _build_grothendieck_table(n: int) -> dict[Permutation, MultivariatePolynomial]:
    # an entry maps x-exponents, the digits of one base-n integer with
    # x_i (of degree at most n - i) at n^(i-1), to counts; a term's
    # beta-degree is its x-degree less the length of its word, so beta is
    # not carried
    nvars, perms = max(n - 1, 0), all_perms(n)
    vec = [{} for _ in perms]
    vec[0][0] = 1
    for i, sources, targets in _hecke_factors(n):
        step = n ** (i - 1)
        for r, t in zip(sources, targets):
            entry = vec[t]
            grown = {}
            for terms in (entry, vec[r]):
                for key, count in terms.items():
                    grown[key + step] = grown.get(key + step, 0) + count
            for key, count in grown.items():
                entry[key] = entry.get(key, 0) + count
    table = {}
    for w, entry in zip(perms, vec):
        length, terms = w.length(), {}
        for key, count in entry.items():
            expo = tuple(key // n ** k % n for k in range(nvars))
            terms[expo] = BetaPolynomial.monomial(sum(expo) - length, count)
        table[w] = MultivariatePolynomial(nvars, terms)
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

    ``recursive`` runs the suffix-marked transform over the patterns of w;
    ``inclusion_exclusion`` evaluates the signed sum of nu over all
    subwords of w directly.  The two agree.
    """
    check_guard(w.size, guard)
    if mode not in (RECURSIVE, INCLUSION_EXCLUSION, "ie"):
        raise ValueError(f"unknown coefficient mode {mode!r}")
    census = pattern_census(w)
    if mode == RECURSIVE:
        layers = [[u for u in census if len(u) == m] for m in range(w.size + 1)]
        return _transform(layers, [nu_table(m, guard=guard) for m in range(w.size + 1)])[w]
    total = BetaPolynomial.zero()
    for key, count in census.items():
        sign = -1 if (w.size - len(key)) % 2 else 1
        total = total + sign * count * nu(Permutation(key), guard=guard)
    return total


def _transform(layers, leaves, sign=-1) -> dict[tuple, BetaPolynomial]:
    """Sum the leaves over the subwords of every word in ``layers``, keyed
    like the words: with sign -1 a subword counts with the sign of the
    letters it drops (nu leaves give c), with +1 plainly (the zeta sum).

    ``layers[m]`` lists the size-m words of a pattern-closed set, as
    permutations or plain tuples, and ``leaves[m]`` maps size-m words to
    polynomials, a missing word counting as 0.  The sum for u is
    sign^|u| h(u, 0), where h(u, j), the sum of f(v) = sign^|v| leaf(v)
    over the subwords v of u that keep its last j letters, obeys
    h(u, |u|) = f(u) and h(u, j) = h(u, j+1) + h(u', j); u' drops letter
    k = |u| - j - 1 (from 0) of u and lowers the letters above it by one.
    Sizes ascend so each u' precedes u.  Every state is one integer, its
    polynomial at b = 2^S with S = ``kronecker_bits`` of the largest size,
    and each word's last state is read back as a polynomial once.  States
    are keyed by the words' bytes, so u' is a slice and a translate.
    """
    bits, zero = kronecker_bits(len(layers) - 1), BetaPolynomial.zero()
    scales = [sign ** m for m in range(len(layers))]
    # lower[t] maps each byte above t one down and the others to themselves
    lower = [bytes(range(t + 1)) + bytes(range(t, 255)) for t in range(len(layers))]
    keys = [[bytes(u) for u in layer] for layer in layers]
    above: dict[bytes, int] = {}
    for j in range(len(layers) - 1, -1, -1):
        layer = {key: scales[j] * leaves[j].get(u, zero).to_kronecker(bits)
                 for u, key in zip(layers[j], keys[j])}
        for m in range(j + 1, len(layers)):
            k = m - j - 1
            for u in keys[m]:
                layer[u] = above[u] + layer[(u[:k] + u[k + 1:]).translate(lower[u[k]])]
        above = layer
    return {u: BetaPolynomial.from_kronecker(scale * above[key], bits)
            for scale, layer, layer_keys in zip(scales, layers, keys)
            for u, key in zip(layer, layer_keys)}


def coefficient_table(n: int, guard=None) -> dict[Permutation, BetaPolynomial]:
    """Coefficients of every permutation of size <= n, from one transform."""
    check_guard(n, guard)
    return stored("c", n, lambda _: _transform(
        [all_perms(m) for m in range(n + 1)], [nu_table(m, guard=guard) for m in range(n + 1)]))


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
    return stored("minimal-summary", n, lambda _: _build_minimal_summary(n, guard))


def _build_minimal_summary(n: int, guard) -> dict[Permutation, MinimalSummary]:
    zero = BetaPolynomial.zero()
    summary = {}
    for w, (grids, reduced) in minimal_sets(n, guard=guard).items():
        # a grid is weighted against the length of its type; a reduced
        # grid's type is its permutation, so only the others are resolved
        weight_reduced = sum((beta_weight(g, w.length()) for g in reduced), zero)
        reduced_set = set(reduced)
        weight_all = sum((beta_weight(g, Permutation(resolve_stats(g.rows, n)[1]).length())
                          for g in grids if g not in reduced_set), weight_reduced)
        summary[w] = MinimalSummary(len(grids), len(reduced), weight_all, weight_reduced)
    return summary


def minimal_sets(n: int, guard=None) -> dict[Permutation, tuple]:
    """The actual minimal grids of size n, keyed by permutation.

    Values are (all_minimal, reduced_minimal) tuples of grids, in stream
    order.  Meant for the bijection sweeps at small sizes.
    """
    check_guard(n, guard)
    return stored("minimal-sets", n, _build_minimal_sets)


def _build_minimal_sets(n: int) -> dict[Permutation, tuple]:
    acc: dict[Permutation, tuple[list, list]] = {}
    for grid in bpd_stream(n):
        report = removable_pipes(grid)
        if not report.minimal:
            continue
        tr = report.trace
        slot = acc.setdefault(tr.perm, ([], []))
        slot[0].append(grid)
        if tr.is_reduced:
            slot[1].append(grid)
    return {w: (tuple(a), tuple(r)) for w, (a, r) in acc.items()}
