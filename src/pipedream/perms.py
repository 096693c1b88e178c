"""Permutations in one-line notation and pattern machinery.

Permutations are words on 1..n; the empty permutation (n = 0) is a valid
value and seeds every recursion in this package.  ``Permutation(word)``
checks its word; ``all_perms`` (kept in the table store) and the pattern
of a subword selection, permutations by construction, are built
unchecked.  ``length`` counts inversions with one bitmask of the letters
seen, n steps instead of n(n-1)/2 pairs, and ``ranks`` flattens a
subword with one bitmask of its letters instead of a sort.  Pattern
counting is a brute-force scan over index subsets, each compared along
the pattern's value order (``occurrences``); the census serves the
oracles: the direct sum of ``coefficient(w, "ie")`` and the
``pattern-sum`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .errors import NotAPermutation
from .store import stored


class Permutation(tuple):
    """A permutation of 1..n as an immutable one-line word.

    Ordering and hashing are inherited from ``tuple``, so lexicographic
    comparison and use as a cache key come for free.

    >>> Permutation([2, 1, 6, 4, 7, 5, 3]).length()
    8
    >>> Permutation.from_text("12453").avoids(Permutation((2, 1, 4, 3)))
    True
    """

    __slots__ = ()

    def __new__(cls, word=()):
        word = tuple(map(int, word))
        if sorted(word) != list(range(1, len(word) + 1)):
            raise NotAPermutation(f"not a bijection of 1..{len(word)}: {word}")
        return super().__new__(cls, word)

    @classmethod
    def _trusted(cls, word) -> "Permutation":
        """The permutation ``word``, a tuple of ints already known to be one
        (a member of ``all_perms``, the ranks of a subword).  Skips the
        conversion and the check of ``Permutation(word)``."""
        return tuple.__new__(cls, word)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse '2164753' (digits, n <= 9) or '10,1,2,...' (comma form)."""
        text = text.strip()
        if text in ("", "∅"):
            return cls()
        parts = [part.strip() for part in text.split(",")] if "," in text else text
        if not all(part.isdecimal() for part in parts):
            raise NotAPermutation(f"cannot parse permutation text {text!r}")
        return cls(int(part) for part in parts)

    @property
    def size(self) -> int:
        return len(self)

    def text(self) -> str:
        if len(self) > 9:
            return ",".join(str(v) for v in self)
        return "".join(str(v) for v in self)

    def __repr__(self):
        return f"Permutation({self.text()!r})" if self else "Permutation(())"

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def length(self) -> int:
        """Coxeter length: the number of inversions.

        Each letter adds the number of larger letters before it, read off a
        bitmask of the letters seen (bit v for the letter v).
        """
        seen = inversions = 0
        for v in self:
            inversions += (seen >> v).bit_count()
            seen |= 1 << v
        return inversions

    def contains(self, pattern: "Permutation") -> bool:
        """Whether some subword has the relative order of ``pattern``;
        stops at the first occurrence."""
        return next(occurrences(pattern, self), None) is not None

    def avoids(self, pattern: "Permutation") -> bool:
        return not self.contains(pattern)


@dataclass(frozen=True, slots=True)
class SubwordSelection:
    """A subword of ``host`` given by strictly increasing 1-based indices.

    A host that is not a ``Permutation`` is converted to one, and so
    checked: ``pattern`` relies on the host's letters being distinct.
    Equality and hashing see the host and the indices; the pattern kept
    beside them is a slot, so a selection has no instance dict.
    """

    host: Permutation
    indices: tuple[int, ...]
    # set by ``pattern`` on first use; removal's callers flatten the same
    # selection twice
    _pattern: Permutation | None = field(default=None, init=False, compare=False,
                                         repr=False)

    def __post_init__(self):
        if not isinstance(self.host, Permutation):
            object.__setattr__(self, "host", Permutation(self.host))
        idx = self.indices
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValueError(f"indices not strictly increasing: {idx}")
        if idx and (idx[0] < 1 or idx[-1] > len(self.host)):
            raise ValueError(f"indices out of range for host of size {len(self.host)}")

    def __len__(self):
        return len(self.indices)

    @classmethod
    def _trusted(cls, host: Permutation, indices: tuple[int, ...]) -> "SubwordSelection":
        """The selection of ``indices``, already increasing and in range, in
        ``host``, already a ``Permutation`` (a removal report's).  Skips the
        checks of ``__post_init__``."""
        selection = object.__new__(cls)
        _set_host(selection, host)
        _set_indices(selection, indices)
        _set_pattern(selection, None)
        return selection

    def values(self) -> tuple[int, ...]:
        host = self.host
        return tuple([host[i - 1] for i in self.indices])

    def pattern(self) -> Permutation:
        # the ranks of distinct letters are a permutation, so unchecked
        p = self._pattern
        if p is None:
            p = Permutation._trusted(ranks(self.values()))
            _set_pattern(self, p)
        return p

    @classmethod
    def full(cls, host: Permutation) -> "SubwordSelection":
        return cls(host, tuple(range(1, len(host) + 1)))

    @classmethod
    def of_values(cls, host: Permutation, values) -> "SubwordSelection":
        """Select the positions of the given entry values, in word order."""
        wanted = set(values)
        return cls(host, tuple(i for i, v in enumerate(host, start=1) if v in wanted))


# the setters of a selection's slots, which skip the frozen dataclass's
# __setattr__
_set_host, _set_indices, _set_pattern = (
    getattr(SubwordSelection, name).__set__ for name in SubwordSelection.__slots__)


def ranks(values) -> tuple[int, ...]:
    """The rank of each of the distinct positive integers ``values`` among
    them, from 1: one plus the number of smaller values, read off a bitmask
    of the values (bit v for the value v), with no sort.

    >>> ranks((2, 5, 3))
    (1, 3, 2)
    """
    seen = 0
    for v in values:
        seen |= 1 << v
    return tuple([(seen & (1 << v) - 1).bit_count() + 1 for v in values])


def occurrences(pattern, w):
    """Yield the values of each subword of w with the relative order of
    ``pattern``, in lexicographic index order.

    A subword has that order exactly when its entries increase along the
    pattern's value order (the positions of the values 1, 2, ..., k), so
    each subword costs at most k comparisons and no ``ranks``.

    >>> list(occurrences((1, 3, 2), (2, 1, 4, 3)))
    [(2, 4, 3), (1, 4, 3)]
    """
    order = [0] * len(pattern)
    for i, v in enumerate(pattern):
        order[v - 1] = i
    for values in combinations(w, len(order)):
        prev = 0  # below every entry
        for i in order:
            value = values[i]
            if value < prev:
                break
            prev = value
        else:
            yield values


def subwords(w: Permutation, m: int):
    """All size-m index selections of w, in lexicographic index order."""
    if not 0 <= m <= len(w):
        raise ValueError(f"subword size {m} out of range for size {len(w)}")
    for idx in combinations(range(1, len(w) + 1), m):
        yield SubwordSelection(w, idx)


def pattern_count(u: Permutation, w: Permutation) -> int:
    """Number of subwords of w order-isomorphic to u; 0 means w avoids u."""
    return sum(1 for _ in occurrences(u, w))


def pattern_census(w: Permutation) -> dict[tuple[int, ...], int]:
    """Occurrence counts of every pattern of w (the full word included)."""
    n = len(w)
    census: dict[tuple[int, ...], int] = {}
    for m in range(n + 1):
        for values in combinations(w, m):
            key = ranks(values)
            census[key] = census.get(key, 0) + 1
    return census


PATTERN_1243 = Permutation((1, 2, 4, 3))
PATTERN_2143 = Permutation((2, 1, 4, 3))
PATTERN_132 = Permutation((1, 3, 2))


def is_vexillary(w: Permutation) -> bool:
    """Vexillary means 2143-avoiding."""
    return w.avoids(PATTERN_2143)


def skew_sum(u: Permutation, v: Permutation) -> Permutation:
    """u shifted above v: (u1+n)...(um+n) v1...vn."""
    n = len(v)
    return Permutation(tuple(a + n for a in u) + tuple(v))


def layered(n: int) -> list[Permutation]:
    """All layered permutations of size n, one per composition of n.

    Each composition (n_1, ..., n_k) contributes the concatenation of
    decreasing blocks n_1..1, (n_1+n_2)..(n_1+1), and so on: a first block
    of size k, then a layered word of size n - k shifted up by k.  Taking
    k ascending gives the words in lexicographic order.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return [Permutation()]
    return [Permutation._trusted(tuple(range(k, 0, -1)) + tuple(v + k for v in rest))
            for k in range(1, n + 1) for rest in layered(n - k)]


def all_perms(n: int) -> tuple[Permutation, ...]:
    """All of S_n in lexicographic order, kept in the table store."""
    return stored("perms", n, _build_perms)


def _build_perms(n: int) -> tuple[Permutation, ...]:
    return tuple(map(Permutation._trusted, permutations(range(1, n + 1))))
