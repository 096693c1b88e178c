"""The package's one memo, every per-size table keyed by (kind, size),
and the size guard, one setting per call tree (``size_guard``) that every
``check_guard`` reads, so no layer passes it on by hand.

The nu, coefficient and grid tables, the table of moves with the set of
its completed states and the legal matrix rows, the members of S_n, the
scan orders' cells, the row records, the grids of each size up
to 6 (one per tuple of tile rows, with the results kept on them), the
weakly held shared traces, the shared weights, and removal's tables of
contracted rows, spread rows and unit rows are all entries here, so
``clear_caches`` drops every one of them.
"""

from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import GuardExceeded

DEFAULT_GUARD = 9

_LIMIT: ContextVar[int | None] = ContextVar("size_guard", default=None)
_TABLES: dict[tuple[str, int], object] = {}


@contextmanager
def size_guard(limit: int | None):
    """Bound every size checked in the block by ``limit`` (None: the default)."""
    token = _LIMIT.set(limit)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def check_guard(n: int) -> None:
    """Reject a size below 0 or above the guard in force."""
    limit = _LIMIT.get()
    limit = DEFAULT_GUARD if limit is None else limit
    if not 0 <= n <= limit:
        raise GuardExceeded(f"size {n} outside 0..{limit}")


def stored(kind: str, n: int, build: Callable[[int], object]):
    """The ``kind`` table of size n, built by ``build(n)`` on first use."""
    table = _TABLES.get((kind, n))
    if table is None:
        table = _TABLES[kind, n] = build(n)
    return table


def clear_caches() -> None:
    """Drop every stored table (mainly for tests)."""
    _TABLES.clear()
