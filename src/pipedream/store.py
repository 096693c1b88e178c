"""The package's one memo, every per-size table keyed by (kind, size),
and the size guard that bounds each table a caller asks for.

The nu, coefficient and grid tables, the table of moves, the members of
S_n, the scan orders' cells, the row records and the weakly held shared
traces are all entries here, so ``clear_caches`` drops every one of them.
"""

from collections.abc import Callable

from .errors import GuardExceeded

DEFAULT_GUARD = 9

_TABLES: dict[tuple[str, int], object] = {}


def check_guard(n: int, guard: int | None = None) -> None:
    """Reject a size below 0 or above the guard (default ``DEFAULT_GUARD``)."""
    limit = DEFAULT_GUARD if guard is None else guard
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
