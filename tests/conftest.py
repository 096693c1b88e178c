from pathlib import Path

import pytest

from pipedream import Asm, BpdGrid, Tile, removable_pipes
from pipedream.store import _TABLES, clear_caches

FIXTURES = Path(__file__).parent / "fixtures"


def contract_oracle(grid):
    """Literal three-step removal: erase the removable hooks, drop their
    rows, then their columns.  Deliberately independent of the library's
    matrix-submatrix implementation."""
    report = removable_pipes(grid)
    n = grid.n
    work = [list(row) for row in grid.rows]
    for y, x in report.pipes:
        for i in range(x + 1, n + 1):
            t = work[i - 1][y - 1]
            work[i - 1][y - 1] = Tile.BLANK if t is Tile.VERTICAL else Tile.HORIZONTAL
        work[x - 1][y - 1] = Tile.BLANK
        for j in range(y + 1, n + 1):
            t = work[x - 1][j - 1]
            work[x - 1][j - 1] = Tile.BLANK if t is Tile.HORIZONTAL else Tile.VERTICAL
    removed_rows = {x for _, x in report.pipes}
    removed_cols = {y for y, _ in report.pipes}
    rows = [row for i, row in enumerate(work, start=1) if i not in removed_rows]
    rows = [tuple(t for j, t in enumerate(row, start=1) if j not in removed_cols)
            for row in rows]
    return BpdGrid(tuple(rows))


def load_grid(name: str) -> BpdGrid:
    return BpdGrid.from_ascii((FIXTURES / f"{name}.txt").read_text())


def load_asm(name: str) -> Asm:
    rows = []
    for line in (FIXTURES / f"{name}.txt").read_text().strip().splitlines():
        rows.append(tuple(int(part) for part in line.split()))
    return Asm.from_rows(rows)


@pytest.fixture
def fig_bpd_1():
    return load_grid("fig_bpd_1")


@pytest.fixture
def fig_bpd_2():
    return load_grid("fig_bpd_2")


@pytest.fixture
def fig_bpd_k():
    return load_grid("fig_bpd_K")


@pytest.fixture
def fig_asm():
    return load_asm("fig_asm")


@pytest.fixture
def red_bpds():
    return [load_grid(f"fig_red_bpd_{k}") for k in (1, 2, 3, 4)]


@pytest.fixture
def cold_caches():
    """Run a test from empty in-process caches, then put the old ones back
    so later tests do not rebuild the large tables."""
    saved = dict(_TABLES)
    clear_caches()
    yield
    clear_caches()
    _TABLES.update(saved)
