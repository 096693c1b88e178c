"""Oracles for the trace kept on each grid, read off the row records, for
the grids that the stream and removal read off the transition table, and
for the removable-pipe reports."""

import gc

import pytest

from pipedream import (BpdGrid, BrokenStrand, GridError, InconsistentAsm,
                       Permutation, PipeTrace, SubwordSelection, insert, remove,
                       removable_pipes, resolve, trace, validate)
from pipedream import enumeration, store
from pipedream import grid as grid_module
from pipedream.enumeration import bpd_stream, iter_asm_rows, table_path
from pipedream.grid import (COL_MAJOR, ROW_MAJOR, Tile, grid_records, row_record, scan,
                            tiles_from_asm_rows)
from pipedream.store import clear_caches, stored


def scanned(grid):
    """A fresh trace of the grid, straight off ``scan``."""
    word, crossings, _ = scan(grid.rows, grid.n)
    return PipeTrace(Permutation(word), crossings)


def outcome(check, *args, **kwargs):
    """The class and message of the fault ``check`` raises, or None."""
    try:
        check(*args, **kwargs)
    except GridError as exc:
        return type(exc), str(exc)
    return None


def tile_count_pipes(grid):
    """The removable pipes by the tile-count rule ``removable_pipes``
    followed before it read the row records: pipe w(x) -> x is removable
    when the r-elbow at its exit cell is the only one in its row and its
    column.  Kept only as an oracle."""
    rows = grid.rows
    w = trace(grid).perm
    pipes = []
    for x, row in enumerate(rows, start=1):
        j = w[x - 1] - 1
        if (row[j] is Tile.R_ELBOW and row.count(Tile.R_ELBOW) == 1
                and sum(r[j] is Tile.R_ELBOW for r in rows) == 1):
            pipes.append((j + 1, x))
    return sorted(pipes)


def derived_grids():
    """For every grid with n <= 6: its resolved grids in both scan orders
    (with bump rows where it is nonreduced), its removal image and the
    insertion of that image."""
    for n in range(7):
        for grid in bpd_stream(n):
            for order in (COL_MAJOR, ROW_MAJOR):
                resolved, _ = resolve(grid, order)
                if resolved is not grid:
                    yield resolved
            image, v = remove(grid)
            if image is not grid:
                yield image
            yield insert(image, v.host, v)


def interned(grid):
    """Whether the store holds this very object as the grid of its rows."""
    return store._TABLES.get(("grids", grid.n), {}).get(grid.rows) is grid


def table_rows(n):
    """The ids of the tile rows the transition table of size n holds."""
    table = stored("transitions", n, enumeration._transitions)
    return {id(move.tiles) for moves in table.values() for move in moves.values()}


@pytest.mark.parametrize("memo_max_n", [enumeration._MEMO_MAX_N, 2])
def test_trace_equals_a_fresh_scan(memo_max_n, cold_caches, monkeypatch):
    # with the memo capped at 2, sizes 3..6 run the streamed, uncached branch
    monkeypatch.setattr(enumeration, "_MEMO_MAX_N", memo_max_n)
    for n in range(7):
        shared = {}
        for grid in bpd_stream(n):
            tr = trace(grid)
            assert tr == scanned(grid)
            assert trace(grid) is tr
            if tr.is_reduced:
                # every reduced grid of w holds the one trace of w
                assert shared.setdefault(tr.perm, tr) is tr
            # the cached trace is no field: equality and hashing see rows only
            twin = BpdGrid(grid.rows)
            assert twin == grid and hash(twin) == hash(grid)


def test_trace_and_validate_equal_a_fresh_scan_on_derived_grids(cold_caches, monkeypatch):
    # with the memo capped at 2, the images and insertions of sizes 3..6
    # are built fresh instead of being the stream's own grids
    for memo_max_n in (enumeration._MEMO_MAX_N, 2):
        clear_caches()
        monkeypatch.setattr(enumeration, "_MEMO_MAX_N", memo_max_n)
        check_derived_grids(memo_max_n)


def check_derived_grids(memo_max_n):
    """Trace and validate every derived grid against a fresh scan, under a
    memo capped at ``memo_max_n``."""
    bumped = fresh = 0
    for grid in derived_grids():
        if interned(grid):
            assert grid.n <= memo_max_n
        else:
            # a grid no other caller can reach was never traced
            assert grid._trace is None
            fresh += 1
        tr = trace(grid)
        assert tr == scanned(grid)
        for allow_bump in (False, True):
            assert outcome(validate, grid, allow_bump) == outcome(
                scan, grid.rows, grid.n, allow_bump=allow_bump)
        bumped += grid.count(Tile.BUMP) > 0
    # the nonreduced grids of sizes 4..6 resolve with bumps in both orders
    assert bumped > 0
    # resolved diagrams are never interned, and neither, with the memo
    # capped, are the removal images and insertions above the cap
    assert fresh >= bumped
    if memo_max_n == 2:
        assert fresh > bumped


def test_kept_removal_and_resolution_equal_a_fresh_twin(cold_caches):
    def values(g):
        image, v = remove(g)
        resolved, typ = resolve(g, COL_MAJOR)
        return image.rows, v.host, v.indices, resolved.rows, typ

    grids = [grid for n in range(7) for grid in bpd_stream(n)]
    kept = []
    for grid in grids:
        image, v = remove(grid)
        resolved, typ = resolve(grid, COL_MAJOR)
        kept.append((image.rows, v.host, v.indices, resolved.rows, typ))
        # a second call returns the same objects
        again, w = remove(grid)
        assert again is image
        assert w is v or image is grid
        diagram, typ2 = resolve(grid, COL_MAJOR)
        assert diagram is resolved
        assert typ2 is typ or resolved is grid
        # the expansion of the image is the stream's grid itself
        assert insert(image, v.host, v) is grid
        assert (grid._removal is not None) is (image is not grid)
        assert (grid._resolution is not None) is (resolved is not grid)
    # the same values on fresh twins, from a store that holds none of the
    # kept results
    clear_caches()
    assert [values(BpdGrid(grid.rows)) for grid in grids] == kept
    # only the nonreduced grids keep a resolution: 1 of size 4, 36 of size
    # 5 and 1356 of size 6
    assert sum(grid._resolution is not None for grid in grids) == sum(
        not trace(grid).is_reduced for grid in grids) == 1 + 36 + 1356


@pytest.mark.parametrize("memo_max_n", [enumeration._MEMO_MAX_N, 2])
def test_kept_records_are_the_row_records(memo_max_n, cold_caches, monkeypatch):
    # with the memo capped at 2, the grids of sizes 3..6 are above the cap
    monkeypatch.setattr(enumeration, "_MEMO_MAX_N", memo_max_n)
    grids = [grid for n in range(7) for grid in bpd_stream(n)]
    # a grid read off the table of moves keeps its path from the start
    assert all((grid._records is not None) is (grid.n <= memo_max_n) for grid in grids)
    twins = [BpdGrid(grid.rows) for grid in grids]
    for grid in grids + twins + list(derived_grids()):
        records = grid_records(grid)
        assert type(records) is tuple
        assert len(records) == grid.n
        assert all(a is row_record(row) for a, row in zip(records, grid.rows))
        if grid.n <= memo_max_n:
            assert grid._records is records
            assert grid_records(grid) is records
        else:
            assert grid._records is None
    # above the cap nothing is kept, read by any caller
    big = BpdGrid.identity(enumeration._MEMO_MAX_N + 1)
    for read in (grid_records, trace, validate, removable_pipes, remove, resolve):
        read(big)
    assert big._records is None


def test_removable_pipes_equal_the_tile_count_rule():
    images = 0
    for n in range(7):
        for grid in bpd_stream(n):
            assert list(removable_pipes(grid).pipes) == tile_count_pipes(grid)
            image, _ = remove(grid)
            assert list(removable_pipes(image).pipes) == tile_count_pipes(image) == []
            images += 1
    assert images == 1 + 1 + 2 + 7 + 42 + 429 + 7436


def test_removable_pipes_follow_the_exit_cell_on_bumped_grids():
    # row 2 is a unit row whose +1 is alone in column 2, but the bump east
    # of it turns pipe 2 north, so w(2) != 2 and the pipe is not removable
    grid = BpdGrid.from_ascii("..r-\n.rb-\nr+jr\n||r+")
    assert trace(grid).perm[1] != 2
    assert list(removable_pipes(grid).pipes) == tile_count_pipes(grid) == []


def test_well_formed_grids_are_never_scanned(monkeypatch):
    grids = [BpdGrid(grid.rows) for n in range(7) for grid in bpd_stream(n)]
    calls = []
    real = grid_module.scan

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grid_module, "scan", counted)
    for grid in grids:
        validate(grid)
        trace(grid)
        removable_pipes(grid)
    assert calls == []


def test_stored_grids_are_scanned_once(cold_caches, monkeypatch):
    for grid in bpd_stream(5):
        trace(grid)
    calls = []
    real = grid_module.scan

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(grid_module, "scan", counted)
    for grid in bpd_stream(5):
        trace(grid)
    assert calls == []


def test_shared_traces_are_read_only():
    grid = BpdGrid.from_ascii(".r\nr+")  # w = 21, reduced, one crossing
    tr = trace(grid)
    assert tr.is_reduced and tr.crossings == {(1, 2): 1}
    with pytest.raises(TypeError):
        tr.crossings[1, 2] = 2
    assert trace(BpdGrid(grid.rows)) is tr


def test_malformed_grid_raises_on_every_call():
    bad = BpdGrid.from_ascii(".r\nrr")
    for _ in range(2):
        with pytest.raises(BrokenStrand):
            trace(bad)


def test_shared_traces_live_as_long_as_a_grid_holds_them():
    # size 10 lies above every stored stream, so no other grid holds it
    grid = BpdGrid.identity(10)
    word = tuple(trace(grid).perm)
    assert word in store._TABLES["traces", 10]
    del grid
    gc.collect()
    assert word not in store._TABLES["traces", 10]


def removal_grids():
    """Every grid with n <= 6, and its removal image and the insertion of
    that image, as (grid, image, back) triples."""
    for n in range(7):
        for grid in bpd_stream(n):
            image, v = remove(grid)
            yield grid, image, insert(image, v.host, v)


def test_table_built_grids_equal_the_coerced_grids():
    for triple in removal_grids():
        # the column-major diagram is built from the scan's rows the same way
        for grid in triple + (resolve(triple[0])[0],):
            n = grid.n
            assert type(grid.rows) is tuple
            assert all(type(row) is tuple and len(row) == n for row in grid.rows)
            assert all(type(t) is Tile for row in grid.rows for t in row)
            assert BpdGrid(grid.rows) == grid
            # the coercing constructor turns plain ints into the same tiles
            assert BpdGrid([[int(t) for t in row] for row in grid.rows]) == grid


def test_reports_build_their_subword_when_read():
    for grid, image, _ in removal_grids():
        for g in (grid, image):
            report = removable_pipes(g)
            sel = report.subword
            # built without the checks, it is the checked selection
            checked = SubwordSelection(report.trace.perm, report.indices)
            assert sel == checked and hash(sel) == hash(checked)
            assert sel.host is report.trace.perm
            assert sel.pattern() == checked.pattern()
            assert sorted(report.indices + tuple(x for _, x in report.pipes)) == list(
                range(1, g.n + 1))


def test_table_tiles_match_the_matrix_rebuild():
    for n in range(7):
        own = table_rows(n)
        for rows in iter_asm_rows(n):
            path = table_path(rows, n)
            assert tuple(move.entries for move in path) == rows
            tiles = tuple(move.tiles for move in path)
            assert tiles == tiles_from_asm_rows(rows, n)
            assert all(id(row) in own for row in tiles)


def test_removal_grids_share_the_table_rows():
    own = [table_rows(n) for n in range(7)]
    for n in range(7):
        for grid in bpd_stream(n):
            image, v = remove(grid)
            assert all(id(row) in own[image.n] for row in image.rows)
            back = insert(image, v.host, v)
            assert back == grid
            assert all(id(row) in own[n] for row in back.rows)


def test_moves_built_first_are_kept_by_the_full_table(cold_caches):
    n = 5
    matrices = list(iter_asm_rows(n))
    clear_caches()
    early = [[move.tiles for move in table_path(rows, n)] for rows in matrices[::7]]
    assert ("transitions", n) not in store._TABLES
    # completing the table keeps the moves made so far and the entry order
    assert list(iter_asm_rows(n)) == matrices
    own = table_rows(n)
    assert all(id(row) in own for tiles in early for row in tiles)


def test_illegal_row_raises_and_is_not_kept(cold_caches):
    counts = {n: len(list(iter_asm_rows(n))) for n in (2, 3)}
    with pytest.raises(InconsistentAsm):
        table_path(((1, 0), (1, 0)), 2)   # column 1 would sum to 2
    with pytest.raises(InconsistentAsm):
        table_path(((0, 1, 0), (0, 0, 0), (1, 0, 0)), 3)  # a row summing to 0
    # the completed tables still walk exactly the matrices
    assert {n: len(list(iter_asm_rows(n))) for n in (2, 3)} == counts == {2: 2, 3: 7}
