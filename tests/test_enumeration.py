import pytest

from pipedream import (BpdGrid, GuardExceeded, Permutation, SetQuery,
                       SubwordMismatch, SubwordSelection, count_asms_bruteforce,
                       count_asms_literal, enumerate_asm, from_asm, query,
                       removable_pipes, remove, size_guard, trace)
from pipedream import enumeration, store
from pipedream.enumeration import bpd_stream, iter_asm_rows
from pipedream.grid import Tile, tiles_from_asm_rows
from pipedream.perms import all_perms
from pipedream.store import stored
from conftest import load_grid


def P(text):
    return Permutation.from_text(text)


class TestAsmStream:
    def test_counts(self):
        known = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436}
        for n, expected in known.items():
            assert sum(1 for _ in enumerate_asm(n)) == expected

    def test_distinct_and_deterministic(self):
        seen = list(iter_asm_rows(4))
        assert len(set(seen)) == len(seen)
        assert seen == list(iter_asm_rows(4))

    def test_brute_force_agreement(self):
        for n in range(1, 5):
            assert count_asms_bruteforce(n) == sum(1 for _ in enumerate_asm(n))
        for n in range(1, 4):
            assert count_asms_literal(n) == count_asms_bruteforce(n)
        with pytest.raises(GuardExceeded):
            count_asms_literal(4)

    def test_every_permutation_has_a_grid(self):
        for n in range(1, 5):
            perms = {trace(from_asm(a)).perm for a in enumerate_asm(n)}
            assert perms == set(all_perms(n))


def _rebuilt(n):
    return [BpdGrid(tiles_from_asm_rows(rows, n)) for rows in iter_asm_rows(n)]


class TestGridStream:
    def test_stored_branch_matches_rebuilt_tiles(self):
        for n in range(7):
            assert list(bpd_stream(n)) == _rebuilt(n)

    def test_streamed_branch_matches_rebuilt_tiles(self, cold_caches, monkeypatch):
        monkeypatch.setattr(enumeration, "_MEMO_MAX_N", 2)
        for n in range(3, 7):
            assert list(bpd_stream(n)) == _rebuilt(n)
            assert ("bpd", n) not in store._TABLES

    def test_streamed_grids_share_the_table_rows(self, cold_caches, monkeypatch):
        monkeypatch.setattr(enumeration, "_MEMO_MAX_N", 2)
        table = stored("transitions", 5, enumeration._transitions)
        own = {id(move.tiles) for moves in table.values() for move in moves.values()}
        for grid in bpd_stream(5):
            assert all(id(row) in own for row in grid.rows)


def removable_pipes_by_full_count(grid):
    """(pipes, subword) as ``removable_pipes`` found them before it counted
    only the candidate rows and columns: r-elbows counted in every row
    and, through a transpose, in every column."""
    n = grid.n
    w = trace(grid).perm
    row_elbows = [row.count(Tile.R_ELBOW) for row in grid.rows]
    col_elbows = [col.count(Tile.R_ELBOW) for col in zip(*grid.rows)]
    pipes = []
    for x in range(1, n + 1):
        y = w[x - 1]
        if (grid.tile(x, y) is Tile.R_ELBOW
                and row_elbows[x - 1] == 1 and col_elbows[y - 1] == 1):
            pipes.append((y, x))
    pipes.sort()
    removed_rows = {x for _, x in pipes}
    indices = tuple(i for i in range(1, n + 1) if i not in removed_rows)
    return tuple(pipes), SubwordSelection(w, indices)


class TestRemovablePipes:
    def test_matches_full_count_oracle(self):
        # every grid with n <= 6 and every image remove makes of one
        for n in range(7):
            for grid in bpd_stream(n):
                for g in (grid, remove(grid)[0]):
                    report = removable_pipes(g)
                    assert (report.pipes, report.subword) == removable_pipes_by_full_count(g)
                    assert report.trace == trace(g)

    def test_left_min_bpd_figure(self, fig_bpd_1):
        report = removable_pipes(fig_bpd_1)
        assert report.pipes == ((4, 4), (6, 3))
        assert report.subword.values() == (2, 1, 7, 5, 3)
        assert report.subword.indices == (1, 2, 5, 6, 7)
        assert not report.minimal

    def test_right_min_bpd_figure(self):
        report = removable_pipes(load_grid("fig_min_bpd_right"))
        assert report.pipes == ()
        assert report.minimal
        assert report.subword.values() == (2, 1, 6, 4, 7, 5, 3)

    def test_identity_all_removable(self):
        for n in range(1, 6):
            report = removable_pipes(BpdGrid.identity(n))
            assert len(report.pipes) == n
            assert report.pipes == tuple((k, k) for k in range(1, n + 1))
            assert report.subword.values() == ()

    def test_pipes_sorted_by_entry_column(self):
        for asm in enumerate_asm(4):
            pipes = removable_pipes(from_asm(asm)).pipes
            assert list(pipes) == sorted(pipes)

    def test_removable_pipes_are_undrooped(self):
        # the removable hook never turns through a j-elbow
        for asm in enumerate_asm(4):
            grid = from_asm(asm)
            for y, x in removable_pipes(grid).pipes:
                for i in range(x + 1, 5):
                    assert grid.tile(i, y) in (Tile.VERTICAL, Tile.CROSS)
                for j in range(y + 1, 5):
                    assert grid.tile(x, j) in (Tile.HORIZONTAL, Tile.CROSS)


class TestQuery:
    def test_red_bpd_family(self, red_bpds):
        w = P("1243")
        full = query(SetQuery("BPD", w))
        reduced = query(SetQuery("bpd", w))
        assert len(full) == 4
        assert len(reduced) == 3
        assert set(full) == set(red_bpds)
        assert set(reduced) == set(red_bpds[:3])

    def test_minimal_families(self, red_bpds):
        w = P("1243")
        assert query(SetQuery("mbpd", w)) == [red_bpds[2]]
        assert query(SetQuery("mBPD", w)) == [red_bpds[2]]

    def test_bpd_k_family(self, red_bpds):
        assert set(query(SetQuery("BPD_K", P("1243")))) == set(red_bpds[:3])
        # the blue nonreduced grid has permutation 1243 but type 2143, and
        # sits alongside the honestly-reduced grids of 2143
        type_2143 = set(query(SetQuery("BPD_K", P("2143"))))
        assert red_bpds[3] in type_2143
        assert set(query(SetQuery("bpd", P("2143")))) < type_2143

    def test_subword_strata(self, red_bpds):
        w = P("1243")
        v_243 = SubwordSelection.of_values(w, (2, 4, 3))
        v_143 = SubwordSelection.of_values(w, (1, 4, 3))
        assert query(SetQuery("bpd_v", w, v_243)) == [red_bpds[1]]
        assert query(SetQuery("bpd_v", w, v_143)) == []

    def test_vexillary_type_equals_reduced(self):
        for n in range(1, 6):
            for w in all_perms(n):
                if not w.avoids(P("2143")):
                    continue
                assert set(query(SetQuery("BPD_K", w))) == set(query(SetQuery("bpd", w)))

    def test_guard(self):
        with size_guard(4), pytest.raises(GuardExceeded):
            query(SetQuery("BPD", Permutation.identity(5)))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SetQuery("BPD", P("123"), SubwordSelection(P("123"), (1,)))
        with pytest.raises(ValueError):
            SetQuery("nope", P("123"))

    def test_subword_of_another_host_rejected(self):
        # the same indices of 2143 would silently match no grid of 1243
        w = P("1243")
        assert len(query(SetQuery("bpd_v", w, SubwordSelection(w, (2, 3, 4))))) == 1
        for kind in ("BPD_v", "bpd_v"):
            with pytest.raises(SubwordMismatch):
                SetQuery(kind, w, SubwordSelection(P("2143"), (2, 3, 4)))


class TestPartitionLaws:
    def test_strata_partition_bpd(self):
        # every grid of w lands in exactly one subword stratum; a single
        # grouped pass makes this feasible through size 5
        from pipedream.enumeration import bpd_stream

        for n in range(1, 6):
            strata = {}
            per_perm = {}
            per_perm_reduced = {}
            for grid in bpd_stream(n):
                report = removable_pipes(grid)
                sel = report.subword
                key = (sel.host, sel.indices)
                strata[key] = strata.get(key, 0) + 1
                per_perm[sel.host] = per_perm.get(sel.host, 0) + 1
                if trace(grid).is_reduced:
                    per_perm_reduced[sel.host] = per_perm_reduced.get(sel.host, 0) + 1
            for w in all_perms(n):
                total = sum(c for (host, _), c in strata.items() if host == w)
                assert total == per_perm.get(w, 0)
            assert sum(per_perm.values()) == sum(1 for _ in enumerate_asm(n))

    def test_strata_partition_small_cross_check(self):
        # the grouped pass above agrees with literal per-stratum queries
        from pipedream.perms import all_subwords

        for n in range(1, 5):
            for w in all_perms(n):
                full = query(SetQuery("BPD", w))
                reduced = query(SetQuery("bpd", w))
                by_strata = []
                by_strata_reduced = []
                for sel in all_subwords(w):
                    by_strata.extend(query(SetQuery("BPD_v", w, sel)))
                    by_strata_reduced.extend(query(SetQuery("bpd_v", w, sel)))
                assert sorted(map(hash, by_strata)) == sorted(map(hash, full))
                assert sorted(map(hash, by_strata_reduced)) == sorted(map(hash, reduced))

    def test_full_word_stratum_is_minimal_family(self):
        for n in range(1, 5):
            for w in all_perms(n):
                sel = SubwordSelection.full(w)
                assert (query(SetQuery("BPD_v", w, sel))
                        == query(SetQuery("mBPD", w)))
                assert (query(SetQuery("bpd_v", w, sel))
                        == query(SetQuery("mbpd", w)))

    def test_grid_counts_sum_to_asm_count(self):
        for n in range(1, 6):
            total = sum(len(query(SetQuery("BPD", w))) for w in all_perms(n))
            assert total == sum(1 for _ in enumerate_asm(n))
