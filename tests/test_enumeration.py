import hashlib
import random
from collections import defaultdict
from itertools import chain
from math import factorial

import pytest

from pipedream import (BpdGrid, GuardExceeded, Permutation,
                       SubwordMismatch, SubwordSelection, count_asms_bruteforce,
                       count_asms_literal, enumerate_asm, from_asm, query,
                       nu, removable_pipes, remove, resolve, size_guard, subwords,
                       trace)
from pipedream import enumeration, store
from pipedream.enumeration import (QUERY_KINDS, bpd_stream, iter_asm_rows, iter_query,
                                   table_path)
from pipedream.grid import Tile, tiles_from_asm_rows
from pipedream.perms import all_perms
from pipedream.specialization import interval_nu
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
        full = query("BPD", w)
        reduced = query("bpd", w)
        assert len(full) == 4
        assert len(reduced) == 3
        assert set(full) == set(red_bpds)
        assert set(reduced) == set(red_bpds[:3])

    def test_minimal_families(self, red_bpds):
        w = P("1243")
        assert query("mbpd", w) == [red_bpds[2]]
        assert query("mBPD", w) == [red_bpds[2]]

    def test_bpd_k_family(self, red_bpds):
        assert set(query("BPD_K", P("1243"))) == set(red_bpds[:3])
        # the blue nonreduced grid has permutation 1243 but type 2143, and
        # sits alongside the honestly-reduced grids of 2143
        type_2143 = set(query("BPD_K", P("2143")))
        assert red_bpds[3] in type_2143
        assert set(query("bpd", P("2143"))) < type_2143

    def test_subword_strata(self, red_bpds):
        w = P("1243")
        v_243 = SubwordSelection.of_values(w, (2, 4, 3))
        v_143 = SubwordSelection.of_values(w, (1, 4, 3))
        assert query("bpd", w, v_243) == [red_bpds[1]]
        assert query("bpd", w, v_143) == []

    def test_vexillary_type_equals_reduced(self):
        for n in range(1, 6):
            for w in all_perms(n):
                if not w.avoids(P("2143")):
                    continue
                assert set(query("BPD_K", w)) == set(query("bpd", w))

    def test_guard(self):
        with size_guard(4), pytest.raises(GuardExceeded):
            query("BPD", Permutation.identity(5))

    def test_kind_validation(self):
        # only BPD and bpd take a subword
        for kind in ("BPD_K", "mBPD", "mbpd"):
            for v in (SubwordSelection(P("123"), (1,)), SubwordSelection.full(P("123"))):
                with pytest.raises(ValueError):
                    query(kind, P("123"), v)
        with pytest.raises(ValueError):
            query("nope", P("123"))

    def test_subword_of_another_host_rejected(self):
        # the same indices of 2143 would silently match no grid of 1243
        w = P("1243")
        assert len(query("bpd", w, SubwordSelection(w, (2, 3, 4)))) == 1
        for kind in ("BPD", "bpd"):
            with pytest.raises(SubwordMismatch):
                query(kind, w, SubwordSelection(P("2143"), (2, 3, 4)))


def _stream_families(n, words=None):
    """The families ``query`` serves at size n, from one filter over the
    grid stream: {(kind, w): grids} in stream order, selected by type for
    BPD_K and by permutation otherwise, by reducedness for the lowercase
    kinds and by ``removable_pipes(g).minimal`` for the m-kinds.  With
    ``words``, only the families of those words, and no BPD_K."""
    families = defaultdict(list)
    for grid in bpd_stream(n):
        tr = trace(grid)
        if words is None:
            families["BPD_K", resolve(grid)[1]].append(grid)
        elif tr.perm not in words:
            continue
        minimal = removable_pipes(grid).minimal
        for kind in ("BPD", "bpd") if tr.is_reduced else ("BPD",):
            families[kind, tr.perm].append(grid)
            if minimal:
                families["m" + kind, tr.perm].append(grid)
    return families


def _assert_oracle(n, kinds, words=None):
    """``query`` gives the stream filter's list for each kind and word of
    size n, and up to ``_MEMO_MAX_N`` the same grid objects."""
    families = _stream_families(n, words)
    for w in all_perms(n) if words is None else words:
        for kind in kinds:
            got, expected = query(kind, w), families[kind, w]
            assert got == expected, (kind, w)
            if n <= enumeration._MEMO_MAX_N:
                assert all(a is b for a, b in zip(got, expected)), (kind, w)


# the kinds ``query`` reads off the walk over one word's grids; BPD_K is
# the stream filter itself, and costs about 20 ms a word at size 6
WALKED_KINDS = ("BPD", "bpd", "mBPD", "mbpd")

# sha256 of each grid's ascii followed by a blank line, over bpd_stream(n)
STREAM_DIGESTS = {
    0: "75a11da44c802486bc6f65640aa48a730f0f684c5c07a42ba3cd1735eb3fb070",
    1: "da0da532cbeb52cebe0bf1c10243a5ceff82eb2c3510e50fa81a3651f6a6f48e",
    2: "8e1c91d1e7db4b6dc6c468f1725377f81bfe0803fa9dfefb99474abb0f568073",
    3: "cff708c8e5ec4cf8e1290938e749584546bdfceb5bf3b7489b29cbe7c179fd97",
    4: "51b2b7e23bb0164fd81af82adb3a295d7c62b8d9bd46d82cdf2653c8fdcdd30e",
    5: "29787cde3ec5ef2a3c521a476327821a3a066fd74731d834f607fa2ea10741b1",
    6: "c873df19ed68119f837c9298f9fc40b117a2aec2cae26b95a9ca70df82b3aee2",
}


def _stream_digest(n):
    text = "".join(grid.to_ascii() + "\n\n" for grid in bpd_stream(n))
    return hashlib.sha256(text.encode()).hexdigest()


class TestQueryOracle:
    # the stream filter the walk over one word's grids must match

    def test_every_kind_up_to_size_5(self):
        for n in range(6):
            _assert_oracle(n, QUERY_KINDS)

    def test_walked_kinds_at_size_6(self):
        _assert_oracle(6, WALKED_KINDS)

    def test_seeded_sample_at_size_7(self):
        words = set(random.Random(7).sample(all_perms(7), 100))
        _assert_oracle(7, WALKED_KINDS, words)

    def test_streamed_grids(self, cold_caches, monkeypatch):
        # above the memo size the walk builds each grid anew, as the stream does
        monkeypatch.setattr(enumeration, "_MEMO_MAX_N", 2)
        for n in range(5):
            _assert_oracle(n, QUERY_KINDS)
        for n in (5, 6):
            _assert_oracle(n, WALKED_KINDS)

    def test_every_subword_up_to_size_4(self):
        for n in range(5):
            families = _stream_families(n)
            for w in all_perms(n):
                for v in chain.from_iterable(subwords(w, m) for m in range(n + 1)):
                    for kind in ("BPD", "bpd"):
                        expected = [g for g in families[kind, w]
                                    if removable_pipes(g).indices == v.indices]
                        assert query(kind, w, v) == expected, (kind, w, v)

    def test_reduced_count_is_nu_at_zero(self):
        for n in range(7):
            for w in all_perms(n):
                assert len(query("bpd", w)) == nu(w)(0), w

    def test_after_a_partial_table_of_moves(self, cold_caches):
        # removal and table_path fill the states they pass through one row
        # at a time, out of the walk's order
        for n in (4, 5, 6):
            expected = _stream_families(n)
            matrices = list(iter_asm_rows(n))
            grids = [BpdGrid(tiles_from_asm_rows(rows, n)) for rows in matrices]
            store.clear_caches()
            for rows in reversed(matrices[::7]):
                table_path(rows, n)
            for grid in grids[::5]:
                remove(grid)
            moves = store._TABLES["moves", n]
            assert moves and ("transitions", n) not in store._TABLES
            made = [(state, entries, move) for state, by_entries in moves.items()
                    for entries, move in by_entries.items()]
            found = {(kind, w): query(kind, w) for w in all_perms(n) for kind in WALKED_KINDS}
            families = _stream_families(n)
            for (kind, w), got in found.items():
                assert got == expected[kind, w], (kind, w)
                assert all(a is b for a, b in zip(got, families[kind, w])), (kind, w)
            assert _stream_digest(n) == STREAM_DIGESTS[n]
            # the completed table hands out the moves made before it
            assert all(moves[state][entries] is move for state, entries, move in made)

    def test_stream_unchanged_after_query(self, cold_caches):
        for n in range(7):
            for w in random.Random(n).sample(all_perms(n), min(5, factorial(n))):
                for kind in WALKED_KINDS:
                    query(kind, w)
            assert _stream_digest(n) == STREAM_DIGESTS[n], n

    def test_arguments_checked_on_the_call(self):
        with size_guard(4), pytest.raises(GuardExceeded):
            iter_query("BPD", Permutation.identity(5))
        with pytest.raises(ValueError):
            iter_query("mbpd", P("12"), SubwordSelection.full(P("12")))


@pytest.mark.slow
class TestQueryReach:
    def test_reduced_count_is_nu_at_zero_size_7(self):
        for w in all_perms(7):
            assert len(query("bpd", w)) == nu(w)(0), w

    def test_size_9_word(self):
        w = P("143298765")
        with size_guard(9):
            assert len(query("bpd", w)) == 130130 == interval_nu(w)(0)


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
        for n in range(1, 5):
            for w in all_perms(n):
                full = query("BPD", w)
                reduced = query("bpd", w)
                by_strata = []
                by_strata_reduced = []
                for sel in chain.from_iterable(subwords(w, m) for m in range(n + 1)):
                    by_strata.extend(query("BPD", w, sel))
                    by_strata_reduced.extend(query("bpd", w, sel))
                assert sorted(map(hash, by_strata)) == sorted(map(hash, full))
                assert sorted(map(hash, by_strata_reduced)) == sorted(map(hash, reduced))

    def test_full_word_stratum_is_minimal_family(self):
        for n in range(1, 5):
            for w in all_perms(n):
                sel = SubwordSelection.full(w)
                assert (query("BPD", w, sel)
                        == query("mBPD", w))
                assert (query("bpd", w, sel)
                        == query("mbpd", w))

    def test_grid_counts_sum_to_asm_count(self):
        for n in range(1, 6):
            total = sum(len(query("BPD", w)) for w in all_perms(n))
            assert total == sum(1 for _ in enumerate_asm(n))
