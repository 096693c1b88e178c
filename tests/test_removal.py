import time
from bisect import bisect_left
from itertools import product

import pytest

from pipedream import (Asm, BpdGrid, BrokenStrand, NotMinimal, Permutation,
                       SubwordMismatch, SubwordSelection, Tile,
                       from_asm, insert, query, remove, removable_pipes, trace,
                       validate)
from pipedream import store
from pipedream.enumeration import bpd_stream
from pipedream.grid import _EAST, _NORTH, _SOUTH
from pipedream.perms import all_perms, subwords
from pipedream.specialization import minimal_sets
from conftest import contract_oracle, load_grid


def tile_insert(image, w, v):
    """Insertion on the tiles, the route ``insert`` took before it worked
    on the matrix: spread the image's columns and then its rows over the
    subword's positions, bridging every strand across the gaps, and then
    draw each removed pipe y->x as an undrooped hook crossing what it
    meets.  Kept only as an oracle; assumes ``insert``'s preconditions."""
    n, m = w.size, image.n
    s = v.indices
    t = tuple(sorted(v.values()))
    mid = []
    for irow in image.rows:
        row = []
        for c in range(1, n + 1):
            left = bisect_left(t, c)
            if c in t:
                row.append(irow[left])
            elif left and irow[left - 1] in _EAST:
                row.append(Tile.HORIZONTAL)
            else:
                row.append(Tile.BLANK)
        mid.append(row)
    full = []
    for r in range(1, n + 1):
        above = bisect_left(s, r)
        if r in s:
            full.append(list(mid[above]))
        elif m == 0:
            full.append([Tile.BLANK] * n)
        elif above < m:
            full.append([Tile.VERTICAL if x in _NORTH else Tile.BLANK for x in mid[above]])
        else:
            full.append([Tile.VERTICAL if x in _SOUTH else Tile.BLANK for x in mid[m - 1]])
    winv = w.inverse()
    for y in range(1, n + 1):
        if y in t:
            continue
        x = winv[y - 1]
        for i in range(x + 1, n + 1):
            cur = full[i - 1][y - 1]
            assert cur in (Tile.BLANK, Tile.HORIZONTAL), f"hook column {y} blocked"
            full[i - 1][y - 1] = Tile.VERTICAL if cur is Tile.BLANK else Tile.CROSS
        assert full[x - 1][y - 1] is Tile.BLANK, f"hook corner ({x}, {y}) occupied"
        full[x - 1][y - 1] = Tile.R_ELBOW
        for c in range(y + 1, n + 1):
            cur = full[x - 1][c - 1]
            assert cur in (Tile.BLANK, Tile.VERTICAL), f"hook row {x} blocked"
            full[x - 1][c - 1] = Tile.HORIZONTAL if cur is Tile.BLANK else Tile.CROSS
    out = BpdGrid(tuple(tuple(row) for row in full))
    validate(out)
    return out


def P(text):
    return Permutation.from_text(text)


class TestRemove:
    def test_figure_removal(self, fig_bpd_1):
        image, v = remove(fig_bpd_1)
        assert v.values() == (2, 1, 7, 5, 3)
        assert v.pattern() == P("21543")
        assert image == load_grid("fig_phi_image")
        assert trace(image).perm == P("21543")
        assert removable_pipes(image).minimal

    def test_minimal_grid_unchanged(self):
        g = load_grid("fig_min_bpd_right")
        image, v = remove(g)
        assert image == g
        assert v == SubwordSelection.full(trace(g).perm)

    def test_identity_collapses_to_empty(self):
        image, v = remove(BpdGrid.identity(3))
        assert image.n == 0
        assert v.values() == ()

    def test_jelbow_count_preserved(self, fig_bpd_1):
        image, _ = remove(fig_bpd_1)
        assert image.count(Tile.J_ELBOW) == fig_bpd_1.count(Tile.J_ELBOW)

    def test_matches_contraction_oracle(self):
        for n in range(1, 6):
            for grid in bpd_stream(n):
                image, _ = remove(grid)
                assert image == contract_oracle(grid)

    def test_large_grid_builds_only_the_rows_it_takes(self):
        # size 16, far above the enumeration guard: a lone pipe 1->1, then
        # five copies of the 3x3 matrix with a -1; the table of moves is
        # filled only along the two matrices, never completed
        block = ((0, 1, 0), (1, -1, 1), (0, 1, 0))
        n = 16
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = 1
        for k in range(5):
            for i, entries in enumerate(block):
                rows[1 + 3 * k + i][1 + 3 * k:4 + 3 * k] = entries
        grid = from_asm(Asm.from_rows(rows))
        start = time.perf_counter()
        image, v = remove(grid)
        back = insert(image, v.host, v)
        elapsed = time.perf_counter() - start
        assert v.indices == tuple(range(2, 17)) and image.n == 15
        assert back == grid
        assert ("transitions", 15) not in store._TABLES
        assert ("transitions", 16) not in store._TABLES
        assert elapsed < 5

    def test_bump_tile_fails_as_in_validate(self):
        # the resolved form of a nonreduced grid of 1243: a valid bumped
        # grid, and still no raw grid
        grid = BpdGrid.from_ascii("..r-\n.rb-\nr+jr\n||r+")
        with pytest.raises(BrokenStrand) as expected:
            validate(grid)
        with pytest.raises(BrokenStrand) as got:
            remove(grid)
        assert str(got.value) == str(expected.value)
        assert "bump" in str(got.value)


class TestInsert:
    def test_figure_reconstruction(self, fig_bpd_1):
        image = load_grid("fig_phi_image")
        w = P("2164753")
        v = SubwordSelection.of_values(w, (2, 1, 7, 5, 3))
        assert insert(image, w, v) == fig_bpd_1

    def test_empty_image_gives_identity(self):
        for n in range(1, 5):
            w = Permutation.identity(n)
            out = insert(BpdGrid(()), w, SubwordSelection(w, ()))
            assert out == BpdGrid.identity(n)

    def test_rejects_nonminimal_image(self, fig_bpd_1):
        w = trace(fig_bpd_1).perm
        with pytest.raises(NotMinimal):
            insert(fig_bpd_1, w, SubwordSelection.full(w))

    def test_rejects_size_mismatch(self):
        w = P("2164753")
        with pytest.raises(SubwordMismatch):
            insert(load_grid("fig_phi_image"), w, SubwordSelection(w, (1, 2, 3)))

    def test_rejects_foreign_host(self):
        image = load_grid("fig_phi_image")
        v = SubwordSelection.full(P("21543"))
        with pytest.raises(SubwordMismatch):
            insert(image, P("21453"), v)

    def test_rejects_pattern_mismatch(self):
        # selection flattens to 21453, not the image's 21543
        image = load_grid("fig_phi_image")
        w = P("21453")
        with pytest.raises(SubwordMismatch):
            insert(image, w, SubwordSelection.full(w))

    def test_bump_tile_in_image_fails(self):
        image = BpdGrid.from_ascii("..r-\n.rb-\nr+jr\n||r+")
        w = trace(image).perm
        with pytest.raises(BrokenStrand, match="bump tile in a raw grid"):
            insert(image, w, SubwordSelection.full(w))
        host = Permutation((1,) + tuple(x + 1 for x in w))
        with pytest.raises(BrokenStrand, match="bump tile in a raw grid"):
            insert(image, host, SubwordSelection(host, (2, 3, 4, 5)))

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for grid in bpd_stream(n):
                image, v = remove(grid)
                assert insert(image, v.host, v) == grid

    def test_matches_tile_insertion(self):
        # every (w, v, minimal image of v's pattern) with n <= 6: the whole
        # domain on which insert's preconditions hold
        triples = 0
        for n in range(7):
            for w, m in product(all_perms(n), range(n + 1)):
                for v in subwords(w, m):
                    images = minimal_sets(m).get(v.pattern(), ((), ()))[0]
                    for image in images:
                        triples += 1
                        assert insert(image, w, v) == tile_insert(image, w, v)
        assert triples == 7918


class TestReducedBehaviour:
    def test_reduced_images_stay_reduced(self):
        for n in range(1, 6):
            for grid in bpd_stream(n):
                if not trace(grid).is_reduced:
                    continue
                image, _ = remove(grid)
                assert trace(image).is_reduced

    def test_strict_inclusion_at_1243(self):
        # the reduced stratum of subword 143 is empty although the minimal
        # reduced family of its pattern is not
        w = P("1243")
        v = SubwordSelection.of_values(w, (1, 4, 3))
        assert v.pattern() == P("132")
        assert query("bpd", w, v) == []
        assert query("mbpd", P("132")) != []
