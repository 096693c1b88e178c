import json

import pytest

from pipedream import (Asm, BoundaryLeak, BpdGrid, BrokenStrand,
                       InconsistentAsm, NotBijective, Permutation, Tile,
                       enumerate_asm, from_asm, from_json, is_valid, render,
                       resolve, to_asm, trace, validate)
from pipedream.enumeration import bpd_stream

def P(text):
    return Permutation.from_text(text)


class TestValidate:
    def test_figure_grids_are_valid(self, fig_bpd_1, fig_bpd_2):
        validate(fig_bpd_1)
        validate(fig_bpd_2)

    def test_all_blank_1x1(self):
        with pytest.raises((BrokenStrand, NotBijective)):
            validate(BpdGrid(((Tile.BLANK,),)))

    def test_single_elbow_1x1(self):
        g = BpdGrid(((Tile.R_ELBOW,),))
        validate(g)
        assert is_valid(g)

    def test_bump_rejected_in_raw_grid(self):
        with pytest.raises(BrokenStrand):
            validate(BpdGrid(((Tile.BUMP,),)))

    def test_boundary_leak(self):
        # a lone vertical strand escapes through the north edge
        g = BpdGrid(((Tile.VERTICAL,),))
        with pytest.raises((BoundaryLeak, BrokenStrand, NotBijective)):
            validate(g)

    def test_is_valid_false_on_a_malformed_grid(self):
        assert not is_valid(BpdGrid.from_ascii("r-\n.|"))

    def test_empty_grid_is_valid(self):
        validate(BpdGrid(()))

    def test_mismatched_neighbours(self):
        bad = BpdGrid.from_ascii(".r\nrr")
        with pytest.raises(BrokenStrand):
            validate(bad)

    def test_identity_grid(self):
        for n in range(1, 6):
            g = BpdGrid.identity(n)
            validate(g)
            assert trace(g).perm == Permutation.identity(n)


class TestConstructor:
    def test_ints_and_bools_become_tiles(self):
        g = BpdGrid(((4,),))
        assert g.rows == ((Tile.R_ELBOW,),)
        assert type(g.rows[0][0]) is Tile
        g = BpdGrid([[True, False], [2, Tile.R_ELBOW]])
        assert g.rows == ((Tile.HORIZONTAL, Tile.BLANK), (Tile.VERTICAL, Tile.R_ELBOW))
        assert all(type(t) is Tile for row in g.rows for t in row)

    def test_bad_values_raise(self):
        with pytest.raises(ValueError):
            BpdGrid(((9,),))
        with pytest.raises(ValueError):
            BpdGrid(((Tile.R_ELBOW, -1), (Tile.VERTICAL, Tile.R_ELBOW)))
        with pytest.raises(ValueError, match="unknown tile character 'x'"):
            BpdGrid.from_ascii("rx\n|r")


class TestTrace:
    def test_first_figure(self, fig_bpd_1):
        tr = trace(fig_bpd_1)
        assert tr.perm == P("2164753")
        assert not tr.is_reduced

    def test_second_figure(self, fig_bpd_2):
        tr = trace(fig_bpd_2)
        assert tr.perm == P("2346175")
        assert tr.is_reduced

    def test_single_cell(self):
        grid = BpdGrid(((Tile.R_ELBOW,),))
        tr = trace(grid)
        assert tr.perm == P("1")
        assert tr.is_reduced
        assert grid.count(Tile.BLANK) == grid.count(Tile.J_ELBOW) == 0

    def test_crossing_multiplicities(self, fig_bpd_1):
        tr = trace(fig_bpd_1)
        assert tr.crossings[(1, 2)] == 3
        assert tr.crossings[(2, 4)] == 2
        assert tr.multi_crossing_pairs() == [(1, 2, 3), (2, 4, 2)]

    def test_counts(self, fig_bpd_1):
        # counted by hand off the figure
        assert fig_bpd_1.count(Tile.BLANK) == 12
        assert fig_bpd_1.count(Tile.J_ELBOW) == 2


class TestAsmBijection:
    def test_figure_matrix(self, fig_bpd_1, fig_asm):
        assert to_asm(fig_bpd_1) == fig_asm

    def test_single_cell(self):
        assert to_asm(BpdGrid(((Tile.R_ELBOW,),))) == Asm(((1,),))

    def test_minus_count_is_jelbow_count(self, fig_bpd_1, fig_bpd_2):
        for g in (fig_bpd_1, fig_bpd_2):
            minus = sum(row.count(-1) for row in to_asm(g).rows)
            assert minus == g.count(Tile.J_ELBOW)

    def test_figure_round_trip(self, fig_bpd_1, fig_asm):
        assert from_asm(fig_asm) == fig_bpd_1

    def test_identity_matrix(self):
        eye = Asm.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert from_asm(eye) == BpdGrid.identity(4)

    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                assert to_asm(grid) == asm

    def test_inconsistent_asm_rejected(self):
        with pytest.raises(InconsistentAsm):
            Asm.from_rows([[1, 0], [1, -1]])
        with pytest.raises(InconsistentAsm):
            Asm.from_rows([[0, 1], [1, 2]])
        # the partial sums of the first row run 1, 2
        with pytest.raises(InconsistentAsm, match="row 1 violates the alternating-sign"):
            Asm.from_rows([[1, 1, -1], [0, 0, 1], [0, 0, 1]])

    def test_from_asm_takes_plain_rows(self, fig_bpd_1, fig_asm):
        assert from_asm([list(row) for row in fig_asm.rows]) == fig_bpd_1
        with pytest.raises(InconsistentAsm):
            from_asm([[1, 0], [1, 0]])

    def test_alternation_mirrors_grid_elbows(self):
        # elbows along each row/column alternate r, j, ..., r exactly when
        # the matrix rows/columns alternate +1, -1, ..., +1
        for n in range(1, 6):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                for lines in (grid.rows, tuple(zip(*grid.rows))):
                    for line in lines:
                        elbows = [t for t in line
                                  if t in (Tile.R_ELBOW, Tile.J_ELBOW)]
                        assert elbows[0] is Tile.R_ELBOW
                        assert elbows[-1] is Tile.R_ELBOW
                        for a, b in zip(elbows, elbows[1:]):
                            assert a != b


class TestRender:
    def test_ascii_single_cell(self):
        assert render(BpdGrid(((Tile.R_ELBOW,),)), "ascii") == "r"

    def test_ascii_size_two(self):
        g = from_asm(Asm.from_rows([[0, 1], [1, 0]]))
        assert render(g, "ascii") == ".r\nr+"
        assert trace(g).perm == P("21")

    def test_json_round_trip(self, fig_bpd_1):
        text = render(fig_bpd_1, "json")
        payload = json.loads(text)
        assert payload["n"] == 7
        assert payload["perm"] == [2, 1, 6, 4, 7, 5, 3]
        assert from_json(text) == fig_bpd_1

    def test_json_round_trip_exhaustive_small(self):
        for asm in enumerate_asm(3):
            g = from_asm(asm)
            assert from_json(render(g, "json")) == g

    def test_svg_contains_strokes(self, fig_bpd_1):
        svg = render(fig_bpd_1, "svg")
        assert svg.startswith("<svg")
        assert svg.count("<path") == sum(
            {Tile.BLANK: 0, Tile.HORIZONTAL: 1, Tile.VERTICAL: 1, Tile.CROSS: 2,
             Tile.R_ELBOW: 1, Tile.J_ELBOW: 1, Tile.BUMP: 2}[t]
            for row in fig_bpd_1.rows for t in row)

    def test_svg_bump_arcs(self):
        # a bump is two arcs of sweep flag 1; elbows sweep the other way
        g = next(g for g in bpd_stream(4) if not trace(g).is_reduced)
        resolved = resolve(g)[0]
        bumps = resolved.count(Tile.BUMP)
        assert bumps >= 1
        assert render(resolved, "svg").count(" 0 0 1 ") == 2 * bumps

    def test_unknown_format(self, fig_bpd_1):
        with pytest.raises(ValueError):
            render(fig_bpd_1, "png")

    def test_ascii_parse_round_trip(self, fig_bpd_2):
        assert BpdGrid.from_ascii(fig_bpd_2.to_ascii()) == fig_bpd_2
