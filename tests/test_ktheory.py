import pytest

from pipedream import (BetaPolynomial, BpdGrid, NegativeExponent,
                       Permutation, Tile, beta_weight, enumerate_asm,
                       from_asm, nonreduced_witness, resolve, trace)
from pipedream.enumeration import bpd_stream
from pipedream.errors import BrokenStrand
from pipedream.grid import scan
from pipedream.ktheory import COL_MAJOR, ROW_MAJOR
from conftest import load_grid


def P(text):
    return Permutation.from_text(text)


def unbumped(grid):
    """The grid with every bump read as a cross again."""
    return BpdGrid(tuple(tuple(Tile.CROSS if t is Tile.BUMP else t for t in row)
                         for row in grid.rows))


class TestResolve:
    def test_first_figure_resolves_to_bpd_k(self, fig_bpd_1, fig_bpd_k):
        resolved, typ = resolve(fig_bpd_1)
        assert typ == P("4261753")
        assert resolved.to_ascii() == fig_bpd_k.to_ascii()
        assert unbumped(resolved) == fig_bpd_1

    def test_reduced_grid_unchanged(self, fig_bpd_2):
        resolved, typ = resolve(fig_bpd_2)
        assert resolved.rows == fig_bpd_2.rows
        assert typ == trace(fig_bpd_2).perm == P("2346175")

    def test_resolution_changes_diagram_iff_nonreduced(self):
        # the diagram acquires bumps exactly when some pair crosses twice,
        # and otherwise is the input grid itself; the type can still
        # coincide with the permutation for nonreduced grids when every
        # repeated pair crosses an odd number of times
        for n in range(1, 6):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                tr = trace(grid)
                resolved, typ = resolve(grid)
                assert (resolved.rows == grid.rows) == tr.is_reduced
                assert (resolved is grid) == tr.is_reduced
                if tr.is_reduced:
                    assert typ == tr.perm

    def test_type_can_match_perm_on_nonreduced_grid(self):
        # triple crossing of pipes 1 and 2: two bumps appear but the exit
        # pattern is unchanged
        grid = load_grid("fig_phi_image")
        tr = trace(grid)
        assert not tr.is_reduced
        assert tr.crossings[(1, 2)] == 3
        resolved, typ = resolve(grid)
        assert typ == tr.perm == P("21543")
        assert resolved.rows != grid.rows

    def test_idempotent(self):
        # no strand pair crosses twice after resolution, so a second pass
        # over the remaining crosses has nothing left to convert
        for n in range(1, 6):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                resolved, typ = resolve(grid)
                assert trace(resolved).is_reduced
                again, typ2 = resolve(unbumped(resolved))
                assert again.rows == resolved.rows
                assert typ2 == typ

    def test_blank_count_bounds_type_length(self):
        # blanks never dip below the length of the type, with equality
        # exactly on reduced grids
        for n in range(1, 6):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                blanks = grid.count(Tile.BLANK)
                _, typ = resolve(grid)
                assert blanks >= typ.length()
                assert (blanks == typ.length()) == trace(grid).is_reduced

    def test_order_robustness_small(self):
        for n in range(1, 5):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                res_a, typ_a = resolve(grid, COL_MAJOR)
                res_b, typ_b = resolve(grid, ROW_MAJOR)
                assert res_a == res_b
                assert typ_a == typ_b

    def test_kept_trace_agrees_with_the_resolving_scan(self):
        # a grid holding a reduced trace skips the scan; with or without a
        # kept trace, resolve must give what the resolving scan gives
        for n in range(7):
            for grid in bpd_stream(n):
                trace(grid)
                fresh = BpdGrid(grid.rows)
                for order in (COL_MAJOR, ROW_MAJOR):
                    word, _, tiles = scan(grid.rows, n, order, resolve=True, allow_bump=False)
                    for source in (grid, fresh):
                        resolved, typ = resolve(source, order)
                        assert typ == Permutation(word)
                        assert resolved.rows == tiles
                        assert (resolved is source) == (tiles is grid.rows)
                assert fresh._trace is None

    def test_kept_trace_with_a_bump_still_raises(self):
        checked = 0
        for grid in bpd_stream(5):
            if trace(grid).is_reduced:
                continue
            resolved, _ = resolve(grid)
            assert trace(resolved).is_reduced
            for order in (COL_MAJOR, ROW_MAJOR):
                with pytest.raises(BrokenStrand):
                    resolve(resolved, order)
            checked += 1
        assert checked

    def test_nonreduced_red_bpd(self, red_bpds):
        _, typ = resolve(red_bpds[3])
        assert typ == P("2143")


class TestBetaWeight:
    def test_reduced_no_jelbows(self):
        grid = load_grid("fig_red_bpd_1")
        assert beta_weight(grid, P("1243").length()) == BetaPolynomial.one()

    def test_red_bpd_weights_sum(self, red_bpds):
        ell = P("1243").length()
        weights = [beta_weight(g, ell) for g in red_bpds[:3]]
        assert weights[0] == BetaPolynomial.one()
        assert weights[1] == BetaPolynomial.from_coeffs([1, 1])
        assert weights[2] == BetaPolynomial.from_coeffs([1, 2, 1])
        total = weights[0] + weights[1] + weights[2]
        assert total == BetaPolynomial.from_coeffs([3, 3, 1])
        assert total(0) == 3

    def test_beta_one_counts_jelbows(self, fig_bpd_1, fig_bpd_2):
        for g in (fig_bpd_1, fig_bpd_2):
            _, typ = resolve(g)
            wt = beta_weight(g, typ.length())
            assert wt(1) == 2 ** g.count(Tile.J_ELBOW)

    def test_equals_the_product_of_monomial_and_binomial_power(self):
        # the weight read off the row records' counts against the closed
        # form from the tile counts, for every reference up to the blanks
        shared = {}  # (blanks - ref, jelbows) -> the weight first returned
        for n in range(7):
            for grid in bpd_stream(n):
                blanks, jelbows = grid.count(Tile.BLANK), grid.count(Tile.J_ELBOW)
                power = (1 + BetaPolynomial.beta()) ** jelbows
                for ref in range(blanks + 1):
                    weight = beta_weight(grid, ref)
                    assert weight == BetaPolynomial.monomial(blanks - ref) * power
                    # equal exponents of one size give one object
                    assert shared.setdefault((n, blanks - ref, jelbows), weight) is weight
                with pytest.raises(NegativeExponent):
                    beta_weight(grid, blanks + 1)
        assert len(shared) > 100

    def test_negative_exponent(self, red_bpds):
        with pytest.raises(NegativeExponent):
            beta_weight(red_bpds[0], 5)

    def test_weight_at_zero_detects_reduced(self):
        for n in range(1, 5):
            for asm in enumerate_asm(n):
                grid = from_asm(asm)
                tr = trace(grid)
                wt = beta_weight(grid, tr.perm.length())
                assert (wt(0) == 1) == tr.is_reduced


class TestNonreducedWitness:
    def test_reduced_has_no_witness(self, fig_bpd_2, red_bpds):
        assert nonreduced_witness(fig_bpd_2) is None
        for g in red_bpds[:3]:
            assert nonreduced_witness(g) is None

    def test_blue_grid_witness(self, red_bpds):
        witness = nonreduced_witness(red_bpds[3])
        assert witness is not None
        assert witness.parity == "even"
        assert witness.pattern == P("1243")
        assert witness.occurrence.pattern() == P("1243")
        # 1243 contains itself as the only occurrence
        assert witness.occurrence.indices == (1, 2, 3, 4)

    def test_first_figure_witness(self, fig_bpd_1):
        witness = nonreduced_witness(fig_bpd_1)
        # pipes 1 and 2 cross three times: odd parity forces 2143
        assert witness.parity == "odd"
        assert witness.pattern == P("2143")
        assert witness.occurrence.pattern() == P("2143")

    def test_exhaustive_n4(self):
        nonreduced = 0
        for asm in enumerate_asm(4):
            grid = from_asm(asm)
            if trace(grid).is_reduced:
                assert nonreduced_witness(grid) is None
            else:
                nonreduced += 1
                assert nonreduced_witness(grid) is not None
        assert nonreduced > 0
