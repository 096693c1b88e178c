"""Parsers accept well-formed text and reject anything else with a
``ValueError`` or a ``pipedream.errors`` type, never an internal error."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedream import Asm, BpdGrid, Permutation, PipedreamError, Tile, from_json

REJECTIONS = (ValueError, PipedreamError)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
    | st.text(".-|+rjb\n ", max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["n", "tiles", "perm"]), inner,
                                     max_size=3)),
    max_leaves=12)


def parse(parser, value):
    """The parsed value, or None when the parser rejects the input."""
    try:
        return parser(value)
    except REJECTIONS:
        return None


@settings(max_examples=300)
@given(st.text())
def test_arbitrary_text(text):
    for parser in (Permutation.from_text, BpdGrid.from_ascii, from_json):
        parse(parser, text)


@settings(max_examples=300)
@given(st.text(",0123456789 ∅"))
def test_permutation_text(text):
    w = parse(Permutation.from_text, text)
    if w is not None:
        assert Permutation.from_text(w.text()) == w


@settings(max_examples=300)
@given(st.text(".-|+rjb\n "))
def test_tile_text(text):
    grid = parse(BpdGrid.from_ascii, text)
    if grid is not None:
        assert BpdGrid.from_ascii(grid.to_ascii()) == grid


@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from(list(Tile)), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_tile_text_round_trip(rows):
    grid = BpdGrid(tuple(map(tuple, rows)))
    assert BpdGrid.from_ascii(grid.to_ascii()) == grid


@settings(max_examples=300)
@given(json_values)
def test_json_values(value):
    parse(from_json, json.dumps(value))


@settings(max_examples=300)
@given(json_values)
def test_matrix_rows(value):
    asm = parse(Asm.from_rows, value)
    if asm is not None:
        assert Asm.from_rows(asm.rows) == asm


@pytest.mark.parametrize("text", ['{"n":1}', "[1,2]", "null", '{"n":1,"tiles":5}',
                                  '{"n":1,"tiles":[1]}', '{"tiles":["r"]}', "Infinity"])
def test_json_shape_rejected(text):
    with pytest.raises(ValueError):
        from_json(text)


@pytest.mark.parametrize("rows", [5, [[None]], [[1.0]], ["1"], None])
def test_matrix_entries_rejected(rows):
    with pytest.raises(REJECTIONS):
        Asm.from_rows(rows)

