"""Tests for the canonical serialization: the one-pass JSON writer and the term path."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from superfrob.characters import hecke_character_table, specialize_table
from superfrob.serialize import json_text, table_payload


def _stdlib(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# strings that need escaping: quotes, backslashes, control and non-ASCII characters
_TRICKY = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "😀"])
_STRINGS = st.text(st.one_of(_TRICKY, st.characters()), max_size=6)

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    # past 2^64 on both sides
    st.integers(min_value=-(2**70), max_value=2**70),
    # rounded as timing_seconds holds them; NaN and the infinities as json.dumps writes them
    st.floats().map(lambda x: round(x, 6)),
    _STRINGS,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=4),
        # json.dumps writes an int key as its text and sorts by the int
        st.dictionaries(st.integers(-50, 50), children, max_size=3),
    )


_VALUES = st.recursive(_LEAVES, _containers, max_leaves=24)


@st.composite
def _with_shared(draw):
    """A tree holding one container at two depths and twice at one depth."""
    shared = draw(_containers(_VALUES))
    tree = draw(_VALUES)
    return {"first": shared, "deeper": [shared, {"again": shared}], "tree": tree}


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_json_text_is_the_stdlib_rendering(value):
    assert json_text(value) == _stdlib(value)


@settings(max_examples=100, deadline=None)
@given(_with_shared())
def test_json_text_renders_shared_containers_per_depth(value):
    assert json_text(value) == _stdlib(value)


def test_json_text_writes_empty_containers_and_special_floats_as_the_stdlib():
    value = {"": [], "a": {}, "b": [[], {}], "f": [math.nan, math.inf, -math.inf, -0.0, 1e300]}
    assert json_text(value) == _stdlib(value)
    assert json_text("x ") == _stdlib("x ")
    with pytest.raises(TypeError):
        json_text({"a": object()})


@pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (4, 2)])
def test_a_specialized_table_renders_as_the_stdlib(m, n):
    payload = table_payload(specialize_table(hecke_character_table(m, n)))
    assert any("zeta" in powers for row in payload["entries"] for e in row for _, powers in e)
    assert json_text(payload) == _stdlib(payload)

