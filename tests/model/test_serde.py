"""Tests for value serialisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SerdeError
from repro.model.serde import decode, encode
from repro.storage.oid import OID


@pytest.mark.parametrize(
    "value",
    [
        None,
        True,
        False,
        0,
        -1,
        2**40,
        -(2**40),
        0.0,
        3.1415,
        -2.5e300,
        "",
        "x",
        "a longer string with ünïcode",
        OID(1, 2, 3),
        {},
        {"name": "BMW", "location": None},
        {"nested": {"a": 1, "b": [1, 2, 3]}},
        [],
        [1, "two", 3.0, None],
        set(),
        {1, 2, 3},
        {OID(1, 0, 0), OID(1, 0, 1)},
        {"refs": [OID(1, 1, 1)], "tags": {"a", "b"}},
    ],
)
def test_roundtrip(value):
    assert decode(encode(value)) == value


def test_char_is_distinguishable_roundtrip():
    assert decode(encode("A")) == "A"


def test_set_encoding_is_deterministic():
    assert encode({3, 1, 2}) == encode({2, 3, 1})


def test_unserialisable_rejected():
    with pytest.raises(SerdeError):
        encode(object())
    with pytest.raises(SerdeError):
        encode({1: "non-string key"})


def test_integer_overflow_rejected():
    with pytest.raises(SerdeError):
        encode(2**64)


def test_truncated_rejected():
    data = encode({"a": 1})
    with pytest.raises(SerdeError):
        decode(data[:-1])


def test_trailing_garbage_rejected():
    with pytest.raises(SerdeError):
        decode(encode(1) + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(SerdeError):
        decode(b"\xfe")


json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63 - 1)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.builds(OID, st.integers(0, 10), st.integers(0, 100), st.integers(0, 50)),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=8), children, max_size=5),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(json_like)
def test_property_roundtrip(value):
    assert decode(encode(value)) == value


records = st.dictionaries(
    st.text(max_size=8),
    json_like | st.sets(st.integers(-5, 5), max_size=4),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(records, st.data())
def test_property_projected_decode(record, data):
    """``decode(encode(v), fields=F)`` is ``v`` restricted to ``F``."""
    names = sorted(record)
    fields = frozenset(data.draw(
        st.lists(st.sampled_from(names) if names else st.nothing(),
                 max_size=len(names))
        | st.just(["absent"])
    ))
    restricted = {k: v for k, v in record.items() if k in fields}
    assert decode(encode(record), fields=fields) == restricted


@settings(max_examples=150, deadline=None)
@given(records, st.data())
def test_property_projected_decode_rejects_damage(record, data):
    """With ``fields`` given, truncated records and trailing bytes still
    raise: the skipped values are walked, not trusted."""
    encoded = encode(record)
    fields = frozenset(data.draw(st.sets(st.text(max_size=8), max_size=3)))
    cut = data.draw(st.integers(0, len(encoded) - 1))
    with pytest.raises(SerdeError):
        decode(encoded[:cut], fields=fields)
    with pytest.raises(SerdeError):
        decode(encoded + data.draw(st.binary(min_size=1, max_size=4)),
               fields=fields)


def test_projected_decode_rejects_invalid_utf8_in_skipped_fields():
    """Field names and strings a projection skips are still checked."""
    bad_value = encode({"a": 1, "b": "été"})
    bad_value = bad_value.replace("é".encode("utf-8"), b"\xff\xfe")
    bad_name = encode({"a": 1, "é": 2}).replace(
        "é".encode("utf-8"), b"\xff\xfe")
    nested = encode({"a": 1, "b": {"c": "é"}}).replace(
        "é".encode("utf-8"), b"\xff\xfe")
    for data in (bad_value, bad_name, nested):
        with pytest.raises(SerdeError):
            decode(data)
        with pytest.raises(SerdeError):
            decode(data, fields={"a"})
