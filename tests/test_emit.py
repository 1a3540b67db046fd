"""``emit.json_text`` writes exactly what ``json.dumps(..., indent=2)`` writes."""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from tablediff.emit import json_text

from conftest import FIXTURE_CACHE


def dumps(value, sort_keys=False):
    return json.dumps(value, ensure_ascii=False, indent=2, allow_nan=False, sort_keys=sort_keys)


def outcome(render, value, sort_keys):
    """The text ``render`` makes of ``value``, or the type and message of its error."""
    try:
        return render(value, sort_keys)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


TEXT = st.text(st.one_of(
    st.characters(),  # any code point: non-ASCII, surrogates, controls
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é中'),
))
INTS = st.one_of(st.integers(), st.integers(-10**40, 10**40))
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 1e16, 0.1]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
KEYS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())
VALUES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(TEXT, children, max_size=5),
    st.dictionaries(KEYS, children, max_size=4),
), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(VALUES, st.booleans())
def test_json_text_matches_json_dumps(value, sort_keys):
    # Keys of mixed types make sort_keys raise TypeError on both sides.
    assert outcome(json_text, value, sort_keys) == outcome(dumps, value, sort_keys)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, object(), b"bytes", {1, 2},
    [1, {"a": [math.nan]}], {"a": -math.inf}, {math.nan: 1}, {math.inf: 1},
    {(1, 2): 1}, {"a": object()}, [object()],
], ids=lambda value: re.sub(r" at 0x[0-9a-f]+", "", repr(value)))  # no address: ids stay the same run to run
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_raises_what_json_dumps_raises(value, sort_keys):
    expected = outcome(dumps, value, sort_keys)
    assert isinstance(expected, tuple)  # every case is an error
    assert outcome(json_text, value, sort_keys) == expected


def test_json_text_of_subclasses_and_cycles_matches_json_dumps():
    import enum

    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    class Ordered(dict):
        pass

    value = Ordered(b=[Level.HIGH, Name("x"), (1, ())], a={Name("k"): Level.HIGH})
    for sort_keys in (False, True):
        assert json_text(value, sort_keys) == dumps(value, sort_keys)
    cycle = []
    cycle.append(cycle)
    assert outcome(json_text, cycle, False) == outcome(dumps, cycle, False)
    deep = 0
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(RecursionError):
        dumps(deep)
    with pytest.raises(RecursionError):
        json_text(deep)


@pytest.mark.parametrize("path", sorted([*FIXTURE_CACHE.glob("pages/*/*.json"),
                                         FIXTURE_CACHE / "qids.json",
                                         FIXTURE_CACHE / "langlinks.json"]),
                         ids=lambda p: str(p.relative_to(FIXTURE_CACHE)))
def test_json_text_rewrites_every_cache_file_byte_for_byte(path):
    text = path.read_text(encoding="utf-8")
    assert json_text(json.loads(text), sort_keys=True) == text


def test_every_cache_file_is_a_page_a_map_or_a_stored_scan():
    files = sorted(p.relative_to(FIXTURE_CACHE).as_posix() for p in FIXTURE_CACHE.rglob("*")
                   if p.is_file())
    pages = [f for f in files if re.fullmatch(r"pages/[a-z]+/[^/]+\.json", f)]
    scans = [f for f in files if re.fullmatch(r"scans/[a-z]+/[^/]+\.json", f)]
    assert len(pages) == 44
    assert [f[len("scans/"):] for f in scans] == [f[len("pages/"):] for f in pages]
    assert sorted(pages + scans + ["langlinks.json", "qids.json"]) == files


@pytest.mark.parametrize("path", sorted(FIXTURE_CACHE.glob("scans/*/*.json")),
                         ids=lambda p: str(p.relative_to(FIXTURE_CACHE)))
def test_every_stored_scan_is_in_the_compact_form(path):
    text = path.read_text(encoding="utf-8")
    assert json.dumps(json.loads(text), ensure_ascii=False, separators=(",", ":"),
                      allow_nan=False) == text
