"""The per-cell records: immutable, hashable by value, built by keyword with defaults."""

import pytest

from tablediff.entity_align import EntityKey, EntityMention
from tablediff.table_parser import Cell
from tablediff.value_analysis import ParsedValue, parse_value

# (record type, its fields in order, required keyword arguments, defaults)
RECORDS = [
    (Cell, ("text", "link_title", "is_spanned_copy"),
     {"text": "Mount Everest"}, {"link_title": None, "is_spanned_copy": False}),
    (ParsedValue, ("kind", "original", "magnitude", "unit", "numerator", "denominator"),
     {"kind": "number", "original": "8,848 m"},
     {"magnitude": None, "unit": None, "numerator": None, "denominator": None}),
    (EntityMention, ("table_index", "row_index", "surface", "link_title", "qid"),
     {"table_index": 0, "row_index": 2, "surface": "Everest", "link_title": "Mount Everest"},
     {"qid": None}),
    (EntityKey, ("kind", "value", "language"), {"kind": "qid", "value": "Q513"},
     {"language": None}),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls,fields,required,defaults", RECORDS, ids=IDS)
def test_keyword_construction_fills_defaults(cls, fields, required, defaults):
    record = cls(**required)
    assert cls._fields == fields
    assert {name: getattr(record, name) for name in fields} == {**required, **defaults}


@pytest.mark.parametrize("cls,fields,required,defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, required, defaults):
    record = cls(**required)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert record == cls(**required)


def test_equal_keys_and_values_hash_equal():
    key, same = EntityKey("surface", "everest", "en"), EntityKey(kind="surface", value="everest",
                                                                 language="en")
    assert key == same and hash(key) == hash(same)
    assert key != EntityKey("surface", "everest", "de")
    value, again = parse_value("80/302", "de"), parse_value("80/302", "de")
    assert value is not again
    assert value == again and hash(value) == hash(again)
    assert len({key: 1, same: 2}) == 1 and len({value, again}) == 1


def test_derived_members():
    assert EntityKey("qid", "Q513").is_qid and EntityKey("qid", "Q513").label() == "Q513"
    surface = EntityKey("surface", "everest", "en")
    assert not surface.is_qid and surface.label() == "en:everest"
    assert parse_value("80/302", "de").kind != "text"
    assert parse_value("Himalaya", "de").kind == "text"
