import json
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from tablediff.errors import MappingConflict
from tablediff.mw_client import ArticleRef, PageDocument
from tablediff.schema_align import (Attribute, HeaderMapping, build_presence_grid,
                                    normalize_header, resolve_columns)
from tablediff.table_parser import extract_tables

from conftest import HEADER_MAP

TS = datetime(2025, 1, 1, tzinfo=timezone.utc)


def table_from(rows_html, lang="en"):
    html = f'<table class="wikitable"><tbody>{rows_html}</tbody></table>'
    page = PageDocument(article=ArticleRef(lang, "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)
    return extract_tables(page)[0]


def main_attributes(tables, mapping):
    """Per language, the attributes resolve_columns gives its main table."""
    return {lang: None if table is None else list(resolve_columns(table, lang, mapping))
            for lang, table in tables.items()}


def test_normalize_header_examples():
    assert normalize_header("Height (m)", "en") == "height"
    assert normalize_header("Tasso di mortalità", "it") == "tasso di mortalità"
    assert normalize_header("Besteigungen  /  Tote", "de") == "besteigungen / tote"
    assert normalize_header("高度（米）", "zh") == "高度"
    assert normalize_header("Depth (m) (est.)", "en") == "depth"
    assert normalize_header("Notes[2]", "en") == "notes"


# FOOTNOTE_RE's, _PAREN_RE's and the collapse's \s take NBSP for whitespace,
# so reading it as a space first changes nothing.
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["\u00a0", " ", "\t", "(", ")", "（", "）", "[", "]", "1", "a",
                                 "note", "nb", "Height", "高度", "米", "m", "ß", "İ"]),
                max_size=16).map("".join))
@example("Height\u00a0(m)")
@example("Notes\u00a0[note\u00a02]")
def test_normalize_header_reads_nbsp_as_a_space(text):
    assert normalize_header(text, "en") == normalize_header(text.replace("\u00a0", " "), "en")


def test_lookup_with_bundled_mapping(header_mapping):
    assert header_mapping.lookup("death rate", "en") == Attribute("death_rate", "mapped")
    assert header_mapping.lookup("死亡率", "zh") == Attribute("death_rate", "mapped")
    assert header_mapping.lookup("zzz unknown", "en") == Attribute("zzz unknown", "unmapped")


def test_mapping_conflict_fails_fast():
    with pytest.raises(MappingConflict):
        HeaderMapping([
            ("height", {"en": ["height"]}),
            ("elevation", {"en": ["height"]}),
        ])


def test_repeated_canonical_fails_fast():
    with pytest.raises(MappingConflict, match="height"):
        HeaderMapping([
            ("height", {"en": ["height"]}),
            ("height", {"de": ["höhe"]}),
        ])


def test_mapping_requires_snake_case():
    with pytest.raises(MappingConflict, match="snake_case: 'Bad Name'"):
        HeaderMapping([("Bad Name", {})])


def test_load_bundled_mapping_is_injective_per_language(header_mapping):
    seen = {}
    for entry in json.loads(HEADER_MAP.read_text(encoding="utf-8"))["attributes"]:
        for lang, aliases in entry["aliases"].items():
            for alias in set(aliases):
                key = (lang, alias)
                assert key not in seen, f"{key} claimed twice"
                seen[key] = entry["canonical"]
                assert header_mapping.lookup(alias, lang) == Attribute(entry["canonical"], "mapped")


def test_presence_grid_single_language():
    table = table_from("<tr><th>Rank</th><th>Height (m)</th></tr><tr><td>1</td><td>2</td></tr>")
    mapping = HeaderMapping([("rank", {"en": ["rank"]}), ("height", {"en": ["height"]})])
    grid = build_presence_grid(main_attributes({"en": table}, mapping), mapping)
    assert grid["languages"] == ["en"]
    assert [a["name"] for a in grid["attributes"]] == ["rank", "height"]
    assert grid["grid"] == [[1], [1]]


def test_presence_grid_unmapped_rows_stay_visible():
    en = table_from("<tr><th>Rank</th><th>Oddity</th></tr><tr><td>1</td><td>2</td></tr>")
    de = table_from("<tr><th>Rang</th></tr><tr><td>1</td></tr>", lang="de")
    mapping = HeaderMapping([("rank", {"en": ["rank"], "de": ["rang"]})])
    grid = build_presence_grid(main_attributes({"en": en, "de": de}, mapping), mapping)
    names = [a["name"] for a in grid["attributes"]]
    assert names == ["rank", "oddity"]
    oddity = grid["attributes"].index({"name": "oddity", "kind": "unmapped"})
    assert grid["grid"][oddity] == [1, 0]


def test_presence_grid_has_no_all_false_row():
    en = table_from("<tr><th>Rank</th></tr><tr><td>1</td></tr>")
    mapping = HeaderMapping([("rank", {"en": ["rank"]}), ("height", {"en": ["height"]})])
    grid = build_presence_grid(main_attributes({"en": en, "de": None}, mapping), mapping)
    # absent language dropped; unsighted attribute dropped
    assert grid["languages"] == ["en"]
    assert [a["name"] for a in grid["attributes"]] == ["rank"]
    for row in grid["grid"]:
        assert any(row)


def test_resolve_columns_groups_columns_by_attribute():
    table = table_from("<tr><th>Height (m)</th><th>Rank</th><th>Height (ft)</th><th>Odd</th></tr>"
                       "<tr><td>1</td><td>2</td><td>3</td><td>4</td></tr>")
    mapping = HeaderMapping([("rank", {"en": ["rank"]}), ("height", {"en": ["height"]})])
    columns = resolve_columns(table, "en", mapping)
    assert list(columns.items()) == [(Attribute("height", "mapped"), [0, 2]),
                                     (Attribute("rank", "mapped"), [1]),
                                     (Attribute("odd", "unmapped"), [3])]


def test_presence_grid_follows_the_language_order_of_main_attributes():
    mapping = HeaderMapping([("rank", {})])
    rank, = mapping.attributes
    grid = build_presence_grid({"zh": [rank], "en": None, "de": [], "it": [rank]}, mapping)
    assert grid["languages"] == ["zh", "de", "it"]
    assert grid["grid"] == [[1, 0, 1]]


def test_grid_completeness_every_column_contributes(header_mapping, offline_client):
    from tablediff.mw_client import CachePolicy
    page = offline_client.fetch_page(ArticleRef("en", "Seven Summits"), CachePolicy.OFFLINE_ONLY)
    table = extract_tables(page)[0]
    columns = resolve_columns(table, "en", header_mapping)
    assert sorted(col for cols in columns.values() for col in cols) == list(range(table.n_cols))
    grid = build_presence_grid({"en": list(columns)}, header_mapping)
    grid_attrs = set(a["name"] for a in grid["attributes"])
    for attr in columns:
        assert attr.name in grid_attrs


def test_fixture_unmapped_header_surfaces_in_report(geography_report):
    fam = next(f for f in geography_report["families"] if f["id"] == "lakes_of_titan")
    unmapped = [a["name"] for a in fam["presence"]["attributes"] if a["kind"] == "unmapped"]
    assert "数据来源" in unmapped
    records = [r for r in fam["records"] if r["attribute"] == "数据来源"]
    assert sorted(next(iter(r["values"])) for r in records) == ["de", "en", "it"]
