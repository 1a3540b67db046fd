from datetime import datetime, timezone

import pytest

from tablediff.errors import MappingConflict
from tablediff.mw_client import ArticleRef, PageDocument
from tablediff.schema_align import (AttributeKey, HeaderMapping, Unmapped,
                                    build_presence_grid, load_header_mapping, map_attribute,
                                    normalize_header, resolve_columns)
from tablediff.table_parser import extract_tables

TS = datetime(2025, 1, 1, tzinfo=timezone.utc)


def table_from(rows_html, lang="en"):
    html = f'<table class="wikitable"><tbody>{rows_html}</tbody></table>'
    page = PageDocument(article=ArticleRef(lang, "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)
    return extract_tables(page)[0]


def main_attributes(tables, mapping):
    """Per language, the attributes resolve_columns gives its main table."""
    return {lang: None if table is None else [attr for _col, attr in
                                              resolve_columns(table, lang, mapping)]
            for lang, table in tables.items()}


def test_normalize_header_examples():
    assert normalize_header("Height (m)", "en") == "height"
    assert normalize_header("Tasso di mortalità", "it") == "tasso di mortalità"
    assert normalize_header("Besteigungen  /  Tote", "de") == "besteigungen / tote"
    assert normalize_header("高度（米）", "zh") == "高度"
    assert normalize_header("Depth (m) (est.)", "en") == "depth"
    assert normalize_header("Notes[2]", "en") == "notes"


def test_map_attribute_with_bundled_mapping(header_mapping):
    attr = map_attribute("death rate", "en", header_mapping)
    assert isinstance(attr, AttributeKey) and attr.canonical == "death_rate"
    attr = map_attribute("死亡率", "zh", header_mapping)
    assert attr.canonical == "death_rate"
    result = map_attribute("zzz unknown", "en", header_mapping)
    assert result == Unmapped("zzz unknown")


def test_mapping_conflict_fails_fast():
    with pytest.raises(MappingConflict):
        HeaderMapping([
            AttributeKey("height", {"en": ["height"]}),
            AttributeKey("elevation", {"en": ["height"]}),
        ])


def test_repeated_canonical_fails_fast():
    with pytest.raises(MappingConflict, match="height"):
        HeaderMapping([
            AttributeKey("height", {"en": ["height"]}),
            AttributeKey("height", {"de": ["höhe"]}),
        ])


def test_mapping_requires_snake_case():
    with pytest.raises(MappingConflict):
        AttributeKey("Bad Name", {})


def test_load_bundled_mapping_is_injective_per_language(header_mapping):
    seen = {}
    for attr in header_mapping.attributes:
        for lang, aliases in attr.aliases.items():
            for alias in aliases:
                key = (lang, alias)
                assert key not in seen, f"{key} claimed twice"
                seen[key] = attr.canonical


def test_presence_grid_single_language():
    table = table_from("<tr><th>Rank</th><th>Height (m)</th></tr><tr><td>1</td><td>2</td></tr>")
    mapping = HeaderMapping([AttributeKey("rank", {"en": ["rank"]}),
                             AttributeKey("height", {"en": ["height"]})])
    grid = build_presence_grid(main_attributes({"en": table}, mapping), mapping,
                               languages=["en"])
    assert grid["languages"] == ["en"]
    assert [a["name"] for a in grid["attributes"]] == ["rank", "height"]
    assert grid["grid"] == [[1], [1]]


def test_presence_grid_unmapped_rows_stay_visible():
    en = table_from("<tr><th>Rank</th><th>Oddity</th></tr><tr><td>1</td><td>2</td></tr>")
    de = table_from("<tr><th>Rang</th></tr><tr><td>1</td></tr>", lang="de")
    mapping = HeaderMapping([AttributeKey("rank", {"en": ["rank"], "de": ["rang"]})])
    grid = build_presence_grid(main_attributes({"en": en, "de": de}, mapping), mapping,
                               languages=["en", "de"])
    names = [a["name"] for a in grid["attributes"]]
    assert names == ["rank", "oddity"]
    oddity = grid["attributes"].index({"name": "oddity", "kind": "unmapped"})
    assert grid["grid"][oddity] == [1, 0]


def test_presence_grid_no_attribute_row_all_false():
    en = table_from("<tr><th>Rank</th></tr><tr><td>1</td></tr>")
    mapping = HeaderMapping([AttributeKey("rank", {"en": ["rank"]}),
                             AttributeKey("height", {"en": ["height"]})])
    grid = build_presence_grid(main_attributes({"en": en, "de": None}, mapping),
                               mapping, languages=["en", "de"])
    # absent language dropped; unsighted attribute dropped
    assert grid["languages"] == ["en"]
    assert [a["name"] for a in grid["attributes"]] == ["rank"]
    for row in grid["grid"]:
        assert any(row)


def test_grid_completeness_every_column_contributes(header_mapping, offline_client):
    from tablediff.mw_client import CachePolicy
    page = offline_client.fetch_page(ArticleRef("en", "Seven Summits"), CachePolicy.OFFLINE_ONLY)
    table = extract_tables(page)[0]
    columns = resolve_columns(table, "en", header_mapping)
    assert len(columns) == table.n_cols
    grid = build_presence_grid({"en": [attr for _col, attr in columns]}, header_mapping,
                               languages=["en"])
    grid_attrs = set(a["name"] for a in grid["attributes"])
    for _col, attr in columns:
        assert attr.name in grid_attrs


def test_fixture_unmapped_header_surfaces_in_report(geography_report):
    fam = next(f for f in geography_report["families"] if f["id"] == "lakes_of_titan")
    unmapped = [a["name"] for a in fam["presence"]["attributes"] if a["kind"] == "unmapped"]
    assert "数据来源" in unmapped
    records = [r for r in fam["records"] if r["attribute"] == "数据来源"]
    assert sorted(next(iter(r["values"])) for r in records) == ["de", "en", "it"]
