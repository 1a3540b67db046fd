"""Acceptance suite: one test per release criterion, all offline.

Each test prints a [acceptance] PASS/FAIL line through the conftest hook.
Criteria marked "golden" compare against fixtures/golden/geography_stats.json,
which is written from the corpus design budgets, never from pipeline output.
"""

import json
import random
import time

from click.testing import CliRunner

from tablediff.cli import main as cli_main
from tablediff.entity_align import (build_matrix, detect_entity_column, extract_row_entities,
                                    link_mentions)
from tablediff.mw_client import ArticleRef, CachePolicy
from tablediff.pipeline import _attribute_values, _table_columns
from tablediff.table_parser import extract_tables
from tablediff.value_analysis import detect_conflicts, parse_value

from conftest import (CLIMBERS_MANIFEST, FIXTURE_CACHE, FIXTURE_TITLES,
                      GEOGRAPHY_MANIFEST, HEADER_MAP, mentions_by_language)
from oracles import layout_to_html, oracle_expand, random_span_layout


def run_cli(*args):
    return CliRunner().invoke(cli_main, [str(a) for a in args])


def analyze_cli(out_dir, *extra):
    return run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                   "--offline", "--header-map", HEADER_MAP, "--out", out_dir, *extra)


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))


def find_records(report, family, attribute=None, entity=None):
    out = []
    for fam in report["families"]:
        if fam["id"] != family:
            continue
        for record in fam["records"]:
            if attribute is not None and record["attribute"] != attribute:
                continue
            if entity is not None and (record["entity"] or {}).get("value") != entity:
                continue
            out.append(record)
    return out


def test_c1_k2_death_rate_conflict_reproduced(tmp_path):
    started = time.monotonic()
    result = analyze_cli(tmp_path)
    elapsed = time.monotonic() - started
    assert result.exit_code == 0, result.output
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"

    report = load_report(tmp_path)
    assert len(report["families"]) == 9
    records = find_records(report, "eight_thousander", "death_rate", "Q43512")
    assert len(records) == 1
    record = records[0]
    values = record["values"]
    assert values["zh"]["kind"] == "percentage" and values["zh"]["magnitude"] == 29.5
    assert values["it"]["kind"] == "percentage" and values["it"]["magnitude"] == 26.5
    assert values["de"]["kind"] == "ratio"
    assert (values["de"]["numerator"], values["de"]["denominator"]) == (80, 302)
    assert 26.45 <= values["de"]["magnitude"] <= 26.55
    assert abs(record["severity"] - 0.1136) <= 0.001


def test_c2_everest_height_timeliness_reclassifies(tmp_path):
    result = analyze_cli(tmp_path / "default")
    assert result.exit_code == 0, result.output
    record, = find_records(load_report(tmp_path / "default"), "seven_summits", "height", "Q513")
    assert record["class"] == "Timeliness-candidate"
    values = record["values"]
    assert values["en"]["magnitude"] == 8849.0
    assert values["de"]["magnitude"] == 8848.0

    result = analyze_cli(tmp_path / "wide", "--staleness-days", "100000")
    assert result.exit_code == 0, result.output
    record, = find_records(load_report(tmp_path / "wide"), "seven_summits", "height", "Q513")
    assert record["class"] == "Invalidity-candidate"


def test_c3_climbers_presence_grid_exact(tmp_path):
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", tmp_path,
                     "--format", "plotdata")
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "presence_eight_thousander_climbers.csv").read_text(
        encoding="utf-8").strip().splitlines()
    assert lines[0] == "attribute,en,de,zh,it,nl"
    rows = {line.split(",", 1)[0]: line.split(",", 1)[1] for line in lines[1:]}
    assert rows["duration"] == "0,0,1,1,0"
    assert rows["gender"] == "0,0,0,1,0"
    assert rows["new_route"] == "0,0,0,0,1"
    assert rows["winter_ascent"] == "0,0,0,0,1"
    for core in ("rank", "name", "period", "nationality"):
        assert rows[core] == "1,1,1,1,1"


def _linked_fixture_tables(client, family, max_rows=None):
    tables_by_lang = {}
    for lang, title in FIXTURE_TITLES[family].items():
        try:
            page = client.fetch_page(ArticleRef(lang, title), CachePolicy.OFFLINE_ONLY)
        except Exception:
            continue
        linked = []
        for table in extract_tables(page):
            if max_rows is not None and table.n_body_rows > max_rows:
                continue
            col = detect_entity_column(table)
            if col is None:
                continue
            mentions = extract_row_entities(table, col)
            mentions = link_mentions(mentions, lang, client, CachePolicy.OFFLINE_ONLY)
            linked.append((table, mentions))
        tables_by_lang[lang] = linked
    return tables_by_lang


def test_c4_alignment_agrees_with_brute_force_matcher(offline_client):
    checked_pairs = 0
    for family in FIXTURE_TITLES:
        tables_by_lang = _linked_fixture_tables(offline_client, family, max_rows=10)
        languages = list(tables_by_lang)
        matrix = build_matrix(mentions_by_language(tables_by_lang), languages=languages)

        position_to_entity = {}
        for (entity, lang), occs in matrix.rows.items():
            for occ in occs:
                position_to_entity[(lang, occ)] = entity

        mentions = [(lang, m) for lang in languages
                    for _t, ms in tables_by_lang[lang] for m in ms]
        # Conservation: every mention is in the matrix exactly once.
        assert len(position_to_entity) == len({
            (lang, (m.table_index, m.row_index)) for lang, m in mentions})
        for i, (lang_i, m_i) in enumerate(mentions):
            for j in range(i + 1, len(mentions)):
                lang_j, m_j = mentions[j]
                if not (m_i.qid and m_j.qid):
                    continue
                same_expected = m_i.qid == m_j.qid
                key_i = position_to_entity[(lang_i, (m_i.table_index, m_i.row_index))]
                key_j = position_to_entity[(lang_j, (m_j.table_index, m_j.row_index))]
                assert (key_i == key_j) == same_expected
                checked_pairs += 1
    assert checked_pairs > 1000  # the oracle actually exercised the corpus


def test_c5_span_expansion_property_suite():
    from datetime import datetime, timezone
    from tablediff.mw_client import PageDocument

    rng = random.Random(20250807)
    ts = datetime(2025, 1, 1, tzinfo=timezone.utc)
    failures = 0
    for iteration in range(1000):
        layout = random_span_layout(rng)
        html = layout_to_html(layout, rng)
        page = PageDocument(article=ArticleRef("en", "T"), html=html,
                            revision_id=1, revision_timestamp=ts, fetched_at=ts)
        table = extract_tables(page)[0]
        grid = table.header_rows + table.body_rows
        expected = oracle_expand(layout)
        widths = {len(row) for row in grid}
        if widths != {len(expected[0])} or len(grid) != len(expected):
            failures += 1
            continue
        for grow, erow in zip(grid, expected):
            for cell, (text, is_copy) in zip(grow, erow):
                if cell.text != text or cell.is_spanned_copy != is_copy:
                    failures += 1
                    break
    assert failures == 0


def test_c6_locale_parsing_table():
    cases = [
        ("8,849", "en", "number", 8849.0, None),
        ("8.848", "de", "number", 8848.0, None),
        ("26,5 %", "it", "percentage", 26.5, None),
        ("8,848米", "zh", "number", 8848.0, "m"),
    ]
    for text, lang, kind, magnitude, unit in cases:
        value = parse_value(text, lang)
        assert (value.kind, value.magnitude, value.unit) == (kind, magnitude, unit), text
    ratio = parse_value("80/302", "de")
    assert ratio.kind == "ratio"
    assert (ratio.numerator, ratio.denominator) == (80, 302)


def test_c7_metrics_match_vendored_golden(geography_report, golden):
    per_language = geography_report["corpus"]["per_language"]
    for lang, expected in golden["per_language"].items():
        actual = per_language[lang]
        assert actual["pages"] == expected["pages"], lang
        assert actual["table_count"] == expected["table_count"], lang
        assert actual["reference_total"] == expected["reference_total"], lang
        assert actual["reference_mean"] == expected["reference_mean"], lang
        assert actual["columns_total"] == expected["columns_total"], lang
        assert actual["columns_complete"] == expected["columns_complete"], lang
        assert actual["columns_incomplete"] == expected["columns_incomplete"], lang
        assert actual["incompleteness_rate"] == expected["incompleteness_rate"], lang

    # Headline aggregates pinned by the vendored corpus, at report precision.
    assert per_language["en"]["table_count"] == 55
    assert per_language["de"]["table_count"] == 33
    assert per_language["zh"]["table_count"] == 25
    assert per_language["it"]["table_count"] == 17
    assert per_language["nl"]["table_count"] == 10
    assert per_language["en"]["reference_mean"] == 94.6
    assert per_language["de"]["incompleteness_rate"] == 38.0
    assert per_language["en"]["columns_total"] == 271
    assert per_language["en"]["incompleteness_rate"] == 19.2
    overall = geography_report["corpus"]["overall"]
    assert overall["columns_total"] == 805
    assert overall["columns_complete"] == 621
    assert overall["columns_incomplete"] == 184
    assert overall["complete_rate"] == 77.1
    assert overall["incomplete_rate"] == 22.9

    # Per-family main-table golden indexes.
    for family, by_lang in golden["main_table_index"].items():
        fam = next(f for f in geography_report["families"] if f["id"] == family)
        for edition in fam["editions"]:
            if edition["status"] == "ok" and edition["table_count"] > 0:
                assert edition["main_table_index"] == by_lang[edition["language"]], (
                    family, edition["language"])


def test_c8_offline_determinism_byte_level(tmp_path):
    result_a = analyze_cli(tmp_path / "a")
    result_b = analyze_cli(tmp_path / "b")
    assert result_a.exit_code == 0 and result_b.exit_code == 0
    lines_a = (tmp_path / "a" / "report.json").read_text(encoding="utf-8").splitlines()
    lines_b = (tmp_path / "b" / "report.json").read_text(encoding="utf-8").splitlines()
    assert len(lines_a) == len(lines_b)
    for left, right in zip(lines_a, lines_b):
        if left != right:
            assert '"generated_at"' in left and '"generated_at"' in right, (left, right)


def test_c9_rel_tol_monotonicity_on_fixture_values(offline_client, header_mapping):
    # Pool every (entity, attribute) numeric value set of two fixture families.
    pool = []
    for family in ("seven_summits", "eight_thousander"):
        tables_by_lang = _linked_fixture_tables(offline_client, family)
        languages = list(tables_by_lang)
        matrix = build_matrix(mentions_by_language(tables_by_lang), languages=languages)
        columns = {}
        for lang, linked in tables_by_lang.items():
            columns.update(_table_columns(lang, [table for table, _m in linked], header_mapping))
        compared = _attribute_values(matrix, columns, header_mapping.attributes, ())
        for attr, values in compared.items():
            for entity, by_lang in values.items():
                numeric = [v for v in by_lang.values()
                           if getattr(v, "is_numeric", False)]
                if len(numeric) >= 2:
                    pool.append((attr, {entity: by_lang}))
    assert len(pool) >= 50

    rng = random.Random(1136)
    for _ in range(100):
        attr, values = pool[rng.randrange(len(pool))]
        low, high = sorted((rng.uniform(0, 0.3), rng.uniform(0, 0.3)))
        at_low, _ = detect_conflicts("fam", attr, values, rel_tol=low)
        at_high, _ = detect_conflicts("fam", attr, values, rel_tol=high)
        assert len(at_high) <= len(at_low)
