import argparse
import dataclasses
import gc
import json
import math
import re
import shutil
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tablediff import cli, pipeline
from tablediff.entity_align import EntityKey
from tablediff.errors import ManifestError, OptionsError, TableDiffError
from tablediff.manifest import SETTINGS, load_manifest, parse_manifest
from tablediff.mw_client import MediaWikiClient
from tablediff.pipeline import PipelineOptions, _attribute_values, run_pipeline
from tablediff.schema_align import Attribute, HeaderMapping
from tablediff.table_parser import Cell, WikiTable

from conftest import (CLIMBERS_MANIFEST, FIXTURE_CACHE, GEOGRAPHY_MANIFEST, HEADER_MAP,
                      FakeTransport, run_cli)
from oracles import oracle_collect_attribute_values


# -- manifest ----------------------------------------------------------------

def test_manifest_loads_bundled():
    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    assert len(manifest.families) == 9
    assert manifest.families[0].id == "seven_summits"
    assert manifest.families[0].languages == ["en", "de", "zh", "it", "nl"]


@pytest.mark.parametrize("bad", [
    {},
    {"families": "nope"},
    {"families": [{"id": "x"}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": "T"}},
                  {"id": "x", "seed": {"language": "en", "title": "T"}}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": "T"},
                   "overrides": {"main_table_index": {"en": -1}}}]},
    {"families": [{"id": "x", "seed": {"language": 5, "title": "T"}}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": 5}}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": "T"}, "overrides": [1]}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": "T"},
                   "overrides": {"main_table_index": [1]}}]},
    {"families": [{"id": "x", "seed": {"language": "en", "title": "T"},
                   "overrides": {"column_hints": [1]}}]},
    # a family id names output files
    *({"families": [{"id": family_id, "seed": {"language": "en", "title": "T"}}]}
      for family_id in ["climb/ers", "a/../../x", "a\0b"]),
])
def test_manifest_validation_errors(bad):
    with pytest.raises(ManifestError):
        parse_manifest(bad)


def test_manifest_overrides_parse():
    manifest = parse_manifest({"families": [{
        "id": "x", "seed": {"language": "en", "title": "T"},
        "languages": ["en"],
        "overrides": {"main_table_index": {"en": 2},
                      "column_hints": {"en": {"0": 1}}},
    }]})
    family = manifest.families[0]
    assert family.main_table_index == {"en": 2}
    assert family.column_hint("en", 0) == 1
    assert family.column_hint("en", 5) is None


# -- pipeline behaviors ------------------------------------------------------

def test_empty_manifest_gives_valid_empty_report(tmp_path):
    from tablediff.emit import emit
    manifest = parse_manifest({"families": []})
    client = MediaWikiClient(cache_dir=tmp_path)
    report = run_pipeline(manifest, HeaderMapping([]), client, PipelineOptions(offline=True))
    assert report["families"] == []
    assert report["corpus"]["overall"]["columns_total"] == 0
    path, = emit(report, "json", tmp_path / "out")
    assert json.loads(path.read_text(encoding="utf-8"))["families"] == []


def test_deleted_snapshot_marks_edition_absent_family_still_analyzed(tmp_path, header_mapping):
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    # Remove one language snapshot of the seven summits family.
    removed = cache / "pages" / "it" / "Sette%20Vette.json"
    assert removed.exists()
    removed.unlink()
    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    client = MediaWikiClient(cache_dir=cache)
    report = run_pipeline(manifest, header_mapping, client, PipelineOptions(offline=True))
    fam = next(f for f in report["families"] if f["id"] == "seven_summits")
    assert fam["status"] == "ok"
    edition = next(e for e in fam["editions"] if e["language"] == "it")
    assert edition["status"] == "absent"
    assert any(f["kind"] == "edition-absent" and f.get("language") == "it"
               for f in fam["findings"])
    # The other editions still contribute: the family keeps its records.
    assert fam["records"]


def test_language_without_edition_listed_as_absent(geography_report):
    fam = next(f for f in geography_report["families"] if f["id"] == "unclimbed_peaks")
    absent = {e["language"]: e["status"] for e in fam["editions"]}
    assert absent["zh"] == "absent"
    assert absent["it"] == "absent"
    assert fam["status"] == "ok"


def test_zero_table_page_is_present_not_absent(geography_report):
    fam = next(f for f in geography_report["families"] if f["id"] == "earthquakes")
    zh = next(e for e in fam["editions"] if e["language"] == "zh")
    assert zh["status"] == "ok"
    assert zh["table_count"] == 0
    assert zh["reference_count"] == 4


def test_no_entity_column_tables_reported(geography_report):
    kinds = {f["kind"] for fam in geography_report["families"] for f in fam["findings"]}
    assert "no-entity-column" in kinds
    assert "text-divergence" in kinds


def test_conservation_of_matrix_occurrences(header_mapping):
    """Every body row of an aligned table is an occurrence or a counted skip."""
    from tablediff.mw_client import ArticleRef, CachePolicy
    from tablediff.table_parser import extract_tables

    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    checked = 0
    for manifest_path in (GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST):
        report = run_pipeline(load_manifest(manifest_path), header_mapping, client,
                              PipelineOptions(offline=True))
        for fam in report["families"]:
            occurrences = {}
            for entity in fam["entities"]:
                for lang, occs in entity["occurrences"].items():
                    occurrences[lang] = occurrences.get(lang, 0) + len(occs)
            excluded, skipped = set(), {}
            for finding in fam["findings"]:
                if finding["kind"] == "no-entity-column":
                    excluded.add((finding["language"], finding["table_index"]))
                elif finding["kind"] == "rows-skipped":
                    count = int(finding["detail"].split()[0])
                    assert count > 0, finding
                    skipped[finding["language"]] = skipped.get(finding["language"], 0) + count
            for edition in fam["editions"]:
                if edition["status"] != "ok":
                    continue
                lang = edition["language"]
                page = client.fetch_page(ArticleRef(lang, edition["title"]),
                                         CachePolicy.OFFLINE_ONLY)
                rows = sum(table.n_body_rows for table in extract_tables(page)
                           if (lang, table.table_index) not in excluded)
                assert occurrences.get(lang, 0) == rows - skipped.get(lang, 0), (fam["id"], lang)
                checked += 1
    assert checked == 44  # ok editions over both manifests


def test_rows_without_an_alignment_key_are_counted_as_skipped(tmp_path, header_mapping):
    # A flag icon links to a page with no QID and shows no text: the row has no key.
    flag = '<a href="/wiki/Nepal" title="Nepal"><img src="Flag_of_Nepal.svg" alt=""></a>'
    html = ('<table class="wikitable"><tbody><tr><th>Flag</th><th>Peak</th><th>Height</th></tr>'
            + "".join(f"<tr><td>{flag}</td><td>{peak}</td><td>{height}</td></tr>"
                      for peak, height in (("Everest", "8,849"), ("Lhotse", "8,516")))
            + "</tbody></table>")
    transport = FakeTransport(pages={("en", "Peaks"): {
        "html": html, "revid": 1, "timestamp": "2025-06-01T00:00:00Z"}})
    manifest = parse_manifest({"families": [
        {"id": "peaks", "seed": {"language": "en", "title": "Peaks"}, "languages": ["en"]}]})
    report = run_pipeline(manifest, header_mapping,
                          MediaWikiClient(cache_dir=tmp_path, transport=transport),
                          PipelineOptions())
    family = report["families"][0]
    assert family["entities"] == []
    assert [(f["table_index"], f["detail"]) for f in family["findings"]
            if f["kind"] == "rows-skipped"] == [(0, "2 row(s) with empty entity cells")]


def test_entity_column_values_are_not_compared(tmp_path, header_mapping):
    # The entity cells are linked numbers that differ; a row key is not a value.
    pages = {}
    for lang, header, rank, height in (("en", "<th>Rank</th><th>Height</th>", "1", "8,849"),
                                       ("de", "<th>Rang</th><th>Höhe</th>", "2", "8.848")):
        pages[(lang, f"Peaks {lang}")] = {
            "html": (f'<table class="wikitable"><tbody><tr>{header}</tr><tr>'
                     f'<td><a href="/wiki/Everest">{rank}</a></td><td>{height}</td>'
                     "</tr></tbody></table>"),
            "revid": len(pages) + 1, "timestamp": "2025-06-01T00:00:00Z"}
    transport = FakeTransport(pages=pages, langlinks={("en", "Peaks en"): [("de", "Peaks de")]},
                              qids={("en", "Everest"): "Q513", ("de", "Everest"): "Q513"})
    manifest = parse_manifest({"families": [{
        "id": "peaks", "seed": {"language": "en", "title": "Peaks en"}, "languages": ["en", "de"],
        "overrides": {"column_hints": {"en": {"0": 0}, "de": {"0": 0}}}}]})
    family, = run_pipeline(manifest, header_mapping,
                           MediaWikiClient(cache_dir=tmp_path, transport=transport),
                           PipelineOptions())["families"]
    assert [(r["attribute"], r["entity"]["value"]) for r in family["records"]] == [
        ("height", "Q513")]


def test_family_aggregates_match_edition_rows(geography_report):
    for fam in geography_report["families"]:
        for lang, agg in fam["aggregates"].items():
            rows = [e for e in fam["editions"] if e["language"] == lang and e["status"] == "ok"]
            assert agg["pages"] == len(rows)
            assert agg["table_count"] == sum(r["table_count"] for r in rows)
            assert agg["reference_total"] == sum(r["reference_count"] for r in rows)


@pytest.mark.parametrize("manifest_path", [GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST],
                         ids=["geography", "climbers"])
def test_analyze_family_returns_one_plain_json_value(manifest_path, header_mapping):
    from tablediff.pipeline import analyze_family

    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    for entry in load_manifest(manifest_path).families:
        result = analyze_family(entry, header_mapping, client, PipelineOptions(offline=True))
        assert isinstance(result, dict)
        assert json.loads(json.dumps(result)) == result, entry.id


# -- CLI ---------------------------------------------------------------------

def test_cli_analyze_offline_json(tmp_path):
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["families"]) == 9


def test_cli_manifest_error_exit_code_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    result = run_cli("analyze", "--manifest", bad, "--offline")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)


CONFLICTING_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": ["height"]}},
                                  {"canonical": "elevation", "aliases": {"en": ["height"]}}]}
# One canonical split over two entries would be compared, and reported, twice.
REPEATED_CANONICAL_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": ["height"]}},
                                         {"canonical": "height", "aliases": {"de": ["höhe"]}}]}
NO_CANONICAL_MAP = {"attributes": [{"aliases": {"en": ["height"]}}]}
NOT_OBJECT_MAP = {"attributes": ["height"]}
# A string alias list must not be split into the single-character aliases h, e, i, g, t.
STRING_ALIASES_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": "height"}}]}
NOT_SNAKE_CASE_MAP = {"attributes": [{"canonical": "Bad Name", "aliases": {"en": ["height"]}}]}


@pytest.mark.parametrize("content", [None, "{not json", json.dumps(CONFLICTING_MAP),
                                     json.dumps(NO_CANONICAL_MAP), json.dumps(NOT_OBJECT_MAP),
                                     json.dumps(STRING_ALIASES_MAP), "[]",
                                     '{"attributes": null}', '{"attributes": 5}',
                                     json.dumps(REPEATED_CANONICAL_MAP),
                                     json.dumps(NOT_SNAKE_CASE_MAP)],
                         ids=["missing", "not-json", "conflicting", "no-canonical", "not-object",
                              "string-aliases", "top-level-list", "null-attributes",
                              "number-attributes", "repeated-canonical", "not-snake-case"])
def test_cli_bad_header_map_exit_code_1(tmp_path, content):
    header_map = tmp_path / "map.json"
    if content is not None:
        header_map.write_text(content, encoding="utf-8")
    result = run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", header_map, "--out", tmp_path / "out")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # an error line, not a traceback
    assert result.output.startswith(f"error: cannot load header map {header_map}: ")
    assert not (tmp_path / "out").exists()


def test_cli_fetch_loads_no_header_map(tmp_path, monkeypatch, fake_transport):
    import tablediff.cli as cli_mod
    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=tmp_path / "cache", transport=fake_transport))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "defaults": {"header_map": str(tmp_path / "missing.json")},
        "families": [{"id": "sample", "seed": {"language": "en", "title": "Sample Page"},
                      "languages": ["en"]}],
    }), encoding="utf-8")
    result = run_cli("fetch", "--manifest", manifest)
    assert result.exit_code == 0, result.output
    assert "fetched 1 page(s)" in result.output


def test_cli_wholly_failed_family_exit_code_2(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": [{
        "id": "ghost", "seed": {"language": "en", "title": "No Such Page Anywhere"},
        "languages": ["en", "de"],
    }]}), encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out)
    assert result.exit_code == 2
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["families"][0]["status"] == "failed"


def test_cli_langs_counts_match_fixture_snapshot(tmp_path):
    result = run_cli("langs", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline")
    assert result.exit_code == 0, result.output
    counts = dict(line.split("\t") for line in result.output.strip().splitlines())
    assert counts["Seven Summits"] == "58"
    assert counts["Eight-thousander"] == "57"
    assert counts["List of highest unclimbed peaks"] == "6"
    assert counts["Lists of earthquakes"] == "38"


def test_cli_langs_takes_offline_from_manifest_defaults(tmp_path):
    # The seed's langlinks entry is missing from the cache: read offline, that is
    # a snapshot error; read online, it would be a request to Wikipedia.
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    seed = "List of climbers who have summited all 14 eight-thousanders"
    entries = json.loads((cache / "langlinks.json").read_text(encoding="utf-8"))
    del entries[f"en:{seed}"]
    (cache / "langlinks.json").write_text(json.dumps(entries), encoding="utf-8")
    manifest = json.loads(CLIMBERS_MANIFEST.read_text(encoding="utf-8"))
    manifest["defaults"] = {"offline": True, "cache_dir": str(cache)}
    path = tmp_path / "climbers.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    result = run_cli("langs", "--manifest", path)
    assert result.exit_code == 0, result.output
    assert result.stdout == f"{seed}\terror: no cached snapshot for en:{seed}\n"


def test_cli_flags_override_manifest_defaults(tmp_path):
    manifest = tmp_path / "m.json"
    data = json.loads(Path(GEOGRAPHY_MANIFEST).read_text(encoding="utf-8"))
    data["defaults"] = {"rel_tol": 99.0, "cache_dir": str(FIXTURE_CACHE),
                        "header_map": str(HEADER_MAP)}
    manifest.write_text(json.dumps(data), encoding="utf-8")
    out_default = tmp_path / "a"
    result = run_cli("analyze", "--manifest", manifest, "--offline", "--out", out_default)
    assert result.exit_code == 0, result.output
    report = json.loads((out_default / "report.json").read_text(encoding="utf-8"))
    assert report["options"]["rel_tol"] == 99.0
    conflicts = [r for f in report["families"] for r in f["records"]
                 if r["class"] and r["class"] != "Incompleteness"]
    assert conflicts == []  # tolerance 99 swallows every disagreement

    out_flag = tmp_path / "b"
    result = run_cli("analyze", "--manifest", manifest, "--offline", "--rel-tol", "0.0",
                     "--out", out_flag)
    assert result.exit_code == 0
    report = json.loads((out_flag / "report.json").read_text(encoding="utf-8"))
    assert report["options"]["rel_tol"] == 0.0
    conflicts = [r for f in report["families"] for r in f["records"]
                 if r["class"] and r["class"] != "Incompleteness"]
    assert conflicts  # flag wins over the manifest default


BAD_DEFAULTS = {
    "missing-values-string": {"missing_values": "n/a"},
    "missing-values-numbers": {"missing_values": [1953]},
    "all-tables-string": {"all_tables": "no"},
    "offline-string": {"offline": "false"},
    "staleness-days-string": {"staleness_days": "abc"},
    "staleness-days-negative": {"staleness_days": -1},
    "staleness-days-past-timedelta": {"staleness_days": 10 ** 12},
    "jobs-string": {"jobs": "two"},
    "jobs-boolean": {"jobs": True},
    "jobs-zero": {"jobs": 0},
    "jobs-negative": {"jobs": -3},
    "rel-tol-null": {"rel_tol": None},
    "rel-tol-negative": {"rel_tol": -1},
    "rel-tol-infinite": {"rel_tol": float("inf")},  # what JSON's 1e999 reads as
    "rel-tol-huge-int": {"rel_tol": 10 ** 400},  # finite, but past any float
    "format-unknown": {"format": "xlsx"},
    "languages-number": {"languages": 5},
    "languages-numbers": {"languages": [1, 2]},
    "cache-dir-number": {"cache_dir": 5},
    "header-map-list": {"header_map": ["mappings/geography.json"]},
    "out-number": {"out": 3},
}


@pytest.mark.parametrize("bad", list(BAD_DEFAULTS.values()), ids=list(BAD_DEFAULTS))
def test_cli_mistyped_manifest_default_exit_code_1(tmp_path, bad):
    manifest = tmp_path / "m.json"
    data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
    data["defaults"] = {"cache_dir": str(FIXTURE_CACHE), "header_map": str(HEADER_MAP), **bad}
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("analyze", "--manifest", manifest, "--offline", "--out", tmp_path / "out")
    key, = bad
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: manifest defaults: {key} must be "), result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [{"main_table_index": {"en": True}},
                                       {"column_hints": {"en": {"0": True}}}],
                         ids=["main-table-index", "column-hint"])
def test_cli_boolean_override_exit_code_1(tmp_path, overrides):
    manifest = tmp_path / "m.json"
    data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
    data["families"][0]["overrides"] = overrides
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    family_id = data["families"][0]["id"]
    assert result.output.startswith(f"error: family {family_id!r}: "), result.output
    assert "must be a non-negative int" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("family", [{"seed": {"language": "en", "title": 5}},
                                    {"id": "climb/ers"}],
                         ids=["number-title", "slash-in-id"])
def test_cli_misshapen_family_exit_code_1(tmp_path, family):
    manifest = tmp_path / "m.json"
    data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
    data["families"][0].update(family)
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--format", "plotdata",
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: family "), result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rel_tol", ["-0.5", "nan", "inf"])
def test_cli_negative_or_nan_rel_tol_exit_code_1(tmp_path, rel_tol):
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--rel-tol", rel_tol,
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: rel_tol must be a finite number >= 0, got "), result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("days", ["-1", "1000000000", "99999999999"])
def test_cli_negative_or_huge_staleness_days_exit_code_1(tmp_path, days):
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--staleness-days", days,
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: staleness_days must be an integer from 0 to "
                                    "999999999"), result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_jobs_below_one_exit_code_1(tmp_path, jobs):
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--jobs", jobs,
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"error: jobs must be an integer >= 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "manifest"])
def test_cli_langs_naming_no_language_exit_code_1(tmp_path, where):
    manifest, langs = CLIMBERS_MANIFEST, ["--langs", ","]
    if where == "manifest":
        manifest = tmp_path / "m.json"
        data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
        data["defaults"] = {"languages": ""}
        manifest.write_text(json.dumps(data), encoding="utf-8")
        langs = []
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", *langs, "--header-map", HEADER_MAP, "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: languages must be "), result.output
    assert result.output.endswith(", got []\n"), result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["flag", "manifest"])
def test_cli_all_among_other_languages_exit_code_1(tmp_path, where):
    manifest, langs = CLIMBERS_MANIFEST, ["--langs", "all,en"]
    if where == "manifest":
        manifest = climbers_manifest_copy(tmp_path, defaults={"languages": "all, en"})
        langs = []
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", *langs, "--header-map", HEADER_MAP, "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("error: languages must be None, 'all' or a non-empty list of "
                             "strings without 'all', got ['all', 'en']\n")
    assert not (tmp_path / "out").exists()


def test_options_keep_rel_tol_as_a_float():
    for given in (0, 1, 0.25):
        rel_tol = PipelineOptions(rel_tol=given).rel_tol
        assert type(rel_tol) is float and rel_tol == given


def test_an_int_rel_tol_gives_the_same_report_from_the_api_and_the_cli(tmp_path,
                                                                        header_mapping):
    from tablediff.emit import emit

    manifest = climbers_manifest_copy(tmp_path, defaults={"rel_tol": 0})
    report = run_pipeline(load_manifest(manifest), header_mapping,
                          MediaWikiClient(cache_dir=FIXTURE_CACHE),
                          PipelineOptions(offline=True, rel_tol=0))
    emit(report, "json", tmp_path / "api")
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", tmp_path / "cli")
    assert result.exit_code == 0, result.output
    texts = [re.sub(r'"generated_at": "[^"]*"', "", (tmp_path / out / "report.json").read_text(
        encoding="utf-8"), count=1) for out in ("api", "cli")]
    assert '"rel_tol": 0.0,' in texts[0]
    assert texts[0] == texts[1]


@pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", None])
def test_options_refuse_jobs_that_are_not_an_integer_from_1(jobs):
    with pytest.raises(OptionsError, match=f"^jobs must be an integer >= 1, got {jobs!r}$"):
        PipelineOptions(jobs=jobs)


@pytest.mark.parametrize("where", ["flag", "manifest"])
def test_cli_refresh_on_an_offline_run_exit_code_1(tmp_path, where):
    manifest, offline = CLIMBERS_MANIFEST, ["--offline"]
    if where == "manifest":
        manifest = tmp_path / "m.json"
        data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
        data["defaults"] = {"offline": True}
        manifest.write_text(json.dumps(data), encoding="utf-8")
        offline = []
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE, *offline,
                     "--refresh", "--header-map", HEADER_MAP, "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("error: refresh cannot be combined with offline, "
                             "which reads only the cache\n")
    assert not (tmp_path / "out").exists()


def test_options_refuse_refresh_on_an_offline_run():
    with pytest.raises(OptionsError, match="^refresh cannot be combined with offline"):
        PipelineOptions(offline=True, refresh=True)


def test_options_are_frozen():
    options = PipelineOptions(offline=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.refresh = True
    assert options.refresh is False


def test_options_error_is_a_value_error_and_a_tablediff_error():
    assert issubclass(OptionsError, ValueError) and issubclass(OptionsError, TableDiffError)
    with pytest.raises(ValueError, match="^rel_tol must be a finite number >= 0, got -1.0$"):
        PipelineOptions(rel_tol=-1.0)


@pytest.mark.parametrize("name, value", [
    ("rel_tol", None), ("rel_tol", "0.1"), ("rel_tol", 10 ** 400),
    ("staleness_days", "30"), ("staleness_days", 1.5), ("staleness_days", True),
    ("jobs", True),
    ("offline", "no"), ("all_tables", "no"), ("refresh", "no"),
    ("languages", "en"), ("languages", []), ("languages", ["en", 1]),
    ("extra_missing", ["n/a"]),
    ("languages", ["all", "en"]), ("languages", ["all"]),
])
def test_options_refuse_mistyped_fields(name, value):
    with pytest.raises(OptionsError, match=f"^{name} must be .*, got ") as raised:
        PipelineOptions(**{name: value})
    assert isinstance(raised.value, ValueError)
    assert str(raised.value).endswith(f", got {value!r}")


def test_options_accept_each_form_of_their_fields():
    assert PipelineOptions(rel_tol=0).rel_tol == 0
    for languages in ("all", None, ["en"]):
        assert PipelineOptions(languages=languages).languages == languages


def _subcommand_dests() -> dict[str, set[str]]:
    """The dest of every flag, per subcommand of the CLI."""
    commands, = (action for action in cli._parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    return {name: {action.dest for action in sub._actions if action.dest != "help"}
            for name, sub in commands.choices.items()}


def test_every_layered_flag_is_named_after_its_manifest_default():
    # A flag's dest is the manifest defaults key it is layered over; ``report``
    # reads no manifest, and ``--manifest`` and ``--refresh`` have no default there.
    dests = _subcommand_dests()
    layered = set().union(*(dests[name] for name in dests if name != "report"))
    assert layered - {"manifest", "refresh"} == set(SETTINGS) - {"missing_values"}


def test_every_manifest_default_reaches_the_run(tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "m.json"
    data = json.loads(Path(CLIMBERS_MANIFEST).read_text(encoding="utf-8"))
    data["defaults"] = {"languages": "en, de", "offline": True, "rel_tol": 1,
                        "staleness_days": 30, "all_tables": True, "jobs": 2,
                        "missing_values": ["n/a"], "format": "csv", "out": str(out),
                        "cache_dir": str(FIXTURE_CACHE), "header_map": str(HEADER_MAP),
                        "refresh": True}  # no flag's default: ignored like any other key
    manifest.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("analyze", "--manifest", manifest)
    assert result.exit_code == 0, result.output
    assert sorted(path.name for path in out.iterdir()) == [
        "presence.csv", "records.csv", "report.json", "stats.csv"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["options"] == {"languages": ["en", "de"], "offline": True, "rel_tol": 1.0,
                                 "staleness_days": 30, "all_tables": True}
    assert isinstance(report["options"]["rel_tol"], float)


def test_manifest_defaults_keep_their_given_values():
    defaults = {"languages": "en, de", "offline": False, "rel_tol": 0, "staleness_days": 30,
                "jobs": 2, "missing_values": ["n/a"], "format": "csv", "out": "o",
                "cache_dir": "c", "header_map": "h.json", "unknown_key": object()}
    manifest = parse_manifest({"families": [], "defaults": defaults})
    assert manifest.defaults is defaults
    assert manifest.to_dict()["defaults"] == defaults


def test_cli_fetch_populates_cache_via_transport(tmp_path, monkeypatch, fake_transport):
    import tablediff.cli as cli_mod
    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=tmp_path / "cache", transport=fake_transport))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": [{
        "id": "sample", "seed": {"language": "en", "title": "Sample Page"},
        "languages": ["en"],
    }]}), encoding="utf-8")
    result = run_cli("fetch", "--manifest", manifest)
    assert result.exit_code == 0, result.output
    assert "fetched 1 page(s)" in result.output
    assert (tmp_path / "cache" / "pages" / "en" / "Sample%20Page.json").exists()
    assert json.loads((tmp_path / "cache" / "qids.json").read_text())["en:Thing"] == "Q99"


def test_fetch_warms_the_hinted_entity_column(tmp_path, header_mapping):
    from tablediff.pipeline import warm_cache

    html = ('<table class="wikitable"><tbody><tr><th>Peak</th><th>Range</th></tr>'
            + "".join(f'<tr><td><a href="/wiki/Peak_{i}">Peak {i}</a></td>'
                      f'<td><a href="/wiki/Range_{i}">Range {i}</a></td></tr>'
                      for i in range(3))
            + "</tbody></table>")
    transport = FakeTransport(
        pages={("en", "Ranges"): {"html": html, "revid": 7,
                                  "timestamp": "2025-06-01T00:00:00Z"}},
        qids={**{("en", f"Peak {i}"): f"Q{100 + i}" for i in range(3)},
              **{("en", f"Range {i}"): f"Q{200 + i}" for i in range(3)}},
    )
    manifest = parse_manifest({"families": [{
        "id": "ranges", "seed": {"language": "en", "title": "Ranges"}, "languages": ["en"],
        "overrides": {"column_hints": {"en": {"0": 1}}},
    }]})
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    summary = warm_cache(manifest, header_mapping, client, PipelineOptions())
    assert summary == {"fetched": 1, "absent_or_failed": 0}

    offline = MediaWikiClient(cache_dir=tmp_path / "cache")
    report = run_pipeline(manifest, header_mapping, offline, PipelineOptions(offline=True))
    entities = report["families"][0]["entities"]
    assert [(e["kind"], e["value"]) for e in entities] == [
        ("qid", f"Q{200 + i}") for i in range(3)]



def test_out_of_range_column_hint_is_a_no_entity_column_finding(tmp_path, header_mapping):
    from tablediff.pipeline import warm_cache

    html = ('<table class="wikitable"><tbody><tr><th>Peak</th><th>Range</th></tr>'
            '<tr><td><a href="/wiki/Peak_1">Peak 1</a></td><td>Alps</td></tr></tbody></table>')
    transport = FakeTransport(
        pages={("en", "Ranges"): {"html": html, "revid": 7, "timestamp": "2025-06-01T00:00:00Z"}},
        qids={("en", "Peak 1"): "Q101"})
    # The table has columns 0 and 1: a hint of 2 is one past its width.
    manifest = parse_manifest({"families": [{
        "id": "ranges", "seed": {"language": "en", "title": "Ranges"}, "languages": ["en"],
        "overrides": {"column_hints": {"en": {"0": 2}}},
    }]})
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    assert warm_cache(manifest, header_mapping, client, PipelineOptions()) == {
        "fetched": 1, "absent_or_failed": 0}
    family = run_pipeline(manifest, header_mapping, client, PipelineOptions())["families"][0]
    assert family["status"] == "ok"
    assert family["entities"] == []
    assert [f for f in family["findings"] if f["kind"] == "no-entity-column"] == [{
        "kind": "no-entity-column", "family": "ranges", "language": "en", "table_index": 0,
        "detail": "table excluded from alignment"}]

# -- emission ----------------------------------------------------------------

def test_emit_csv_round_trip_record_count(geography_report, tmp_path):
    import csv
    from tablediff.emit import emit
    emit(geography_report, "csv", tmp_path)
    with open(tmp_path / "records.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    pairs = {(r["family"], r["record_index"]) for r in rows}
    expected = sum(len(f["records"]) for f in geography_report["families"])
    assert len(pairs) == expected
    with open(tmp_path / "stats.csv", encoding="utf-8", newline="") as handle:
        stats = list(csv.DictReader(handle))
    ok_rows = [r for r in stats if r["status"] == "ok"]
    assert sum(int(r["table_count"]) for r in ok_rows if r["language"] == "en") == 55


def test_emit_json_refuses_non_finite_numbers(tmp_path):
    from tablediff.emit import emit
    with pytest.raises(ValueError):
        emit({"options": {"rel_tol": math.inf}}, "json", tmp_path)


def test_emit_plotdata_blank_for_absent_editions(geography_report, tmp_path):
    import csv
    from tablediff.emit import emit
    emit(geography_report, "plotdata", tmp_path)
    with open(tmp_path / "tables_by_language.csv", encoding="utf-8", newline="") as handle:
        rows = {r["family"]: r for r in csv.DictReader(handle)}
    assert rows["unclimbed_peaks"]["zh"] == ""      # absent edition: blank
    assert rows["earthquakes"]["zh"] == "0"          # present page, zero tables
    assert rows["seven_summits"]["en"] == "4"


def test_cli_report_rerenders_stored_json(tmp_path):
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out)
    assert result.exit_code == 0, result.output
    rendered = tmp_path / "rendered"
    result = run_cli("report", "--in", out / "report.json", "--format", "plotdata",
                     "--out", rendered)
    assert result.exit_code == 0, result.output
    presence = (rendered / "presence_eight_thousander_climbers.csv").read_text(encoding="utf-8")
    assert "duration,0,0,1,1,0" in presence


def counting_pools(monkeypatch) -> list:
    """Record each thread pool the pipeline creates, in the returned list."""
    pools = []

    class CountingPool(pipeline.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
    return pools


def test_jobs_parallel_run_is_deterministic(tmp_path, monkeypatch, header_mapping):
    # Every page is cached, so a run under the default cache policy, which
    # threads its page fetches, reads them all without a request (the
    # transport serves no page, and counts each request).
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    transport = FakeTransport()
    client = MediaWikiClient(cache_dir=cache, transport=transport)
    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    pools = counting_pools(monkeypatch)
    reports = [run_pipeline(manifest, header_mapping, client, options)
               for options in (PipelineOptions(), PipelineOptions(jobs=4),
                               PipelineOptions(offline=True))]
    assert transport.calls == 0
    assert len(pools) == len(manifest.families)  # only the jobs=4 run, once per family
    for report in reports:
        report.pop("generated_at")
        report["options"].pop("offline")
    assert reports[0] == reports[1] == reports[2]


def test_offline_run_reads_pages_without_threads(monkeypatch, header_mapping):
    pools = counting_pools(monkeypatch)
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    run_pipeline(load_manifest(GEOGRAPHY_MANIFEST), header_mapping, client,
                 PipelineOptions(offline=True, jobs=4))
    assert pools == []


class FirstPageLast(FakeTransport):
    """Answers the en page only after every other page has been answered."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.answered = []
        self.changed = threading.Condition()

    def get_json(self, url, params):
        language = self._lang(url)
        if params.get("action") == "parse" and language == "en":
            with self.changed:
                assert self.changed.wait_for(
                    lambda: len(self.answered) == len(self.pages) - 1, timeout=10)
        result = super().get_json(url, params)
        if params.get("prop") == "revisions":
            with self.changed:
                self.answered.append(language)
                self.changed.notify_all()
        return result


def test_threaded_gather_keeps_the_wanted_order(tmp_path, header_mapping):
    titles = {"en": "Peaks", "de": "Gipfel", "zh": "山峰"}
    transport = FirstPageLast(
        pages={(lang, title): {"html": "<p>No table.</p>", "revid": revid,
                               "timestamp": "2025-06-01T00:00:00Z"}
               for revid, (lang, title) in enumerate(titles.items(), 1)},
        langlinks={("en", "Peaks"): [("de", "Gipfel"), ("zh", "山峰")]})
    # it has no edition listed: its absent edition keeps its place
    manifest = parse_manifest({"families": [{"id": "peaks", "seed": {"language": "en",
                                                                      "title": "Peaks"},
                                             "languages": ["en", "it", "de", "zh"]}]})
    client = MediaWikiClient(cache_dir=tmp_path, rate_limit=1e9, transport=transport)
    family, = run_pipeline(manifest, header_mapping, client, PipelineOptions(jobs=4))["families"]
    assert transport.answered[-1] == "en"
    assert [(e["language"], e["status"]) for e in family["editions"]] == [
        ("en", "ok"), ("it", "absent"), ("de", "ok"), ("zh", "ok")]


def test_missing_values_config_extends_vocabulary(tmp_path, header_mapping):
    data = json.loads(Path(GEOGRAPHY_MANIFEST).read_text(encoding="utf-8"))
    data["defaults"] = {"missing_values": ["1953"]}  # absurd on purpose: years vanish
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    fam = next(f for f in report["families"] if f["id"] == "seven_summits")
    en = next(e for e in fam["editions"] if e["language"] == "en")
    # The first-ascent column now counts as incomplete in every table holding 1953.
    assert en["columns"]["incomplete"] > 1


def test_missing_values_entries_match_cells_as_cells_read(tmp_path):
    data = json.loads(Path(GEOGRAPHY_MANIFEST).read_text(encoding="utf-8"))
    reports = {}
    for marker in ["1953", "1953 ", "1953\u00a0", "1953 [1]"]:
        data["defaults"] = {"missing_values": [marker]}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / f"out-{len(reports)}"
        result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                         "--offline", "--header-map", HEADER_MAP, "--out", out)
        assert result.exit_code == 0, result.output
        reports[marker] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for marker, report in reports.items():
        assert report["families"] == reports["1953"]["families"], repr(marker)
        assert report["manifest"]["defaults"]["missing_values"] == [marker]  # echoed as written


def test_langs_flag_restricts_run_languages(tmp_path):
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--langs", "en,de", "--out", out)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["options"]["languages"] == ["en", "de"]
    for fam in report["families"]:
        assert [e["language"] for e in fam["editions"]] == ["en", "de"]
    per_language = report["corpus"]["per_language"]
    assert set(per_language) == {"en", "de"}
    assert per_language["en"]["table_count"] == 55


def test_repeated_language_is_analyzed_once(tmp_path):
    reports = {}
    for langs in ("en", "en,en"):
        out = tmp_path / langs
        result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                         "--offline", "--header-map", HEADER_MAP, "--langs", langs,
                         "--format", "plotdata", "--out", out)
        assert result.exit_code == 0, result.output
        reports[langs] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    once, twice = reports["en"], reports["en,en"]
    assert [[e["language"] for e in fam["editions"]] for fam in twice["families"]] == [["en"]]
    assert twice["families"] == once["families"]
    assert twice["options"]["languages"] == twice["corpus"]["languages"] == ["en"]
    assert twice["corpus"]["per_language"] == once["corpus"]["per_language"]
    header = (tmp_path / "en,en" / "tables_by_language.csv").read_text(encoding="utf-8")
    assert header.splitlines()[0] == "family,en"


# Every edition the climbers page's cached langlinks list, with the seed.
CLIMBERS_LISTED = ["de", "en", "es", "fr", "it", "ja", "nl", "zh"]


def climbers_manifest_copy(tmp_path, **changes) -> Path:
    manifest = json.loads(CLIMBERS_MANIFEST.read_text(encoding="utf-8"))
    manifest.update(changes)
    path = tmp_path / "climbers.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def all_languages_request(tmp_path, where) -> tuple[Path, list[str]]:
    """A climbers manifest copy and the flags that ask for "all" languages ``where``."""
    if where == "defaults":
        return climbers_manifest_copy(tmp_path, defaults={"languages": "all"}), []
    return climbers_manifest_copy(tmp_path), ["--langs", "all"]


@pytest.mark.parametrize("where", ["defaults", "flag"])
def test_analyze_all_languages_takes_every_listed_edition(tmp_path, where):
    manifest, flags = all_languages_request(tmp_path, where)
    out = tmp_path / "out"
    result = run_cli("analyze", "--manifest", manifest, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out, *flags)
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    family = report["families"][0]
    assert family["languages_requested"] == CLIMBERS_LISTED
    assert report["options"]["languages"] == CLIMBERS_LISTED
    assert [e["language"] for e in family["editions"] if e["status"] == "ok"] == [
        "de", "en", "it", "nl", "zh"]

    # The same run as a family whose own languages are "all".
    entry = json.loads(CLIMBERS_MANIFEST.read_text(encoding="utf-8"))["families"][0]
    family_all = climbers_manifest_copy(tmp_path, families=[{**entry, "languages": "all"}])
    result = run_cli("analyze", "--manifest", family_all, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", tmp_path / "family")
    assert result.exit_code == 0, result.output
    reference = json.loads((tmp_path / "family" / "report.json").read_text(encoding="utf-8"))
    assert report["families"] == reference["families"]
    assert report["corpus"] == reference["corpus"]


@pytest.mark.parametrize("where", ["defaults", "flag"])
def test_cli_fetch_all_languages_takes_every_listed_edition(tmp_path, monkeypatch, where):
    import tablediff.cli as cli_mod
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    transport = FakeTransport()  # serves no page, so the uncached editions are missing
    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=cache_dir, transport=transport))
    manifest, flags = all_languages_request(tmp_path, where)
    result = run_cli("fetch", "--manifest", manifest, "--cache-dir", cache, *flags)
    assert result.exit_code == 0, result.output
    assert "fetched 5 page(s); 3 absent or failed" in result.output
    assert sorted(params["page"] for _url, params in transport.log) == [
        "List of climbers who have summited all 14 eight-thousanders"] * 3


def test_all_tables_extends_column_scope(tmp_path):
    out_main = tmp_path / "main"
    out_all = tmp_path / "all"
    for out, extra in ((out_main, []), (out_all, ["--all-tables"])):
        result = run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir",
                         FIXTURE_CACHE, "--offline", "--header-map", HEADER_MAP,
                         "--out", out, *extra)
        assert result.exit_code == 0, result.output
    main_only = json.loads((out_main / "report.json").read_text(encoding="utf-8"))
    all_tables = json.loads((out_all / "report.json").read_text(encoding="utf-8"))
    total = lambda r: r["corpus"]["overall"]["columns_total"]
    assert total(main_only) == 805
    assert total(all_tables) > total(main_only)


# -- value walk --------------------------------------------------------------

def ordered(values):
    """Both levels of an {entity: {language: value}} dict as item lists, order included."""
    return [(entity, list(by_language.items())) for entity, by_language in values.items()]


def assert_walk_matches_oracle(matrix, columns, attributes, extra_missing):
    walked = _attribute_values(matrix, columns, attributes, extra_missing)
    assert list(walked) == list(dict.fromkeys(attributes))
    for attr in attributes:
        oracle = oracle_collect_attribute_values(matrix, columns, attr, extra_missing)
        assert ordered(walked[attr]) == ordered(oracle), attr
    return walked


@pytest.mark.parametrize("manifest_path", [GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST],
                         ids=["geography", "climbers"])
def test_attribute_values_match_the_per_attribute_oracle(monkeypatch, header_mapping,
                                                         manifest_path):
    calls = []

    def checked(*args):
        calls.append(args)
        return assert_walk_matches_oracle(*args)

    monkeypatch.setattr(pipeline, "_attribute_values", checked)
    manifest = load_manifest(manifest_path)
    run_pipeline(manifest, header_mapping, MediaWikiClient(cache_dir=FIXTURE_CACHE),
                 PipelineOptions(offline=True))
    assert len(calls) == len(manifest.families)
    assert all(attributes for _matrix, _columns, attributes, _extra in calls)


WALK_LANGUAGES = ("en", "de", "zh")
# The second "height" is the first again: equal attributes are one key of the walk.
WALK_ATTRIBUTES = (Attribute("height", "mapped"), Attribute("area", "mapped"),
                   Attribute("notes", "unmapped"), Attribute("height", "mapped"))
# Missing markers, "x" (missing only as an extra marker), numbers read per locale, text.
WALK_TEXTS = ("", "—", "n/a", "x", "8,848", "8.848", "12 m", "26%", "3/4", "Himalaya")


@st.composite
def small_matrices(draw):
    """A matrix with repeated occurrences over tables with 0-4 columns per attribute.

    An entity may have no language, which ``build_matrix`` never gives.
    """
    languages = draw(st.lists(st.sampled_from(WALK_LANGUAGES), min_size=1, unique=True))
    columns = {}
    for language in languages:
        for table_index in range(draw(st.integers(1, 2))):
            n_cols = draw(st.integers(1, 4))
            body_rows = draw(st.lists(
                st.lists(st.sampled_from(WALK_TEXTS).map(Cell), min_size=n_cols, max_size=n_cols),
                min_size=1, max_size=4))
            by_attr = {}
            for col in range(n_cols):
                attr = draw(st.sampled_from((None,) + WALK_ATTRIBUTES))
                if attr is not None:
                    by_attr.setdefault(attr, []).append(col)
            columns[(language, table_index)] = (WikiTable(table_index, [], body_rows, n_cols),
                                                by_attr)
    matrix = {EntityKey("qid", f"Q{number}"): {}
              for number in range(1, draw(st.integers(1, 4)) + 1)}
    for by_language in matrix.values():
        for language in languages:
            places = [(index, row) for (lang, index), (table, _) in columns.items()
                      if lang == language for row in range(table.n_body_rows)]
            occurrences = draw(st.lists(st.sampled_from(places), unique=True, max_size=3))
            if occurrences:
                by_language[language] = sorted(occurrences)
    return matrix, columns


@given(small_matrices(), st.lists(st.sampled_from(WALK_ATTRIBUTES), max_size=5),
       st.sampled_from([(), ("x",)]))
@settings(max_examples=300, deadline=None)
def test_attribute_values_match_the_oracle_on_small_matrices(case, attributes, extra_missing):
    matrix, columns = case
    assert_walk_matches_oracle(matrix, columns, attributes, extra_missing)


# -- parse once --------------------------------------------------------------

def _count_parses(monkeypatch) -> list:
    """The HTML of every parse_html call from now on, at every name bound to it in the package."""
    from tablediff import htmldom

    parsed = []
    original = htmldom.parse_html
    counting = lambda html: parsed.append(html) or original(html)
    for name, module in list(sys.modules.items()):
        if name.startswith("tablediff.") and getattr(module, "parse_html", None) is original:
            monkeypatch.setattr(module, "parse_html", counting)
    return parsed


def _cache_without_scans(tmp_path) -> Path:
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    shutil.rmtree(cache / "scans")
    return cache


def test_each_ok_edition_is_parsed_once(tmp_path, monkeypatch, header_mapping):
    from tablediff.mw_client import ArticleRef, CachePolicy, count_references
    from tablediff.table_parser import extract_tables

    cache = _cache_without_scans(tmp_path)
    parsed = _count_parses(monkeypatch)
    client = MediaWikiClient(cache_dir=cache)
    report = run_pipeline(load_manifest(GEOGRAPHY_MANIFEST), header_mapping, client,
                          PipelineOptions(offline=True))
    ok = sum(1 for family in report["families"] for e in family["editions"]
             if e["status"] == "ok")
    assert ok > 0
    assert len(parsed) == ok
    assert len(list(cache.glob("scans/*/*.json"))) == ok

    parsed.clear()
    client.scan_cache_path("en", "Seven Summits").unlink()
    doc = client.fetch_page(ArticleRef("en", "Seven Summits"), CachePolicy.OFFLINE_ONLY)
    assert extract_tables(doc)
    assert count_references(doc) > 0
    assert parsed == [doc.html]


def test_a_run_over_stored_scans_parses_no_page(tmp_path, monkeypatch, header_mapping):
    cache = _cache_without_scans(tmp_path)
    first = run_pipeline(load_manifest(GEOGRAPHY_MANIFEST), header_mapping,
                         MediaWikiClient(cache_dir=cache), PipelineOptions(offline=True))
    parsed = _count_parses(monkeypatch)
    again = run_pipeline(load_manifest(GEOGRAPHY_MANIFEST), header_mapping,
                         MediaWikiClient(cache_dir=cache), PipelineOptions(offline=True))
    assert parsed == []
    assert {**again, "generated_at": ""} == {**first, "generated_at": ""}


CLIMBERS_EN = "List of climbers who have summited all 14 eight-thousanders"

# Ways a stored form goes bad, as the text of the file that replaces it.
SPOILED_SCANS = {
    "truncated": lambda text: text[:len(text) // 2],
    "old version": lambda text: text.replace('"scan_version":', '"scan_version":-1', 1),
    "other html": lambda text: re.sub('"html_sha256":"[0-9a-f]', '"html_sha256":"x', text, 1),
    "mistyped cell": lambda text: re.sub(r'"links":\[\[(\d+),', r'"links":[["\1",', text, 1),
    "one text too many": lambda text: text.replace('"texts":"', '"texts":"\\n', 1),
}


@pytest.mark.parametrize("spoil", sorted(SPOILED_SCANS))
def test_a_bad_stored_scan_is_parsed_and_rewritten_with_the_same_report(
        tmp_path, monkeypatch, header_mapping, climbers_report, spoil):
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    client = MediaWikiClient(cache_dir=cache)
    path = client.scan_cache_path("en", CLIMBERS_EN)
    good = path.read_text(encoding="utf-8")
    bad = SPOILED_SCANS[spoil](good)
    assert bad != good
    path.write_text(bad, encoding="utf-8")
    parsed = _count_parses(monkeypatch)
    report = run_pipeline(load_manifest(CLIMBERS_MANIFEST), header_mapping, client,
                          PipelineOptions(offline=True))
    assert {**report, "generated_at": ""} == {**climbers_report, "generated_at": ""}
    snapshot = json.loads(client.page_cache_path("en", CLIMBERS_EN).read_text(encoding="utf-8"))
    assert parsed == [snapshot["html"]]
    assert path.read_text(encoding="utf-8") == good


def test_a_scan_that_cannot_be_stored_leaves_the_report_as_it_was(
        tmp_path, monkeypatch, header_mapping, climbers_report):
    from tablediff import mw_client

    def full_disk(path, text):
        raise OSError(28, "No space left on device")

    cache = _cache_without_scans(tmp_path)
    monkeypatch.setattr(mw_client, "_replace_file", full_disk)
    parsed = _count_parses(monkeypatch)
    report = run_pipeline(load_manifest(CLIMBERS_MANIFEST), header_mapping,
                          MediaWikiClient(cache_dir=cache), PipelineOptions(offline=True))
    assert {**report, "generated_at": ""} == {**climbers_report, "generated_at": ""}
    assert len(parsed) == 5
    assert not list(cache.glob("scans/*/*"))


# -- write-behind cache saves -------------------------------------------------

def _peaks_transport(families, fail_pageprops_in=None):
    """A fake API with one linked table per (family, language) edition."""
    from tablediff.errors import NetworkError

    class Transport(FakeTransport):
        def get_json(self, url, params):
            if params.get("prop") == "pageprops" and self._lang(url) == fail_pageprops_in:
                raise NetworkError("HTTP 503 from fake API")
            return super().get_json(url, params)

    pages, langlinks, qids = {}, {}, {}
    for family in families:
        for lang in ("en", "de"):
            title = f"{family} {lang}"
            pages[(lang, title)] = {
                "html": ('<table class="wikitable"><tbody><tr><th>Peak</th></tr>'
                         + "".join(f'<tr><td><a href="/wiki/{family}_{i}">{family} {i}</a>'
                                   "</td></tr>" for i in range(3))
                         + "</tbody></table>"),
                "revid": len(pages) + 1, "timestamp": "2025-06-01T00:00:00Z"}
            for i in range(3):
                qids[(lang, f"{family} {i}")] = f"Q{len(qids) + 1}"
        langlinks[("en", f"{family} en")] = [("de", f"{family} de")]
    return Transport(pages=pages, langlinks=langlinks, qids=qids)


def _peaks_manifest(families):
    return parse_manifest({"families": [
        {"id": family, "seed": {"language": "en", "title": f"{family} en"},
         "languages": ["en", "de"]} for family in families]})


def test_warm_cache_saves_each_map_once_per_family(tmp_path, monkeypatch, header_mapping):
    from tablediff.pipeline import warm_cache

    writes = []
    original = MediaWikiClient._write_atomic
    monkeypatch.setattr(MediaWikiClient, "_write_atomic", staticmethod(
        lambda path, payload: writes.append(path.name) or original(path, payload)))
    families = ["Alpha", "Beta", "Gamma"]
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=_peaks_transport(families))
    summary = warm_cache(_peaks_manifest(families), header_mapping, client, PipelineOptions())
    assert summary == {"fetched": 6, "absent_or_failed": 0}
    assert writes.count("qids.json") == len(families)
    assert writes.count("langlinks.json") == len(families)
    qids = json.loads((tmp_path / "cache" / "qids.json").read_text(encoding="utf-8"))
    assert len(qids) == 2 * 3 * len(families)


def test_refresh_refetches_every_page_of_a_warm_cache(tmp_path, header_mapping):
    from tablediff.pipeline import warm_cache

    transport = _peaks_transport(["Alpha"])
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    warm_cache(_peaks_manifest(["Alpha"]), header_mapping, client, PipelineOptions())
    for page in transport.pages.values():
        page["revid"] += 100
    transport.qids[("de", "Alpha 0")] = "Q77"
    transport.log.clear()
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    summary = warm_cache(_peaks_manifest(["Alpha"]), header_mapping, client,
                         PipelineOptions(refresh=True))
    assert summary == {"fetched": 2, "absent_or_failed": 0}
    parsed = sorted((transport._lang(url), params["page"])
                    for url, params in transport.log if params["action"] == "parse")
    assert parsed == sorted(transport.pages)
    for (lang, title), page in transport.pages.items():
        snapshot = json.loads(client.page_cache_path(lang, title).read_text(encoding="utf-8"))
        assert snapshot["revision_id"] == page["revid"] > 100
    qids = json.loads((tmp_path / "cache" / "qids.json").read_text(encoding="utf-8"))
    assert qids["de:Alpha 0"] == "Q77"


@pytest.mark.parametrize("run", ["warm_cache", "run_pipeline"])
def test_network_error_mid_family_keeps_the_qids_resolved_before_it(tmp_path, run,
                                                                   header_mapping):
    from tablediff import pipeline
    from tablediff.errors import NetworkError

    client = MediaWikiClient(cache_dir=tmp_path / "cache",
                             transport=_peaks_transport(["Alpha"], fail_pageprops_in="de"))
    with pytest.raises(NetworkError):
        getattr(pipeline, run)(_peaks_manifest(["Alpha"]), header_mapping, client,
                               PipelineOptions())
    qids = json.loads((tmp_path / "cache" / "qids.json").read_text(encoding="utf-8"))
    assert qids == {f"en:Alpha {i}": f"Q{i + 1}" for i in range(3)}
    langlinks = json.loads((tmp_path / "cache" / "langlinks.json").read_text(encoding="utf-8"))
    assert langlinks == {"en:Alpha en": [["de", "Alpha de"]]}


MALFORMED = {  # shape -> (language answered, answer, finding)
    "parse": ("de", {"warnings": {"main": {"warnings": "Unrecognized parameter"}}}, "fetch-error"),
    "langlinks": ("en", {"query": {"pages": [{"langlinks": [{"lang": "de"}]}]}},
                  "langlinks-unavailable"),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED))
def test_malformed_api_answer_ends_one_edition_not_the_run(tmp_path, monkeypatch, header_mapping,
                                                           shape):
    import tablediff.cli as cli_mod

    language, answer, kind = MALFORMED[shape]

    def transport():
        fake = _peaks_transport(["Alpha"])
        serve = fake.get_json

        def get_json(url, params):
            asked = params["prop"] if params["action"] == "query" else params["action"]
            return answer if (asked, fake._lang(url)) == (shape, language) else serve(url, params)

        fake.get_json = get_json
        return fake

    family, = run_pipeline(_peaks_manifest(["Alpha"]), header_mapping,
                           MediaWikiClient(cache_dir=tmp_path / "run", transport=transport()),
                           PipelineOptions())["families"]
    found = [f for f in family["findings"] if f["kind"] == kind]
    assert len(found) == 1
    assert "malformed API answer to " in found[0]["detail"]
    assert [e["language"] for e in family["editions"] if e["status"] == "ok"] == ["en"]

    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=tmp_path / "fetch", transport=transport()))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": [{
        "id": "Alpha", "seed": {"language": "en", "title": "Alpha en"},
        "languages": ["en", "de"]}]}), encoding="utf-8")
    result = run_cli("fetch", "--manifest", manifest)
    assert result.exit_code == 0, result.output
    assert result.output == "fetched 1 page(s); 1 absent or failed\n"


def test_cli_langs_saves_langlinks(tmp_path, monkeypatch, fake_transport):
    import tablediff.cli as cli_mod
    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=tmp_path / "cache", transport=fake_transport))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": [{
        "id": "sample", "seed": {"language": "en", "title": "Sample Page"},
    }]}), encoding="utf-8")
    result = run_cli("langs", "--manifest", manifest)
    assert result.exit_code == 0, result.output
    assert result.output == "Sample Page\t3\n"
    langlinks = json.loads((tmp_path / "cache" / "langlinks.json").read_text(encoding="utf-8"))
    assert langlinks == {"en:Sample Page": [["de", "Beispielseite"], ["fr", "Page exemple"]]}


def test_offline_run_writes_no_cache_file(tmp_path, header_mapping):
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    before = {p: p.stat().st_mtime_ns for p in cache.rglob("*")}
    client = MediaWikiClient(cache_dir=cache)
    for manifest in (GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST):
        run_pipeline(load_manifest(manifest), header_mapping, client,
                     PipelineOptions(offline=True))
    assert {p: p.stat().st_mtime_ns for p in cache.rglob("*")} == before


# -- parse failures ----------------------------------------------------------

def _fail_parse_of(monkeypatch, tmp_path, language) -> tuple[Path, Path]:
    """A copy of the vendored cache whose climbers page of one language has no stored
    scan and whose parse raises: the cache and where that scan would be."""
    from tablediff import mw_client
    from tablediff.mw_client import ArticleRef, CachePolicy

    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    client = MediaWikiClient(cache_dir=cache)
    seed = load_manifest(CLIMBERS_MANIFEST).families[0].seed
    versions = client.list_language_versions(seed, CachePolicy.OFFLINE_ONLY)
    title = next(ref.title for ref in versions if ref.language == language)
    html = client.fetch_page(ArticleRef(language, title), CachePolicy.OFFLINE_ONLY).html
    scan = client.scan_cache_path(language, title)
    scan.unlink()
    original = mw_client.parse_html

    def parse_html(text):
        if text == html:
            raise RuntimeError("tokenizer defect")
        return original(text)

    monkeypatch.setattr(mw_client, "parse_html", parse_html)
    return cache, scan


def test_parse_failure_turns_the_edition_into_a_fetch_error(tmp_path, monkeypatch,
                                                           header_mapping):
    cache, scan = _fail_parse_of(monkeypatch, tmp_path, "zh")
    report = run_pipeline(load_manifest(CLIMBERS_MANIFEST), header_mapping,
                          MediaWikiClient(cache_dir=cache), PipelineOptions(offline=True))
    family, = report["families"]
    assert family["status"] == "ok"
    assert {e["language"]: e["status"] for e in family["editions"]} == {
        "en": "ok", "de": "ok", "zh": "error", "it": "ok", "nl": "ok"}
    errors = [f for f in family["findings"] if f["kind"] == "fetch-error"]
    assert [f["language"] for f in errors] == ["zh"]
    assert "tokenizer defect" in errors[0]["detail"]
    assert family["entities"]
    assert not scan.exists()


def test_warm_cache_counts_a_parse_failure_as_failed(tmp_path, monkeypatch, header_mapping):
    from tablediff.pipeline import warm_cache

    cache, _scan = _fail_parse_of(monkeypatch, tmp_path, "zh")
    summary = warm_cache(load_manifest(CLIMBERS_MANIFEST), header_mapping,
                         MediaWikiClient(cache_dir=cache), PipelineOptions(offline=True))
    assert summary == {"fetched": 4, "absent_or_failed": 1}


# -- unreadable cache files --------------------------------------------------

@pytest.mark.parametrize("command, name, content", [
    ("analyze", "qids.json", '{"en:Mount Ev'),
    ("langs", "langlinks.json", "[1, 2]"),
    ("langs", "qids.json", '{"en:Mount Ev'),
    ("fetch", "langlinks.json", "[1, 2]"),
])
def test_cli_unreadable_cache_map_exit_code_1(tmp_path, monkeypatch, fake_transport,
                                              command, name, content):
    import tablediff.cli as cli_mod
    original_init = MediaWikiClient.__init__
    # The fake transport keeps the network out of reach should the map be read late.
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=cache_dir, transport=fake_transport))
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    (cache / name).write_text(content, encoding="utf-8")
    args = ["--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", cache]
    if command != "fetch":
        args.append("--offline")
    if command == "analyze":
        args += ["--header-map", HEADER_MAP, "--out", tmp_path / "out"]
    result = run_cli(command, *args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith(f"error: unreadable cache map {cache / name}: ")
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def _cache_with_broken_snapshot(tmp_path, directory=False):
    """A copy of the vendored cache whose en Eight-thousander snapshot is truncated.

    With ``directory``, a directory stands in place of the snapshot file.
    """
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    broken = cache / "pages" / "en" / "Eight-thousander.json"
    if directory:
        broken.unlink()
        broken.mkdir()
    else:
        broken.write_text('{"trunc', encoding="utf-8")
    return cache, broken


def _assert_fetch_error(tmp_path, cache, broken):
    result = run_cli("analyze", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", cache,
                     "--offline", "--header-map", HEADER_MAP, "--out", tmp_path / "out")
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    family, = [f for f in report["families"] if f["seed"]["title"] == "Eight-thousander"]
    assert family["status"] == "ok"
    en, = [e for e in family["editions"] if e["language"] == "en"]
    assert en["status"] == "error"
    errors = [f for f in family["findings"] if f["kind"] == "fetch-error"]
    assert [f["language"] for f in errors] == ["en"]
    assert str(broken) in errors[0]["detail"]


def _assert_warm_cache_counts_one_failure(cache, header_mapping):
    from tablediff.pipeline import warm_cache

    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    intact = warm_cache(manifest, header_mapping, MediaWikiClient(cache_dir=FIXTURE_CACHE),
                        PipelineOptions(offline=True))
    summary = warm_cache(manifest, header_mapping, MediaWikiClient(cache_dir=cache),
                         PipelineOptions(offline=True))
    assert summary == {"fetched": intact["fetched"] - 1,
                       "absent_or_failed": intact["absent_or_failed"] + 1}


def test_unreadable_snapshot_turns_the_edition_into_a_fetch_error(tmp_path):
    _assert_fetch_error(tmp_path, *_cache_with_broken_snapshot(tmp_path))


def test_warm_cache_counts_an_unreadable_snapshot_as_failed(tmp_path, header_mapping):
    cache, _broken = _cache_with_broken_snapshot(tmp_path)
    _assert_warm_cache_counts_one_failure(cache, header_mapping)


def test_snapshot_path_that_cannot_be_read_turns_the_edition_into_a_fetch_error(tmp_path):
    _assert_fetch_error(tmp_path, *_cache_with_broken_snapshot(tmp_path, directory=True))


def test_warm_cache_counts_a_snapshot_path_that_cannot_be_read_as_failed(tmp_path,
                                                                        header_mapping):
    cache, _broken = _cache_with_broken_snapshot(tmp_path, directory=True)
    _assert_warm_cache_counts_one_failure(cache, header_mapping)


# -- errors that end a command ------------------------------------------------

def _cache_copy_with(tmp_path, name, key, value) -> Path:
    """A copy of the vendored cache whose map ``name`` holds ``value`` at ``key``."""
    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    entries = json.loads((cache / name).read_text(encoding="utf-8"))
    entries[key] = value
    (cache / name).write_text(json.dumps(entries), encoding="utf-8")
    return cache


def _live_alpha(tmp_path, monkeypatch, transport) -> Path:
    """A manifest of the family Alpha, which the CLI fetches through ``transport``."""
    import tablediff.cli as cli_mod
    original_init = MediaWikiClient.__init__
    monkeypatch.setattr(cli_mod.MediaWikiClient, "__init__",
                        lambda self, cache_dir=None, **kw: original_init(
                            self, cache_dir=tmp_path / "cache", transport=transport))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"families": [{
        "id": "Alpha", "seed": {"language": "en", "title": "Alpha en"},
        "languages": ["en", "de"]}]}), encoding="utf-8")
    return manifest


def _network_error(command, save_fails=False):
    def case(tmp_path, monkeypatch):
        transport = _peaks_transport(["Alpha"], fail_pageprops_in="de")
        if save_fails:  # another process truncates the map behind the failing request
            serve = transport.get_json

            def get_json(url, params):
                if params.get("prop") == "pageprops" and transport._lang(url) == "de":
                    (tmp_path / "cache" / "qids.json").write_text('{"en:Al', encoding="utf-8")
                return serve(url, params)

            transport.get_json = get_json
        args = [command, "--manifest", _live_alpha(tmp_path, monkeypatch, transport)]
        if command == "analyze":
            args += ["--header-map", HEADER_MAP, "--out", tmp_path / "out"]
        return args
    return case


def _qids_corrupted_before_save(tmp_path, monkeypatch):
    transport = _peaks_transport(["Alpha"])
    serve = transport.get_json

    def get_json(url, params):
        if params.get("prop") == "pageprops":  # another process truncates the map mid-run
            (tmp_path / "cache" / "qids.json").write_text('{"en:Al', encoding="utf-8")
        return serve(url, params)

    transport.get_json = get_json
    return ["fetch", "--manifest", _live_alpha(tmp_path, monkeypatch, transport)]


def _offline_analyze(manifest, cache, out):
    return ["analyze", "--manifest", manifest, "--cache-dir", cache, "--offline",
            "--header-map", HEADER_MAP, "--out", out]


def _bad_qid_entry(tmp_path, monkeypatch):
    cache = _cache_copy_with(tmp_path, "qids.json", "en:1755 Lisbon earthquake", "Q0")
    return _offline_analyze(GEOGRAPHY_MANIFEST, cache, tmp_path / "out")


def _manifest_directory(tmp_path, monkeypatch):
    (tmp_path / "m.json").mkdir()
    return _offline_analyze(tmp_path / "m.json", FIXTURE_CACHE, tmp_path / "out")


def _manifest_not_utf8(tmp_path, monkeypatch):
    (tmp_path / "m.json").write_bytes(b'{"families": ["\xff"]}')
    return _offline_analyze(tmp_path / "m.json", FIXTURE_CACHE, tmp_path / "out")


def _out_is_a_file(tmp_path, monkeypatch):
    (tmp_path / "out").write_text("", encoding="utf-8")
    return _offline_analyze(CLIMBERS_MANIFEST, FIXTURE_CACHE, tmp_path / "out")


def _report_in(content):
    def case(tmp_path, monkeypatch):
        (tmp_path / "report.json").write_text(content, encoding="utf-8")
        return ["report", "--in", tmp_path / "report.json", "--format", "csv",
                "--out", tmp_path / "csv"]
    return case


def _bundled_report_with(mutate):
    """The climbers report.json, its first record changed by ``mutate``."""
    def case(tmp_path, monkeypatch):
        run = run_cli(*_offline_analyze(CLIMBERS_MANIFEST, FIXTURE_CACHE, tmp_path / "run"))
        assert run.exit_code == 0, run.output
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        mutate(report["families"][0]["records"][0])
        return _report_in(json.dumps(report))(tmp_path, monkeypatch)
    return case


def _report_in_missing(tmp_path, monkeypatch):
    return ["report", "--in", tmp_path / "missing.json", "--format", "csv",
            "--out", tmp_path / "csv"]


ERROR_EXITS = {
    "fetch-network-error": (_network_error("fetch"), "HTTP 503 from fake API"),
    "analyze-network-error": (_network_error("analyze"), "HTTP 503 from fake API"),
    "fetch-network-error-and-failed-save": (_network_error("fetch", save_fails=True),
                                            "HTTP 503 from fake API"),
    "analyze-network-error-and-failed-save": (_network_error("analyze", save_fails=True),
                                              "HTTP 503 from fake API"),
    "map-corrupted-before-save": (_qids_corrupted_before_save, "unreadable cache map "),
    "bad-qid-entry": (_bad_qid_entry, "bad entry 'en:1755 Lisbon earthquake' in "),
    "manifest-directory": (_manifest_directory, "Is a directory"),
    "manifest-not-utf8": (_manifest_not_utf8, "manifest is not valid JSON: "),
    "out-is-a-file": (_out_is_a_file, "File exists"),
    "report-not-json": (_report_in("{not json"), "not a tablediff report: "),
    "report-empty-object": (_report_in("{}"), "not a tablediff report: "),
    "report-list": (_report_in("[]"), "not a tablediff report: "),
    "report-entity-not-object": (_bundled_report_with(lambda rec: rec.update(entity="Q1")),
                                 "not a tablediff report: "),
    "report-value-not-object": (_bundled_report_with(lambda rec: rec["values"].update(en="12")),
                                "not a tablediff report: "),
    "report-in-missing": (_report_in_missing, "No such file or directory"),
}


@pytest.mark.parametrize("case, expected", list(ERROR_EXITS.values()), ids=list(ERROR_EXITS))
def test_cli_toolkit_or_os_error_exit_code_1(tmp_path, monkeypatch, case, expected):
    result = run_cli(*case(tmp_path, monkeypatch))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.stderr.startswith("error: "), result.output
    assert expected in result.stderr, result.stderr
    assert "Traceback" not in result.output


def _analyze_climbers(out, *extra):
    return [*_offline_analyze(CLIMBERS_MANIFEST, FIXTURE_CACHE, out), *extra]


USAGE_ERRORS = {
    "no-command": lambda out: [],
    "unknown-option": lambda out: _analyze_climbers(out, "--bogus"),
    "abbreviated-option": lambda out: ["analyze", "--manif", CLIMBERS_MANIFEST, "--cache-dir",
                                       FIXTURE_CACHE, "--offline", "--out", out],
    "format-not-a-choice": lambda out: _analyze_climbers(out, "--format", "xml"),
    "jobs-not-an-integer": lambda out: _analyze_climbers(out, "--jobs", "two"),
    "report-without-in": lambda out: ["report", "--format", "csv", "--out", out],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_cli_usage_error_exit_code_2(tmp_path, argv):
    result = run_cli(*argv(tmp_path / "out"))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert any(line.lower().startswith("usage:") for line in result.stderr.splitlines()), \
        result.stderr
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fetch", "langs", "analyze", "report"])
def test_command_help_exits_0(command):
    result = run_cli(command, "--help")
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith(f"usage: tablediff {command} "), result.stdout


@pytest.mark.parametrize("fmt", ["csv", "plotdata"])
def test_report_that_cannot_be_rendered_leaves_no_output(tmp_path, fmt):
    (tmp_path / "report.json").write_text(json.dumps({"families": [{"id": "x", "records": []}]}),
                                          encoding="utf-8")
    result = run_cli("report", "--in", tmp_path / "report.json", "--format", fmt,
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: not a tablediff report: "), result.output
    assert not (tmp_path / "out").exists()


def test_bad_langlinks_entry_is_a_finding(tmp_path):
    cache = _cache_copy_with(tmp_path, "langlinks.json", "en:Seven Summits", 5)
    bad_entry = f"bad entry 'en:Seven Summits' in {cache / 'langlinks.json'}: "
    result = run_cli("langs", "--manifest", GEOGRAPHY_MANIFEST, "--cache-dir", cache, "--offline")
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"Seven Summits\terror: {bad_entry}"), result.output
    assert "Eight-thousander\t" in result.output
    result = run_cli(*_offline_analyze(GEOGRAPHY_MANIFEST, cache, tmp_path / "out"))
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    family = report["families"][0]
    assert family["id"] == "seven_summits" and family["status"] == "ok"
    unavailable, = [f for f in family["findings"] if f["kind"] == "langlinks-unavailable"]
    assert unavailable["detail"].startswith(f"SnapshotError: {bad_entry}")
    assert [e["language"] for e in family["editions"] if e["status"] == "ok"] == ["en"]


@pytest.mark.parametrize("run", ["warm_cache", "run_pipeline"])
def test_deeply_nested_cell_is_read(tmp_path, run, header_mapping):
    from tablediff.mw_client import ArticleRef, CachePolicy
    from tablediff.table_parser import extract_tables

    # The scan keeps a stack of names and never recurses, so depth has no limit.
    transport = _peaks_transport(["Alpha"])
    page = transport.pages[("de", "Alpha de")]
    page["html"] = page["html"].replace(
        "</tbody>", "<tr><td>" + "<span>" * 1200 + "deep" + "</span>" * 1200 + "</td></tr></tbody>")
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    result = getattr(pipeline, run)(_peaks_manifest(["Alpha"]), header_mapping, client,
                                    PipelineOptions())
    if run == "warm_cache":
        assert result == {"fetched": 2, "absent_or_failed": 0}
        return
    family, = result["families"]
    assert family["status"] == "ok"
    assert {e["language"]: e["status"] for e in family["editions"]} == {"de": "ok", "en": "ok"}
    assert not [f for f in family["findings"] if f["kind"] == "fetch-error"]
    doc = client.fetch_page(ArticleRef("de", "Alpha de"), CachePolicy.OFFLINE_ONLY)
    assert extract_tables(doc)[0].body_rows[-1][0].text == "deep"


@pytest.mark.parametrize("days", [10 ** 12, -1])
def test_out_of_range_staleness_days_is_rejected_before_any_family(days, header_mapping):
    fetched = []
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    fetch_page = client.fetch_page

    def recording(article, cache_policy):
        fetched.append(article)
        return fetch_page(article, cache_policy)

    client.fetch_page = recording
    with pytest.raises(ValueError, match="staleness_days"):
        run_pipeline(load_manifest(CLIMBERS_MANIFEST), header_mapping, client,
                     PipelineOptions(offline=True, staleness_days=days))
    assert fetched == []


# -- one staged path for fetch and analyze ------------------------------------

class NoNetwork:
    """A transport that fails the test on any request."""

    def get_json(self, url, params):
        raise AssertionError(f"unexpected request: {params}")


def _recording_client(cache, calls):
    """A client that records the (language, titles) of every ``resolve_qids`` call."""
    client = MediaWikiClient(cache_dir=cache, transport=NoNetwork())
    resolve = client.resolve_qids

    def recording(language, titles, cache_policy):
        titles = tuple(titles)
        calls.append((language, titles))
        return resolve(language, titles, cache_policy)

    client.resolve_qids = recording
    return client


@pytest.mark.parametrize("manifest_path", [GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST])
def test_fetch_resolves_the_qids_analyze_links(tmp_path, manifest_path, header_mapping):
    from tablediff.pipeline import warm_cache

    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    manifest = load_manifest(manifest_path)
    warmed, linked = [], []
    warm_cache(manifest, HeaderMapping([]), _recording_client(cache, warmed),
               PipelineOptions(offline=True))
    run_pipeline(manifest, header_mapping, _recording_client(cache, linked),
                 PipelineOptions(offline=True))
    assert linked
    assert warmed == linked



def _tree_bytes(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("manifest_path, summary", [
    (GEOGRAPHY_MANIFEST, {"fetched": 39, "absent_or_failed": 6}),
    (CLIMBERS_MANIFEST, {"fetched": 5, "absent_or_failed": 0}),
])
def test_fetch_on_a_warm_cache_sends_no_request_and_writes_nothing(tmp_path, manifest_path,
                                                                   summary):
    from tablediff.pipeline import warm_cache

    cache = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, cache)
    # The prefer-cache policy of `tablediff fetch`: every page and map entry is a hit.
    client = MediaWikiClient(cache_dir=cache, transport=NoNetwork())
    assert warm_cache(load_manifest(manifest_path), HeaderMapping([]), client,
                      PipelineOptions()) == summary
    assert _tree_bytes(cache) == _tree_bytes(FIXTURE_CACHE)

# -- the cyclic collector, paused per family -----------------------------------

@pytest.fixture()
def collector_state():
    """The cyclic collector's state before the test, restored after it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _offline_climbers(header_mapping, warm=False, save_fails=False, step_fails=False,
                      **options):
    """``run_pipeline`` (or ``warm_cache``) of the climbers manifest over the vendored cache."""
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE, transport=NoNetwork())
    if step_fails:  # the link step of the first edition raises, inside the family
        def resolve_qids(*args):
            raise RuntimeError("link step failed")

        client.resolve_qids = resolve_qids
    if save_fails:
        def save():
            raise OSError("disk full")

        client.save = save
    run = pipeline.warm_cache if warm else run_pipeline
    return run(load_manifest(CLIMBERS_MANIFEST), header_mapping, client,
               PipelineOptions(offline=True, **options))


@pytest.mark.parametrize("warm", [False, True], ids=["run_pipeline", "warm_cache"])
def test_family_steps_and_the_save_run_with_the_collector_paused(monkeypatch, header_mapping,
                                                                 collector_state, warm):
    states = []
    read_edition = pipeline._read_edition
    save = MediaWikiClient.save

    def recording_read(*args):
        states.append(("read", gc.isenabled()))
        return read_edition(*args)

    def recording_save(self):
        states.append(("save", gc.isenabled()))
        return save(self)

    monkeypatch.setattr(pipeline, "_read_edition", recording_read)
    monkeypatch.setattr(MediaWikiClient, "save", recording_save)
    gc.enable()
    _offline_climbers(header_mapping, warm)
    assert states == [("read", False)] * 5 + [("save", False)]
    assert gc.isenabled()


# case: (_offline_climbers keywords, the exception the run raises)
PAUSED_RUNS = {
    "run_pipeline": ({}, None),
    "warm_cache": ({"warm": True}, None),
    "family-raises": ({"step_fails": True}, RuntimeError),
    "save-fails": ({"save_fails": True}, OSError),
    "warm-cache-save-fails": ({"warm": True, "save_fails": True}, OSError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case", sorted(PAUSED_RUNS))
def test_a_run_leaves_the_collector_as_the_caller_had_it(header_mapping, collector_state, case,
                                                         enabled):
    keywords, raises = PAUSED_RUNS[case]
    (gc.enable if enabled else gc.disable)()
    if raises is None:
        _offline_climbers(header_mapping, **keywords)
    else:
        with pytest.raises(raises):
            _offline_climbers(header_mapping, **keywords)
    assert gc.isenabled() is enabled


def _cyclic_garbage(run) -> list[str]:
    """The types of the objects that ``run()`` leaves in reference cycles."""
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds, to name it
    try:
        run()
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("manifest_path", [GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST])
def test_analysis_builds_no_reference_cycles(header_mapping, manifest_path):
    # The premise of the pause: a collection during a family would free nothing.
    reports = []
    run = lambda: reports.append(run_pipeline(
        load_manifest(manifest_path), header_mapping,
        MediaWikiClient(cache_dir=FIXTURE_CACHE, transport=NoNetwork()),
        PipelineOptions(offline=True)))
    assert _cyclic_garbage(run) == []
    assert reports[0]["families"]


def test_failed_and_absent_editions_build_no_reference_cycles(tmp_path, header_mapping):
    cache, _broken = _cache_with_broken_snapshot(tmp_path)
    (cache / "pages" / "it" / "Sette%20Vette.json").unlink()
    reports = []
    run = lambda: reports.append(run_pipeline(
        load_manifest(GEOGRAPHY_MANIFEST), header_mapping,
        MediaWikiClient(cache_dir=cache, transport=NoNetwork()), PipelineOptions(offline=True)))
    assert _cyclic_garbage(run) == []
    findings = {(f["kind"], f.get("language")) for family in reports[0]["families"]
                for f in family["findings"]}
    assert {("fetch-error", "en"), ("edition-absent", "it")} <= findings


def test_warm_cache_builds_no_reference_cycles(tmp_path, header_mapping):
    families = ["Alpha", "Beta"]
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=_peaks_transport(families))
    summaries = []
    run = lambda: summaries.append(pipeline.warm_cache(
        _peaks_manifest(families), header_mapping, client, PipelineOptions()))
    assert _cyclic_garbage(run) == []
    assert summaries == [{"fetched": 4, "absent_or_failed": 0}]


def _record_calls(monkeypatch, original):
    """The first argument of every call, at each package name bound to ``original``."""
    seen = []

    def recording(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tablediff.") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, recording)
    return seen


def test_entity_column_and_main_table_are_chosen_once(monkeypatch, header_mapping):
    from tablediff.entity_align import detect_entity_column
    from tablediff.metrics import select_main_table

    detected = _record_calls(monkeypatch, detect_entity_column)
    selected = _record_calls(monkeypatch, select_main_table)
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    ok = 0
    for manifest in (GEOGRAPHY_MANIFEST, CLIMBERS_MANIFEST):
        report = run_pipeline(load_manifest(manifest), header_mapping, client,
                              PipelineOptions(offline=True))
        ok += sum(1 for family in report["families"] for e in family["editions"]
                  if e["status"] == "ok")
    assert detected
    # ``detected`` keeps every table alive, so no two tables share an id.
    distinct = len({id(table) for table in detected})
    assert distinct == len(detected), f"{len(detected)} detections for {distinct} tables"
    assert len(selected) == ok, f"{len(selected)} main-table choices for {ok} pages"


# -- the edition step ----------------------------------------------------------

@pytest.mark.parametrize("bundled_map", [True, False], ids=["bundled-map", "empty-map"])
@pytest.mark.parametrize("rel_tol", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_a_bad_rel_tol_is_refused_before_any_page_is_read(monkeypatch, header_mapping,
                                                          bundled_map, rel_tol):
    read = []
    fetch_page = MediaWikiClient.fetch_page
    monkeypatch.setattr(MediaWikiClient, "fetch_page",
                        lambda self, *args: read.append(args) or fetch_page(self, *args))
    mapping = header_mapping if bundled_map else HeaderMapping([])
    with pytest.raises(ValueError, match="rel_tol must be a finite number >= 0"):
        _offline_climbers(mapping, rel_tol=rel_tol)
    assert read == []


@pytest.mark.parametrize("warm", [False, True], ids=["run_pipeline", "warm_cache"])
def test_each_page_is_freed_once_it_is_read(monkeypatch, header_mapping, warm):
    pages, alive_at_extract, alive_at_matrix = [], [], []
    extract_tables, build_matrix = pipeline.extract_tables, pipeline.build_matrix

    def alive():
        return sum(page() is not None for page in pages)

    def recording_extract(page):
        pages.append(weakref.ref(page))
        alive_at_extract.append(alive())
        return extract_tables(page)

    def recording_matrix(*args):
        alive_at_matrix.append(alive())
        return build_matrix(*args)

    monkeypatch.setattr(pipeline, "extract_tables", recording_extract)
    monkeypatch.setattr(pipeline, "build_matrix", recording_matrix)
    _offline_climbers(header_mapping, warm)
    assert alive_at_extract == [1] * 5
    assert alive_at_matrix == ([] if warm else [0])


@pytest.mark.parametrize("run", ["warm_cache", "run_pipeline"])
def test_a_familys_requests_come_in_stage_order(tmp_path, header_mapping, run):
    families = ["Alpha", "Beta"]
    transport = _peaks_transport(families)
    client = MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)
    getattr(pipeline, run)(_peaks_manifest(families), header_mapping, client, PipelineOptions())
    revision_titles = {str(page["revid"]): title for (_lang, title), page in transport.pages.items()}

    def stage(url, params):
        """(family, request, language) of one logged request."""
        if params["action"] == "parse":
            request, title = "parse", params["page"]
        elif params["prop"] == "revisions":
            request, title = "revisions", revision_titles[params["revids"]]
        else:
            request, title = params["prop"], params["titles"]
        return title.split()[0], request, transport._lang(url)

    assert [stage(url, params) for url, params in transport.log] == [
        (family, request, language) for family in families
        for request, language in [("langlinks", "en"), ("parse", "en"), ("revisions", "en"),
                                  ("parse", "de"), ("revisions", "de"),
                                  ("pageprops", "en"), ("pageprops", "de")]]


# -- golden report bytes -----------------------------------------------------

GOLDEN_DIGESTS = Path(__file__).resolve().parents[1] / "fixtures" / "golden" / "report_sha256.json"


def report_digest(manifest_path, out_dir) -> str:
    """sha256 of the offline report.json over the fixture cache, ``generated_at`` blanked."""
    import hashlib
    import re

    result = run_cli("analyze", "--manifest", manifest_path, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--out", out_dir)
    assert result.exit_code == 0, result.output
    data = (Path(out_dir) / "report.json").read_bytes()
    data, masked = re.subn(rb'"generated_at": "[^"]*"', b'"generated_at": ""', data, count=1)
    assert masked == 1
    return hashlib.sha256(data).hexdigest()


def test_bundled_reports_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    assert set(golden) == {"geography", "climbers"}
    manifests = {"geography": GEOGRAPHY_MANIFEST, "climbers": CLIMBERS_MANIFEST}
    actual = {name: report_digest(path, tmp_path / name) for name, path in manifests.items()}
    moved = sorted(name for name in golden if actual[name] != golden[name])
    assert not moved, f"report.json moved for {moved}: {actual}"
