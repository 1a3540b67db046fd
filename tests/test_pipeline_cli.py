import json
import shutil
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tablediff import pipeline
from tablediff.cli import main
from tablediff.entity_align import AlignedMatrix, EntityKey
from tablediff.errors import ManifestError
from tablediff.manifest import load_manifest, parse_manifest
from tablediff.mw_client import MediaWikiClient
from tablediff.pipeline import PipelineOptions, _attribute_values, run_pipeline
from tablediff.schema_align import AttributeKey, HeaderMapping, Unmapped
from tablediff.table_parser import Cell, WikiTable

from conftest import CLIMBERS_MANIFEST, FIXTURE_CACHE, GEOGRAPHY_MANIFEST, HEADER_MAP, FakeTransport
from oracles import oracle_collect_attribute_values


def run_cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


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
    report = run_pipeline(manifest, HeaderMapping.empty(), client, PipelineOptions(offline=True))
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


CONFLICTING_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": ["height"]}},
                                  {"canonical": "elevation", "aliases": {"en": ["height"]}}]}
# One canonical split over two entries would be compared, and reported, twice.
REPEATED_CANONICAL_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": ["height"]}},
                                         {"canonical": "height", "aliases": {"de": ["höhe"]}}]}
NO_CANONICAL_MAP = {"attributes": [{"aliases": {"en": ["height"]}}]}
NOT_OBJECT_MAP = {"attributes": ["height"]}
# A string alias list must not be split into the single-character aliases h, e, i, g, t.
STRING_ALIASES_MAP = {"attributes": [{"canonical": "height", "aliases": {"en": "height"}}]}


@pytest.mark.parametrize("content", [None, "{not json", json.dumps(CONFLICTING_MAP),
                                     json.dumps(NO_CANONICAL_MAP), json.dumps(NOT_OBJECT_MAP),
                                     json.dumps(STRING_ALIASES_MAP), "[]",
                                     '{"attributes": null}', '{"attributes": 5}',
                                     json.dumps(REPEATED_CANONICAL_MAP)],
                         ids=["missing", "not-json", "conflicting", "no-canonical", "not-object",
                              "string-aliases", "top-level-list", "null-attributes",
                              "number-attributes", "repeated-canonical"])
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
    "jobs-string": {"jobs": "two"},
    "jobs-boolean": {"jobs": True},
    "rel-tol-null": {"rel_tol": None},
    "rel-tol-negative": {"rel_tol": -1},
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
    family_id = data["families"][0]["id"]
    assert result.output.startswith(f"error: family {family_id!r}: "), result.output
    assert "must be a non-negative int" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rel_tol", ["-0.5", "nan"])
def test_cli_negative_or_nan_rel_tol_exit_code_1(tmp_path, rel_tol):
    result = run_cli("analyze", "--manifest", CLIMBERS_MANIFEST, "--cache-dir", FIXTURE_CACHE,
                     "--offline", "--header-map", HEADER_MAP, "--rel-tol", rel_tol,
                     "--out", tmp_path / "out")
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: --rel-tol must be a non-negative number"), result.output
    assert not (tmp_path / "out").exists()


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


def test_jobs_parallel_run_is_deterministic(header_mapping):
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    serial = run_pipeline(manifest, header_mapping, client, PipelineOptions(offline=True))
    parallel = run_pipeline(manifest, header_mapping, client,
                            PipelineOptions(offline=True, jobs=4))
    serial.pop("generated_at")
    parallel.pop("generated_at")
    assert serial == parallel


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
                         "--offline", "--header-map", HEADER_MAP, "--langs", langs, "--out", out)
        assert result.exit_code == 0, result.output
        reports[langs] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    once, twice = reports["en"], reports["en,en"]
    assert [[e["language"] for e in fam["editions"]] for fam in twice["families"]] == [["en"]]
    assert twice["families"] == once["families"]
    assert twice["corpus"]["per_language"] == once["corpus"]["per_language"]


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
# The second "height" equals the first (aliases are not compared), as two map entries
# with one canonical name would.
WALK_ATTRIBUTES = (AttributeKey("height", {}), AttributeKey("area", {}), Unmapped("notes"),
                   AttributeKey("height", {"de": ["höhe"]}))
# Missing markers, "x" (missing only as an extra marker), numbers read per locale, text.
WALK_TEXTS = ("", "—", "n/a", "x", "8,848", "8.848", "12 m", "26%", "3/4", "Himalaya")


@st.composite
def small_matrices(draw):
    """A matrix with repeated occurrences over tables with 0-4 columns per attribute."""
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
    entities = [EntityKey("qid", f"Q{number}") for number in range(1, draw(st.integers(1, 4)) + 1)]
    rows = {}
    for entity in entities:
        for language in languages:
            places = [(index, row) for (lang, index), (table, _) in columns.items()
                      if lang == language for row in range(table.n_body_rows)]
            occurrences = draw(st.lists(st.sampled_from(places), unique=True, max_size=3))
            if occurrences:
                rows[(entity, language)] = sorted(occurrences)
    return AlignedMatrix(languages, entities, rows), columns


@given(small_matrices(), st.lists(st.sampled_from(WALK_ATTRIBUTES), max_size=5),
       st.sampled_from([(), ("x",)]))
@settings(max_examples=300, deadline=None)
def test_attribute_values_match_the_oracle_on_small_matrices(case, attributes, extra_missing):
    matrix, columns = case
    assert_walk_matches_oracle(matrix, columns, attributes, extra_missing)


# -- parse once --------------------------------------------------------------

def test_each_ok_edition_is_parsed_once(monkeypatch, header_mapping):
    from tablediff import htmldom
    from tablediff.mw_client import ArticleRef, CachePolicy, count_references
    from tablediff.table_parser import extract_tables

    # Count calls at every name bound to parse_html in the package.
    parsed = []
    original = htmldom.parse_html
    counting = lambda html: parsed.append(html) or original(html)
    for name, module in list(sys.modules.items()):
        if name.startswith("tablediff.") and getattr(module, "parse_html", None) is original:
            monkeypatch.setattr(module, "parse_html", counting)

    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    report = run_pipeline(load_manifest(GEOGRAPHY_MANIFEST), header_mapping, client,
                          PipelineOptions(offline=True))
    ok = sum(1 for family in report["families"] for e in family["editions"]
             if e["status"] == "ok")
    assert ok > 0
    assert len(parsed) == ok

    parsed.clear()
    doc = client.fetch_page(ArticleRef("en", "Seven Summits"), CachePolicy.OFFLINE_ONLY)
    assert extract_tables(doc)
    assert count_references(doc) > 0
    assert parsed == [doc.html]


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

def _fail_parse_of(monkeypatch, language):
    """Make parsing the climbers page of one language raise."""
    from tablediff import mw_client
    from tablediff.mw_client import ArticleRef, CachePolicy

    seed = load_manifest(CLIMBERS_MANIFEST).families[0].seed
    versions = MediaWikiClient(cache_dir=FIXTURE_CACHE).list_language_versions(
        seed, CachePolicy.OFFLINE_ONLY)
    title = next(ref.title for ref in versions if ref.language == language)
    html = MediaWikiClient(cache_dir=FIXTURE_CACHE).fetch_page(
        ArticleRef(language, title), CachePolicy.OFFLINE_ONLY).html
    original = mw_client.parse_html

    def parse_html(text):
        if text == html:
            raise RuntimeError("tokenizer defect")
        return original(text)

    monkeypatch.setattr(mw_client, "parse_html", parse_html)


def test_parse_failure_turns_the_edition_into_a_fetch_error(monkeypatch, header_mapping):
    _fail_parse_of(monkeypatch, "zh")
    report = run_pipeline(load_manifest(CLIMBERS_MANIFEST), header_mapping,
                          MediaWikiClient(cache_dir=FIXTURE_CACHE), PipelineOptions(offline=True))
    family, = report["families"]
    assert family["status"] == "ok"
    assert {e["language"]: e["status"] for e in family["editions"]} == {
        "en": "ok", "de": "ok", "zh": "error", "it": "ok", "nl": "ok"}
    errors = [f for f in family["findings"] if f["kind"] == "fetch-error"]
    assert [f["language"] for f in errors] == ["zh"]
    assert "tokenizer defect" in errors[0]["detail"]
    assert family["entities"]


def test_warm_cache_counts_a_parse_failure_as_failed(monkeypatch, header_mapping):
    from tablediff.pipeline import warm_cache

    _fail_parse_of(monkeypatch, "zh")
    summary = warm_cache(load_manifest(CLIMBERS_MANIFEST), header_mapping,
                         MediaWikiClient(cache_dir=FIXTURE_CACHE), PipelineOptions(offline=True))
    assert summary == {"fetched": 4, "absent_or_failed": 1}


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
    warm_cache(manifest, HeaderMapping.empty(), _recording_client(cache, warmed),
               PipelineOptions(offline=True))
    run_pipeline(manifest, header_mapping, _recording_client(cache, linked),
                 PipelineOptions(offline=True))
    assert linked
    assert warmed == linked


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
