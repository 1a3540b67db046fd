"""Self-tests of the benchmark: tracing sites, corpus answers, output checks.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
from tablediff import manifest, mw_client, pipeline, schema_align  # noqa: E402
from tracing import Tracer, targets  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TD = run.load_package()

# Every from-import site a traced function is called through.
SITES = {
    "htmldom.parse_html": ["table_parser", "mw_client"],
    "table_parser.extract_tables": ["pipeline"],
    "mw_client.count_references": ["pipeline"],
    "value_analysis.parse_value": ["pipeline"],
    "schema_align.resolve_columns": ["pipeline", "schema_align"],
    "entity_align.extract_row_entities": ["pipeline"],
    "entity_align.link_mentions": ["pipeline"],
    "entity_align.build_matrix": ["pipeline"],
    "schema_align.build_presence_grid": ["pipeline"],
    "value_analysis.detect_conflicts": ["pipeline"],
    "value_analysis.classify": ["pipeline"],
    "value_analysis.detect_incompleteness": ["pipeline"],
    "metrics.page_stats": ["pipeline"],
}


@pytest.fixture(scope="session")
def bf():
    return corpus.load_fixture_builder(ROOT)


@pytest.fixture
def clock_restored(monkeypatch):
    # StepClock rebinds pipeline.analyze_family; undo it after the test.
    monkeypatch.setattr(pipeline, "analyze_family", pipeline.analyze_family)


def test_tracer_rebinds_every_import_site_and_restores_them():
    modules = {name: sys.modules[f"tablediff.{name}"] for name in
               {"pipeline", "table_parser", "mw_client", "schema_align"}}
    originals = {(span, site): getattr(modules[site], span.split(".")[1])
                 for span, sites in SITES.items() for site in sites}
    tracer = Tracer()
    tracer.install()
    try:
        for (span, site), original in originals.items():
            assert getattr(modules[site], span.split(".")[1]) is not original, (span, site)
        assert mw_client.MediaWikiClient.fetch_page.__wrapped__ is not None
    finally:
        tracer.uninstall()
    for (span, site), original in originals.items():
        assert getattr(modules[site], span.split(".")[1]) is original


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    parent = ["outer", 0.0, 10.0, None]
    tracer.spans = [["a", 1.0, 4.0, parent], ["b", 3.0, 6.0, parent], parent]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(5.0)
    assert summary["a"]["self_s"] == pytest.approx(3.0)


def test_corpus_is_seeded_and_budgets_match_the_pipeline(bf, tmp_path):
    first = corpus.build_scaled(bf, 5, clones=1, row_factor=2)
    assert corpus.build_scaled(bf, 5, clones=1, row_factor=2).pages == first.pages
    assert corpus.build_scaled(bf, 6, clones=1, row_factor=2).pages.keys() != first.pages.keys()

    corpus.write_cache(first, tmp_path / "cache")
    corpus.write_manifest(first, tmp_path / "m.json")
    report = pipeline.run_pipeline(
        manifest.load_manifest(tmp_path / "m.json"),
        schema_align.load_header_mapping(ROOT / "mappings" / "geography.json"),
        mw_client.MediaWikiClient(cache_dir=tmp_path / "cache"),
        pipeline.PipelineOptions(offline=True))
    keys = next(iter(first.expected["per_language"].values())).keys()
    assert run.per_language(report, keys) == first.expected["per_language"]
    assert {f["id"]: len(f["entities"]) for f in report["families"]} == first.expected["entities"]


def test_vendored_checks_catch_a_wrong_report(tmp_path, clock_restored):
    workload = run.Vendored(TD, 1, tmp_path)
    reports = workload.execute()
    assert not workload.verify(reports).failed
    geography = reports["geography"]
    for family in geography["families"]:
        if family["id"] == "eight_thousander":
            family["records"] = [r for r in family["records"] if r["attribute"] != "death_rate"]
        if family["id"] == "alps_4000m":
            family["editions"][0]["table_count"] += 1
    assert workload.verify(reports).failed == {"eight_thousander", "alps_4000m"}


def test_cold_fill_checks_catch_a_missing_cache_file(bf, tmp_path):
    small = corpus.build_scaled(bf, 3, clones=1, row_factor=1)
    workload = run.ColdFill(TD, small, tmp_path)
    state = workload.execute()
    assert not workload.verify(state).failed
    state = workload.execute()
    next((state[0] / "pages" / "de").glob("*.json")).unlink()
    assert len(workload.verify(state).failed) == len(workload.manifests)


def test_steps_are_paired_with_reference_units_outside_their_time(bf, tmp_path):
    small = corpus.build_scaled(bf, 3, clones=1, row_factor=1)
    workload = run.ColdFill(TD, small, tmp_path)
    elapsed, result = run.timed_pass(workload)
    assert len(result.family_s) == len(workload.manifests)
    assert all(wall > 0 and reference > 0 for wall, reference in result.family_s)
    references = sum(reference for _, reference in result.family_s)
    assert result.wall_s == pytest.approx(elapsed - references)
    assert 0 < result.rest_s[0] < result.wall_s and result.rest_s[1] > 0
    assert run.scaled_s((0.2, 2 * run.REFERENCE_UNIT_S)) == pytest.approx(0.1)

    workload.clock.paired = False  # as in traced passes
    elapsed, result = run.timed_pass(workload)
    assert all(reference == 0.0 for _, reference in result.family_s)
    assert result.wall_s == elapsed


@pytest.fixture(scope="module")
def traced_results():
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", "3", "--seconds", "0", "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_every_per_layer_metric_is_nonzero_on_some_workload(traced_results):
    for result in traced_results.values():
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        if metric["name"] == "trace.overhead_s":
            continue  # a difference of two timings; it may come out at or below 0
        assert any(r["metrics"][metric["name"]]["value"] > 0 for r in traced_results.values()), \
            metric["name"]


def test_parse_calls_per_ok_page(traced_results):
    per_page = {name: r["metrics"]["htmldom.parse_html.per_ok_page"]["value"]
                for name, r in traced_results.items()}
    assert per_page == {"vendored": 2.0, "scaled": 2.0, "cold-fill": 1.0}


def test_traced_functions_are_all_reported():
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    for span, *_ in targets():
        assert f"{span}.self_s" in names


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "vendored",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
