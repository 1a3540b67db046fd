#!/usr/bin/env python3
"""Benchmark of tablediff's offline analysis and cache filling.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload vendored --seed 1 --seconds 30 --trace 0

Workloads (each pass builds a fresh ``MediaWikiClient``, as every CLI call does):

- ``vendored``: both bundled manifests over the vendored snapshots, offline,
  ``jobs=1``; every pass emits json, csv and plotdata. This is the corpus
  users run and the goldens pin. The seed only permutes the family order.
- ``scaled``: a seeded synthetic corpus (``corpus.py``): every fixture family
  cloned, with more rows per main table and fresh titles and QIDs, analyzed
  offline with ``jobs=2`` and emitted as json.
- ``cold-fill``: the incremental ``fetch``: from an empty cache, one
  ``warm_cache`` call per family through one client, whose transport is an
  in-memory fake serving the ``scaled`` corpus. The only workload that writes
  to the cache.

Timing: on a shared host a core's speed swings by tens of percent within a
second and drifts over minutes, so raw wall times do not repeat from run to
run. Each step of a pass (each family, and the rest of the pass) is therefore
followed by one reference unit (``reference.py``), a fixed stand-in workload
on the standard library only, and the step's wall time is scaled by
``REFERENCE_UNIT_S`` over that unit's time: seconds at a fixed host speed.
``run_s``, ``family_s.*`` and ``pages_per_s`` come from these scaled times;
``setup_s`` and the per-layer metrics are raw wall times, and the raw
whole-pass median is printed on the summary line.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics, from passes that alternate with and
without tracing so the tracing overhead is measured too. Every pass's output
is checked; the last stdout line is the JSON result, and the exit code is 1
when a check failed. All files are written under ``.perfbench-work/`` (removed
at exit) and span dumps under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import unquote

from corpus import LANGS, build_scaled, load_fixture_builder, write_cache, write_manifest
from reference import REFERENCE_UNIT_S, unit_s as reference_unit_s
from tracing import Tracer, targets
from transport import API_URL_TEMPLATE, FakeTransport

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench-work"
TRACE_DIR = ROOT / ".perfbench-out"

# Scaled corpus size: every fixture family cloned SCALED_CLONES times, each
# main table holding SCALED_ROWS times its entities. Sized so that one run of
# 30 s collects well over 100 family samples for the p90.
SCALED_CLONES = 2
SCALED_ROWS = 2

MIN_PASSES = 3
SETUP_SAMPLES = 9

REQUIRED = ["src/tablediff/__init__.py", "scripts/build_fixtures.py", "fixtures/cache/qids.json",
            "fixtures/golden/geography_stats.json", "datasets/geography.json",
            "datasets/climbers.json", "mappings/geography.json"]

# Fresh interpreter: every module of the CLI plus click and requests, then the
# run's manifests and header mapping, as every `tablediff` invocation does.
SETUP_CODE = """
import sys
import tablediff.cli
from tablediff.manifest import load_manifest
from tablediff.schema_align import load_header_mapping
for path in sys.argv[1:-1]:
    load_manifest(path)
load_header_mapping(sys.argv[-1])
"""

GENERATED_AT_RE = re.compile(r'"generated_at": "[^"]*"')


def p50_p90(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of the samples."""
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Pass:
    """What one pass produced and how its checks came out."""

    # (wall seconds, reference unit seconds) of each family, and of the rest
    # of the pass: client set-up, report assembly, emit.
    family_s: list[tuple[float, float]] = field(default_factory=list)
    rest_s: tuple[float, float] = (0.0, 0.0)
    wall_s: float = 0.0  # the pass's wall time, reference units left out
    attempted: int = 0
    failed: set[str] = field(default_factory=set)
    ok_pages: int = 0
    transport_calls: int = 0


def scaled_s(step: tuple[float, float]) -> float:
    """A step's wall time in seconds at the reference host speed."""
    wall, reference = step
    return wall * REFERENCE_UNIT_S / reference


class StepClock:
    """Times the family steps of a pass, each followed by one reference unit.

    ``paired`` is off in traced passes, whose spans must not hold reference
    units.
    """

    def __init__(self):
        self.steps: list[tuple[float, float]] = []
        self.paired = True

    def time(self, fn, *args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            self.steps.append((elapsed, reference_unit_s() if self.paired else 0.0))

    def time_calls(self, module, name: str) -> None:
        """Time every call of ``module.name`` by rebinding it."""
        original = getattr(module, name)

        def timed(*args, **kwargs):
            return self.time(original, *args, **kwargs)

        setattr(module, name, timed)

    def drain(self) -> list[tuple[float, float]]:
        steps, self.steps = self.steps, []
        return steps


def per_language(report: dict, keys) -> dict:
    return {lang: {key: agg[key] for key in keys}
            for lang, agg in report["corpus"]["per_language"].items() if agg["pages"]}


def ok_pages(report: dict) -> int:
    return sum(1 for family in report["families"] for edition in family["editions"]
               if edition["status"] == "ok")


class Vendored:
    """The bundled manifests over a copy of the vendored snapshot cache."""

    def __init__(self, td, seed: int, work: Path):
        self.td = td
        self.cache = work / "cache"
        shutil.copytree(ROOT / "fixtures" / "cache", self.cache)
        self.out = work / "out"
        self.mapping = td.schema_align.load_header_mapping(ROOT / "mappings" / "geography.json")
        self.manifests = []
        for name in ("geography", "climbers"):
            manifest = td.manifest.load_manifest(ROOT / "datasets" / f"{name}.json")
            random.Random(seed).shuffle(manifest.families)
            self.manifests.append((name, manifest))
        self.golden = json.loads((ROOT / "fixtures" / "golden" / "geography_stats.json")
                                 .read_text(encoding="utf-8"))
        self.first_report: dict[str, str] = {}
        self.clock = StepClock()
        self.clock.time_calls(td.pipeline, "analyze_family")
        self.setup_args = [str(ROOT / "datasets" / f"{name}.json") for name, _ in self.manifests]
        self.size = (f"2 manifests, {sum(len(m.families) for _, m in self.manifests)} families, "
                     f"{len(list((self.cache / 'pages').rglob('*.json')))} pages")

    def execute(self) -> dict:
        td = self.td
        reports = {}
        for name, manifest in self.manifests:
            client = td.mw_client.MediaWikiClient(cache_dir=self.cache)
            report = td.pipeline.run_pipeline(manifest, self.mapping, client,
                                              td.pipeline.PipelineOptions(offline=True, jobs=1))
            for fmt in ("json", "csv", "plotdata"):
                td.emit.emit(report, fmt, self.out / name)
            reports[name] = report
        return reports

    def verify(self, reports: dict) -> Pass:
        result = Pass()
        result.family_s = self.clock.drain()
        for name, report in reports.items():
            ids = {family["id"] for family in report["families"]}
            result.attempted += len(ids)
            result.ok_pages += ok_pages(report)
            result.failed |= {f["id"] for f in report["families"] if f["status"] != "ok"}
            text = GENERATED_AT_RE.sub("", (self.out / name / "report.json")
                                       .read_text(encoding="utf-8"))
            if self.first_report.setdefault(name, text) != text:
                result.failed |= ids
        geography = reports["geography"]
        golden = self.golden
        keys = next(iter(golden["per_language"].values())).keys()
        if per_language(geography, keys) != golden["per_language"]:
            result.failed |= {family["id"] for family in geography["families"]}
        for family in geography["families"]:
            for edition in family["editions"]:
                lang = edition["language"]
                expected = (golden["tables_per_family"][family["id"]].get(lang),
                            golden["references_per_family"][family["id"]].get(lang))
                if (edition.get("table_count"), edition.get("reference_count")) != expected:
                    result.failed.add(family["id"])
        k2 = [record for family in geography["families"] if family["id"] == "eight_thousander"
              for record in family["records"]
              if record["attribute"] == "death_rate"
              and (record["entity"] or {}).get("value") == "Q43512"]
        if len(k2) != 1:
            result.failed.add("eight_thousander")
        return result


class Scaled:
    """The seeded synthetic corpus, analyzed offline with two fetch threads."""

    def __init__(self, td, corpus, work: Path):
        self.td = td
        self.corpus = corpus
        self.cache = work / "cache"
        write_cache(corpus, self.cache)
        manifest_path = work / "scaled.json"
        write_manifest(corpus, manifest_path)
        self.manifest = td.manifest.load_manifest(manifest_path)
        self.mapping = td.schema_align.load_header_mapping(ROOT / "mappings" / "geography.json")
        self.out = work / "out"
        self.clock = StepClock()
        self.clock.time_calls(td.pipeline, "analyze_family")
        self.setup_args = [str(manifest_path)]
        self.size = describe(corpus)

    def execute(self) -> dict:
        td = self.td
        client = td.mw_client.MediaWikiClient(cache_dir=self.cache)
        report = td.pipeline.run_pipeline(self.manifest, self.mapping, client,
                                          td.pipeline.PipelineOptions(offline=True, jobs=2))
        td.emit.emit(report, "json", self.out)
        return report

    def verify(self, report: dict) -> Pass:
        result = Pass()
        result.family_s = self.clock.drain()
        expected = self.corpus.expected
        result.attempted = len(report["families"])
        result.ok_pages = ok_pages(report)
        keys = next(iter(expected["per_language"].values())).keys()
        if per_language(report, keys) != expected["per_language"]:
            result.failed |= {family["id"] for family in report["families"]}
        for family in report["families"]:
            budgets = {e["language"]: [e["table_count"], e["reference_count"],
                                       e["columns"]["total"], e["columns"]["incomplete"]]
                       for e in family["editions"] if e["status"] == "ok"}
            if (family["status"] != "ok" or budgets != expected["budgets"][family["id"]]
                    or len(family["entities"]) != expected["entities"][family["id"]]):
                result.failed.add(family["id"])
        if len(report["families"]) != len(expected["entities"]):
            result.failed.add("<missing families>")
        return result


class ColdFill:
    """One ``warm_cache`` call per family into an empty cache, via the fake API."""

    def __init__(self, td, corpus, work: Path):
        self.td = td
        self.corpus = corpus
        self.work = work
        path = work / "cold-fill.json"
        write_manifest(corpus, path)
        full = td.manifest.load_manifest(path)
        self.manifests = [td.manifest.DatasetManifest(families=[entry]) for entry in full.families]
        self.mapping = td.schema_align.load_header_mapping(ROOT / "mappings" / "geography.json")
        self.setup_args = [str(path)]
        self.size = describe(corpus)
        self.clock = StepClock()

    def execute(self):
        td = self.td
        cache = Path(tempfile.mkdtemp(prefix="cold-", dir=self.work))
        transport = FakeTransport(self.corpus)
        client = td.mw_client.MediaWikiClient(cache_dir=cache, rate_limit=1e9, transport=transport,
                                              api_url_template=API_URL_TEMPLATE)
        summaries = [self.clock.time(td.pipeline.warm_cache, manifest, self.mapping, client,
                                     td.pipeline.PipelineOptions())
                     for manifest in self.manifests]
        return cache, transport, summaries

    def verify(self, state) -> Pass:
        cache, transport, summaries = state
        result = Pass()
        result.family_s = self.clock.drain()
        result.attempted = len(self.manifests)
        result.transport_calls = transport.calls
        editions = self.corpus.expected["budgets"]
        for manifest, summary in zip(self.manifests, summaries):
            family_id = manifest.families[0].id
            fetched = len(editions[family_id])
            result.ok_pages += summary["fetched"]
            if summary != {"fetched": fetched, "absent_or_failed": len(LANGS) - fetched}:
                result.failed.add(family_id)
        page_files = {(path.parent.name, unquote(path.name[:-len(".json")]))
                      for path in (cache / "pages").glob("*/*.json")}
        cached_keys = [set(json.loads((cache / name).read_text(encoding="utf-8")))
                       for name in ("qids.json", "langlinks.json")]
        if (page_files != transport.served_pages or transport.served_pages != set(self.corpus.pages)
                or cached_keys != [transport.served_qids, transport.served_langlinks]):
            result.failed |= {m.families[0].id for m in self.manifests}
        shutil.rmtree(cache)
        return result


def describe(corpus) -> str:
    return (f"{len(corpus.manifest['families'])} families, {len(corpus.pages)} pages, "
            f"{corpus.rows} main-table rows, {len(corpus.qids)} QIDs, "
            f"{corpus.html_bytes / 1e6:.2f} MB HTML")


class SetupClock:
    """Wall time of a fresh interpreter importing the CLI and loading inputs."""

    def __init__(self, args: list[str]):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.argv = [sys.executable, "-c", SETUP_CODE, *args,
                     str(ROOT / "mappings" / "geography.json")]
        self.samples: list[float] = []
        self.sample()  # the first spawn only warms the file cache and the bytecode
        self.samples.clear()

    def sample(self) -> None:
        started = time.perf_counter()
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would quantize the measurement.
        if subprocess.Popen(self.argv, env=self.env, cwd=ROOT).wait() != 0:
            raise RuntimeError("set-up interpreter failed")
        self.samples.append(time.perf_counter() - started)


def timed_pass(workload) -> tuple[float, Pass]:
    started = time.perf_counter()
    state = workload.execute()
    elapsed = time.perf_counter() - started
    after = reference_unit_s() if workload.clock.paired else 0.0
    result = workload.verify(state)
    result.wall_s = elapsed - sum(reference for _, reference in result.family_s)
    result.rest_s = (result.wall_s - sum(wall for wall, _ in result.family_s), after)
    return elapsed, result


def run_untraced(workload, seconds: float) -> tuple[dict, list[Pass]]:
    setup = SetupClock(workload.setup_args)
    passes = [timed_pass(workload)[1]]  # warm-up, checked but not timed
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(passes) <= MIN_PASSES:
        passes.append(timed_pass(workload)[1])
        # Set-up samples are spread over the run, not taken in one burst.
        if len(setup.samples) < SETUP_SAMPLES * (time.perf_counter() - started) / seconds:
            setup.sample()
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    timed = passes[1:]
    run_s = statistics.median(sum(map(scaled_s, p.family_s)) + scaled_s(p.rest_s) for p in timed)
    p50, p90 = p50_p90([scaled_s(step) for p in timed for step in p.family_s])
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "run_s": run_s,
        "family_s.p50": p50,
        "family_s.p90": p90,
        "pages_per_s": passes[-1].ok_pages / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - failed / attempted,
    }
    print(f"passes: {len(timed)} timed + 1 warm-up; raw whole-pass wall median "
          f"{statistics.median(p.wall_s for p in timed):.4f} s; "
          f"family samples: {sum(len(p.family_s) for p in timed)}; "
          f"fail_ratio: {failed / attempted} ({failed}/{attempted} families)")
    return metrics, passes


def run_traced(workload, seconds: float, dump_path: Path) -> tuple[dict, list[Pass]]:
    tracer = Tracer()
    workload.clock.paired = False
    passes = [timed_pass(workload)[1]]
    plain: list[float] = []
    traced: list[float] = []
    traced_passes: list[Pass] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not traced:
        elapsed, result = timed_pass(workload)
        plain.append(elapsed)
        passes.append(result)
        tracer.install()
        try:
            elapsed, result = timed_pass(workload)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        passes.append(result)
        traced_passes.append(result)
    tracer.dump(dump_path)

    n = len(traced)
    spans = tracer.summary()
    counts = tracer.counts
    ok = sum(p.ok_pages for p in traced_passes) / n
    metrics: dict[str, float] = {}
    for name, *_ in targets():
        metrics[f"{name}.calls"] = metrics[f"{name}.self_s"] = 0.0
    for name, entry in spans.items():
        metrics[f"{name}.calls"] = entry["calls"] / n
        metrics[f"{name}.self_s"] = entry["self_s"] / n
    parse_calls = metrics["htmldom.parse_html.calls"]
    value_calls = metrics["value_analysis.parse_value.calls"]
    metrics.update({
        "htmldom.parse_html.mb": counts["htmldom.parse_html.chars"] / n / 1e6,
        "htmldom.parse_html.per_ok_page": parse_calls / ok if ok else 0.0,
        "pipeline.ok_pages": ok,
        "table_parser.tables": counts["table_parser.tables"] / n,
        "table_parser.cells": counts["table_parser.cells"] / n,
        "mw_client.transport_calls": sum(p.transport_calls for p in traced_passes) / n,
        "mw_client.write_mb": counts["pipeline.warm_cache.wchar"] / n / 1e6,
        "emit.write_mb": counts["emit.emit.wchar"] / n / 1e6,
        "entity_align.mentions": counts["entity_align.mentions"] / n,
        "entity_align.qid_linked_ratio": (counts["entity_align.linked_qid"]
                                          / counts["entity_align.linked_in"]
                                          if counts["entity_align.linked_in"] else 0.0),
        "value_analysis.numeric_ratio": (counts["value_analysis.numeric"] / n / value_calls
                                         if value_calls else 0.0),
        "value_analysis.records": counts["value_analysis.records"] / n,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    print(f"passes: {len(plain)} untraced + {n} traced + 1 warm-up; "
          f"untraced run_s {statistics.median(plain):.4f}, traced {statistics.median(traced):.4f}; "
          f"spans dumped to {dump_path.relative_to(ROOT)}")
    return metrics, passes


def load_package() -> types.SimpleNamespace:
    """Import the checkout's tablediff modules the benchmark drives."""
    for path in (str(Path(__file__).resolve().parent), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from tablediff import emit, manifest, mw_client, pipeline, schema_align
    return types.SimpleNamespace(emit=emit, manifest=manifest, mw_client=mw_client,
                                 pipeline=pipeline, schema_align=schema_align)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["vendored", "scaled", "cold-fill"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"not a tablediff checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    td = load_package()

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.workload == "vendored":
            workload = Vendored(td, args.seed, work)
        else:
            corpus = build_scaled(load_fixture_builder(ROOT), args.seed, SCALED_CLONES, SCALED_ROWS)
            kind = Scaled if args.workload == "scaled" else ColdFill
            workload = kind(td, corpus, work)
        print(f"workload {args.workload} (seed {args.seed}): {workload.size}")
        if args.trace:
            dump = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            values, passes = run_traced(workload, args.seconds, dump)
        else:
            values, passes = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<44} {value:.6g} {metric['unit']}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        if p.failed:
            print(f"check failed for: {', '.join(sorted(p.failed))}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
