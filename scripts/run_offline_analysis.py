#!/usr/bin/env python3
"""Run the bundled offline analysis and print the headline numbers.

Replays the vendored snapshot corpus end to end (no network), prints the
per-language coverage summary and every cross-language value conflict, and
drops the full report + plot matrices under ./tablediff-out/.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tablediff.emit import emit  # noqa: E402
from tablediff.manifest import load_manifest  # noqa: E402
from tablediff.mw_client import MediaWikiClient  # noqa: E402
from tablediff.pipeline import PipelineOptions, run_pipeline  # noqa: E402
from tablediff.schema_align import load_header_mapping  # noqa: E402


def record_line(family_id: str, record: dict) -> str:
    """One conflict record as a summary line; a null severity (zero vs nonzero) prints n/a."""
    entity = (record["entity"] or {}).get("value")
    values = {lang: v.get("original", "?") for lang, v in record["values"].items()
              if not v.get("missing")}
    severity = "n/a" if record["severity"] is None else f"{record['severity']:.4g}"
    return (f"  {record['class']}: {family_id} / {entity} / "
            f"{record['attribute']} -> {values} (severity {severity})")


def main() -> None:
    mapping = load_header_mapping(REPO / "mappings" / "geography.json")
    client = MediaWikiClient(cache_dir=REPO / "fixtures" / "cache")
    options = PipelineOptions(offline=True)

    out_dir = Path("tablediff-out")
    for name in ("geography", "climbers"):
        manifest = load_manifest(REPO / "datasets" / f"{name}.json")
        report = run_pipeline(manifest, mapping, client, options)
        emit(report, "json", out_dir / name)
        emit(report, "plotdata", out_dir / name)

        print(f"== {name} ==")
        for lang, agg in report["corpus"]["per_language"].items():
            print(f"  {lang}: {agg['pages']} pages, {agg['table_count']} tables, "
                  f"{agg['reference_total']} refs (mean {agg['reference_mean']}), "
                  f"{agg['columns_total']} columns ({agg['incompleteness_rate']}% incomplete)")
        overall = report["corpus"]["overall"]
        print(f"  overall columns: {overall['columns_total']} "
              f"({overall['complete_rate']}% complete)")
        for family in report["families"]:
            for record in family["records"]:
                if record["class"] != "Incompleteness":
                    print(record_line(family["id"], record))
        n_incomplete = sum(1 for f in report["families"] for r in f["records"]
                           if r["class"] == "Incompleteness")
        print(f"  incompleteness records: {n_incomplete}")
    print(f"\nreports written under {out_dir}/")


if __name__ == "__main__":
    main()
