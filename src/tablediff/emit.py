"""Render a report dict into JSON, flat CSV files, or plot-ready matrices.

All emission works off the serialized report, so a stored report.json can be
re-rendered later without network or cache access. CSV output uses RFC 4180
quoting and UTF-8 throughout.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def emit(report: dict, fmt: str, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return [emit_json(report, out)]
    if fmt == "csv":
        return emit_csv(report, out)
    if fmt == "plotdata":
        return emit_plotdata(report, out)
    raise ValueError(f"unknown format: {fmt!r}")


def emit_json(report: dict, out_dir: Path) -> Path:
    path = out_dir / "report.json"
    text = json.dumps(report, ensure_ascii=False, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _writer(path: Path):
    handle = path.open("w", encoding="utf-8", newline="")
    return handle, csv.writer(handle)


def emit_csv(report: dict, out_dir: Path) -> list[Path]:
    paths = []

    stats_path = out_dir / "stats.csv"
    handle, writer = _writer(stats_path)
    with handle:
        writer.writerow(["family", "language", "title", "status", "revision_id",
                         "table_count", "reference_count", "main_table_index",
                         "columns_total", "columns_complete", "columns_incomplete"])
        for family in report["families"]:
            for e in family["editions"]:
                if e["status"] == "ok":
                    writer.writerow([
                        family["id"], e["language"], e["title"], e["status"], e["revision_id"],
                        e["table_count"], e["reference_count"],
                        "" if e["main_table_index"] is None else e["main_table_index"],
                        e["columns"]["total"], e["columns"]["complete"], e["columns"]["incomplete"],
                    ])
                else:
                    writer.writerow([family["id"], e["language"], e["title"], e["status"],
                                     "", "", "", "", "", "", ""])
    paths.append(stats_path)

    records_path = out_dir / "records.csv"
    handle, writer = _writer(records_path)
    with handle:
        writer.writerow(["family", "record_index", "class", "entity_kind", "entity",
                         "attribute", "severity", "language", "value_kind", "magnitude",
                         "unit", "numerator", "denominator", "original"])
        for family in report["families"]:
            for index, record in enumerate(family["records"]):
                entity = record["entity"] or {}
                for language, value in record["values"].items():
                    if value.get("missing"):
                        row_value = ["missing", "", "", "", "", ""]
                    else:
                        row_value = [value["kind"], value.get("magnitude", ""),
                                     value.get("unit", ""), value.get("numerator", ""),
                                     value.get("denominator", ""), value.get("original", "")]
                    writer.writerow([
                        family["id"], index, record["class"] or "",
                        entity.get("kind", ""), entity.get("value", ""),
                        record["attribute"] or "",
                        "" if record["severity"] is None else record["severity"],
                        language, *row_value,
                    ])
    paths.append(records_path)

    presence_path = out_dir / "presence.csv"
    handle, writer = _writer(presence_path)
    with handle:
        writer.writerow(["family", "attribute", "attribute_kind", "language", "present"])
        for family in report["families"]:
            presence = family["presence"]
            for attr, row in zip(presence["attributes"], presence["grid"]):
                for language, flag in zip(presence["languages"], row):
                    writer.writerow([family["id"], attr["name"], attr["kind"], language, flag])
    paths.append(presence_path)
    return paths


def emit_plotdata(report: dict, out_dir: Path) -> list[Path]:
    languages = report["corpus"]["languages"]
    paths = []

    def edition_cell(family: dict, language: str, key: str) -> str:
        for e in family["editions"]:
            if e["language"] == language:
                # Absent editions stay blank: a coverage gap is not a zero.
                return str(e[key]) if e["status"] == "ok" else ""
        return ""

    for filename, key in (("tables_by_language.csv", "table_count"),
                          ("references_heatmap.csv", "reference_count")):
        path = out_dir / filename
        handle, writer = _writer(path)
        with handle:
            writer.writerow(["family"] + languages)
            for family in report["families"]:
                writer.writerow([family["id"]] +
                                [edition_cell(family, lang, key) for lang in languages])
        paths.append(path)

    for family in report["families"]:
        presence = family["presence"]
        path = out_dir / f"presence_{family['id']}.csv"
        handle, writer = _writer(path)
        with handle:
            writer.writerow(["attribute"] + presence["languages"])
            for attr, row in zip(presence["attributes"], presence["grid"]):
                writer.writerow([attr["name"]] + row)
        paths.append(path)
    return paths
