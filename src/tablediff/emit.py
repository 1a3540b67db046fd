"""Render a report dict into JSON, flat CSV files, or plot-ready matrices.

All emission works off the serialized report, so a stored report.json can be
re-rendered later without network or cache access. CSV output uses RFC 4180
quoting and UTF-8 throughout. Each format renders every file to text before
any is written, so a report that cannot be rendered leaves no output behind.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path


def emit(report: dict, fmt: str, out_dir: str | Path) -> list[Path]:
    renderers = {"json": render_json, "csv": render_csv, "plotdata": render_plotdata}
    if fmt not in renderers:
        raise ValueError(f"unknown format: {fmt!r}")
    files = renderers[fmt](report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8", newline="")
        paths.append(path)
    return paths


def _csv(rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def render_json(report: dict) -> dict[str, str]:
    return {"report.json": json.dumps(report, ensure_ascii=False, indent=2, allow_nan=False) + "\n"}


def render_csv(report: dict) -> dict[str, str]:
    stats = [["family", "language", "title", "status", "revision_id",
              "table_count", "reference_count", "main_table_index",
              "columns_total", "columns_complete", "columns_incomplete"]]
    for family in report["families"]:
        for e in family["editions"]:
            if e["status"] == "ok":
                stats.append([
                    family["id"], e["language"], e["title"], e["status"], e["revision_id"],
                    e["table_count"], e["reference_count"],
                    "" if e["main_table_index"] is None else e["main_table_index"],
                    e["columns"]["total"], e["columns"]["complete"], e["columns"]["incomplete"],
                ])
            else:
                stats.append([family["id"], e["language"], e["title"], e["status"],
                              "", "", "", "", "", "", ""])

    records = [["family", "record_index", "class", "entity_kind", "entity",
                "attribute", "severity", "language", "value_kind", "magnitude",
                "unit", "numerator", "denominator", "original"]]
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
                records.append([
                    family["id"], index, record["class"] or "",
                    entity.get("kind", ""), entity.get("value", ""),
                    record["attribute"] or "",
                    "" if record["severity"] is None else record["severity"],
                    language, *row_value,
                ])

    presence = [["family", "attribute", "attribute_kind", "language", "present"]]
    for family in report["families"]:
        grid = family["presence"]
        for attr, row in zip(grid["attributes"], grid["grid"]):
            for language, flag in zip(grid["languages"], row):
                presence.append([family["id"], attr["name"], attr["kind"], language, flag])
    return {"stats.csv": _csv(stats), "records.csv": _csv(records),
            "presence.csv": _csv(presence)}


def render_plotdata(report: dict) -> dict[str, str]:
    languages = report["corpus"]["languages"]

    def edition_cell(family: dict, language: str, key: str) -> str:
        for e in family["editions"]:
            if e["language"] == language:
                # Absent editions stay blank: a coverage gap is not a zero.
                return str(e[key]) if e["status"] == "ok" else ""
        return ""

    files = {}
    for filename, key in (("tables_by_language.csv", "table_count"),
                          ("references_heatmap.csv", "reference_count")):
        files[filename] = _csv([["family"] + languages] + [
            [family["id"]] + [edition_cell(family, lang, key) for lang in languages]
            for family in report["families"]])

    for family in report["families"]:
        presence = family["presence"]
        files[f"presence_{family['id']}.csv"] = _csv([["attribute"] + presence["languages"]] + [
            [attr["name"]] + row for attr, row in zip(presence["attributes"], presence["grid"])])
    return files
