"""Render a report dict into JSON, flat CSV files, or plot-ready matrices.

All emission works off the serialized report, so a stored report.json can be
re-rendered later without network or cache access. CSV output uses RFC 4180
quoting and UTF-8 throughout. Each format renders every file to text before
any is written, so a report that cannot be rendered leaves no output behind.
Every JSON file the package writes (this report and the page files and maps
of ``mw_client``'s cache) is rendered by ``json_text``, but for the stored
scans of ``mw_client``, which are one line of compact ``json.dumps`` output.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring
from pathlib import Path


def emit(report: dict, fmt: str, out_dir: str | Path) -> list[Path]:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    files = FORMATS[fmt](report)
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


class _NotWalked(Exception):
    """The walk met a value it does not write: ``json_text`` hands the whole value to json."""


_INF = float("inf")


def _float_text(value: float) -> str:
    if -_INF < value < _INF:
        return float.__repr__(value)
    raise _NotWalked  # NaN or ±inf: json raises its own ValueError


# exact type -> JSON text; other types (subclasses too) take json's own path
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}


def _append_container(value, lead: str, newline: str, sort_keys: bool, out: list[str]) -> None:
    """Append ``lead`` and the lines of a dict, list or tuple closed after ``newline``.

    Each item is one piece: its separator, indent, key and, for a scalar, its
    text. A nested container starts with the piece of its key. A key that is
    not a ``str`` and a scalar of no ``_SCALARS`` type raise ``_NotWalked``.
    """
    inner = newline + "  "
    scalars = _SCALARS
    if isinstance(value, dict):
        if not value:
            out.append(lead + "{}")
            return
        lead += "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            if type(key) is not str:
                raise _NotWalked
            key = encode_basestring(key) + ": "
            encode = scalars.get(type(item))
            if encode is not None:
                out.append(lead + key + encode(item))
            elif isinstance(item, (list, tuple, dict)):
                _append_container(item, lead + key, inner, sort_keys, out)
            else:
                raise _NotWalked
            lead = "," + inner
        out.append(newline + "}")
    else:
        if not value:
            out.append(lead + "[]")
            return
        lead += "[" + inner
        for item in value:
            encode = scalars.get(type(item))
            if encode is not None:
                out.append(lead + encode(item))
            elif isinstance(item, (list, tuple, dict)):
                _append_container(item, lead, inner, sort_keys, out)
            else:
                raise _NotWalked
            lead = "," + inner
        out.append(newline + "]")


def json_text(value, sort_keys: bool = False) -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2, allow_nan=False, sort_keys=sort_keys)``.

    The same text or the same exception, made without the pure-Python
    generator chain that ``indent`` selects in ``json``: one recursive walk
    appends each line to one list, joined once. A value the walk does not
    take (a key that is not a ``str``, a scalar of another exact type, a
    float that is not finite, a cycle, nesting too deep) goes to one
    ``json.dumps`` of the whole value instead.
    """
    try:
        encode = _SCALARS.get(type(value))
        if encode is not None:
            return encode(value)
        if isinstance(value, (list, tuple, dict)):
            out: list[str] = []
            _append_container(value, "", "\n", sort_keys, out)
            return "".join(out)
    except (_NotWalked, RecursionError):
        pass  # json's text or exception, raised outside this handler
    return json.dumps(value, ensure_ascii=False, indent=2, allow_nan=False, sort_keys=sort_keys)


def render_json(report: dict) -> dict[str, str]:
    return {"report.json": json_text(report) + "\n"}


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


# Each format's renderer: ``emit``, the manifest's ``format`` and ``--format`` read it.
FORMATS = {"json": render_json, "csv": render_csv, "plotdata": render_plotdata}
