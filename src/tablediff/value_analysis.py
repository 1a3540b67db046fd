"""Locale-aware cell value parsing, conflict detection, and classification.

Values are compared cross-language only after unit canonicalization; a ratio
like "80/302" is also compared as its derived percentage against explicit
percentage columns, with a small rounding slack so a ratio never conflicts
with its own rounded display form.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timedelta
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .mw_client import format_ts
from .schema_align import Attribute, attribute_row

CLASS_INVALIDITY = "Invalidity-candidate"
CLASS_TIMELINESS = "Timeliness-candidate"
CLASS_INCOMPLETENESS = "Incompleteness"

#: cell contents treated as "no value" once trimmed
DEFAULT_MISSING_VOCAB = frozenset({"", "—", "–", "-", "N/A", "n/a", "?"})

#: rounding slack, in percentage points, between a ratio and a stated percentage
RATIO_PCT_SLACK_PP = 0.05

DEFAULT_STALENESS_DAYS = 180

NUMERIC_KINDS = ("number", "percentage", "ratio")

# thousands / decimal separators; en-style is the fallback for unknown codes
_SEPARATORS = {
    "en": (",", "."),
    "zh": (",", "."),
    "de": (".", ","),
    "it": (".", ","),
    "nl": (".", ","),
}

# unit token -> (canonical unit, dimension, factor to the dimension's base)
_UNITS = {
    "m": ("m", "length", 1.0), "meter": ("m", "length", 1.0), "meters": ("m", "length", 1.0),
    "metre": ("m", "length", 1.0), "metres": ("m", "length", 1.0),
    "米": ("m", "length", 1.0), "公尺": ("m", "length", 1.0),
    "ft": ("ft", "length", 0.3048), "feet": ("ft", "length", 0.3048), "foot": ("ft", "length", 0.3048),
    "km": ("km", "length", 1000.0), "千米": ("km", "length", 1000.0), "公里": ("km", "length", 1000.0),
    "mi": ("mi", "length", 1609.344),
    "km2": ("km2", "area", 1.0), "km²": ("km2", "area", 1.0),
    "平方千米": ("km2", "area", 1.0), "平方公里": ("km2", "area", 1.0),
    "m2": ("m2", "area", 1e-6), "m²": ("m2", "area", 1e-6),
    "yr": ("yr", "time", 1.0), "year": ("yr", "time", 1.0), "years": ("yr", "time", 1.0),
    "年": ("yr", "time", 1.0),
}

_CANONICAL_UNIT_INFO = {canon: (dim, factor) for (canon, dim, factor) in _UNITS.values()}

_RATIO_WORDS = {
    "en": ("out of", "of"),
    "de": ("von",),
    "it": ("su",),
    "nl": ("van", "op"),
}


class MissingType:
    """Singleton marker for an absent cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"


MISSING = MissingType()


def is_missing(text: str, extra_vocab: tuple[str, ...] = ()) -> bool:
    trimmed = text.replace("\u00a0", " ").strip()
    return trimmed in DEFAULT_MISSING_VOCAB or trimmed in extra_vocab


class ParsedValue(NamedTuple):
    """One parsed cell: a number, percentage, ratio, or opaque text."""

    kind: str  # "number" | "percentage" | "ratio" | "text"
    original: str
    language: str
    magnitude: Optional[float] = None  # ratio stores its derived percentage
    unit: Optional[str] = None
    numerator: Optional[int] = None
    denominator: Optional[int] = None

    @property
    def is_numeric(self) -> bool:
        return self.kind in NUMERIC_KINDS


CellValue = Union[ParsedValue, MissingType]


def value_to_json(value: CellValue) -> dict:
    if value is MISSING:
        return {"missing": True}
    out: dict = {"kind": value.kind, "original": value.original}
    if value.magnitude is not None:
        out["magnitude"] = value.magnitude
    if value.unit is not None:
        out["unit"] = value.unit
    if value.numerator is not None:
        out["numerator"] = value.numerator
        out["denominator"] = value.denominator
    return out


def _separators(language: str) -> tuple[str, str]:
    return _SEPARATORS.get(language, (",", "."))


def _parse_number(token: str, language: str) -> float:
    group, dec = _separators(language)
    cleaned = token.replace(group, "").replace(dec, ".")
    return float(cleaned)


def _parse_int(token: str, language: str) -> int:
    group, _ = _separators(language)
    return int(token.replace(group, ""))


_UNIT_ALTERNATION = "|".join(sorted(map(re.escape, _UNITS), key=len, reverse=True))


@lru_cache(maxsize=None)
def _cell_pattern(language: str) -> re.Pattern:
    """One language's compiled cell pattern, tried alternative by alternative.

    The alternatives are percentage ``(number)%``, ratio ``(int) sep (int)``
    with "/" or one of the language's ratio words as ``sep``, and number
    ``(number) (unit)?``, so a match's groups are (percentage, numerator,
    denominator, number, unit) with the others None.
    """
    group, dec = _separators(language)
    g, d = re.escape(group), re.escape(dec)
    integer = rf"\d{{1,3}}(?:{g}\d{{3}})+|\d+"
    num = rf"[+-]?(?:{integer})(?:{d}\d+)?"
    ratio_seps = "|".join([r"/"] + [rf"\s{re.escape(w)}\s" for w in _RATIO_WORDS.get(language, ())])
    return re.compile(rf"({num})\s*%"
                      rf"|({integer})\s*(?:{ratio_seps})\s*({integer})"
                      rf"|({num})\s*({_UNIT_ALTERNATION})?")


def parse_value(text: str, language: str) -> ParsedValue:
    """Parse one cell under that language's number-formatting conventions.

    Total function: anything that is not a recognizable number, percentage,
    or ratio (including a ratio over zero) comes back as ``text`` kind with
    no magnitude.
    """
    m = _cell_pattern(language).fullmatch(text.replace("\u00a0", " ").strip())
    if m is None:
        return ParsedValue("text", text, language)
    percentage, ratio_top, ratio_bottom, number, unit = m.groups()
    if percentage is not None:
        return ParsedValue("percentage", text, language, _parse_number(percentage, language))
    if ratio_top is not None:
        # No other alternative matches "int sep int", so a zero denominator is text.
        numerator, denominator = _parse_int(ratio_top, language), _parse_int(ratio_bottom, language)
        if denominator == 0:
            return ParsedValue("text", text, language)
        return ParsedValue("ratio", text, language, 100.0 * numerator / denominator,
                           None, numerator, denominator)
    return ParsedValue("number", text, language, _parse_number(number, language),
                       _UNITS[unit][0] if unit else None)


def format_number(magnitude: float, language: str) -> str:
    """Locale rendering of a magnitude (round-trip partner of parse_value)."""
    group, dec = _separators(language)
    if magnitude == int(magnitude):
        body = f"{int(magnitude):,}"
    else:
        body = f"{magnitude:,}"
    return body.translate({ord(","): group, ord("."): dec})


def relative_difference(a: float, b: float) -> float:
    """|a-b| scaled by the smaller absolute value; inf when only one is zero."""
    if a == b:
        return 0.0
    low = min(abs(a), abs(b))
    if low == 0.0:
        return math.inf
    return abs(a - b) / low


def _unit_factor(unit: Optional[str]) -> tuple[Optional[str], float]:
    if unit is None:
        return None, 1.0
    dim, factor = _CANONICAL_UNIT_INFO[unit]
    return dim, factor


def _comparable_pair(a: ParsedValue, b: ParsedValue):
    """(value_a, value_b, slack_applies) on a shared scale, or a failure tag.

    number vs number compares magnitudes after unit conversion (a bare number
    matches any single explicit unit); percentage and ratio compare on the
    percent scale, with the rounding slack applied to ratio-vs-percentage
    pairs only. number vs percentage/ratio is not comparable.
    """
    group_a = "pct" if a.kind in ("percentage", "ratio") else "num"
    group_b = "pct" if b.kind in ("percentage", "ratio") else "num"
    if group_a != group_b:
        return "kind-mismatch"
    if group_a == "pct":
        slack = (a.kind == "ratio") != (b.kind == "ratio")
        return a.magnitude, b.magnitude, slack
    dim_a, factor_a = _unit_factor(a.unit)
    dim_b, factor_b = _unit_factor(b.unit)
    if dim_a is None or dim_b is None:
        return a.magnitude, b.magnitude, False
    if dim_a != dim_b:
        return "unit-mismatch"
    return a.magnitude * factor_a, b.magnitude * factor_b, False


def _record(family_id: str, cls: Optional[str], entity, attribute: Optional[dict],
            values: dict[str, CellValue], evidence: str, severity: Optional[float] = None) -> dict:
    """One report record; ``entity`` is an EntityKey or None, ``attribute`` a ``{name, kind}``."""
    return {
        "family": family_id,
        "class": cls,
        "entity": None if entity is None else entity.to_json(),
        "attribute": None if attribute is None else attribute["name"],
        "attribute_kind": None if attribute is None else attribute["kind"],
        # zero-vs-nonzero disagreements have no finite relative difference;
        # keep the JSON standard-parseable
        "severity": severity if severity is None or math.isfinite(severity) else None,
        "values": {lang: value_to_json(v) for lang, v in values.items()},
        "revision_timestamps": {},
        "evidence": evidence,
    }


def detect_conflicts(family_id: str, attribute: Attribute,
                     values_by_entity: dict[object, dict[str, CellValue]],
                     rel_tol: float = 0.0) -> tuple[list[dict], list[dict]]:
    """Flag entities whose numeric values for one attribute disagree.

    ``values_by_entity`` maps entity -> {language: value}; languages whose
    tables lack the attribute column must already be absent from the inner
    map. A conflict exists when any comparable pair differs by more than
    ``rel_tol`` (relative to the smaller value); severity is the largest
    relative difference among conflicting pairs. Pairs that cannot be
    compared become findings, never crashes. Records have no class yet.

    ``rel_tol`` must be a number >= 0 (a ``ValueError`` otherwise): then
    values that share one (number or percent scale, unit, magnitude) key
    differ by 0 and are always comparable, so an entity whose values all
    share one key skips the pairwise checks.
    """
    if not rel_tol >= 0:
        raise ValueError(f"rel_tol must be a number >= 0, got {rel_tol!r}")
    records: list[dict] = []
    findings: list[dict] = []
    for entity, by_language in values_by_entity.items():
        numeric = {lang: v for lang, v in by_language.items()
                   if v is not MISSING and v.kind in NUMERIC_KINDS}
        if len(numeric) < 2:
            continue
        if len({(v.kind == "number", v.unit, v.magnitude) for v in numeric.values()}) == 1:
            continue
        langs = list(numeric)
        worst: Optional[float] = None
        for i in range(len(langs)):
            for j in range(i + 1, len(langs)):
                a, b = numeric[langs[i]], numeric[langs[j]]
                pair = _comparable_pair(a, b)
                if pair == "kind-mismatch" or pair == "unit-mismatch":
                    findings.append({
                        "kind": "incomparable-values",
                        "family": family_id,
                        "entity": entity.label(),
                        "attribute": attribute.name,
                        "languages": [langs[i], langs[j]],
                        "detail": f"{pair}: {a.original!r} ({a.kind}/{a.unit}) vs "
                                  f"{b.original!r} ({b.kind}/{b.unit})",
                    })
                    continue
                va, vb, slack = pair
                if slack and abs(va - vb) <= RATIO_PCT_SLACK_PP:
                    continue
                rel = relative_difference(va, vb)
                if rel > rel_tol:
                    worst = rel if worst is None else max(worst, rel)
        if worst is not None:
            records.append(_record(
                family_id, None, entity, attribute_row(attribute), by_language,
                f"numeric disagreement on {attribute.name} "
                f"across {', '.join(numeric)} (rel_tol={rel_tol})", worst))
    return records, findings


def _canonical_magnitude(value: dict, base_unit: Optional[str]) -> float:
    if value["kind"] in ("percentage", "ratio"):
        return round(value["magnitude"], 9)
    unit = value.get("unit")
    if unit is None or base_unit is None:
        # bare numbers took their peer's unit during comparison; group raw
        return round(value["magnitude"], 9)
    _, factor = _unit_factor(unit)
    _, base_factor = _unit_factor(base_unit)
    return round(value["magnitude"] * factor / base_factor, 9)


def classify(record: dict, revision_timestamps: dict[str, datetime],
             staleness_window: timedelta = timedelta(days=DEFAULT_STALENESS_DAYS)) -> dict:
    """Assign Timeliness-candidate vs Invalidity-candidate to a conflict record.

    Heuristic only, hence the "candidate" labels: the record is a timeliness
    candidate iff the involved revisions span more than the staleness window
    AND the minority value comes from strictly older pages. Ties on the most
    common value, or a fresh minority, fall back to invalidity. Returns a
    copy of the record with its class, the numeric languages' revision
    timestamps and the reason appended to its evidence.
    """
    numeric = {lang: v for lang, v in record["values"].items()
               if v.get("kind") in NUMERIC_KINDS}
    timestamps = {lang: ts for lang, ts in revision_timestamps.items() if lang in numeric}

    def classified(cls: str, reason: str) -> dict:
        return {**record, "class": cls,
                "revision_timestamps": {lang: format_ts(ts)
                                        for lang, ts in sorted(timestamps.items())},
                "evidence": record["evidence"] + reason}

    if len(timestamps) < 2:
        return classified(CLASS_INVALIDITY, "; revision metadata insufficient")

    base_unit = next((v["unit"] for v in numeric.values()
                      if v["kind"] == "number" and "unit" in v), None)
    groups: dict[float, list[str]] = {}
    for lang, value in numeric.items():
        groups.setdefault(_canonical_magnitude(value, base_unit), []).append(lang)

    spread = max(timestamps.values()) - min(timestamps.values())
    sizes = sorted((len(langs) for langs in groups.values()), reverse=True)
    has_majority = len(sizes) > 1 and sizes[0] > sizes[1]

    if has_majority and spread > staleness_window:
        majority_langs = max(groups.values(), key=len)
        minority_langs = [l for l in numeric if l not in majority_langs]
        known = [l for l in minority_langs if l in timestamps]
        if known and all(l in timestamps for l in majority_langs):
            newest_minority = max(timestamps[l] for l in known)
            oldest_majority = min(timestamps[l] for l in majority_langs)
            if newest_minority < oldest_majority:
                return classified(CLASS_TIMELINESS, (
                    f"; minority value from pages older by more than "
                    f"{staleness_window.days} days (revision spread {spread.days} days)"))
    return classified(CLASS_INVALIDITY, f"; revision spread {spread.days} days")


def detect_incompleteness(family_id: str, presence: dict, matrix,
                          languages: list[str]) -> list[dict]:
    """Schema-level and row-level incompleteness records.

    Schema level: one record per (attribute, language) cell of the
    ``presence`` grid (see ``build_presence_grid``) that is 0 while the
    attribute is present in at least one other language. Row level: one
    record per QID-keyed entity absent from one of ``languages`` (those with
    aligned tables) while present elsewhere. Surface-keyed entities are
    language-local by construction and never generate row-level records.
    """
    records: list[dict] = []
    for attribute, row in zip(presence["attributes"], presence["grid"]):
        present_langs = [l for l, flag in zip(presence["languages"], row) if flag]
        if not present_langs:
            continue
        for lang, flag in zip(presence["languages"], row):
            if flag:
                continue
            records.append(_record(
                family_id, CLASS_INCOMPLETENESS, None, attribute, {lang: MISSING},
                f"column for {attribute['name']!r} absent in {lang}; "
                f"present in {', '.join(present_langs)}"))

    for entity in matrix.entities:
        if not entity.is_qid:
            continue
        present = set(matrix.languages_of(entity))
        if not present:
            continue
        for lang in languages:
            if lang in present:
                continue
            records.append(_record(
                family_id, CLASS_INCOMPLETENESS, entity, None, {lang: MISSING},
                f"entity {entity.value} has no row in {lang}; "
                f"present in {', '.join(sorted(present))}"))
    return records


def detect_text_divergence(family_id: str, attribute: Attribute,
                           values_by_entity: dict[object, dict[str, CellValue]]) -> list[dict]:
    """Informational findings for text cells that disagree across languages.

    Text values carry no taxonomy class; they are reported so a human can
    decide whether the divergence is translation or substance.
    """
    findings = []
    for entity, by_language in values_by_entity.items():
        texts = {lang: v.original.strip() for lang, v in by_language.items()
                 if isinstance(v, ParsedValue) and v.kind == "text" and v.original.strip()}
        if len(texts) < 2:
            continue
        if len({t.casefold() for t in texts.values()}) > 1:
            findings.append({
                "kind": "text-divergence",
                "family": family_id,
                "entity": entity.label(),
                "attribute": attribute.name,
                "values": dict(sorted(texts.items())),
            })
    return findings
