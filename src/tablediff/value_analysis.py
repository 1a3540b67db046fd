"""Locale-aware cell value parsing, conflict detection, and classification.

``detect_conflicts`` compares an attribute's values in one pass, keyed by
value kind (``_key``): text on its stripped, casefolded form, and numbers on
one comparison scale, given by ``_scale``: the percent scale for a percentage
or ratio, the unit's dimension in its base unit for a number with a unit, and
the peer's unit for a bare number. The pair check of ``detect_conflicts`` and
the majority grouping of ``classify`` read the scale too. A ratio like
"80/302" is compared as its derived percentage against explicit percentage
columns, with a small rounding slack so a ratio never conflicts with its own
rounded display form. Each conflict record is classified where it is found.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timedelta
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .mw_client import format_ts
from .schema_align import Attribute, attribute_row
from .table_parser import normalize_text

CLASS_INVALIDITY = "Invalidity-candidate"
CLASS_TIMELINESS = "Timeliness-candidate"
CLASS_INCOMPLETENESS = "Incompleteness"

#: cell contents treated as "no value", in the form ``normalize_text`` gives cells
DEFAULT_MISSING_VOCAB = frozenset({"", "—", "–", "-", "N/A", "n/a", "?"})

#: rounding slack, in percentage points, between a ratio and a stated percentage
RATIO_PCT_SLACK_PP = 0.05

DEFAULT_STALENESS_DAYS = 180

#: relative gap left by a unit conversion's float rounding (1.007 km * 1000 = 1006.9999999999999 m)
FLOAT_ROUNDING_REL_TOL = 1e-12

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

_RATIO_WORDS = {
    "en": ("out of", "of"),
    "de": ("von",),
    "it": ("su",),
    "nl": ("van", "op"),
}


#: an absent cell value
MISSING = None


@lru_cache(maxsize=None)
def missing_markers(extra_vocab: tuple[str, ...] = ()) -> frozenset[str]:
    """The cell texts that count as missing: the defaults plus ``extra_vocab``.

    Each extra marker is put in the form ``normalize_text`` gives a cell, so
    ``"1953\u00a0"`` or ``"unknown [1]"`` marks the cells that read ``1953``
    or ``unknown``. A ``Cell.text`` has that form already, so it is missing
    iff it is in this set.
    """
    return DEFAULT_MISSING_VOCAB | {normalize_text(marker) for marker in extra_vocab}


def is_missing(text: str, extra_vocab: tuple[str, ...] = ()) -> bool:
    """Whether raw cell text counts as missing once read as a cell."""
    return normalize_text(text) in missing_markers(extra_vocab)


class ParsedValue(NamedTuple):
    """One parsed cell: a number, percentage, ratio, or opaque text."""

    kind: str  # "number" | "percentage" | "ratio" | "text"
    original: str
    magnitude: Optional[float] = None  # ratio stores its derived percentage
    unit: Optional[str] = None
    numerator: Optional[int] = None
    denominator: Optional[int] = None


CellValue = Optional[ParsedValue]


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


_UNIT_ALTERNATION = "|".join(sorted(map(re.escape, _UNITS), key=len, reverse=True))


@lru_cache(maxsize=None)
def _cell_pattern(language: str) -> re.Pattern:
    """One language's compiled cell pattern, number first.

    The alternatives are ``(number) (% | unit)?`` and ratio ``(int) sep
    (int)`` with "/" or one of the language's ratio words as ``sep``, so a
    match's groups are (number, "%", unit, numerator, denominator) with the
    others None. Under ``fullmatch`` of stripped text they accept disjoint
    strings: a ratio's separator is neither a unit nor part of a number.
    """
    group, dec = _separators(language)
    g, d = re.escape(group), re.escape(dec)
    integer = rf"\d{{1,3}}(?:{g}\d{{3}})+|\d+"
    num = rf"[+-]?(?:{integer})(?:{d}\d+)?"
    # Each space of a ratio word, like the spaces around it, is any whitespace.
    words = [r"\s".join(map(re.escape, w.split())) for w in _RATIO_WORDS.get(language, ())]
    ratio_seps = "|".join([r"/"] + [rf"\s{w}\s" for w in words])
    return re.compile(rf"({num})(?:\s*(?:(%)|({_UNIT_ALTERNATION})))?"
                      rf"|({integer})\s*(?:{ratio_seps})\s*({integer})")


# Builds a ParsedValue from all six fields in order, without the Python-level
# __new__ that NamedTuple generates: parse_value's numeric results take it.
_new_value = tuple.__new__


def parse_value(text: str, language: str) -> ParsedValue:
    """Parse one cell under that language's number-formatting conventions.

    Total function: anything that is not a recognizable number, percentage,
    or ratio comes back as ``text`` kind with no magnitude. So does one whose
    magnitude cannot be computed or is not finite: a ratio over zero, or
    digits past what a float (or an int, for a ratio) can hold. A number
    whose magnitude is no longer finite once converted to its unit's base
    (``1e308 km`` in metres) is text too, so comparisons never meet ``inf``.
    """
    m = _cell_pattern(language).fullmatch(text.strip())
    if m is None:
        return ParsedValue("text", text)
    number, percent, unit, top, bottom = m.groups()
    group, dec = _separators(language)
    if number is not None:
        magnitude = float(number.replace(group, "").replace(dec, "."))
        if percent is not None:
            kind, canonical, base = "percentage", None, magnitude
        elif unit is not None:
            canonical, _dimension, factor = _UNITS[unit]
            kind, base = "number", magnitude * factor
        else:
            kind, canonical, base = "number", None, magnitude
        if not math.isfinite(base):  # on its comparison scale, see _scale
            return ParsedValue("text", text)
        return _new_value(ParsedValue, (kind, text, magnitude, canonical, None, None))
    # No other alternative matches "int sep int", so a bad ratio is text.
    try:
        numerator = int(top.replace(group, ""))
        denominator = int(bottom.replace(group, ""))
        magnitude = 100.0 * numerator / denominator
    except (ArithmeticError, ValueError):  # a zero denominator, or too many digits
        return ParsedValue("text", text)
    if not math.isfinite(magnitude):
        return ParsedValue("text", text)
    return _new_value(ParsedValue, ("ratio", text, magnitude, None, numerator, denominator))


def relative_difference(a: float, b: float) -> float:
    """|a-b| scaled by the smaller absolute value; inf when only one is zero.

    Magnitudes within float rounding of each other differ by 0.
    """
    if math.isclose(a, b, rel_tol=FLOAT_ROUNDING_REL_TOL):
        return 0.0
    low = min(abs(a), abs(b))
    if low == 0.0:
        return math.inf
    return abs(a - b) / low


def _scale(value: ParsedValue, peer_unit: Optional[str] = None) -> tuple[Optional[str], float]:
    """(scale, magnitude on it) of a numeric value: where two values meet.

    Percentages and ratios are on the percent scale ``"%"``; a number with a
    unit is on its unit's dimension, in the dimension's base unit. A bare
    number has no scale (None) unless it is read in ``peer_unit``.
    """
    if value.kind != "number":
        return "%", value.magnitude
    unit = value.unit or peer_unit
    if unit is None:
        return None, value.magnitude
    _canonical, dimension, factor = _UNITS[unit]
    return dimension, value.magnitude * factor


def _pair_difference(a: ParsedValue, b: ParsedValue) -> Union[float, str]:
    """Relative difference of two numeric values, or why they cannot be compared.

    A percentage or ratio is never compared with a number ("kind-mismatch"),
    nor a number with one of another dimension ("unit-mismatch"). A bare
    number is read in its peer's unit, so the two magnitudes are compared as
    they stand. A ratio within the rounding slack of a percentage differs by 0.
    """
    (scale_a, value_a), (scale_b, value_b) = _scale(a), _scale(b)
    if (scale_a == "%") != (scale_b == "%"):
        return "kind-mismatch"
    if scale_a is None or scale_b is None:
        return relative_difference(a.magnitude, b.magnitude)
    if scale_a != scale_b:
        return "unit-mismatch"
    if (a.kind == "ratio") != (b.kind == "ratio") and abs(value_a - value_b) <= RATIO_PCT_SLACK_PP:
        return 0.0
    return relative_difference(value_a, value_b)


def _record(family_id: str, cls: Optional[str], entity, attribute: Optional[dict],
            values: dict[str, CellValue], evidence: str, severity: Optional[float] = None,
            revision_timestamps: Optional[dict[str, str]] = None) -> dict:
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
        "revision_timestamps": revision_timestamps or {},
        "evidence": evidence,
    }


def _key(value: ParsedValue):
    """A value's comparison key: a number's ``_scale``, a text's stripped, casefolded form."""
    return value.original.strip().casefold() if value.kind == "text" else _scale(value)


def detect_conflicts(family_id: str, attribute: Attribute,
                     values_by_entity: dict[object, dict[str, CellValue]],
                     rel_tol: float = 0.0,
                     revision_timestamps: Optional[dict[str, datetime]] = None,
                     staleness_window: timedelta = timedelta(days=DEFAULT_STALENESS_DAYS),
                     ) -> tuple[list[dict], list[dict]]:
    """Compare one attribute's values across languages, in one walk over its entities.

    ``values_by_entity`` maps entity -> {language: value}; languages whose
    tables lack the attribute column must already be absent from the inner
    map. An entity's values of one kind agree when they share one ``_key``.
    Numbers conflict when a comparable pair differs by more than ``rel_tol``
    (relative to the smaller value); severity is the largest such difference,
    and ``classify`` classifies the record. A pair that cannot be compared is
    an ``incomparable-values`` finding, never a crash. Texts that differ are a
    ``text-divergence`` finding with no class, listed after those. Text is
    never compared with a number.

    ``rel_tol`` must be a finite number >= 0 (a ``ValueError`` otherwise):
    then values that share one ``_scale`` differ by 0 and need no pair check.
    """
    if not 0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be a finite number >= 0, got {rel_tol!r}")
    records: list[dict] = []
    findings: list[dict] = []
    text_findings: list[dict] = []
    for entity, by_language in values_by_entity.items():
        numeric, texts = {}, {}
        for lang, value in by_language.items():
            if value is not MISSING:
                (texts if value.kind == "text" else numeric)[lang] = value
        if len({_key(v) for v in texts.values()}) > 1:
            text_findings.append({
                "kind": "text-divergence",
                "family": family_id,
                "entity": entity.label(),
                "attribute": attribute.name,
                "values": {lang: texts[lang].original.strip() for lang in sorted(texts)},
            })
        if len({_key(v) for v in numeric.values()}) < 2:
            continue
        langs = list(numeric)
        worst: Optional[float] = None
        for i in range(len(langs)):
            for j in range(i + 1, len(langs)):
                a, b = numeric[langs[i]], numeric[langs[j]]
                difference = _pair_difference(a, b)
                if isinstance(difference, str):
                    findings.append({
                        "kind": "incomparable-values",
                        "family": family_id,
                        "entity": entity.label(),
                        "attribute": attribute.name,
                        "languages": [langs[i], langs[j]],
                        "detail": f"{difference}: {a.original!r} ({a.kind}/{a.unit}) vs "
                                  f"{b.original!r} ({b.kind}/{b.unit})",
                    })
                elif difference > rel_tol:
                    worst = difference if worst is None else max(worst, difference)
        if worst is not None:
            cls, timestamps, reason = classify(numeric, revision_timestamps or {},
                                               staleness_window)
            records.append(_record(
                family_id, cls, entity, attribute_row(attribute), by_language,
                f"numeric disagreement on {attribute.name} "
                f"across {', '.join(numeric)} (rel_tol={rel_tol}){reason}", worst, timestamps))
    return records, findings + text_findings


def classify(numeric: dict[str, ParsedValue], revision_timestamps: dict[str, datetime],
             staleness_window: timedelta) -> tuple[str, dict[str, str], str]:
    """Timeliness-candidate vs Invalidity-candidate for conflicting ``numeric`` values.

    Heuristic only, hence the "candidate" labels: the conflict is a timeliness
    candidate iff the involved revisions span more than the staleness window
    AND the minority value comes from strictly older pages. Values are grouped
    on their ``_scale`` and its magnitude, rounded to 9 places. A bare number
    is read in the unit that every value with a unit shares; when those units
    differ, bare numbers form groups of their own. Ties on the most common
    value, or a fresh minority, fall back to invalidity. Returns the class,
    the numeric languages' revision timestamps and the reason to append to
    the evidence.
    """
    timestamps = {lang: ts for lang, ts in revision_timestamps.items() if lang in numeric}
    stamps = {lang: format_ts(ts) for lang, ts in sorted(timestamps.items())}
    if len(timestamps) < 2:
        return CLASS_INVALIDITY, stamps, "; revision metadata insufficient"

    units = {v.unit for v in numeric.values() if v.unit is not None}
    shared_unit = units.pop() if len(units) == 1 else None
    groups: dict[tuple[Optional[str], float], list[str]] = {}
    for lang, value in numeric.items():
        scale, magnitude = _scale(value, shared_unit)
        # a bare number too large to read in that unit keeps its own magnitude
        key = (scale, round(magnitude, 9)) if math.isfinite(magnitude) else (None, value.magnitude)
        groups.setdefault(key, []).append(lang)

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
                return CLASS_TIMELINESS, stamps, (
                    f"; minority value from pages older by more than "
                    f"{staleness_window.days} days (revision spread {spread.days} days)")
    return CLASS_INVALIDITY, stamps, f"; revision spread {spread.days} days"


def detect_incompleteness(family_id: str, presence: dict,
                          matrix: dict[object, dict[str, list]],
                          languages: list[str]) -> list[dict]:
    """Schema-level and row-level incompleteness records.

    Schema level: one record per (attribute, language) cell of the
    ``presence`` grid (see ``build_presence_grid``) that is 0 while the
    attribute is present in at least one other language. Row level: one
    record per QID-keyed entity of ``matrix`` (``{entity: {language:
    occurrences}}``, see ``build_matrix``) absent from one of ``languages``
    (those with aligned tables); every matrix entity is present in some
    language. Surface-keyed entities are language-local by construction and
    never generate row-level records.
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

    for entity, present in matrix.items():
        if not entity.is_qid:
            continue
        for lang in languages:
            if lang in present:
                continue
            records.append(_record(
                family_id, CLASS_INCOMPLETENESS, entity, None, {lang: MISSING},
                f"entity {entity.value} has no row in {lang}; "
                f"present in {', '.join(sorted(present))}"))
    return records
