import math
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from tablediff.entity_align import EntityKey
from tablediff.schema_align import AttributeKey
from tablediff import value_analysis
from tablediff.value_analysis import (_RATIO_WORDS, _UNIT_ALTERNATION, _UNITS, CLASS_INVALIDITY,
                                      CLASS_TIMELINESS, MISSING, ParsedValue, _parse_int, _parse_number,
                                      _separators, classify, detect_conflicts,
                                      detect_incompleteness, detect_text_divergence,
                                      format_number, is_missing, parse_value,
                                      relative_difference)


from oracles import oracle_detect_conflicts


def ts(year, month, day):
    return datetime(year, month, day, tzinfo=timezone.utc)


ATTR = AttributeKey("death_rate", {})
HEIGHT = AttributeKey("height", {})
E = EntityKey("qid", "Q43512")


# -- parsing -----------------------------------------------------------------

@pytest.mark.parametrize("text,lang,kind,magnitude,unit", [
    ("8,849", "en", "number", 8849.0, None),
    ("8.848", "de", "number", 8848.0, None),
    ("26,5 %", "it", "percentage", 26.5, None),
    ("8,848米", "zh", "number", 8848.0, "m"),
    ("29.5%", "zh", "percentage", 29.5, None),
    ("1.234,5", "nl", "number", 1234.5, None),
    ("5,650 km2", "en", "number", 5650.0, "km2"),
    ("29,032 ft", "en", "number", 29032.0, "ft"),
    ("", "en", "text", None, None),
    ("Himalaya", "de", "text", None, None),
    ("1950-08-15", "en", "text", None, None),
])
def test_parse_value_table(text, lang, kind, magnitude, unit):
    v = parse_value(text, lang)
    assert v.kind == kind
    assert v.magnitude == magnitude
    assert v.unit == unit
    assert v.original == text


def test_parse_ratio_forms():
    v = parse_value("80/302", "de")
    assert (v.kind, v.numerator, v.denominator) == ("ratio", 80, 302)
    assert math.isclose(v.magnitude, 100 * 80 / 302)
    assert parse_value("80 von 302", "de").kind == "ratio"
    assert parse_value("80 out of 302", "en").kind == "ratio"
    assert parse_value("80 su 302", "it").kind == "ratio"
    assert parse_value("80/0", "en").kind == "text"  # zero denominator


def test_missing_vocabulary():
    for marker in ["", "—", "–", "-", "N/A", "n/a", "?", "  — ", "\u00a0"]:
        assert is_missing(marker)
    assert not is_missing("0")
    assert not is_missing("1970–1986")
    assert is_missing("tbd", extra_vocab=("tbd",))


ROUND_TRIP_LANGUAGES = st.sampled_from(["en", "zh", "de", "it", "nl", "fr"])  # fr: en fallback


@given(st.integers(-10**12, 10**12), ROUND_TRIP_LANGUAGES)
def test_round_trip_integers(value, lang):
    rendered = format_number(float(value), lang)
    assert parse_value(rendered, lang).magnitude == float(value)


@given(st.floats(1e-4, 1e12), st.booleans(), ROUND_TRIP_LANGUAGES)
def test_round_trip_decimals(size, negative, lang):
    value = -size if negative else size
    rendered = format_number(value, lang)
    parsed = parse_value(rendered, lang)
    assert parsed.kind == "number"
    assert math.isclose(parsed.magnitude, value, rel_tol=1e-12)



def reference_parse_value(text, language):
    """parse_value as it was before its patterns were compiled once per language."""
    group, dec = _separators(language)
    g, d = re.escape(group), re.escape(dec)
    num = rf"[+-]?(?:\d{{1,3}}(?:{g}\d{{3}})+|\d+)(?:{d}\d+)?"
    integer = rf"\d{{1,3}}(?:{g}\d{{3}})+|\d+"
    t = text.replace("\u00a0", " ").strip()
    if not t:
        return ParsedValue(kind="text", original=text, language=language)
    m = re.fullmatch(rf"({num})\s*%", t)
    if m:
        return ParsedValue(kind="percentage", original=text, language=language,
                           magnitude=_parse_number(m.group(1), language))
    ratio_seps = [r"/"] + [rf"\s{re.escape(w)}\s" for w in _RATIO_WORDS.get(language, ())]
    for sep in ratio_seps:
        m = re.fullmatch(rf"({integer})\s*(?:{sep})\s*({integer})", t)
        if m:
            numerator = _parse_int(m.group(1), language)
            denominator = _parse_int(m.group(2), language)
            if denominator > 0:
                return ParsedValue(kind="ratio", original=text, language=language,
                                   magnitude=100.0 * numerator / denominator,
                                   numerator=numerator, denominator=denominator)
    m = re.fullmatch(rf"({num})\s*({_UNIT_ALTERNATION})?", t)
    if m:
        unit = _UNITS[m.group(2)][0] if m.group(2) else None
        return ParsedValue(kind="number", original=text, language=language,
                           magnitude=_parse_number(m.group(1), language), unit=unit)
    return ParsedValue(kind="text", original=text, language=language)


CELL_TOKENS = (list("0123456789") * 3 + [",", ".", " ", "\u00a0", "%", "/", "+", "-"]
               + sorted(_UNITS) + [" out of ", " of ", " von ", " su ", " van ", " op "])


@settings(max_examples=300)
@given(st.lists(st.sampled_from(CELL_TOKENS), max_size=12).map("".join),
       st.sampled_from(["en", "de", "zh", "it", "nl", "fr"]))
def test_parse_value_matches_uncompiled_reference(text, lang):
    assert parse_value(text, lang) == reference_parse_value(text, lang)


@pytest.mark.parametrize("text,lang", [
    ("80/0", "en"), ("80 out of 0", "en"), ("80 of 0", "en"), ("80 von 0", "de"),
    ("80 su 0", "it"), ("80 van 0", "nl"), ("80 op 0", "nl"), ("1,000/0,000", "en"),
])
def test_ratio_over_zero_is_text(text, lang):
    assert parse_value(text, lang) == ParsedValue("text", text, lang)
    assert parse_value(text, lang) == reference_parse_value(text, lang)


@pytest.mark.parametrize("text,lang,kind,magnitude", [
    ("\u00a026,5\u00a0%\u00a0", "it", "percentage", 26.5),
    ("29.5\u00a0%", "zh", "percentage", 29.5),
    ("\u00a080\u00a0/\u00a0302", "de", "ratio", 100 * 80 / 302),
    ("80\u00a0von\u00a0302", "de", "ratio", 100 * 80 / 302),
    ("80\u00a0out of\u00a0302\u00a0", "en", "ratio", 100 * 80 / 302),
    ("8,848\u00a0m", "en", "number", 8848.0),
])
def test_nbsp_padded_cells_parse(text, lang, kind, magnitude):
    parsed = parse_value(text, lang)
    assert (parsed.kind, parsed.original, parsed.language) == (kind, text, lang)
    assert math.isclose(parsed.magnitude, magnitude)
    assert parsed == reference_parse_value(text, lang)


# -- conflicts ---------------------------------------------------------------

def values(**by_lang):
    return {E: by_lang}


def test_k2_death_rate_conflict_and_severity():
    by_lang = {
        "zh": parse_value("29.5%", "zh"),
        "it": parse_value("26,5 %", "it"),
        "de": parse_value("80/302", "de"),
    }
    records, findings = detect_conflicts("fam", ATTR, {E: by_lang}, rel_tol=0.0)
    assert findings == []
    assert len(records) == 1
    record = records[0]
    derived = 100 * 80 / 302
    assert 26.45 <= derived <= 26.55
    # severity = (29.5 - derived) / derived, frozen arithmetic
    assert math.isclose(record["severity"], (29.5 - derived) / derived, rel_tol=1e-9)
    assert abs(record["severity"] - 0.1136) < 0.001
    assert set(record["values"]) == {"zh", "it", "de"}


def test_identical_values_produce_no_record():
    by_lang = {lang: parse_value("8,849" if lang in ("en", "zh") else "8.849", lang)
               for lang in ["en", "de", "zh", "it", "nl"]}
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert records == []


def test_everest_height_tolerance_threshold():
    by_lang = {"en": parse_value("8,849", "en"), "de": parse_value("8.848", "de")}
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert len(records) == 1
    assert math.isclose(records[0]["severity"], 1 / 8848, rel_tol=1e-9)
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.001)
    assert records == []


def test_ratio_never_conflicts_with_its_rounded_display():
    for num, den in [(80, 302), (64, 280), (1, 7), (123, 997), (5, 6)]:
        pct = 100 * num / den
        display = f"{round(pct, 1):.1f}%"
        by_lang = {"zh": parse_value(display, "zh"),
                   "de": parse_value(f"{num}/{den}", "de")}
        records, _ = detect_conflicts("fam", ATTR, {E: by_lang}, rel_tol=0.0)
        assert records == [], (num, den, display)


def test_unit_conversion_meters_vs_feet():
    by_lang = {"en": parse_value("29,032 ft", "en"), "de": parse_value("8.849 m", "de")}
    records, findings = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.001)
    assert findings == []
    assert records == []  # 29032 ft = 8848.95 m, within 0.1%
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert len(records) == 1  # the rounding residue shows up at zero tolerance


def test_incomparable_units_become_findings_not_crashes():
    by_lang = {"en": parse_value("100 km2", "en"), "de": parse_value("100", "de"),
               "zh": parse_value("99米", "zh")}
    records, findings = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert any(f["kind"] == "incomparable-values" for f in findings)


def test_number_vs_percentage_not_compared():
    by_lang = {"en": parse_value("26.5", "en"), "it": parse_value("26,5 %", "it")}
    records, findings = detect_conflicts("fam", ATTR, {E: by_lang}, rel_tol=0.0)
    assert records == []
    assert findings and findings[0]["kind"] == "incomparable-values"


def test_conflicts_symmetric_under_language_order():
    forward = {"zh": parse_value("29.5%", "zh"), "it": parse_value("26,5 %", "it"),
               "de": parse_value("80/302", "de")}
    backward = dict(reversed(list(forward.items())))
    r1, _ = detect_conflicts("fam", ATTR, {E: forward}, rel_tol=0.0)
    r2, _ = detect_conflicts("fam", ATTR, {E: backward}, rel_tol=0.0)
    assert math.isclose(r1[0]["severity"], r2[0]["severity"])


@given(st.lists(st.floats(1.0, 1000.0, allow_nan=False), min_size=2, max_size=6),
       st.floats(0.0, 0.5), st.floats(0.0, 0.5))
@settings(max_examples=200, deadline=None)
def test_monotonicity_in_rel_tol(magnitudes, tol_a, tol_b):
    low, high = sorted([tol_a, tol_b])
    by_lang = {f"l{i}": parse_value(f"{m:.3f}", "en") for i, m in enumerate(magnitudes)}
    at_low, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=low)
    at_high, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=high)
    assert len(at_high) <= len(at_low)


@st.composite
def cell_values(draw, magnitudes):
    kind = draw(st.sampled_from(["number", "number", "percentage", "ratio", "text", "missing"]))
    if kind == "missing":
        return MISSING
    if kind == "text":
        return ParsedValue("text", "Himalaya", "en")
    magnitude = draw(st.sampled_from(magnitudes))
    if kind == "ratio":
        return ParsedValue("ratio", f"{magnitude}/100", "en", magnitude, None, int(magnitude), 100)
    unit = draw(st.sampled_from([None, "m", "ft", "km2"])) if kind == "number" else None
    return ParsedValue(kind, f"{magnitude} {unit or '%'}", "en", magnitude, unit)


@st.composite
def values_by_entity(draw):
    """Entities whose values take one or two magnitudes, so that many of them tie."""
    out = {}
    for number in range(draw(st.integers(1, 4))):
        magnitudes = draw(st.lists(st.sampled_from([0.0, 1.0, 26.0, 26.49, 8848.0]),
                                   min_size=1, max_size=2))
        languages = draw(st.lists(st.sampled_from(["en", "de", "zh", "it", "nl"]),
                                  unique=True, max_size=5))
        out[EntityKey("qid", f"Q{number + 1}")] = {
            language: draw(cell_values(magnitudes)) for language in languages}
    return out


@given(values_by_entity(), st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
@settings(max_examples=500, deadline=None)
def test_conflicts_match_the_pairwise_oracle(values, rel_tol):
    assert (detect_conflicts("fam", HEIGHT, values, rel_tol)
            == oracle_detect_conflicts("fam", HEIGHT, values, rel_tol))


def test_agreeing_values_skip_the_pairwise_checks(monkeypatch):
    def never(a, b):
        raise AssertionError("compared a pair of agreeing values")

    monkeypatch.setattr(value_analysis, "_comparable_pair", never)
    agreeing = {E: {"en": parse_value("8,848 m", "en"), "de": parse_value("8.848 m", "de"),
                    "zh": parse_value("8848 米", "zh"), "it": parse_value("Everest", "it")},
                EntityKey("qid", "Q1"): {"en": parse_value("26%", "en"),
                                         "de": parse_value("26 %", "de")}}
    assert detect_conflicts("fam", HEIGHT, agreeing) == ([], [])


@pytest.mark.parametrize("rel_tol", [-0.5, math.nan])
def test_negative_or_nan_rel_tol_is_rejected(rel_tol):
    with pytest.raises(ValueError):
        detect_conflicts("fam", HEIGHT, values(en=parse_value("1", "en")), rel_tol)


def test_relative_difference_zero_handling():
    assert relative_difference(0.0, 0.0) == 0.0
    assert relative_difference(0.0, 5.0) == math.inf
    assert math.isclose(relative_difference(8849, 8848), 1 / 8848)


# -- classification ----------------------------------------------------------

def conflict_record(values_by_lang):
    records, _ = detect_conflicts("fam", HEIGHT, {E: values_by_lang}, rel_tol=0.0)
    assert len(records) == 1
    return records[0]


def test_classify_timeliness_minority_on_older_page():
    record = conflict_record({
        "en": parse_value("8,849", "en"), "zh": parse_value("8,849", "zh"),
        "de": parse_value("8.848", "de"),
    })
    stamps = {"en": ts(2025, 6, 10), "zh": ts(2025, 6, 11), "de": ts(2024, 9, 1)}
    out = classify(record, stamps, timedelta(days=180))
    assert out["class"] == CLASS_TIMELINESS
    # A huge window turns the same record into an invalidity candidate.
    out = classify(record, stamps, timedelta(days=100000))
    assert out["class"] == CLASS_INVALIDITY


def test_classify_same_week_revisions_is_invalidity():
    record = conflict_record({
        "zh": parse_value("29.5%", "zh"), "it": parse_value("26,5 %", "it"),
        "de": parse_value("24.9%", "de"),
    })
    stamps = {"zh": ts(2025, 6, 10), "it": ts(2025, 6, 11), "de": ts(2025, 6, 12)}
    assert classify(record, stamps, timedelta(days=180))["class"] == CLASS_INVALIDITY


def test_classify_equal_timestamps_tie_is_invalidity():
    record = conflict_record({"en": parse_value("10", "en"), "de": parse_value("11", "de")})
    stamps = {"en": ts(2025, 1, 1), "de": ts(2025, 1, 1)}
    assert classify(record, stamps, timedelta(days=180))["class"] == CLASS_INVALIDITY


def test_classify_fresh_minority_is_invalidity():
    # Minority value lives on the NEWER page: not a staleness pattern.
    record = conflict_record({
        "en": parse_value("8,849", "en"), "zh": parse_value("8,849", "zh"),
        "de": parse_value("8.850", "de"),
    })
    stamps = {"en": ts(2024, 1, 1), "zh": ts(2024, 1, 2), "de": ts(2025, 6, 1)}
    assert classify(record, stamps, timedelta(days=180))["class"] == CLASS_INVALIDITY


# -- incompleteness ----------------------------------------------------------

def presence(attributes, languages, grid):
    return {"languages": languages,
            "attributes": [{"name": a.name, "kind": "mapped"} for a in attributes],
            "grid": grid}


class MatrixStub:
    def __init__(self, languages, rows):
        self.languages = languages
        self.rows = rows
        self.entities = sorted({k for k, _l in rows}, key=lambda e: e.value)

    def languages_of(self, entity):
        return [lang for lang in self.languages if (entity, lang) in self.rows]


def test_schema_incompleteness_gender_only_in_it():
    gender = AttributeKey("gender", {})
    grid = presence([gender], ["en", "de", "zh", "it", "nl"], [[0, 0, 0, 1, 0]])
    matrix = MatrixStub(["en", "de", "zh", "it", "nl"], {})
    records = detect_incompleteness("fam", grid, matrix, ["en", "de", "zh", "it", "nl"])
    langs = sorted(next(iter(r["values"])) for r in records)
    assert langs == ["de", "en", "nl", "zh"]
    assert all(r["class"] == "Incompleteness" for r in records)


def test_attribute_present_everywhere_no_records():
    rank = AttributeKey("rank", {})
    grid = presence([rank], ["en", "de"], [[1, 1]])
    records = detect_incompleteness("fam", grid, MatrixStub(["en", "de"], {}), ["en", "de"])
    assert records == []


def test_row_level_incompleteness_names_absent_language():
    q = EntityKey("qid", "Q445860")
    rows = {(q, lang): [(0, 11)] for lang in ["en", "de", "zh", "it"]}
    matrix = MatrixStub(["en", "de", "zh", "it", "nl"], rows)
    grid = presence([], ["en", "de", "zh", "it", "nl"], [])
    records = detect_incompleteness("fam", grid, matrix, ["en", "de", "zh", "it", "nl"])
    assert len(records) == 1
    assert records[0]["entity"] == q.to_json()
    assert list(records[0]["values"]) == ["nl"]


def test_surface_entities_generate_no_row_level_records():
    s = EntityKey("surface", "everest", "en")
    matrix = MatrixStub(["en", "de"], {(s, "en"): [(0, 0)]})
    grid = presence([], ["en", "de"], [])
    assert detect_incompleteness("fam", grid, matrix, ["en", "de"]) == []


def test_text_divergence_reported_without_class():
    by_lang = {"en": parse_value("Himalayas", "en"), "de": parse_value("Himalaya", "de")}
    findings = detect_text_divergence("fam", AttributeKey("range", {}), {E: by_lang})
    assert len(findings) == 1
    assert findings[0]["kind"] == "text-divergence"
    same = {"en": parse_value("Nepal", "en"), "de": parse_value("Nepal", "de")}
    assert detect_text_divergence("fam", AttributeKey("country", {}), {E: same}) == []


def test_zero_vs_nonzero_conflicts_with_infinite_severity():
    by_lang = {"en": parse_value("0", "en"), "de": parse_value("5", "de")}
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert len(records) == 1
    assert relative_difference(0.0, 5.0) == math.inf
    assert records[0]["severity"] is None  # stays standard-JSON parseable
