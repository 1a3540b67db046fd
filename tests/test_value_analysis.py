import itertools
import math
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from tablediff.entity_align import EntityKey, extract_row_entities
from tablediff.metrics import column_completeness
from tablediff.schema_align import Attribute
from tablediff.table_parser import Cell, WikiTable, normalize_text
from tablediff import value_analysis
from tablediff.value_analysis import (_SEPARATORS, _UNITS, CLASS_INVALIDITY, CLASS_TIMELINESS,
                                      DEFAULT_MISSING_VOCAB, MISSING, ParsedValue, classify,
                                      detect_conflicts, detect_incompleteness,
                                      missing_markers, parse_value, relative_difference)


from conftest import load_fixture_builder
from oracles import (oracle_detect_conflicts, oracle_is_missing, oracle_parse_value,
                     oracle_text_divergence)

format_number = load_fixture_builder().format_number


def ts(year, month, day):
    return datetime(year, month, day, tzinfo=timezone.utc)


ATTR = Attribute("death_rate", "mapped")
HEIGHT = Attribute("height", "mapped")
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
        assert oracle_is_missing(marker)
    assert not oracle_is_missing("0")
    assert not oracle_is_missing("1970–1986")
    assert oracle_is_missing("tbd", extra_vocab=("tbd",))


# Raw cell text as pages hold it: odd spaces, line breaks and footnote markers.
RAW_PIECES = ["", " ", "\u00a0", "\u2009", "\u3000", "\t", "\n", "[1]", "[a]", "—", "–", "-",
              "N/A", "n/a", "?", "1953", "tbd", "x"]
RAW_TEXTS = st.lists(st.sampled_from(RAW_PIECES), max_size=6).map("".join)
EXTRA_MARKERS = st.lists(RAW_TEXTS, max_size=3).map(tuple)


@settings(max_examples=300)
@given(RAW_TEXTS, EXTRA_MARKERS)
@example("tbd\u00a0[1]", ("\u3000tbd",))
@example("1953", ("1953\u00a0",))
def test_a_cell_is_missing_iff_its_text_is_a_marker(raw, extra):
    text = normalize_text(raw)  # every Cell.text comes out of normalize_text
    assert text == text.strip() and "\u00a0" not in text
    assert oracle_is_missing(text, extra) == (text in missing_markers(extra))
    assert oracle_is_missing(raw, extra) == oracle_is_missing(text, extra)


def test_extra_markers_match_cells_in_cell_form():
    for marker in ["tbd", "tbd ", "\u00a0tbd", "tbd\u00a0", "tbd [1]", "\ttbd\n"]:
        assert "tbd" in missing_markers((marker,)), repr(marker)
        assert oracle_is_missing("tbd", (marker,)), repr(marker)
    assert missing_markers() == DEFAULT_MISSING_VOCAB
    assert "tb d" not in missing_markers(("tbd",))


def oracle_column_completeness(table, extra):
    incomplete = sum(1 for col in range(table.n_cols)
                     if any(oracle_is_missing(row[col].text, extra) for row in table.body_rows))
    return table.n_cols, table.n_cols - incomplete, incomplete


def oracle_row_entities(table, col, extra):
    return [(row_index, row[col].text, row[col].link_title)
            for row_index, row in enumerate(table.body_rows)
            if row[col].link_title is not None or not oracle_is_missing(row[col].text, extra)]


@st.composite
def drawn_tables(draw):
    """Tables whose cells hold normalized raw text and, at times, a link."""
    n_cols = draw(st.integers(1, 3))
    cell = st.builds(lambda raw, link: Cell(normalize_text(raw), link),
                     RAW_TEXTS, st.sampled_from([None, None, "Everest"]))
    body_rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), max_size=4))
    return WikiTable(0, [], body_rows, n_cols)


@settings(max_examples=200)
@given(drawn_tables(), EXTRA_MARKERS)
def test_marker_walks_match_is_missing_oracles(table, extra):
    assert column_completeness(table, extra) == oracle_column_completeness(table, extra)
    for col in range(table.n_cols):
        mentions = extract_row_entities(table, col, extra)
        assert ([(m.row_index, m.surface, m.link_title) for m in mentions]
                == oracle_row_entities(table, col, extra))


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



CELL_TOKENS = (list("0123456789") * 3 + [",", ".", " ", "\u00a0", "\u2009", "%", "/", "+", "-"]
               + sorted(_UNITS) + [" out of ", " of ", " von ", " su ", " van ", " op "])


@settings(max_examples=300)
@given(st.lists(st.sampled_from(CELL_TOKENS), max_size=12).map("".join),
       st.sampled_from(["en", "de", "zh", "it", "nl", "fr", "es"]))
@example("5 m%", "en")  # a unit, then "%"
@example("5%", "en")
@example("80/302%", "de")  # a ratio, then "%"
@example("80 von 302 %", "de")
@example("-\u00a05", "en")  # signs set off by NBSP
@example("+\u00a05\u00a0%", "it")
@example("\u00a0-5\u00a0km", "zh")
@example("1.234,5", "en")  # the other convention's separators
@example("1,234.5", "de")
@example("1,234.5 km", "nl")
@example("1.234,5", "es")  # a language with no conventions reads en's
@example("1,234.5", "es")
@example("80 of 302", "es")
def test_parse_value_matches_uncompiled_reference(text, lang):
    assert parse_value(text, lang) == oracle_parse_value(text, lang)


@pytest.mark.parametrize("text,lang", [
    ("80/0", "en"), ("80 out of 0", "en"), ("80 of 0", "en"), ("80 von 0", "de"),
    ("80 su 0", "it"), ("80 van 0", "nl"), ("80 op 0", "nl"), ("1,000/0,000", "en"),
])
def test_ratio_over_zero_is_text(text, lang):
    assert parse_value(text, lang) == ParsedValue("text", text)
    assert parse_value(text, lang) == oracle_parse_value(text, lang)


HUGE_MAGNITUDES = [
    ("ratio-400-digits", "1" * 400 + "/3"),     # the numerator is past any float
    ("number-400-digits", "1" * 400),           # float() reads it as inf
    ("percentage-310-digits", "1" * 310 + "%"),
    ("ratio-inf-percent", "1" * 308 + "/1"),    # 100x a finite numerator is inf
    ("ratio-5000-digits", "1" * 5000 + "/2"),   # past the digits int() reads
    ("km-308-digits", "1" * 308 + " km"),       # finite, but inf in metres
]


# en, the fallback convention, is the case without a language suffix.
@pytest.mark.parametrize("text,lang", [
    pytest.param(text, lang, id=name if lang == "en" else f"{name}-{lang}")
    for lang in [*_SEPARATORS, "fr"] for name, text in HUGE_MAGNITUDES])
def test_magnitude_past_a_float_is_text(text, lang):
    assert parse_value(text, lang) == ParsedValue("text", text)
    assert oracle_parse_value(text, lang) == ParsedValue("text", text)


def test_magnitude_past_a_float_in_base_units_is_text():
    # 1e307 km is 1e310 m: compared in metres it would be inf, equal to any other.
    km = {"en": parse_value("1" * 308 + " km", "en"), "de": parse_value("2" * 308 + " km", "de")}
    assert [v.kind for v in km.values()] == ["text", "text"]
    records, findings = detect_conflicts("fam", HEIGHT, {E: km})
    assert records == []
    assert [f["kind"] for f in findings] == ["text-divergence"]
    metres = parse_value("1" * 308 + " m", "en")
    assert metres.kind == "number" and metres.unit == "m"


@pytest.mark.parametrize("text,lang,kind,magnitude", [
    ("\u00a026,5\u00a0%\u00a0", "it", "percentage", 26.5),
    ("29.5\u00a0%", "zh", "percentage", 29.5),
    ("\u00a080\u00a0/\u00a0302", "de", "ratio", 100 * 80 / 302),
    ("80\u00a0von\u00a0302", "de", "ratio", 100 * 80 / 302),
    ("80\u00a0out of\u00a0302\u00a0", "en", "ratio", 100 * 80 / 302),
    ("80 out\u00a0of 302", "en", "ratio", 100 * 80 / 302),
    ("8,848\u00a0m", "en", "number", 8848.0),
])
def test_nbsp_padded_cells_parse(text, lang, kind, magnitude):
    parsed = parse_value(text, lang)
    assert (parsed.kind, parsed.original) == (kind, text)
    assert math.isclose(parsed.magnitude, magnitude)
    assert parsed == oracle_parse_value(text, lang)


# str.strip() and re's \s take NBSP for whitespace, so reading it as a space changes nothing.
@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(CELL_TOKENS + ["\u00a0", "\t", "out", "of", "von", "van", "su", "op"]),
                max_size=12).map("".join),
       st.sampled_from(["en", "de", "zh", "it", "nl", "fr"]))
@example("80 out\u00a0of 302", "en")
def test_nbsp_reads_as_a_space(text, lang):
    spaced = text.replace("\u00a0", " ")
    assert parse_value(text, lang)._replace(original=spaced) == parse_value(spaced, lang)


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
        # two of the three agree once stripped and casefolded
        return ParsedValue("text", draw(st.sampled_from(["Himalaya", "Himalayas", "himalaya "])))
    magnitude = draw(st.sampled_from(magnitudes))
    if kind == "ratio":
        return ParsedValue("ratio", f"{magnitude}/100", magnitude, None, int(magnitude), 100)
    unit = draw(st.sampled_from([None, "m", "ft", "km2"])) if kind == "number" else None
    return ParsedValue(kind, f"{magnitude} {unit or '%'}", magnitude, unit)


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


#: revision timestamps that may leave languages out and tie or split the rest
revision_stamps = st.dictionaries(st.sampled_from(["en", "de", "zh", "it", "nl"]),
                                  st.sampled_from([ts(2020, 1, 1), ts(2025, 1, 1),
                                                   ts(2025, 3, 1)]), min_size=3)


@given(values_by_entity(), st.one_of(st.just(0.0), st.floats(0.0, 0.3)), revision_stamps,
       st.sampled_from([timedelta(days=30), timedelta(days=180)]))
@settings(max_examples=500, deadline=None)
def test_conflicts_match_the_pairwise_oracle(values, rel_tol, stamps, window):
    # The oracle's two walks: numbers pair by pair, then text.
    records, incomparable = oracle_detect_conflicts("fam", HEIGHT, values, rel_tol, stamps, window)
    assert (detect_conflicts("fam", HEIGHT, values, rel_tol, stamps, window)
            == (records, incomparable + oracle_text_divergence("fam", HEIGHT, values)))


def test_agreeing_values_skip_the_pairwise_checks(monkeypatch):
    def never(a, b):
        raise AssertionError("compared a pair of agreeing values")

    monkeypatch.setattr(value_analysis, "_pair_difference", never)
    agreeing = {E: {"en": parse_value("8,848 m", "en"), "de": parse_value("8.848 m", "de"),
                    "zh": parse_value("8848 米", "zh"), "it": parse_value("Everest", "it")},
                EntityKey("qid", "Q1"): {"en": parse_value("26%", "en"),
                                         "de": parse_value("26 %", "de")},
                EntityKey("qid", "Q2"): {"en": parse_value("1 km", "en"),
                                         "de": parse_value("1000 m", "de")}}
    assert detect_conflicts("fam", HEIGHT, agreeing) == ([], [])


@pytest.mark.parametrize("rel_tol", [-0.5, math.nan, math.inf])
def test_negative_or_nan_rel_tol_is_rejected(rel_tol):
    with pytest.raises(ValueError):
        detect_conflicts("fam", HEIGHT, values(en=parse_value("1", "en")), rel_tol)


def test_relative_difference_zero_handling():
    assert relative_difference(0.0, 0.0) == 0.0
    assert relative_difference(0.0, 5.0) == math.inf
    assert math.isclose(relative_difference(8849, 8848), 1 / 8848)


def test_unit_conversion_rounding_is_no_conflict():
    # 1.007 km * 1000 is 1006.9999999999999 m: float rounding, not a disagreement.
    by_lang = {"en": parse_value("1007 m", "en"), "de": parse_value("1,007 km", "de")}
    assert detect_conflicts("fam", HEIGHT, {E: by_lang}) == ([], [])
    assert relative_difference(1007.0, 1.007 * 1000.0) == 0.0
    assert relative_difference(1007.0, 1008.0) == 1 / 1007


@example(1007, "en", "de")
@given(st.integers(0, 10**9), ROUND_TRIP_LANGUAGES, ROUND_TRIP_LANGUAGES)
def test_a_length_in_metres_and_in_km_agrees(metres, metre_lang, km_lang):
    by_lang = {"a": parse_value(f"{format_number(metres, metre_lang)} m", metre_lang),
               "b": parse_value(f"{format_number(metres / 1000, km_lang)} km", km_lang)}
    assert [v.unit for v in by_lang.values()] == ["m", "km"]
    assert detect_conflicts("fam", HEIGHT, {E: by_lang}) == ([], [])


# -- classification ----------------------------------------------------------

WINDOW = timedelta(days=180)


def test_classify_timeliness_minority_on_older_page():
    numeric = {"en": parse_value("8,849", "en"), "zh": parse_value("8,849", "zh"),
               "de": parse_value("8.848", "de")}
    stamps = {"en": ts(2025, 6, 10), "zh": ts(2025, 6, 11), "de": ts(2024, 9, 1)}
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_TIMELINESS
    # A huge window turns the same values into an invalidity candidate.
    assert classify(numeric, stamps, timedelta(days=100000))[0] == CLASS_INVALIDITY


def test_classify_same_week_revisions_is_invalidity():
    numeric = {"zh": parse_value("29.5%", "zh"), "it": parse_value("26,5 %", "it"),
               "de": parse_value("24,9 %", "de")}
    stamps = {"zh": ts(2025, 6, 10), "it": ts(2025, 6, 11), "de": ts(2025, 6, 12)}
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_INVALIDITY


def test_classify_equal_timestamps_tie_is_invalidity():
    numeric = {"en": parse_value("10", "en"), "de": parse_value("11", "de")}
    stamps = {"en": ts(2025, 1, 1), "de": ts(2025, 1, 1)}
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_INVALIDITY


def test_classify_fresh_minority_is_invalidity():
    # Minority value lives on the NEWER page: not a staleness pattern.
    numeric = {"en": parse_value("8,849", "en"), "zh": parse_value("8,849", "zh"),
               "de": parse_value("8.850", "de")}
    stamps = {"en": ts(2024, 1, 1), "zh": ts(2024, 1, 2), "de": ts(2025, 6, 1)}
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_INVALIDITY


def test_classify_is_the_same_in_every_language_order():
    # Read in the first unit, en's bare 8848 would be 8848 m after de and
    # 8848 km after zh or it. Two units are present, so it is a group of its
    # own in every order: zh and it agree, en and de are older minorities.
    values = {"en": parse_value("8848", "en"), "de": parse_value("8.848 m", "de"),
              "zh": parse_value("8.848 km", "zh"), "it": parse_value("8,848 km", "it")}
    stamps = {"en": ts(2020, 1, 1), "de": ts(2025, 1, 1), "zh": ts(2025, 6, 1),
              "it": ts(2025, 6, 2)}
    classes = set()
    for order in itertools.permutations(values):
        (record,), _ = detect_conflicts("fam", HEIGHT, {E: {lang: values[lang] for lang in order}},
                                        0.0, stamps, WINDOW)
        classes.add(record["class"])
    assert classes == {CLASS_TIMELINESS}


def test_classify_never_groups_values_on_different_scales():
    # 50% and 50 m share a magnitude, not a scale: no value has a majority, so
    # the older it page is no stale minority.
    by_lang = {"en": parse_value("50%", "en"), "de": parse_value("50 m", "de"),
               "it": parse_value("60 m", "it")}
    stamps = {"en": ts(2025, 6, 1), "de": ts(2025, 6, 2), "it": ts(2020, 1, 1)}
    (record,), findings = detect_conflicts("fam", ATTR, {E: by_lang}, 0.0, stamps, WINDOW)
    assert [f["detail"].split(":")[0] for f in findings] == ["kind-mismatch", "kind-mismatch"]
    assert record["class"] == CLASS_INVALIDITY


def test_detect_conflicts_classifies_each_record():
    by_lang = {"en": parse_value("8,849", "en"), "zh": parse_value("8,849", "zh"),
               "de": parse_value("8.848", "de"), "it": parse_value("n/a", "it")}
    stamps = {"en": ts(2025, 6, 10), "zh": ts(2025, 6, 11), "de": ts(2024, 9, 1),
              "it": ts(2019, 1, 1)}
    (record,), _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, 0.0, stamps, WINDOW)
    assert record["class"] == CLASS_TIMELINESS
    assert record["revision_timestamps"] == {"de": "2024-09-01T00:00:00Z",
                                             "en": "2025-06-10T00:00:00Z",
                                             "zh": "2025-06-11T00:00:00Z"}
    assert record["evidence"].startswith("numeric disagreement on height across en, zh, de ")
    assert record["evidence"].endswith("(revision spread 283 days)")
    (record,), _ = detect_conflicts("fam", HEIGHT, {E: by_lang})
    assert record["class"] == CLASS_INVALIDITY
    assert record["evidence"].endswith("; revision metadata insufficient")


def test_distinct_values_in_a_small_unit_never_form_a_majority():
    # Three different km2 values must stay three groups: converted into m2
    # (nl's unit, the first) each would overflow to inf and read as one
    # majority against nl's older page.
    by_lang = {"nl": parse_value("5 m2", "nl"), "en": parse_value("1" * 305 + " km2", "en"),
               "de": parse_value("2" * 305 + " km2", "de"),
               "it": parse_value("3" * 305 + " km2", "it")}
    stamps = {"nl": ts(2020, 1, 1), "en": ts(2025, 1, 1), "de": ts(2025, 1, 2),
              "it": ts(2025, 1, 3)}
    (record,), findings = detect_conflicts("fam", ATTR, {E: by_lang}, 0.0, stamps, WINDOW)
    assert findings == []
    assert record["class"] == CLASS_INVALIDITY


def test_distinct_bare_numbers_too_large_for_the_first_unit_never_form_a_majority():
    # Read in km (nl's unit) both bare numbers would be inf in metres.
    numeric = {"nl": parse_value("5 km", "nl"), "en": parse_value("2" * 306, "en"),
               "de": parse_value("3" * 306, "de")}
    stamps = {"nl": ts(2020, 1, 1), "en": ts(2025, 1, 1), "de": ts(2025, 1, 2)}
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_INVALIDITY
    numeric["de"] = numeric["en"]
    assert classify(numeric, stamps, WINDOW)[0] == CLASS_TIMELINESS


# -- incompleteness ----------------------------------------------------------

def presence(attributes, languages, grid):
    return {"languages": languages,
            "attributes": [{"name": a.name, "kind": "mapped"} for a in attributes],
            "grid": grid}


def test_schema_incompleteness_gender_only_in_it():
    gender = Attribute("gender", "mapped")
    grid = presence([gender], ["en", "de", "zh", "it", "nl"], [[0, 0, 0, 1, 0]])
    records = detect_incompleteness("fam", grid, {}, ["en", "de", "zh", "it", "nl"])
    langs = sorted(next(iter(r["values"])) for r in records)
    assert langs == ["de", "en", "nl", "zh"]
    assert all(r["class"] == "Incompleteness" for r in records)


def test_attribute_present_everywhere_no_records():
    rank = Attribute("rank", "mapped")
    grid = presence([rank], ["en", "de"], [[1, 1]])
    records = detect_incompleteness("fam", grid, {}, ["en", "de"])
    assert records == []


def test_row_level_incompleteness_names_absent_language():
    q = EntityKey("qid", "Q445860")
    matrix = {q: {lang: [(0, 11)] for lang in ["en", "de", "zh", "it"]}}
    grid = presence([], ["en", "de", "zh", "it", "nl"], [])
    records = detect_incompleteness("fam", grid, matrix, ["en", "de", "zh", "it", "nl"])
    assert len(records) == 1
    assert records[0]["entity"] == q.to_json()
    assert list(records[0]["values"]) == ["nl"]


def test_surface_entities_generate_no_row_level_records():
    s = EntityKey("surface", "everest", "en")
    matrix = {s: {"en": [(0, 0)]}}
    grid = presence([], ["en", "de"], [])
    assert detect_incompleteness("fam", grid, matrix, ["en", "de"]) == []


def test_text_divergence_reported_without_class():
    by_lang = {"en": parse_value("Himalayas", "en"), "de": parse_value("Himalaya", "de")}
    records, findings = detect_conflicts("fam", Attribute("range", "mapped"), {E: by_lang})
    assert records == []
    assert len(findings) == 1
    assert findings[0]["kind"] == "text-divergence"
    same = {"en": parse_value("Nepal", "en"), "de": parse_value("Nepal", "de")}
    assert detect_conflicts("fam", Attribute("country", "mapped"), {E: same}) == ([], [])


def test_zero_vs_nonzero_conflicts_with_infinite_severity():
    by_lang = {"en": parse_value("0", "en"), "de": parse_value("5", "de")}
    records, _ = detect_conflicts("fam", HEIGHT, {E: by_lang}, rel_tol=0.0)
    assert len(records) == 1
    assert relative_difference(0.0, 5.0) == math.inf
    assert records[0]["severity"] is None  # stays standard-JSON parseable
