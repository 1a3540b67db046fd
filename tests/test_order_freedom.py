"""Metamorphic relations over whole families.

Reordering the languages or the families of a bundled manifest, or the body
rows of a table, may change the order in which the report lists things,
never what it says. An edition that copies another adds no disagreement.
"""

import json
import re
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from tablediff.manifest import load_manifest, parse_manifest
from tablediff.mw_client import MediaWikiClient
from tablediff.pipeline import PipelineOptions, run_pipeline
from tablediff.schema_align import load_header_mapping
from tablediff.value_analysis import CLASS_INCOMPLETENESS

from conftest import (CLIMBERS_MANIFEST, FIXTURE_CACHE, GEOGRAPHY_MANIFEST, HEADER_MAP,
                      load_fixture_builder)

# The languages every family of both bundled manifests lists, in their order.
LANGUAGES = ["en", "de", "zh", "it", "nl"]

# The language lists that evidence strings join in the run's language order.
EVIDENCE_LANGUAGES = re.compile(r"\b(across|present in) ([a-z-]+(?:, [a-z-]+)*)")


def _run(manifest, header_mapping, languages=None) -> dict:
    return run_pipeline(manifest, header_mapping, MediaWikiClient(cache_dir=FIXTURE_CACHE),
                        PipelineOptions(offline=True, languages=languages))


def _sorted_evidence(evidence: str) -> str:
    return EVIDENCE_LANGUAGES.sub(
        lambda m: f"{m.group(1)} {', '.join(sorted(m.group(2).split(', ')))}", evidence)


def _order_free(family: dict) -> tuple[list[str], list[str]]:
    """A family's records and findings with every part that follows language order sorted.

    ``sort_keys`` sorts each record's ``values`` and ``revision_timestamps``.
    """
    records = [{**record, "evidence": _sorted_evidence(record["evidence"])}
               for record in family["records"]]
    findings = [{**finding, "languages": sorted(finding["languages"])}
                if "languages" in finding else finding for finding in family["findings"]]
    return (sorted(json.dumps(r, sort_keys=True) for r in records),
            sorted(json.dumps(f, sort_keys=True) for f in findings))


@pytest.fixture(scope="module")
def listed_order_reports(geography_report, climbers_report) -> dict:
    """The report of each bundled manifest in the languages' listed order."""
    return {GEOGRAPHY_MANIFEST: geography_report, CLIMBERS_MANIFEST: climbers_report}


@pytest.mark.parametrize("manifest_path", [CLIMBERS_MANIFEST, GEOGRAPHY_MANIFEST],
                         ids=["climbers", "geography"])
@settings(max_examples=10, deadline=None)
@given(languages=st.permutations(LANGUAGES))
def test_permuting_languages_keeps_each_familys_records_and_findings(
        manifest_path, header_mapping, listed_order_reports, languages):
    manifest = load_manifest(manifest_path)
    assert all(family.languages == LANGUAGES for family in manifest.families)
    listed = listed_order_reports[manifest_path]
    permuted = _run(manifest, header_mapping, languages)
    assert permuted["options"]["languages"] == languages
    assert ([family["id"] for family in permuted["families"]]
            == [family["id"] for family in listed["families"]])
    for before, after in zip(listed["families"], permuted["families"]):
        assert _order_free(after) == _order_free(before), before["id"]


@settings(max_examples=4, deadline=None)
@given(order=st.permutations(range(9)))
def test_permuting_families_keeps_each_family_the_corpus_and_the_epoch(
        header_mapping, geography_report, order):
    raw = json.loads(GEOGRAPHY_MANIFEST.read_text(encoding="utf-8"))
    assert len(raw["families"]) == len(order)
    raw["families"] = [raw["families"][i] for i in order]
    permuted = _run(parse_manifest(raw), header_mapping)
    by_id = {family["id"]: family for family in geography_report["families"]}
    assert [family["id"] for family in permuted["families"]] == [
        geography_report["families"][i]["id"] for i in order]
    for family in permuted["families"]:
        assert family == by_id[family["id"]], family["id"]
    assert permuted["corpus"] == geography_report["corpus"]
    assert permuted["cache_epoch"] == geography_report["cache_epoch"]


# -- families built from the fixture builder's page helpers --------------------

bf = load_fixture_builder()

# A family in the vendored pages' shape, kept out of ``bf.FAMILIES``: its en
# pages leave death rates blank, and de reads Everest's height as 8,848 m.
PEAKS_ID = "order_free_peaks"
PEAKS = {
    "kind": "mountain",
    "titles": bf.loc("Order-free peaks", "Ordnungsfreie Gipfel", "无序山峰", "Vette senza ordine",
                     "Ordeloze toppen"),
    "entities": bf.SEVEN_SUMMITS,
    "revisions": {"en": "2025-06-10T08:00:00Z", "de": "2024-09-01T10:00:00Z",
                  "zh": "2025-06-11T09:00:00Z", "it": "2025-06-12T10:00:00Z",
                  "nl": "2025-06-13T11:00:00Z"},
    "pages": {lang: (3, 4, 9, 2, ["rank", "name", "height", "death_rate", "continent",
                                  "first_ascent"]) for lang in bf.LANGS},
}

# A language code with no separators of its own, so its numbers read as en's.
COPY_LANGUAGE = "sco"


def _peaks_pages() -> dict[str, str]:
    return {lang: bf.build_page_html(PEAKS_ID, PEAKS, lang, spec)
            for lang, spec in PEAKS["pages"].items()}


def _write_peaks(cache, pages: dict[str, str]) -> None:
    """A cache holding ``PEAKS`` with ``pages`` as ``{language: html}``.

    A language outside ``PEAKS`` copies en: en's title, revision and links.
    """
    seed = PEAKS["titles"]["en"]
    qids, links = {}, []
    for lang, html in pages.items():
        source = lang if lang in PEAKS["pages"] else "en"
        title = PEAKS["titles"][source]
        path = cache / "pages" / lang / f"{quote(title, safe='')}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "language": lang, "title": title, "revision_id": bf.revision_id(PEAKS_ID, source),
            "revision_timestamp": PEAKS["revisions"][source], "fetched_at": bf.FETCHED_AT,
            "html": html}), encoding="utf-8")
        for entity in PEAKS["entities"]:
            qids[f"{lang}:{entity['titles'].get(source, entity['titles']['en'])}"] = entity["qid"]
        if lang != "en":
            links.append([lang, title])
    (cache / "qids.json").write_text(json.dumps(qids), encoding="utf-8")
    (cache / "langlinks.json").write_text(json.dumps({f"en:{seed}": links}), encoding="utf-8")


def _run_peaks(cache, header_mapping, languages) -> dict:
    manifest = parse_manifest({"families": [{
        "id": PEAKS_ID, "seed": {"language": "en", "title": PEAKS["titles"]["en"]},
        "languages": languages}]})
    family, = run_pipeline(manifest, header_mapping, MediaWikiClient(cache_dir=cache),
                           PipelineOptions(offline=True))["families"]
    assert [e["status"] for e in family["editions"]] == ["ok"] * len(languages)
    return family


def _conflicts(family: dict) -> list[tuple[str, str]]:
    return sorted((json.dumps(r["entity"], sort_keys=True), r["attribute"])
                  for r in family["records"] if r["class"] != CLASS_INCOMPLETENESS)


@pytest.fixture(scope="module")
def peaks_family(tmp_path_factory, header_mapping) -> dict:
    cache = tmp_path_factory.mktemp("peaks")
    _write_peaks(cache, _peaks_pages())
    return _run_peaks(cache, header_mapping, bf.LANGS)


@settings(max_examples=6, deadline=None)
@given(language=st.sampled_from(bf.LANGS),
       order=st.permutations(range(len(PEAKS["entities"]))))
def test_permuting_the_body_rows_of_a_table_of_distinct_entities_keeps_the_records(
        tmp_path_factory, header_mapping, peaks_family, language, order):
    pages = _peaks_pages()
    main = bf.build_main_table(PEAKS_ID, PEAKS, language, PEAKS["pages"][language])
    assert main in pages[language]
    head, body = main.split("<tbody>\n")
    rows, tail = body.split("\n</tbody>")
    header, *body_rows = rows.split("\n")
    assert len(body_rows) == len(order)
    permuted = "\n".join([header] + [body_rows[i] for i in order])
    pages[language] = pages[language].replace(main, f"{head}<tbody>\n{permuted}\n</tbody>{tail}")

    cache = tmp_path_factory.mktemp("permuted")
    _write_peaks(cache, pages)
    family = _run_peaks(cache, header_mapping, bf.LANGS)
    assert _conflicts(peaks_family)
    assert family["records"] == peaks_family["records"]


def test_an_edition_copying_the_en_cells_adds_no_conflict_record(tmp_path, peaks_family):
    raw = json.loads(HEADER_MAP.read_text(encoding="utf-8"))
    for attribute in raw["attributes"]:
        if "en" in attribute["aliases"]:
            attribute["aliases"][COPY_LANGUAGE] = attribute["aliases"]["en"]
    (tmp_path / "map.json").write_text(json.dumps(raw), encoding="utf-8")
    pages = _peaks_pages()
    pages[COPY_LANGUAGE] = pages["en"]
    _write_peaks(tmp_path / "cache", pages)

    family = _run_peaks(tmp_path / "cache", load_header_mapping(tmp_path / "map.json"),
                        bf.LANGS + [COPY_LANGUAGE])
    assert _conflicts(peaks_family)
    assert _conflicts(family) == _conflicts(peaks_family)
    copied = [r["values"] for r in family["records"] if r["class"] != CLASS_INCOMPLETENESS]
    assert all(values.get(COPY_LANGUAGE) == values.get("en") for values in copied)
