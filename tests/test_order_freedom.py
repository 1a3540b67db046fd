"""Metamorphic relations over whole families of the bundled manifests.

Reordering the languages or the families of a run may change the order in
which the report lists things, never what it says.
"""

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from tablediff.manifest import load_manifest, parse_manifest
from tablediff.mw_client import MediaWikiClient
from tablediff.pipeline import PipelineOptions, run_pipeline

from conftest import CLIMBERS_MANIFEST, FIXTURE_CACHE, GEOGRAPHY_MANIFEST

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
