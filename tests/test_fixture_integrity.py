"""Independent sanity checks of the vendored snapshots.

These deliberately avoid the package's HTML machinery: tables and reference
items are counted with plain regexes straight off the stored HTML, so a
parser bug cannot mask a corrupted fixture (or vice versa).
"""

import json
import re
import subprocess
import sys
from urllib.parse import quote

from conftest import FIXTURE_CACHE, FIXTURE_TITLES as TITLES, REPO

WIKITABLE_RE = re.compile(r'<table class="wikitable[" ]')
REF_ITEM_RE = re.compile(r'<li id="cite_note-')

# One fixture page intentionally nests a wikitable inside a cell; the regex
# sees it, the extractor must not.
NESTED_EXTRA = {("lakes_by_area", "en"): 1}



def load_page(lang, title):
    path = FIXTURE_CACHE / "pages" / lang / (quote(title, safe="") + ".json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_golden_page_snapshot_exists(golden):
    for family, by_lang in golden["tables_per_family"].items():
        for lang in by_lang:
            assert (FIXTURE_CACHE / "pages" / lang /
                    (quote(TITLES[family][lang], safe="") + ".json")).exists()


def test_wikitable_counts_by_regex_match_golden(golden):
    for family, by_lang in golden["tables_per_family"].items():
        for lang, expected in by_lang.items():
            html = load_page(lang, TITLES[family][lang])["html"]
            found = len(WIKITABLE_RE.findall(html))
            assert found == expected + NESTED_EXTRA.get((family, lang), 0), (family, lang)


def test_reference_item_counts_by_regex_match_golden(golden):
    for family, by_lang in golden["references_per_family"].items():
        for lang, expected in by_lang.items():
            html = load_page(lang, TITLES[family][lang])["html"]
            assert len(REF_ITEM_RE.findall(html)) == expected, (family, lang)


def test_langlink_counts_match_snapshot_design(golden):
    langlinks = json.loads((FIXTURE_CACHE / "langlinks.json").read_text(encoding="utf-8"))
    for en_title, expected in golden["language_versions"].items():
        links = langlinks[f"en:{en_title}"]
        codes = [lang for lang, _ in links]
        assert len(set(codes)) == len(codes)
        assert "en" not in codes
        assert len(links) + 1 == expected, en_title


def test_qid_cache_spot_checks():
    qids = json.loads((FIXTURE_CACHE / "qids.json").read_text(encoding="utf-8"))
    assert qids["en:Mount Everest"] == "Q513"
    assert qids["zh:珠穆朗玛峰"] == "Q513"
    assert qids["en:K2"] == "Q43512"
    for key, value in qids.items():
        assert value is None or re.fullmatch(r"Q[1-9][0-9]*", value), key


def test_revision_timestamps_support_the_staleness_story():
    ss_de = load_page("de", "Seven Summits")
    ss_en = load_page("en", "Seven Summits")
    assert ss_de["revision_timestamp"].startswith("2024-")
    assert ss_en["revision_timestamp"].startswith("2025-")
    # Eight-thousander revisions all fall in one week.
    stamps = [load_page(lang, TITLES["eight_thousander"][lang])["revision_timestamp"]
              for lang in TITLES["eight_thousander"]]
    days = sorted(s[:10] for s in stamps)
    assert days[0] >= "2025-06-08" and days[-1] <= "2025-06-14"


def test_fixture_documents_are_wellformed_page_documents():
    from tablediff.mw_client import PageDocument
    count = 0
    for path in (FIXTURE_CACHE / "pages").rglob("*.json"):
        doc = PageDocument.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert doc.html
        assert doc.revision_timestamp <= doc.fetched_at
        count += 1
    assert count == 44


def test_fixture_builder_regenerates_the_vendored_files(tmp_path):
    # --repo-root always: the script first removes <root>/fixtures/cache.
    result = subprocess.run([sys.executable, str(REPO / "scripts" / "build_fixtures.py"),
                             "--repo-root", str(tmp_path)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    vendored = sorted(p.relative_to(REPO).as_posix() for p in FIXTURE_CACHE.rglob("*")
                      if p.is_file())
    assert written == sorted(vendored + ["fixtures/golden/geography_stats.json",
                                         "mappings/geography.json"])
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (REPO / rel).read_bytes(), rel
