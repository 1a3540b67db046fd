import json
import re
import sys
import threading
import time

import pytest

from tablediff.errors import CacheMiss, NetworkError, PageMissing, SnapshotError
from tablediff.mw_client import (ArticleRef, CachePolicy, MediaWikiClient, PageDocument,
                                 TokenBucket, count_references, is_valid_qid)

from conftest import FakeTransport
from oracles import oracle_scan


def make_client(tmp_path, transport):
    return MediaWikiClient(cache_dir=tmp_path / "cache", transport=transport)


def test_qid_validation():
    assert is_valid_qid("Q513")
    assert is_valid_qid("Q1")
    assert not is_valid_qid("Q0")
    assert not is_valid_qid("Q01")
    assert not is_valid_qid("513")
    assert not is_valid_qid("q513")


def test_article_ref_invariants():
    with pytest.raises(ValueError):
        ArticleRef("EN", "Title")
    with pytest.raises(ValueError):
        ArticleRef("en", "")


def test_fetch_page_caches_and_replays(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    doc1 = client.fetch_page(article)
    calls_after_first = fake_transport.calls
    assert calls_after_first > 0
    doc2 = client.fetch_page(article, CachePolicy.PREFER_CACHE)
    # Second call is served from cache: identical content, zero new requests.
    assert fake_transport.calls == calls_after_first
    assert doc2.html == doc1.html
    assert doc2.revision_id == doc1.revision_id == 42


def test_fetch_page_missing_writes_tombstone(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    missing = ArticleRef("xx", "Nonexistent-Page-ZZZ")
    with pytest.raises(PageMissing):
        client.fetch_page(missing)
    calls = fake_transport.calls
    # Tombstone answers the second call without network.
    with pytest.raises(PageMissing):
        client.fetch_page(missing)
    assert fake_transport.calls == calls
    with pytest.raises(PageMissing):
        client.fetch_page(missing, CachePolicy.OFFLINE_ONLY)


def test_fetch_page_offline_only(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    with pytest.raises(CacheMiss):
        client.fetch_page(ArticleRef("en", "Sample Page"), CachePolicy.OFFLINE_ONLY)
    assert fake_transport.calls == 0
    client.fetch_page(ArticleRef("en", "Sample Page"))
    doc = client.fetch_page(ArticleRef("en", "Sample Page"), CachePolicy.OFFLINE_ONLY)
    assert "wikitable" in doc.html


def test_fetch_page_refresh_bypasses_cache(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    client.fetch_page(ArticleRef("en", "Sample Page"))
    before = fake_transport.calls
    client.fetch_page(ArticleRef("en", "Sample Page"), CachePolicy.REFRESH)
    assert fake_transport.calls > before


@pytest.mark.parametrize("snapshot", [
    '{"trunc', "[]", "{}", '{"language": "en", "title": "Sample Page", "html": "<p>x</p>", '
    '"revision_id": "r1", "revision_timestamp": "2024-01-01T00:00:00Z", '
    '"fetched_at": "2024-01-02T00:00:00Z"}',
], ids=["truncated", "list", "no-fields", "bad-revision-id"])
def test_fetch_page_unreadable_snapshot_raises_and_refresh_refetches(tmp_path, fake_transport,
                                                                    snapshot):
    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    path = client.page_cache_path(article.language, article.title)
    path.parent.mkdir(parents=True)
    path.write_text(snapshot, encoding="utf-8")
    for policy in (CachePolicy.PREFER_CACHE, CachePolicy.OFFLINE_ONLY):
        with pytest.raises(SnapshotError, match="unreadable cache snapshot"):
            client.fetch_page(article, policy)
    assert fake_transport.calls == 0
    assert client.fetch_page(article, CachePolicy.REFRESH).revision_id == 42
    assert client.fetch_page(article, CachePolicy.OFFLINE_ONLY).revision_id == 42


def test_list_language_versions_sorted_with_self(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    refs = client.list_language_versions(ArticleRef("en", "Sample Page"))
    langs = [r.language for r in refs]
    assert langs == sorted(langs)
    assert langs == ["de", "en", "fr"]
    assert len(set(langs)) == len(langs)
    # Cached replay works offline.
    again = client.list_language_versions(ArticleRef("en", "Sample Page"),
                                          CachePolicy.OFFLINE_ONLY)
    assert [r.language for r in again] == langs


def test_list_language_versions_singleton(tmp_path):
    transport = FakeTransport(pages={("en", "Lonely"): {"html": "<p>x</p>", "revid": 7,
                                                        "timestamp": "2025-01-01T00:00:00Z"}})
    client = make_client(tmp_path, transport)
    refs = client.list_language_versions(ArticleRef("en", "Lonely"))
    assert [(r.language, r.title) for r in refs] == [("en", "Lonely")]


def test_list_language_versions_offline_miss(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    with pytest.raises(CacheMiss):
        client.list_language_versions(ArticleRef("en", "Sample Page"),
                                      CachePolicy.OFFLINE_ONLY)


def test_resolve_qid_and_negative_cache(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    assert client.resolve_qids("en", ["Mount Everest"])["Mount Everest"] == "Q513"
    assert client.resolve_qids("en", ["Nonexistent-Page-ZZZ"])["Nonexistent-Page-ZZZ"] is None
    calls = fake_transport.calls
    # Both hits and misses are cached.
    assert client.resolve_qids("en", ["Mount Everest"])["Mount Everest"] == "Q513"
    assert client.resolve_qids("en", ["Nonexistent-Page-ZZZ"])["Nonexistent-Page-ZZZ"] is None
    assert fake_transport.calls == calls


def test_resolve_qids_batches_of_fifty(tmp_path):
    titles = [f"Title {i}" for i in range(60)]
    transport = FakeTransport(qids={("en", t): f"Q{i + 1}" for i, t in enumerate(titles)})
    client = make_client(tmp_path, transport)
    resolved = client.resolve_qids("en", titles)
    assert transport.calls == 2  # ceil(60 / 50)
    assert resolved["Title 0"] == "Q1"
    assert resolved["Title 59"] == "Q60"


def test_resolve_qids_offline_leaves_unknowns_unresolved(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    out = client.resolve_qids("en", ["Mount Everest"], CachePolicy.OFFLINE_ONLY)
    assert out == {"Mount Everest": None}
    assert fake_transport.calls == 0


def test_resolve_qid_follows_redirects(tmp_path):
    class RedirectTransport(FakeTransport):
        def get_json(self, url, params):
            self.calls += 1
            return {"query": {
                "redirects": [{"from": "Everest", "to": "Mount Everest"}],
                "pages": [{"title": "Mount Everest",
                           "pageprops": {"wikibase_item": "Q513"}}],
            }}

    client = make_client(tmp_path, RedirectTransport())
    assert client.resolve_qids("en", ["Everest"])["Everest"] == "Q513"


def test_count_references_fixture_eight_thousander(offline_client):
    doc = offline_client.fetch_page(ArticleRef("en", "Eight-thousander"),
                                    CachePolicy.OFFLINE_ONLY)
    assert count_references(doc) == 264


def make_doc(html):
    from datetime import datetime, timezone
    ts = datetime(2025, 1, 1, tzinfo=timezone.utc)
    return PageDocument(article=ArticleRef("en", "T"), html=html,
                        revision_id=1, revision_timestamp=ts, fetched_at=ts)


def test_count_references_none():
    assert count_references(make_doc("<p>No references here.</p>")) == 0


def test_count_references_dedupes_inline_markers():
    html = (
        "<p>text"
        '<sup class="reference"><a href="#cite_note-a">[1]</a></sup>'
        '<sup class="reference"><a href="#cite_note-a">[1]</a></sup></p>'
        '<ol class="references">'
        '<li id="cite_note-a">alpha</li>'
        '<li id="cite_note-b">beta</li>'
        '<li id="cite_note-c">gamma</li>'
        "</ol>"
    )
    # Three list items; the doubled inline marker must not double-count.
    assert count_references(make_doc(html)) == 3


@pytest.mark.parametrize("html, count", [
    # an ol.references nested inside another one: both count their items
    ('<ol class="references"><li>a<ol class="references"><li>b</li><li>c</li></ol></li></ol>', 3),
    # an li that is not a direct child of the ol is not counted
    ('<ol class="references"><li>a</li><div><li>b</li></div><li><ul><li>c</li></ul></li></ol>', 2),
    # an ol.references inside a wikitable cell still counts
    ('<table class="wikitable"><tr><td>x<ol class="references"><li>a</li><li>b</li></ol>'
     "</td></tr></table>", 2),
    # leaf <li>x</li> tokens count, as do an unclosed li and a self-closing one
    ('<ol class="references"><li>x</li><li>y</li><li/><li>z</ol>', 4),
])
def test_count_references_rules(html, count):
    assert count_references(make_doc(html)) == count == oracle_scan(html)[1]


def test_page_document_round_trip(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    doc = client.fetch_page(ArticleRef("en", "Sample Page"))
    path = client.page_cache_path("en", "Sample Page")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert PageDocument.from_dict(data) == doc


def test_token_bucket_allows_burst_then_throttles():
    bucket = TokenBucket(rate=5)
    start = time.monotonic()
    for _ in range(5):
        bucket.acquire()
    assert time.monotonic() - start < 0.05
    bucket.acquire()  # sixth must wait ~1/5 s
    assert time.monotonic() - start >= 0.15


def test_fetch_page_fixture_contains_wikitable(offline_client):
    doc = offline_client.fetch_page(ArticleRef("en", "Seven Summits"),
                                    CachePolicy.OFFLINE_ONLY)
    assert '<table class="wikitable' in doc.html


def test_resolve_qid_fixture_everest_aligned_across_languages(offline_client):
    en = offline_client.resolve_qids("en", ["Mount Everest"], CachePolicy.OFFLINE_ONLY)
    zh = offline_client.resolve_qids("zh", ["珠穆朗玛峰"], CachePolicy.OFFLINE_ONLY)
    assert en["Mount Everest"] == zh["珠穆朗玛峰"] == "Q513"


def test_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TABLEDIFF_CACHE_DIR", str(tmp_path / "envcache"))
    client = MediaWikiClient()
    assert client.cache_dir == tmp_path / "envcache"


def test_http_transport_retries_once_on_server_error(monkeypatch):
    from tablediff.mw_client import HttpTransport
    transport = HttpTransport(retry_backoff=0.0)

    class Resp:
        def __init__(self, status, payload=None):
            self.status_code = status
            self._payload = payload

        def json(self):
            return self._payload

    answers = [Resp(500), Resp(200, {"ok": True})]
    calls = []
    monkeypatch.setattr(transport.session, "get",
                        lambda url, params=None, timeout=None: calls.append(url) or answers.pop(0))
    assert transport.get_json("http://x/api.php", {}) == {"ok": True}
    assert len(calls) == 2


def test_http_transport_gives_up_after_single_retry(monkeypatch):
    from tablediff.errors import NetworkError
    from tablediff.mw_client import HttpTransport
    transport = HttpTransport(retry_backoff=0.0)

    class Resp:
        status_code = 503
        headers = {}

        def json(self):
            return {}

    monkeypatch.setattr(transport.session, "get",
                        lambda url, params=None, timeout=None: Resp())
    with pytest.raises(NetworkError):
        transport.get_json("http://x/api.php", {})
    assert transport.calls == 2


def test_http_transport_counts_every_call_under_threads(monkeypatch):
    from tablediff.mw_client import HttpTransport
    transport = HttpTransport(retry_backoff=0.0)

    class Resp:
        status_code = 200

        def json(self):
            return {}

    monkeypatch.setattr(transport.session, "get",
                        lambda url, params=None, timeout=None: Resp())
    n_threads, per_thread = 8, 500
    start = threading.Barrier(n_threads)

    def work():
        start.wait()
        for _ in range(per_thread):
            transport.get_json("http://x/api.php", {})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert transport.calls == n_threads * per_thread


def test_write_atomic_two_writers_leave_one_valid_file(tmp_path):
    path = tmp_path / "cache" / "qids.json"
    payloads = [{f"en:Writer {w}": [w] * 200} for w in range(2)]
    errors = []
    start = threading.Barrier(2)

    def work(payload):
        start.wait()
        try:
            for _ in range(200):
                MediaWikiClient._write_atomic(path, payload)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert json.loads(path.read_text(encoding="utf-8")) in payloads
    assert [p.name for p in path.parent.iterdir()] == ["qids.json"]


def test_write_atomic_removes_temp_file_when_write_fails(tmp_path):
    path = tmp_path / "cache" / "qids.json"
    with pytest.raises(TypeError):
        MediaWikiClient._write_atomic(path, {"en:T": object()})
    assert list(path.parent.iterdir()) == []


def test_write_atomic_renders_before_it_makes_a_temp_file(tmp_path, monkeypatch):
    from tablediff import mw_client

    def no_temp_file(*args, **kwargs):
        raise AssertionError("temp file made for a payload that cannot be encoded")

    monkeypatch.setattr(mw_client.tempfile, "mkstemp", no_temp_file)
    with pytest.raises(TypeError):
        MediaWikiClient._write_atomic(tmp_path / "cache" / "qids.json", {"en:T": object()})
    with pytest.raises(ValueError):
        MediaWikiClient._write_atomic(tmp_path / "cache" / "qids.json", {"en:T": float("nan")})


def test_http_transport_waits_retry_after_seconds(monkeypatch):
    from tablediff import mw_client
    transport = mw_client.HttpTransport(retry_backoff=0.5)

    class Resp:
        def __init__(self, status, headers=None, payload=None):
            self.status_code = status
            self.headers = headers or {}
            self._payload = payload

        def json(self):
            return self._payload

    slept = []
    monkeypatch.setattr(mw_client.time, "sleep", slept.append)
    cases = [
        (Resp(429, {"Retry-After": "7"}), 7.0),
        (Resp(503, {"Retry-After": " 3 "}), 3.0),
        (Resp(503, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}), 0.5),
        (Resp(429, {"Retry-After": "-1"}), 0.5),
        (Resp(429), 0.5),
        (Resp(500, {"Retry-After": "9"}), 0.5),
    ]
    for first, expected in cases:
        answers = [first, Resp(200, payload={"ok": True})]
        monkeypatch.setattr(transport.session, "get",
                            lambda url, params=None, timeout=None: answers.pop(0))
        assert transport.get_json("http://x/api.php", {}) == {"ok": True}
        assert slept.pop() == expected
    assert slept == []


def _counting_sessions(monkeypatch):
    """Replace ``requests.Session`` with a stub; returns the list of sessions built."""
    import requests

    built = []

    class Resp:
        status_code = 200

        def json(self):
            return {"ok": True}

    class CountingSession:
        def __init__(self):
            time.sleep(0.01)  # widens the window in which a second thread could build one
            self.headers = {}
            built.append(self)

        def get(self, url, params=None, timeout=None):
            return Resp()

    monkeypatch.setattr(requests, "Session", CountingSession)
    return built


def test_http_transport_builds_its_session_on_the_first_request(monkeypatch):
    from tablediff.mw_client import DEFAULT_USER_AGENT, HttpTransport
    built = _counting_sessions(monkeypatch)
    transport = HttpTransport(retry_backoff=0.0)
    assert built == []
    assert transport.get_json("http://x/api.php", {}) == {"ok": True}
    assert transport.get_json("http://x/api.php", {}) == {"ok": True}
    assert len(built) == 1 and transport.session is built[0]
    assert built[0].headers == {"User-Agent": DEFAULT_USER_AGENT}
    assert transport.calls == 2
    assert HttpTransport(user_agent="probe/1.0").session.headers == {"User-Agent": "probe/1.0"}


def test_http_transport_threads_sending_first_requests_together_share_one_session(monkeypatch):
    from tablediff.mw_client import HttpTransport
    built = _counting_sessions(monkeypatch)
    transport = HttpTransport(retry_backoff=0.0)
    n_threads = 8
    start = threading.Barrier(n_threads)
    answers = []

    def work():
        start.wait(timeout=30)
        answers.append(transport.get_json("http://x/api.php", {}))

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [{"ok": True}] * n_threads
    assert len(built) == 1
    assert transport.calls == n_threads


def test_default_transport_sends_nothing_under_the_tests(tmp_path):
    # conftest's no_network fixture: a live client that misses its cache fails offline.
    pytest.importorskip("requests")
    client = MediaWikiClient(cache_dir=tmp_path / "cache")
    with pytest.raises(NetworkError, match="tests send no requests"):
        client.fetch_page(ArticleRef("en", "Mount Everest"), CachePolicy.PREFER_CACHE)
    assert client.transport.calls == 1
    assert not (tmp_path / "cache" / "pages").exists()


class _MalformedAnswer(FakeTransport):
    """Answers one request shape with a fixed body and every other as FakeTransport does."""

    def __init__(self, shape, answer, base):
        super().__init__(pages=base.pages, langlinks=base.langlinks, qids=base.qids)
        self.shape, self.answer = shape, answer

    def get_json(self, url, params):
        shape = params["prop"] if params["action"] == "query" else params["action"]
        if shape == self.shape:
            self.calls += 1
            return self.answer
        return super().get_json(url, params)


def _langlinks_answer(links, **rest):
    return {"query": {"pages": [{"title": "Sample Page", "langlinks": links}]}, **rest}


MALFORMED_ANSWERS = {
    "parse": [
        {"warnings": {"main": {"warnings": "Unrecognized parameter"}}},
        [], None, "<html>", {"error": "boom"},
        {"parse": {"text": "<p>x</p>"}},
        {"parse": {"revid": 42}},
        {"parse": {"text": {"html": "<p>x</p>"}, "revid": 42}},
        {"parse": {"text": "", "revid": 42}},
        {"parse": {"text": 7, "revid": 42}},
        {"parse": {"text": "<p>x</p>", "revid": "latest"}},
        {"parse": {"text": "<p>x</p>", "revid": None}},
        {"parse": {"text": {"*": "<p>x</p>"}, "revid": 42}},
    ],
    "revisions": [
        {"query": []},
        {"query": {"pages": {"42": {}}}},
        {"query": {"pages": [{"revisions": []}]}},
        {"query": {"pages": [{"revisions": [{"revid": 42}]}]}},
        {"query": {"pages": [{"revisions": [{"timestamp": "yesterday"}]}]}},
        {"query": {"pages": [{"revisions": [{"timestamp": 1748736000}]}]}},
    ],
    "langlinks": [
        {"query": "Sample Page"},
        {"query": {"pages": [None]}},
        _langlinks_answer({"de": "Beispielseite"}),
        _langlinks_answer([{"title": "Beispielseite"}]),
        _langlinks_answer([{"lang": "de"}]),
        _langlinks_answer([{"lang": "DE", "title": "Beispielseite"}]),
        _langlinks_answer([{"lang": "de", "title": 7}]),
        _langlinks_answer([], **{"continue": {"continue": "||"}}),
        _langlinks_answer([{"lang": "de", "*": "Beispielseite"}]),
    ],
    "pageprops": [
        {"query": []},
        {"query": {"pages": [7]}},
        {"query": {"pages": [{"title": "Thing", "pageprops": ["Q99"]}]}},
        {"query": {"pages": [{"title": ["Thing"]}]}},
        {"query": {"normalized": [{"from": "Thing"}]}},
        {"query": {"redirects": [{"from": "Thing", "to": ["Thing 2"]}]}},
    ],
}


@pytest.mark.parametrize("shape, answer", [
    pytest.param(shape, answer, id=f"{shape}-{i}")
    for shape, answers in MALFORMED_ANSWERS.items() for i, answer in enumerate(answers)])
def test_malformed_api_answer_raises_network_error_naming_the_request(tmp_path, fake_transport,
                                                                     shape, answer):
    from tablediff.errors import NetworkError
    client = make_client(tmp_path, _MalformedAnswer(shape, answer, fake_transport))
    article = ArticleRef("en", "Sample Page")
    request = {"parse": "action=parse of en:Sample Page",
               "revisions": "prop=revisions of en:Sample Page revid 42",
               "langlinks": "prop=langlinks of en:Sample Page",
               "pageprops": "prop=pageprops of 1 en titles from 'Thing'"}[shape]
    with pytest.raises(NetworkError, match=f"^malformed API answer to {re.escape(request)}: "):
        if shape == "langlinks":
            client.list_language_versions(article)
        elif shape == "pageprops":
            client.resolve_qids("en", ["Thing"])
        else:
            client.fetch_page(article)
    client.save()
    assert not (tmp_path / "cache" / "pages").exists()
    assert not (tmp_path / "cache" / "qids.json").exists()
    assert not (tmp_path / "cache" / "langlinks.json").exists()


def test_revision_later_than_the_local_clock_is_fetched_cached_and_read_offline(tmp_path,
                                                                                fake_transport):
    # The API stamps revisions by its own clock and fetched_at is this host's:
    # on a host whose clock runs behind, a just-edited page is still a page.
    fake_transport.pages[("en", "Sample Page")]["timestamp"] = "2999-01-01T00:00:00Z"
    article = ArticleRef("en", "Sample Page")
    doc = make_client(tmp_path, fake_transport).fetch_page(article)
    assert doc.revision_timestamp > doc.fetched_at
    assert doc.to_dict()["revision_timestamp"] == "2999-01-01T00:00:00Z"
    calls = fake_transport.calls
    cached = make_client(tmp_path, fake_transport).fetch_page(article, CachePolicy.OFFLINE_ONLY)
    assert fake_transport.calls == calls
    assert cached.to_dict() == doc.to_dict()


# -- write-behind QID and langlink maps ---------------------------------------

def test_lookups_write_nothing_until_save(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    client.list_language_versions(ArticleRef("en", "Sample Page"))
    assert client.resolve_qids("en", ["Mount Everest"])["Mount Everest"] == "Q513"
    assert not (tmp_path / "cache" / "qids.json").exists()
    assert not (tmp_path / "cache" / "langlinks.json").exists()

    client.save()
    qids = json.loads((tmp_path / "cache" / "qids.json").read_text(encoding="utf-8"))
    langlinks = json.loads((tmp_path / "cache" / "langlinks.json").read_text(encoding="utf-8"))
    assert qids == {"en:Mount Everest": "Q513"}
    assert langlinks == {"en:Sample Page": [["de", "Beispielseite"], ["fr", "Page exemple"]]}


def test_saved_cache_files_are_sorted_two_space_json(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    client.fetch_page(ArticleRef("en", "Sample Page"))
    client.list_language_versions(ArticleRef("en", "Sample Page"))
    client.resolve_qids("en", ["Mount Everest", "Sample Page"])
    client.save()
    paths = sorted((tmp_path / "cache").rglob("*.json"))
    assert {p.name for p in paths} >= {"qids.json", "langlinks.json"}
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=2, sort_keys=True)


def test_save_with_nothing_unsaved_touches_no_file(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    client.save()
    assert not (tmp_path / "cache").exists()

    client.resolve_qids("en", ["Mount Everest"])
    client.save()
    written = {p: p.stat().st_mtime_ns for p in (tmp_path / "cache").iterdir()}
    client.resolve_qids("en", ["Mount Everest"])  # a cache hit leaves nothing unsaved
    client.save()
    assert {p: p.stat().st_mtime_ns for p in (tmp_path / "cache").iterdir()} == written


def test_save_merges_fresh_over_disk_over_memory(tmp_path, fake_transport):
    path = tmp_path / "cache" / "qids.json"
    MediaWikiClient._write_atomic(path, {"en:Old": "Q1", "en:Mount Everest": "Q2"})
    client = make_client(tmp_path, fake_transport)
    assert client.resolve_qids("en", ["Old"])["Old"] == "Q1"  # loads the map into memory
    # Another client saves meanwhile: it changes one entry and adds another.
    MediaWikiClient._write_atomic(path, {"en:Old": "Q10", "en:Mount Everest": "Q2",
                                         "en:Other": "Q3"})
    refreshed = client.resolve_qids("en", ["Mount Everest"], CachePolicy.REFRESH)
    assert refreshed == {"Mount Everest": "Q513"}
    client.save()
    expected = {"en:Old": "Q10", "en:Mount Everest": "Q513", "en:Other": "Q3"}
    assert json.loads(path.read_text(encoding="utf-8")) == expected
    assert client.resolve_qids("en", ["Other"], CachePolicy.OFFLINE_ONLY)["Other"] == "Q3"


def test_maps_are_read_once_when_the_client_is_built(tmp_path, fake_transport):
    cache = tmp_path / "cache"
    MediaWikiClient._write_atomic(cache / "qids.json", {"en:Old": "Q1"})
    MediaWikiClient._write_atomic(cache / "langlinks.json", {"en:Old": [["de", "Alt"]]})
    client = make_client(tmp_path, fake_transport)
    (cache / "qids.json").unlink()
    (cache / "langlinks.json").unlink()
    assert client.resolve_qids("en", ["Old"], CachePolicy.OFFLINE_ONLY) == {"Old": "Q1"}
    assert client.list_language_versions(ArticleRef("en", "Old"), CachePolicy.OFFLINE_ONLY) == [
        ArticleRef("de", "Alt"), ArticleRef("en", "Old")]
    assert fake_transport.calls == 0


@pytest.mark.parametrize("name", ["qids.json", "langlinks.json"])
@pytest.mark.parametrize("content", ['{"en:Mount Ev', "[1, 2]", '"Q513"', None],
                         ids=["truncated", "list", "string", "directory"])
def test_unreadable_map_raises_snapshot_error_naming_the_file(tmp_path, name, content):
    path = tmp_path / "cache" / name
    if content is None:
        path.mkdir(parents=True)
    else:
        path.parent.mkdir()
        path.write_text(content, encoding="utf-8")
    with pytest.raises(SnapshotError, match=re.escape(str(path))):
        MediaWikiClient(cache_dir=tmp_path / "cache")


@pytest.mark.parametrize("entry", [5, "de", {"de": "Beispielseite"}, [["de"]],
                                   [["de", "Beispielseite"], "fr"], [["DE", "Beispielseite"]],
                                   [["de", ""]], [["de", 5]], [[None, "Beispielseite"]]],
                         ids=["number", "string", "object", "one-item", "string-pair",
                              "uppercase-language", "empty-title", "number-title",
                              "null-language"])
def test_bad_langlinks_entry_raises_snapshot_error_and_refresh_refetches(tmp_path,
                                                                        fake_transport, entry):
    path = tmp_path / "cache" / "langlinks.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"en:Sample Page": entry}), encoding="utf-8")
    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    for policy in (CachePolicy.PREFER_CACHE, CachePolicy.OFFLINE_ONLY):
        with pytest.raises(SnapshotError, match=re.escape(f"'en:Sample Page' in {path}")):
            client.list_language_versions(article, policy)
    assert fake_transport.calls == 0
    refs = client.list_language_versions(article, CachePolicy.REFRESH)
    assert [r.language for r in refs] == ["de", "en", "fr"]
    client.save()
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "en:Sample Page": [["de", "Beispielseite"], ["fr", "Page exemple"]]}


@pytest.mark.parametrize("entry", ["Q0", "Q01", "513", 513, ["Q513"], ""],
                         ids=["Q0", "leading-zero", "no-Q", "number", "list", "empty"])
def test_bad_qids_entry_raises_snapshot_error_and_refresh_refetches(tmp_path, fake_transport,
                                                                   entry):
    path = tmp_path / "cache" / "qids.json"
    path.parent.mkdir()
    path.write_text(json.dumps({"en:Mount Everest": entry, "en:Thing": "Q99"}), encoding="utf-8")
    client = make_client(tmp_path, fake_transport)
    for policy in (CachePolicy.PREFER_CACHE, CachePolicy.OFFLINE_ONLY):
        with pytest.raises(SnapshotError, match=re.escape(f"'en:Mount Everest' in {path}")):
            client.resolve_qids("en", ["Thing", "Mount Everest"], policy)
    assert fake_transport.calls == 0
    assert client.resolve_qids("en", ["Mount Everest"], CachePolicy.REFRESH) == {
        "Mount Everest": "Q513"}
    client.save()
    assert json.loads(path.read_text(encoding="utf-8")) == {"en:Mount Everest": "Q513",
                                                            "en:Thing": "Q99"}


def _resolve_and_save_each(cache_dir, writer, n_titles, start):
    titles = [f"Writer {writer} title {i}" for i in range(n_titles)]
    transport = FakeTransport(qids={("en", t): f"Q{writer * 1000 + i + 1}"
                                    for i, t in enumerate(titles)})
    client = MediaWikiClient(cache_dir=cache_dir, rate_limit=1e9, transport=transport)
    start.wait(timeout=60)
    for title in titles:
        client.resolve_qids("en", [title])
        client.save()


def test_processes_sharing_a_cache_keep_every_qid(tmp_path):
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    n_writers, n_titles = 4, 60
    start = ctx.Barrier(n_writers)
    writers = [ctx.Process(target=_resolve_and_save_each,
                           args=(tmp_path / "cache", w, n_titles, start))
               for w in range(n_writers)]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=120)
    assert not any(writer.is_alive() for writer in writers)
    assert [writer.exitcode for writer in writers] == [0] * n_writers
    saved = json.loads((tmp_path / "cache" / "qids.json").read_text(encoding="utf-8"))
    assert saved == {f"en:Writer {w} title {i}": f"Q{w * 1000 + i + 1}"
                     for w in range(n_writers) for i in range(n_titles)}


# -- stored tables -------------------------------------------------------------

def _stored(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_vendored_stored_scan_is_the_scan_of_its_snapshot():
    """Each committed stored form is, byte for byte, the form of build_grid's tables."""
    import hashlib
    from tablediff.htmldom import SCAN_VERSION, parse_html
    from tablediff.table_parser import build_grid
    from conftest import FIXTURE_CACHE

    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    pages = sorted(FIXTURE_CACHE.glob("pages/*/*.json"))
    assert len(pages) == 44
    for page in pages:
        snapshot = json.loads(page.read_text(encoding="utf-8"))
        html = snapshot["html"]
        scan = parse_html(html)
        tables = []
        for raw_rows in scan.tables:
            grid, split = build_grid(raw_rows)
            cells = [cell for row in grid for cell in row]
            tables.append({
                "header_rows": split, "n_cols": len(grid[0]),
                "texts": "\n".join(cell.text for cell in cells),
                "links": [[i, cell.link_title] for i, cell in enumerate(cells)
                          if cell.link_title is not None],
                "copies": [i for i, cell in enumerate(cells) if cell.is_spanned_copy]})
        expected = {"scan_version": SCAN_VERSION,
                    "html_sha256": hashlib.sha256(html.encode("utf-8")).hexdigest(),
                    "references": scan.references, "tables": tables}
        path = client.scan_cache_path(snapshot["language"], snapshot["title"])
        assert path.read_text(encoding="utf-8") == json.dumps(
            expected, ensure_ascii=False, separators=(",", ":")), page.name


def test_a_page_just_fetched_stores_no_scan_and_its_first_read_from_the_cache_does(
        tmp_path, fake_transport):
    from tablediff.table_parser import extract_tables

    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    fetched = client.fetch_page(article)
    assert extract_tables(fetched)
    assert not (tmp_path / "cache" / "scans").exists()

    cached = client.fetch_page(article)
    assert cached.contents == fetched.contents
    assert fake_transport.calls == 2  # the parse and the revision request of the first fetch
    stored = _stored(client.scan_cache_path("en", "Sample Page"))
    assert stored["references"] == 0
    assert stored["tables"] == [{"header_rows": 1, "n_cols": 1, "texts": "Name\nThing",
                                 "links": [[1, "Thing"]], "copies": []}]
    assert client.fetch_page(article).contents == fetched.contents


def test_cache_files_get_the_mode_open_gives(tmp_path, fake_transport):
    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    client.fetch_page(article)
    client.fetch_page(article).contents  # its first read from the cache stores its tables
    client.resolve_qids("en", ["Thing"])
    client.save()
    written = [client.page_cache_path("en", "Sample Page"),
               client.scan_cache_path("en", "Sample Page"), tmp_path / "cache" / "qids.json"]
    for path in written:
        plain = path.parent / "made-by-open"
        with open(plain, "w", encoding="utf-8"):
            pass
        assert path.stat().st_mode == plain.stat().st_mode, path
        plain.unlink()


def _table(stored, **fields):
    """``stored`` with its one table's fields changed."""
    return {**stored, "tables": [{**stored["tables"][0], **fields}]}


# Each bad stored form of the two-cell sample page (one column, a header row and
# a linked body cell), as the text to store or the object to store as JSON, and
# a part of the DEBUG line that names the check it fails.
BAD_SCANS = {
    "truncated": (lambda s: json.dumps(s)[:-20], "JSONDecodeError"),
    "not UTF-8": (lambda s: json.dumps(s).replace("Name", "N\udcffame"), "UnicodeDecodeError"),
    "not a JSON object": (lambda s: [s], "not a JSON object"),
    "other html": (lambda s: {**s, "html_sha256": "0" * 64}, "html_sha256"),
    "no version": (lambda s: {**s, "scan_version": None}, "scan_version None"),
    "version true": (lambda s: {**s, "scan_version": True}, "scan_version True"),
    "version 1": (lambda s: {**s, "scan_version": 1, "tables": [
        [[["Name", None, True, 1, 1]], [["Thing", "Thing", False, 1, 1]]]]}, "scan_version 1"),
    "no tables": (lambda s: {**s, "tables": None}, "tables is not a list"),
    "references -1": (lambda s: {**s, "references": -1}, "references -1"),
    "references false": (lambda s: {**s, "references": False}, "references False"),
    "no references": (lambda s: {k: v for k, v in s.items() if k != "references"},
                      "references None"),
    "table of rows": (lambda s: {**s, "tables": [[[["Name", None, True, 1, 1]]]]},
                      "table is not a JSON object"),
    "empty table": (lambda s: {**s, "tables": [{}]}, "n_cols None"),
    "empty row": (lambda s: _table(s, n_cols=0), "n_cols 0"),
    "n_cols true": (lambda s: _table(s, n_cols=True), "n_cols True"),
    "n_cols 1.0": (lambda s: _table(s, n_cols=1.0), "n_cols 1.0"),
    "text not a string": (lambda s: _table(s, texts=["Name", "Thing"]), "texts is not a string"),
    "texts short of a row": (lambda s: _table(s, n_cols=3, header_rows=1),
                             "2 texts do not fill rows of 3"),
    "header_rows 0": (lambda s: _table(s, header_rows=0), "header_rows 0"),
    "header_rows true": (lambda s: _table(s, header_rows=True), "header_rows True"),
    "header_rows past the rows": (lambda s: _table(s, header_rows=3), "header_rows 3"),
    "links not a list": (lambda s: _table(s, links=None), "links or copies"),
    "no copies": (lambda s: {**s, "tables": [{k: v for k, v in s["tables"][0].items()
                                              if k != "copies"}]}, "links or copies"),
    "link index past the cells": (lambda s: _table(s, links=[[2, "Thing"]]), "link [2, 'Thing']"),
    "link index -1": (lambda s: _table(s, links=[[-1, "Thing"]]), "link [-1, 'Thing']"),
    "link index true": (lambda s: _table(s, links=[[True, "Thing"]]), "link [True, 'Thing']"),
    "link of three": (lambda s: _table(s, links=[[1, "Thing", 1]]), "link [1, 'Thing', 1]"),
    "link a string": (lambda s: _table(s, links=["Thing"]), "link 'Thing'"),
    "link not a string": (lambda s: _table(s, links=[[1, 5]]), "link [1, 5]"),
    "copy past the cells": (lambda s: _table(s, copies=[2]), "copy 2"),
    "copy true": (lambda s: _table(s, copies=[True]), "copy True"),
}


@pytest.mark.parametrize("bad", sorted(BAD_SCANS))
def test_a_bad_stored_scan_is_parsed_afresh_and_rewritten(tmp_path, monkeypatch, fake_transport,
                                                          caplog, bad):
    from tablediff import mw_client
    from tablediff.htmldom import parse_html

    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    client.fetch_page(article)
    expected = client.fetch_page(article).contents
    path = client.scan_cache_path("en", "Sample Page")
    good = path.read_text(encoding="utf-8")
    spoil, check = BAD_SCANS[bad]
    stored = spoil(json.loads(good))
    text = stored if isinstance(stored, str) else json.dumps(stored)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    parsed = []
    monkeypatch.setattr(mw_client, "parse_html",
                        lambda html: parsed.append(html) or parse_html(html))
    with caplog.at_level("DEBUG", logger="tablediff.mw_client"):
        assert client.fetch_page(article).contents == expected
    assert len(parsed) == 1
    assert path.read_text(encoding="utf-8") == good
    refused = [(r.levelname, r.getMessage()) for r in caplog.records
               if r.name == "tablediff.mw_client"]
    assert len(refused) == 1, refused
    level, message = refused[0]
    assert level == "DEBUG" and str(path) in message and check in message, message


def test_a_missing_stored_scan_is_not_logged(tmp_path, fake_transport, caplog):
    client = make_client(tmp_path, fake_transport)
    article = ArticleRef("en", "Sample Page")
    client.fetch_page(article)
    with caplog.at_level("DEBUG", logger="tablediff.mw_client"):
        assert client.fetch_page(article).contents.tables
        assert client.fetch_page(article).contents.tables  # its stored tables, taken
    assert not [r for r in caplog.records if r.name == "tablediff.mw_client"]
    assert client.scan_cache_path("en", "Sample Page").exists()
