"""In-memory stand-in for the MediaWiki API, serving a synthetic corpus.

It answers the four request shapes ``MediaWikiClient`` sends (``action=parse``,
``prop=revisions``, ``prop=langlinks`` and ``prop=pageprops`` batches) from
dicts, so every lookup is O(1) and the benchmark never times itself. It
records what it served, so the benchmark can compare the cache the client
wrote against it.
"""

from __future__ import annotations

import threading

from corpus import Corpus

URL_PREFIX = "bench://"
API_URL_TEMPLATE = URL_PREFIX + "{lang}"


class FakeTransport:
    """Drop-in for ``HttpTransport``: ``get_json(url, params)`` and ``calls``."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._revisions = {(lang, doc["revision_id"]): doc["revision_timestamp"]
                           for (lang, _title), doc in corpus.pages.items()}
        self._lock = threading.Lock()
        self.calls = 0
        self.served_pages: set[tuple[str, str]] = set()
        self.served_qids: set[str] = set()
        self.served_langlinks: set[str] = set()

    def get_json(self, url: str, params: dict) -> dict:
        if not url.startswith(URL_PREFIX):
            raise ValueError(f"unexpected API url {url!r}")
        lang = url[len(URL_PREFIX):]
        with self._lock:
            self.calls += 1
        if params.get("action") == "parse":
            return self._parse(lang, params["page"])
        prop = params.get("prop")
        if prop == "revisions":
            return self._revision(lang, int(params["revids"]))
        if prop == "langlinks":
            return self._langlinks(lang, params["titles"])
        if prop == "pageprops":
            return self._pageprops(lang, params["titles"].split("|"))
        raise ValueError(f"unexpected request {params!r}")

    def _parse(self, lang: str, title: str) -> dict:
        with self._lock:
            self.served_pages.add((lang, title))
        doc = self.corpus.pages.get((lang, title))
        if doc is None:
            return {"error": {"code": "missingtitle"}}
        return {"parse": {"title": title, "revid": doc["revision_id"], "text": doc["html"]}}

    def _revision(self, lang: str, revid: int) -> dict:
        timestamp = self._revisions.get((lang, revid))
        if timestamp is None:
            return {"query": {"pages": [{"missing": True}]}}
        return {"query": {"pages": [{"revisions": [{"revid": revid, "timestamp": timestamp}]}]}}

    def _langlinks(self, lang: str, title: str) -> dict:
        key = f"{lang}:{title}"
        links = self.corpus.langlinks.get(key)
        if links is None:
            return {"query": {"pages": [{"title": title, "missing": True}]}}
        with self._lock:
            self.served_langlinks.add(key)
        return {"query": {"pages": [{"title": title, "langlinks": [
            {"lang": code, "title": linked} for code, linked in links]}]}}

    def _pageprops(self, lang: str, titles: list[str]) -> dict:
        pages = []
        for title in titles:
            key = f"{lang}:{title}"
            qid = self.corpus.qids.get(key)
            pages.append({"title": title, "pageprops": {"wikibase_item": qid}} if qid
                         else {"title": title, "missing": True})
        with self._lock:
            self.served_qids.update(f"{lang}:{title}" for title in titles)
        return {"query": {"pages": pages}}
