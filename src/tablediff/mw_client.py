"""Rate-limited, cached client for the MediaWiki and Wikidata APIs.

Covers page HTML retrieval (``action=parse``), language-link enumeration
(``prop=langlinks``) and wiki-link -> QID resolution (``prop=pageprops``).
Every network result is written to a human-inspectable JSON cache so whole
analyses can replay offline, and each cached page's finished tables are
stored beside it so a later run need not parse the page again.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import re
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Optional
from urllib.parse import quote

from .emit import json_text
from .errors import CacheMiss, NetworkError, PageMissing, ParseError, SnapshotError
from .htmldom import SCAN_VERSION, parse_html
from .table_parser import WikiTable, grid_tables, load_table, stored_table

logger = logging.getLogger(__name__)

CACHE_DIR_ENV = "TABLEDIFF_CACHE_DIR"

# Wikimedia etiquette requires a descriptive User-Agent with a contact hint.
DEFAULT_USER_AGENT = (
    "tablediff/0.1 (cross-language Wikipedia table consistency analysis; "
    "mailto:tablediff-maintainers@example.org) python-requests"
)

QID_RE = re.compile(r"^Q[1-9][0-9]*$")

# pageprops accepts at most 50 titles per request for anonymous clients.
QID_BATCH_SIZE = 50


def is_valid_qid(value) -> bool:
    """True for Wikidata item ids like ``Q513`` (no leading zeros, no Q0)."""
    return isinstance(value, str) and bool(QID_RE.match(value))


class CachePolicy(str, Enum):
    PREFER_CACHE = "prefer-cache"
    REFRESH = "refresh"
    OFFLINE_ONLY = "offline-only"


@dataclass(frozen=True)
class ArticleRef:
    """One (language edition, title) address of an article."""

    language: str
    title: str

    def __post_init__(self):
        if not self.language or self.language != self.language.lower():
            raise ValueError(f"language must be non-empty lowercase: {self.language!r}")
        if not self.title:
            raise ValueError("title must be non-empty")

    @property
    def key(self) -> str:
        return f"{self.language}:{self.title}"


def _is_title_pair(pair) -> bool:
    """True for a ``[language, title]`` list of strings that ArticleRef accepts."""
    try:
        return (isinstance(pair, list) and all(isinstance(s, str) for s in pair)
                and ArticleRef(*pair) is not None)
    except (TypeError, ValueError):  # not two items, or a language or title ArticleRef refuses
        return False


class PageContents(NamedTuple):
    """What a page's one read gives: its data tables and its reference count."""

    tables: list[WikiTable]
    references: int


@dataclass(frozen=True)
class PageDocument:
    """Rendered HTML of one page plus the revision metadata behind it.

    ``scan_path`` is where the page's stored tables live when the page was
    read from the cache, else None.
    """

    article: ArticleRef
    html: str
    revision_id: int
    revision_timestamp: datetime
    fetched_at: datetime
    scan_path: Optional[Path] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.html:
            raise ValueError("html must be non-empty")

    @cached_property
    def contents(self) -> PageContents:
        """The page's data tables and reference count, read on first access and kept.

        Table extraction and reference counting both read it, so each page
        is read once. A page read from the cache takes its stored tables
        when they are valid for its HTML (see ``_load_contents``); else the
        HTML is parsed, its grids built and its tables stored, so the next
        run over the cache need not parse it; tables that cannot be written
        are left out.
        """
        digest = None
        if self.scan_path is not None:
            digest = hashlib.sha256(self.html.encode("utf-8", "surrogatepass")).hexdigest()
            stored = _load_contents(self.scan_path, digest)
            if stored is not None:
                return stored
        try:
            scan = parse_html(self.html)
        except Exception as exc:  # parse_html never raises on bad markup; this reports a defect
            raise ParseError(f"cannot parse {self.article.key}: {exc}") from exc
        contents = PageContents(grid_tables(scan.tables), scan.references)
        if digest is not None:
            try:
                self.scan_path.parent.mkdir(parents=True, exist_ok=True)
                _replace_file(self.scan_path, _contents_text(digest, contents))
            except (OSError, UnicodeEncodeError):  # a lone surrogate is no UTF-8
                pass  # the page is read; the next run parses it again
        return contents

    def to_dict(self) -> dict:
        return {
            "language": self.article.language,
            "title": self.article.title,
            "revision_id": self.revision_id,
            "revision_timestamp": format_ts(self.revision_timestamp),
            "fetched_at": format_ts(self.fetched_at),
            "html": self.html,
        }

    @classmethod
    def from_dict(cls, data: dict, scan_path: Optional[Path] = None) -> "PageDocument":
        return cls(
            article=ArticleRef(data["language"], data["title"]),
            html=data["html"],
            revision_id=int(data["revision_id"]),
            revision_timestamp=parse_ts(data["revision_timestamp"]),
            fetched_at=parse_ts(data["fetched_at"]),
            scan_path=scan_path,
        )


def _contents_text(html_sha256: str, contents: PageContents) -> str:
    """The stored form of a page's tables: one line of compact JSON, keyed by its HTML's SHA-256."""
    return json.dumps({"scan_version": SCAN_VERSION, "html_sha256": html_sha256,
                       "references": contents.references,
                       "tables": [stored_table(table) for table in contents.tables]},
                      ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def _load_contents(path: Path, html_sha256: str) -> Optional[PageContents]:
    """The tables and reference count stored at ``path`` for HTML of this digest, or None.

    None unless all of it holds: the file loads as JSON, its version is
    ``SCAN_VERSION`` and its digest ``html_sha256``, the reference count is
    an integer >= 0 and every table passes ``table_parser.load_table``. A
    stored form that exists but is refused is logged at DEBUG level with the
    check it failed; a missing one is not.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if type(data) is not dict:
            raise ValueError("not a JSON object")
        version, references, tables = (data.get("scan_version"), data.get("references"),
                                       data.get("tables"))
        if not (type(version) is int and version == SCAN_VERSION):
            raise ValueError(f"scan_version {version!r} is not {SCAN_VERSION}")
        if data.get("html_sha256") != html_sha256:
            raise ValueError("html_sha256 is not the digest of the page's HTML")
        if not (type(references) is int and references >= 0):
            raise ValueError(f"references {references!r} is not an integer >= 0")
        if type(tables) is not list:
            raise ValueError("tables is not a list")
        return PageContents([load_table(i, table) for i, table in enumerate(tables)], references)
    except FileNotFoundError:
        return None  # not stored yet
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 or JSON, refused
        logger.debug("refused stored tables %s: %s: %s", path, type(exc).__name__, exc)
        return None


@contextmanager
def _answer_to(request: str):
    """Turn a missing key or a wrong type met reading an API answer into NetworkError.

    ``request`` names the request the answer came from.
    """
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise NetworkError(f"malformed API answer to {request}: {type(exc).__name__}: {exc}") from exc


def _read_umask() -> int:
    """The process's umask, read from ``/proc/self/status`` where the kernel shows it.

    Elsewhere it is read by setting it and back, which this module does once,
    at import.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    except (OSError, ValueError):
        pass
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


# The mode open(path, "w") gives a new file; mkstemp makes its temp files 0o600.
_FILE_MODE = 0o666 & ~_read_umask()


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` through a temp file of its own in ``path``'s directory, then rename it.

    The temp name is unique, so clients or processes sharing one cache
    directory never write into each other's temp file. The file gets the
    mode ``open(path, "w")`` would give it, so other users can read the
    cache as they could before the rename.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            os.fchmod(fd, _FILE_MODE)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def format_ts(ts: datetime) -> str:
    """The one timestamp format of the cache and the report: UTC, to the second."""
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_ts(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)


def utc_now() -> datetime:
    return datetime.now(timezone.utc).replace(microsecond=0)


class TokenBucket:
    """Simple thread-safe token bucket; acquire() blocks until a slot frees."""

    def __init__(self, rate: float):
        self.rate = float(rate)
        self.capacity = float(max(1, int(rate)))
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.rate)
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class HttpTransport:
    """requests-backed JSON GET with a single exponential-backoff retry.

    Retries once on HTTP 429 and 5xx, after the ``Retry-After`` seconds when a
    429 or 503 carries an integer one; anything else raises NetworkError
    immediately. ``calls`` counts every request actually sent, which the
    tests use to assert cache hits never touch the network.

    ``requests`` is imported, and the one session built, only when the first
    request is sent, so a run that answers everything from the cache never
    loads the HTTP stack.
    """

    def __init__(self, user_agent: str = DEFAULT_USER_AGENT, timeout: float = 30.0,
                 retry_backoff: float = 1.0):
        self.user_agent = user_agent
        self.timeout = timeout
        self.retry_backoff = retry_backoff
        self.calls = 0
        self._session = None
        self._lock = threading.Lock()  # guards calls and the first build of the session

    @property
    def session(self):
        """The transport's one ``requests.Session``, built on first read."""
        with self._lock:
            if self._session is None:
                import requests
                self._session = requests.Session()
                self._session.headers["User-Agent"] = self.user_agent
            return self._session

    def get_json(self, url: str, params: dict) -> dict:
        import requests  # for RequestException; after the first request a sys.modules lookup

        last_error = None
        for attempt in range(2):
            with self._lock:
                self.calls += 1
            try:
                resp = self.session.get(url, params=params, timeout=self.timeout)
            except requests.RequestException as exc:
                raise NetworkError(f"request failed: {url}: {exc}") from exc
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as exc:
                    raise NetworkError(f"non-JSON response from {url}") from exc
            last_error = f"HTTP {resp.status_code} from {url}"
            if resp.status_code == 429 or resp.status_code >= 500:
                if attempt == 0:
                    time.sleep(self._retry_delay(resp, attempt))
                    continue
            break
        raise NetworkError(last_error or f"request failed: {url}")

    def _retry_delay(self, resp, attempt: int) -> float:
        """Seconds to wait before retrying: an integer ``Retry-After`` on 429/503, else backoff."""
        if resp.status_code in (429, 503):
            retry_after = resp.headers.get("Retry-After", "").strip()
            if retry_after.isdecimal():
                return float(int(retry_after))
        return self.retry_backoff * (2 ** attempt)


class MediaWikiClient:
    """Shared client; safe to use from multiple threads.

    Cache layout under ``cache_dir``:

    - ``pages/{lang}/{url-encoded title}.json`` -- serialized PageDocument,
      or a tombstone ``{"missing": true}`` for titles known to be absent.
    - ``scans/{lang}/{url-encoded title}.json`` -- the page's stored tables
      (``_contents_text``): its finished grids and reference count, written
      on its first read from the cache and taken on later reads instead of
      parsing the page (``_load_contents``).
    - ``qids.json`` -- ``{"lang:title": "Q..." | null}`` map.
    - ``langlinks.json`` -- ``{"lang:title": [[lang, title], ...]}`` so the
      language enumeration replays offline too.
    - ``.lock`` -- held exclusively while ``save`` merges and writes the maps.

    Both maps are read when the client is built (SnapshotError if either is
    unreadable or not a JSON object) and are write-behind: lookups keep fresh
    entries in memory and ``save`` merges them into the files on disk.

    An API answer that lacks a field an operation reads, or holds it with the
    wrong type, raises NetworkError naming the request.
    """

    def __init__(self, cache_dir: Optional[str | Path] = None, rate_limit: float = 5.0,
                 transport: Optional[HttpTransport] = None,
                 api_url_template: str = "https://{lang}.wikipedia.org/w/api.php"):
        cache_dir = cache_dir or os.environ.get(CACHE_DIR_ENV) or (Path.home() / ".cache" / "tablediff")
        self.cache_dir = Path(cache_dir)
        self.transport = transport if transport is not None else HttpTransport()
        self.bucket = TokenBucket(rate_limit)
        self.api_url_template = api_url_template
        # The write-behind maps, keyed by file name in the order save writes them.
        self._maps = {name: self._load_map(self.cache_dir / name)
                      for name in ("qids.json", "langlinks.json")}
        # Entries fetched since the last save, per map; guarded by _cache_lock.
        self._unsaved: dict[str, dict] = {name: {} for name in self._maps}
        self._cache_lock = threading.Lock()

    # -- cache plumbing ----------------------------------------------------

    def page_cache_path(self, language: str, title: str) -> Path:
        return self.cache_dir / "pages" / language / (quote(title, safe="") + ".json")

    def scan_cache_path(self, language: str, title: str) -> Path:
        return self.cache_dir / "scans" / language / (quote(title, safe="") + ".json")

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        """Write ``payload`` as ``json_text`` with sorted keys, atomically (``_replace_file``).

        The text is rendered first, so a payload that cannot be encoded makes
        no temp file.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        _replace_file(path, json_text(payload, sort_keys=True))

    @staticmethod
    def _load_map(path: Path) -> dict:
        """The JSON object in ``path``, ``{}`` when there is no file; else SnapshotError."""
        if not path.exists():
            return {}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(f"unreadable cache map {path}: {type(exc).__name__}: {exc}") from exc
        if not isinstance(data, dict):
            raise SnapshotError(f"unreadable cache map {path}: not a JSON object")
        return data

    def save(self) -> None:
        """Merge the QID and langlink entries fetched since the last save into their files.

        Each map with unsaved entries is reloaded from disk, the unsaved
        entries are applied on top and the result is written once, so fresh
        entries beat the disk and the disk beats older entries in memory. An
        exclusive lock on ``.lock`` in the cache directory spans the reload and
        the write, so processes sharing the directory never drop each other's
        entries. Touches no file when nothing is unsaved.
        """
        with self._cache_lock:
            pending = [name for name, fresh in self._unsaved.items() if fresh]
            if not pending:
                return
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            with open(self.cache_dir / ".lock", "a") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
                for name in pending:
                    path = self.cache_dir / name
                    on_disk = self._load_map(path)
                    on_disk.update(self._unsaved[name])
                    self._maps[name].update(on_disk)
                    self._write_atomic(path, self._maps[name])
                    self._unsaved[name].clear()

    def _remember(self, name: str, fresh: dict) -> None:
        with self._cache_lock:
            self._maps[name].update(fresh)
            self._unsaved[name].update(fresh)

    # -- API plumbing ------------------------------------------------------

    def _request(self, language: str, params: dict) -> dict:
        self.bucket.acquire()
        full = {"format": "json", "formatversion": "2"}
        full.update(params)
        return self.transport.get_json(self.api_url_template.format(lang=language), full)

    # -- operations --------------------------------------------------------

    def fetch_page(self, article: ArticleRef,
                   cache_policy: CachePolicy = CachePolicy.PREFER_CACHE) -> PageDocument:
        """Fetch the rendered HTML of one page, honoring the cache policy.

        A cached snapshot that cannot be read, or is not JSON or not a page,
        raises SnapshotError.
        """
        path = self.page_cache_path(article.language, article.title)
        if cache_policy is not CachePolicy.REFRESH and path.exists():
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                if data.get("missing"):
                    raise PageMissing(article.language, article.title)
                return PageDocument.from_dict(
                    data, self.scan_cache_path(article.language, article.title))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                raise SnapshotError(
                    f"unreadable cache snapshot {path}: {type(exc).__name__}: {exc}") from exc
        if cache_policy is CachePolicy.OFFLINE_ONLY:
            raise CacheMiss(article.language, article.title)

        data = self._request(article.language, {
            "action": "parse", "page": article.title,
            "prop": "text|revid", "redirects": "1",
        })
        with _answer_to(f"action=parse of {article.key}"):
            if "error" in data:
                if data["error"].get("code") in ("missingtitle", "pagecannotexist", "invalidtitle"):
                    self._write_atomic(path, {
                        "language": article.language, "title": article.title,
                        "missing": True, "checked_at": format_ts(utc_now()),
                    })
                    raise PageMissing(article.language, article.title)
                raise NetworkError(f"API error: {data['error']}")
            parse = data["parse"]
            html = parse["text"]
            if not (isinstance(html, str) and html):
                raise TypeError("page text is not a non-empty string")
            revid = int(parse["revid"])

        rev = self._request(article.language, {
            "action": "query", "prop": "revisions", "revids": str(revid),
            "rvprop": "ids|timestamp",
        })
        with _answer_to(f"prop=revisions of {article.key} revid {revid}"):
            pages = rev.get("query", {}).get("pages", [])
            if not pages or "revisions" not in pages[0]:
                raise NetworkError(f"no revision metadata for revid {revid}")
            doc = PageDocument(article=article, html=html, revision_id=revid,
                               revision_timestamp=parse_ts(pages[0]["revisions"][0]["timestamp"]),
                               fetched_at=utc_now())
        self._write_atomic(path, doc.to_dict())
        logger.info("fetched %s:%s rev=%s", article.language, article.title, revid)
        return doc

    def list_language_versions(self, article: ArticleRef,
                               cache_policy: CachePolicy = CachePolicy.PREFER_CACHE) -> list[ArticleRef]:
        """All language editions of the article, the input edition included.

        Output is sorted lexicographically by language code and never holds
        duplicate codes.
        """
        cached = self._maps["langlinks.json"].get(article.key)
        if cached is None and cache_policy is CachePolicy.OFFLINE_ONLY:
            raise CacheMiss(article.language, article.title)
        if cached is None or cache_policy is CachePolicy.REFRESH:
            cached = self._fetch_langlinks(article)
            self._remember("langlinks.json", {article.key: cached})
        elif not (isinstance(cached, list) and all(map(_is_title_pair, cached))):
            raise SnapshotError(f"bad entry {article.key!r} in {self.cache_dir / 'langlinks.json'}: "
                                "not a list of [language, title] string pairs")

        seen = {article.language: article.title}
        for lang, title in cached:
            seen.setdefault(lang, title)
        return [ArticleRef(lang, seen[lang]) for lang in sorted(seen)]

    def _fetch_langlinks(self, article: ArticleRef) -> list[list[str]]:
        links: list[list[str]] = []
        cont: dict = {}
        while True:
            params = {"action": "query", "prop": "langlinks", "titles": article.title,
                      "lllimit": "max", "redirects": "1"}
            params.update(cont)
            data = self._request(article.language, params)
            with _answer_to(f"prop=langlinks of {article.key}"):
                pages = data.get("query", {}).get("pages", [])
                if not pages or pages[0].get("missing"):
                    raise PageMissing(article.language, article.title)
                for item in pages[0].get("langlinks", []):
                    pair = [item["lang"], item["title"]]
                    if not _is_title_pair(pair):
                        raise ValueError(f"not a language link: {item!r}")
                    links.append(pair)
                if "continue" not in data:
                    return links
                cont = {"llcontinue": data["continue"]["llcontinue"]}

    def resolve_qids(self, language: str, titles: Iterable[str],
                     cache_policy: CachePolicy = CachePolicy.PREFER_CACHE) -> dict[str, Optional[str]]:
        """Batch QID resolution, up to ``QID_BATCH_SIZE`` titles per request.

        Redirect targets are followed server-side; results (including known
        misses, stored as null) are kept in memory and written by ``save``.
        """
        titles = list(dict.fromkeys(titles))
        qmap = self._maps["qids.json"]
        out: dict[str, Optional[str]] = {}
        pending: list[str] = []
        for title in titles:
            key = f"{language}:{title}"
            if cache_policy is not CachePolicy.REFRESH and key in qmap:
                qid = out[title] = qmap[key]
                if qid is not None and not is_valid_qid(qid):
                    raise SnapshotError(f"bad entry {key!r} in {self.cache_dir / 'qids.json'}: "
                                        "not a QID or null")
            else:
                pending.append(title)
        if not pending:
            return out
        if cache_policy is CachePolicy.OFFLINE_ONLY:
            # Unknown titles stay unresolved offline; they are not cached as
            # misses because the next online run may resolve them.
            for title in pending:
                out[title] = None
            return out

        fresh: dict[str, Optional[str]] = {}
        for start in range(0, len(pending), QID_BATCH_SIZE):
            batch = pending[start:start + QID_BATCH_SIZE]
            data = self._request(language, {
                "action": "query", "prop": "pageprops", "ppprop": "wikibase_item",
                "titles": "|".join(batch), "redirects": "1",
            })
            with _answer_to(f"prop=pageprops of {len(batch)} {language} titles from {batch[0]!r}"):
                query = data.get("query", {})
                rename: dict[str, str] = {}
                for step in ("normalized", "redirects"):
                    for move in query.get(step, []):
                        rename[move["from"]] = move["to"]
                by_title: dict[str, Optional[str]] = {}
                for page in query.get("pages", []):
                    qid = page.get("pageprops", {}).get("wikibase_item")
                    by_title[page.get("title", "")] = qid if is_valid_qid(qid) else None
                for title in batch:
                    final = title
                    hops = 0
                    while final in rename and hops < 5:
                        final = rename[final]
                        hops += 1
                    fresh[f"{language}:{title}"] = by_title.get(final)
        self._remember("qids.json", fresh)
        for title in pending:
            out[title] = fresh[f"{language}:{title}"]
        return out


def count_references(doc: PageDocument) -> int:
    """Number of distinct reference-list items in the rendered page.

    Counts the ``<li>`` children of ``<ol class="references">`` containers,
    so a source cited from ten inline markers still counts once. Returns 0
    when the page has no reference list.
    """
    return doc.contents.references
