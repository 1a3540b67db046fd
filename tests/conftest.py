import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tablediff.cli import main
from tablediff.manifest import load_manifest
from tablediff.mw_client import MediaWikiClient
from tablediff.pipeline import PipelineOptions, run_pipeline
from tablediff.schema_align import load_header_mapping

REPO = Path(__file__).resolve().parents[1]
FIXTURE_CACHE = REPO / "fixtures" / "cache"
GOLDEN = REPO / "fixtures" / "golden" / "geography_stats.json"
GEOGRAPHY_MANIFEST = REPO / "datasets" / "geography.json"
CLIMBERS_MANIFEST = REPO / "datasets" / "climbers.json"
HEADER_MAP = REPO / "mappings" / "geography.json"


FIXTURE_TITLES = {
    "seven_summits": {"en": "Seven Summits", "de": "Seven Summits", "zh": "七大洲最高峰",
                      "it": "Sette Vette", "nl": "Zeven toppen"},
    "eight_thousander": {"en": "Eight-thousander", "de": "Achttausender", "zh": "八千米高山",
                         "it": "Ottomila", "nl": "Achtduizender"},
    "alps_4000m": {"en": "List of mountains of the Alps over 4000 metres",
                   "de": "Liste der Viertausender in den Alpen",
                   "zh": "阿尔卑斯山4000米以上山峰列表",
                   "it": "Montagne delle Alpi oltre 4000 metri"},
    "earthquakes": {"en": "Lists of earthquakes", "de": "Liste von Erdbeben",
                    "zh": "地震列表", "nl": "Lijst van aardbevingen"},
    "unclimbed_peaks": {"en": "List of highest unclimbed peaks",
                        "de": "Liste der höchsten unbestiegenen Berge",
                        "nl": "Lijst van hoogste onbeklommen bergen"},
    "highest_mountains": {"en": "List of highest mountains on Earth",
                          "de": "Liste der höchsten Berge der Erde",
                          "zh": "地球最高山峰列表", "it": "Montagne più alte della Terra",
                          "nl": "Lijst van hoogste bergen op aarde"},
    "lakes_of_titan": {"en": "Lakes of Titan", "de": "Seen auf Titan", "zh": "泰坦湖泊",
                       "it": "Laghi di Titano"},
    "lakes_of_europe": {"en": "List of largest lakes of Europe",
                        "de": "Liste der größten Seen in Europa",
                        "it": "Laghi più grandi d'Europa",
                        "nl": "Lijst van grootste meren van Europa"},
    "lakes_by_area": {"en": "List of lakes by area", "de": "Liste der größten Seen",
                      "zh": "湖泊面积列表", "it": "Laghi per superficie",
                      "nl": "Lijst van meren naar oppervlakte"},
}

FIXTURE_TITLES["eight_thousander_climbers"] = {
    "en": "List of climbers who have summited all 14 eight-thousanders",
    "de": "Liste der Bergsteiger, die alle Achttausender bestiegen haben",
    "zh": "完成全部14座八千米高峰的登山者列表",
    "it": "Alpinisti che hanno scalato tutti i 14 ottomila",
    "nl": "Lijst van klimmers die alle veertien achtduizenders beklommen",
}


def mentions_by_language(tables_by_lang):
    """build_matrix's input from {language: [(table, mentions)]}."""
    return {lang: [m for _table, ms in linked for m in ms]
            for lang, linked in tables_by_lang.items()}


@dataclass
class CliResult:
    """What one in-process run of the CLI wrote and how it ended."""

    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order they were written
    exit_code: int
    exception: BaseException | None  # a non-zero SystemExit, or what the command raised


class _Tee(io.StringIO):
    """A stream that also copies every write into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text):
        self.shared.write(text)
        return super().write(text)


def run_cli(*args) -> CliResult:
    """Run ``tablediff ARGS`` in this process; any exception other than SystemExit is exit 1."""
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    exit_code, exception = 0, None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            main([str(a) for a in args])
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else exc.code
        exception = exc if exit_code else None
    except Exception as exc:  # reported in the result, as a process would report it
        exit_code, exception = 1, exc
    return CliResult(stdout.getvalue(), stderr.getvalue(), output.getvalue(), exit_code,
                     exception)


@pytest.fixture(scope="session", autouse=True)
def no_network():
    """Every request the HTTP stack would send fails, so no test reaches the network.

    A client built with the live transport (say, by a CLI test over the
    vendored cache) then gets a ``NetworkError`` instead of fetching, or
    rewriting a vendored snapshot on ``--refresh``. Tests of ``HttpTransport``
    stub ``session.get`` or ``requests.Session``, so they never get this far.
    """
    try:
        import requests
    except ImportError:  # no HTTP stack to send with
        yield
        return

    def refuse(adapter, request, *args, **kwargs):
        raise requests.ConnectionError(f"tests send no requests: {request.url}", request=request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(requests.adapters.HTTPAdapter, "send", refuse)
        yield


@pytest.fixture(scope="session")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def header_mapping():
    return load_header_mapping(HEADER_MAP)


@pytest.fixture()
def offline_client():
    return MediaWikiClient(cache_dir=FIXTURE_CACHE)


@pytest.fixture(scope="session")
def geography_report(header_mapping):
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    manifest = load_manifest(GEOGRAPHY_MANIFEST)
    return run_pipeline(manifest, header_mapping, client, PipelineOptions(offline=True))


@pytest.fixture(scope="session")
def climbers_report(header_mapping):
    client = MediaWikiClient(cache_dir=FIXTURE_CACHE)
    manifest = load_manifest(CLIMBERS_MANIFEST)
    return run_pipeline(manifest, header_mapping, client, PipelineOptions(offline=True))


class FakeTransport:
    """In-memory MediaWiki API double; counts every request it serves."""

    def __init__(self, pages=None, langlinks=None, qids=None):
        self.pages = pages or {}          # (lang, title) -> {html, revid, timestamp}
        self.langlinks = langlinks or {}  # (lang, title) -> [(lang, title), ...]
        self.qids = qids or {}            # (lang, title) -> qid or None
        self.calls = 0
        self.log = []

    def _lang(self, url):
        return url.split("//", 1)[1].split(".", 1)[0]

    def get_json(self, url, params):
        self.calls += 1
        self.log.append((url, dict(params)))
        lang = self._lang(url)
        action = params.get("action")
        if action == "parse":
            page = self.pages.get((lang, params["page"]))
            if page is None:
                return {"error": {"code": "missingtitle", "info": "missing"}}
            return {"parse": {"title": params["page"], "revid": page["revid"],
                              "text": page["html"]}}
        if action == "query" and params.get("prop") == "revisions":
            for (plang, _title), page in self.pages.items():
                if plang == lang and str(page["revid"]) == params["revids"]:
                    return {"query": {"pages": [{"revisions": [
                        {"revid": page["revid"], "timestamp": page["timestamp"]}]}]}}
            return {"query": {"pages": []}}
        if action == "query" and params.get("prop") == "langlinks":
            key = (lang, params["titles"])
            if key not in self.pages and key not in self.langlinks:
                return {"query": {"pages": [{"title": params["titles"], "missing": True}]}}
            links = [{"lang": l, "title": t} for l, t in self.langlinks.get(key, [])]
            return {"query": {"pages": [{"title": params["titles"], "langlinks": links}]}}
        if action == "query" and params.get("prop") == "pageprops":
            pages = []
            for title in params["titles"].split("|"):
                qid = self.qids.get((lang, title))
                entry = {"title": title}
                if qid:
                    entry["pageprops"] = {"wikibase_item": qid}
                elif qid is None and (lang, title) not in self.qids:
                    entry["missing"] = True
                pages.append(entry)
            return {"query": {"pages": pages}}
        raise AssertionError(f"unexpected request: {params}")


@pytest.fixture()
def fake_transport():
    html = ('<div class="mw-parser-output"><table class="wikitable"><tbody>'
            "<tr><th>Name</th></tr><tr><td>"
            '<a href="/wiki/Thing" title="Thing">Thing</a></td></tr>'
            "</tbody></table></div>")
    return FakeTransport(
        pages={("en", "Sample Page"): {"html": html, "revid": 42,
                                       "timestamp": "2025-06-01T00:00:00Z"}},
        langlinks={("en", "Sample Page"): [("de", "Beispielseite"), ("fr", "Page exemple")]},
        qids={("en", "Thing"): "Q99", ("en", "Mount Everest"): "Q513"},
    )


def pytest_runtest_logreport(report):
    # One visible pass/fail line per acceptance criterion.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    sys.stderr.write(f"[acceptance] {name}: {status}\n")
    sys.stderr.flush()
