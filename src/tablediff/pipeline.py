"""End-to-end analysis of one article family, in stages.

1. gather (``_gather_editions``): list the family's editions and fetch one
   page per wanted language;
2. extract and 3. link, one edition at a time (``_read_edition``): extract
   the page's data tables, choose each table's entity column, take one
   mention per row and resolve the mentions' links to QIDs;
4. align: page metrics, each table's ``{attribute: [columns]}``, the
   attribute presence grid, and the entity matrix, an ordered map
   ``{entity: {language: [(table_index, row_index), ...]}}``;
5. analyze: one walk over the matrix takes each entity's first non-missing
   value per language for every attribute seen in two or more languages and
   no linked table's entity column (``_attribute_values``); one pass per
   attribute compares them by value kind (``detect_conflicts``); then incompleteness;
6. serialize: the family's part of the report.

``warm_cache`` runs stage 1 and the same ``_read_edition`` step only, so
``fetch`` warms exactly the QIDs that ``analyze`` links. The pipeline
downgrades per-edition problems (missing pages, unalignable tables) into
findings inside the report instead of aborting; a family only counts as
failed when no edition could be analyzed at all.

``run_pipeline`` and ``warm_cache`` pause Python's cyclic garbage collector
for each family (its steps and the cache save after them) and restore its
state afterwards: the pipeline builds no reference cycles, so a collection
there would free nothing. Between families the collector runs as before.
"""

from __future__ import annotations

import gc
import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Optional

from . import __version__
from .entity_align import (EntityKey, EntityMatrix, EntityMention, build_matrix,
                           detect_entity_column, extract_row_entities, link_mentions,
                           mention_key)
from .errors import CacheMiss, NetworkError, PageMissing, ParseError, SnapshotError
from .manifest import DatasetManifest, FamilyEntry
from .metrics import aggregate_corpus, aggregate_pages, page_stats
from .mw_client import (ArticleRef, CachePolicy, MediaWikiClient, PageDocument, count_references,
                        format_ts, utc_now)
from .schema_align import Attribute, HeaderMapping, build_presence_grid, resolve_columns
from .table_parser import WikiTable, extract_tables
from .value_analysis import (MISSING, CellValue, detect_conflicts, detect_incompleteness,
                             missing_markers, parse_value)

logger = logging.getLogger(__name__)


@dataclass
class PipelineOptions:
    # None: each family's own languages; "all": every listed edition of each family
    languages: Optional[list[str] | str] = None
    offline: bool = False
    refresh: bool = False
    rel_tol: float = 0.0
    staleness_days: int = 180
    all_tables: bool = False
    extra_missing: tuple[str, ...] = ()
    jobs: int = 1

    @property
    def cache_policy(self) -> CachePolicy:
        if self.offline:
            return CachePolicy.OFFLINE_ONLY
        if self.refresh:
            return CachePolicy.REFRESH
        return CachePolicy.PREFER_CACHE


@dataclass
class EditionData:
    """Working state for one fetched language edition of a family."""

    language: str
    title: str
    status: str  # "ok" | "absent" | "error"
    doc: Optional[PageDocument] = None
    tables: list[WikiTable] = field(default_factory=list)
    # (table, linked mentions, entity column) per table the link stage aligned
    linked: list[tuple[WikiTable, list[EntityMention], int]] = field(default_factory=list)
    reason: str = ""


# Per (language, table index): the table and its columns grouped by attribute.
TableColumns = dict[tuple[str, int], tuple[WikiTable, dict[Attribute, list[int]]]]


def _edition_titles(entry: FamilyEntry, client: MediaWikiClient,
                    options: PipelineOptions, findings: list[dict]) -> dict[str, str]:
    try:
        versions = client.list_language_versions(entry.seed, options.cache_policy)
        return {ref.language: ref.title for ref in versions}
    except (PageMissing, CacheMiss, NetworkError, SnapshotError) as exc:
        findings.append({
            "kind": "langlinks-unavailable",
            "family": entry.id,
            "detail": f"{type(exc).__name__}: {exc}",
        })
        return {entry.seed.language: entry.seed.title}


def _fetch_edition(client: MediaWikiClient, language: str, title: str,
                   options: PipelineOptions) -> EditionData:
    article = ArticleRef(language, title)
    try:
        doc = client.fetch_page(article, options.cache_policy)
    except PageMissing:
        return EditionData(language, title, "absent", reason="page missing in this edition")
    except CacheMiss:
        return EditionData(language, title, "absent", reason="no cached snapshot (offline run)")
    except (NetworkError, SnapshotError) as exc:
        logger.warning("fetch failed for %s:%s: %s", language, title, exc)
        return EditionData(language, title, "error", reason=str(exc))
    return EditionData(language, title, "ok", doc=doc)


def _gather_editions(entry: FamilyEntry, client: MediaWikiClient, options: PipelineOptions,
                     findings: list[dict]) -> tuple[list[str], list[EditionData]]:
    """The distinct languages to analyze and one fetched edition per language, in order.

    With ``options.jobs > 1`` the page fetches of a run that may reach the
    network run in that many threads. An offline run reads its pages in the
    calling thread: a cache read and its JSON decoding hold the GIL, so
    threads there only add pool start-up and lock contention.
    """
    titles = _edition_titles(entry, client, options, findings)
    requested = options.languages or entry.languages
    wanted = sorted(titles) if requested == "all" else list(dict.fromkeys(requested))

    def gather(language: str) -> EditionData:
        title = titles.get(language)
        if title is None:
            return EditionData(language, entry.seed.title, "absent",
                               reason="no edition listed for this language")
        return _fetch_edition(client, language, title, options)

    if options.jobs > 1 and len(wanted) > 1 and not options.offline:
        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            return wanted, list(pool.map(gather, wanted))
    return wanted, [gather(language) for language in wanted]


def _link_edition(entry: FamilyEntry, edition: EditionData, client: MediaWikiClient,
                  options: PipelineOptions, findings: list[dict]) -> None:
    """Link one mention per row of each table to a QID, into ``edition.linked``.

    A table's entity column is the manifest's hint, else the detected one;
    a table without a usable entity column is left out of alignment. A row
    whose entity cell gives no alignment key (see ``mention_key``) is left
    out and counted in the table's ``rows-skipped`` finding.
    """
    for table in edition.tables:
        where = {"family": entry.id, "language": edition.language,
                 "table_index": table.table_index}
        col = entry.column_hint(edition.language, table.table_index)
        if col is None:
            col = detect_entity_column(table)
        if col is None or col >= table.n_cols:
            findings.append({"kind": "no-entity-column", **where,
                             "detail": "table excluded from alignment"})
            continue
        mentions = link_mentions(extract_row_entities(table, col, options.extra_missing),
                                 edition.language, client, options.cache_policy)
        mentions = [m for m in mentions if mention_key(m, edition.language) is not None]
        skipped = table.n_body_rows - len(mentions)
        if skipped:
            findings.append({"kind": "rows-skipped", **where,
                             "detail": f"{skipped} row(s) with empty entity cells"})
        edition.linked.append((table, mentions, col))


def _read_edition(entry: FamilyEntry, edition: EditionData, client: MediaWikiClient,
                  options: PipelineOptions, findings: list[dict],
                  link_findings: list[dict]) -> Optional[PageDocument]:
    """Extract and link one edition; return its page if it stays ok, else add its finding.

    The edition gives up its page, so a caller that lets it go before the
    next call holds one page and its scan at a time. A page whose scan fails
    makes the edition an error, like a failed fetch. The findings of linking
    go to ``link_findings``, the edition's own to ``findings``.
    """
    doc, edition.doc = edition.doc, None
    if edition.status == "ok":
        try:
            edition.tables = extract_tables(doc)
        except ParseError as exc:
            logger.warning("parse failed for %s:%s: %s", edition.language, edition.title, exc)
            edition.status, edition.reason = "error", str(exc)
    if edition.status != "ok":
        kind = "edition-absent" if edition.status == "absent" else "fetch-error"
        findings.append({"kind": kind, "family": entry.id, "language": edition.language,
                         "detail": edition.reason})
        return None
    _link_edition(entry, edition, client, options, link_findings)
    return doc


def _attribute_values(
    matrix: EntityMatrix,
    columns: TableColumns,
    attributes: list[Attribute],
    extra_missing: tuple[str, ...],
) -> dict[Attribute, dict[EntityKey, dict[str, CellValue]]]:
    """First non-missing value per (entity, language) of each attribute, in one walk.

    The walk reads ``matrix`` (``{entity: {language: occurrences}}``) as
    given. The value is the first non-missing cell in occurrence order, then
    column order. Languages where no occurrence table carries the
    attribute's column are left out; a language whose cells are all missing
    markers maps to MISSING. Entities and each entity's languages keep the
    matrix's order; an entity with no language is left out. Equal attributes
    share one entry.
    """
    markers = missing_markers(extra_missing)
    values: dict[Attribute, dict[EntityKey, dict[str, CellValue]]] = {a: {} for a in attributes}
    # Per table: its body rows and, for each compared attribute it carries,
    # that attribute's output dict and columns.
    plans = {key: (table.body_rows, [(values[attr], cols) for attr, cols in by_attr.items()
                                     if attr in values])
             for key, (table, by_attr) in columns.items()}
    for entity, occurrences in matrix.items():
        for language, places in occurrences.items():
            for table_index, row_index in places:
                body_rows, plan = plans[(language, table_index)]
                row = body_rows[row_index]
                for out, cols in plan:
                    by_language = out.get(entity)
                    if by_language is None:
                        by_language = out[entity] = {}
                    elif by_language.get(language, MISSING) is not MISSING:
                        continue
                    value: CellValue = MISSING
                    for col in cols:
                        text = row[col].text
                        if text not in markers:
                            value = parse_value(text, language)
                            break
                    by_language[language] = value
    return values


def analyze_family(entry: FamilyEntry, mapping: HeaderMapping, client: MediaWikiClient,
                   options: PipelineOptions) -> dict:
    """The family's part of the report, as one plain JSON-ready dict."""
    if not 0 <= options.staleness_days <= timedelta.max.days:
        raise ValueError(f"staleness_days must be from 0 to {timedelta.max.days}, "
                         f"got {options.staleness_days!r}")
    window = timedelta(days=options.staleness_days)
    findings: list[dict] = []
    link_findings: list[dict] = []
    wanted, editions = _gather_editions(entry, client, options, findings)
    # Extract and link each edition, then its page metrics and column attributes.
    columns: TableColumns = {}
    main_attributes: dict[str, Optional[list[Attribute]]] = {}
    revision_timestamps = {}
    edition_rows = []
    for edition in editions:
        doc = _read_edition(entry, edition, client, options, findings, link_findings)
        if doc is None:
            edition_rows.append({"language": edition.language, "title": edition.title,
                                 "status": edition.status, "detail": edition.reason})
            continue
        metrics = page_stats(
            tables=edition.tables,
            reference_count=count_references(doc),
            main_override=entry.main_table_index.get(edition.language),
            extra_missing=options.extra_missing,
            all_tables=options.all_tables,
        )
        for table in edition.tables:
            columns[(edition.language, table.table_index)] = (
                table, resolve_columns(table, edition.language, mapping))
        main = metrics["main_table_index"]
        main_attributes[edition.language] = (
            None if main is None else list(columns[(edition.language, main)][1]))
        revision_timestamps[edition.language] = doc.revision_timestamp
        edition_rows.append({
            "language": edition.language,
            "title": edition.title,
            "status": "ok",
            "revision_id": doc.revision_id,
            "revision_timestamp": format_ts(doc.revision_timestamp),
            **metrics,
        })
        del doc  # else this page and its scan live on while the next edition's is read
    findings.extend(link_findings)

    analyzed = [e for e in editions if e.status == "ok"]
    aligned_languages = [e.language for e in analyzed if e.linked]
    matrix = build_matrix({e.language: [m for _table, mentions, _col in e.linked for m in mentions]
                           for e in analyzed})
    presence = build_presence_grid(main_attributes, mapping)

    # Compare attributes seen in >= 2 languages, but no entity column: a row key is not a value.
    row_keys = {attr for e in analyzed for table, _mentions, col in e.linked
                for attr, cols in columns[(e.language, table.table_index)][1].items()
                if col in cols}
    attr_languages: dict[Attribute, set[str]] = {}
    for (language, _index), (_table, by_attr) in columns.items():
        for attr in by_attr.keys() - row_keys:
            attr_languages.setdefault(attr, set()).add(language)

    records: list[dict] = []
    compared = [attr for attr in mapping.attributes if len(attr_languages.get(attr, ())) >= 2]
    for attr, values in _attribute_values(matrix, columns, compared,
                                          options.extra_missing).items():
        conflicts, conflict_findings = detect_conflicts(entry.id, attr, values, options.rel_tol,
                                                        revision_timestamps, window)
        records.extend(conflicts)
        findings.extend(conflict_findings)

    records.extend(detect_incompleteness(entry.id, presence, matrix, aligned_languages))

    family_status = "ok" if analyzed else "failed"
    return {
        "id": entry.id,
        "seed": {"language": entry.seed.language, "title": entry.seed.title},
        "status": family_status,
        "languages_requested": wanted,
        "editions": edition_rows,
        "entities": [
            {
                **entity.to_json(),
                "occurrences": {lang: [list(occurrence) for occurrence in places]
                                for lang, places in occurrences.items()},
            }
            for entity, occurrences in matrix.items()
        ],
        "presence": presence,
        "records": records,
        "findings": findings,
        "aggregates": {
            row["language"]: aggregate_pages([row])
            for row in sorted(edition_rows, key=lambda row: row["language"])
            if row["status"] == "ok"
        },
    }


@contextmanager
def _saving(client: MediaWikiClient):
    """Run one family's steps, then save the client's maps, with the cyclic collector paused.

    A block that raised keeps its error if the save fails. The family's pages,
    scans and records form no reference cycles, so a collection inside the
    block would free nothing; the collector is turned back on, if it was on,
    when the block and the save are done, so any cyclic garbage (say, of a
    live HTTP stack) waits for one family at most.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    except BaseException:
        try:
            client.save()
        except (SnapshotError, OSError) as exc:
            logger.warning("cache save failed: %s", exc)
        raise
    else:
        client.save()
    finally:
        if was_enabled:
            gc.enable()


def run_pipeline(manifest: DatasetManifest, mapping: HeaderMapping,
                 client: MediaWikiClient, options: PipelineOptions) -> dict:
    """Analyze every family in the manifest and assemble the report dict."""
    families = []
    for entry in manifest.families:
        with _saving(client):
            families.append(analyze_family(entry, mapping, client, options))

    if options.languages and options.languages != "all":
        run_languages = list(dict.fromkeys(options.languages))
    else:
        run_languages = list(dict.fromkeys(lang for family in families
                                           for lang in family["languages_requested"]))
    corpus_per_language = aggregate_corpus(families, run_languages)
    columns_total = sum(a["columns_total"] for a in corpus_per_language.values())
    columns_complete = sum(a["columns_complete"] for a in corpus_per_language.values())
    columns_incomplete = sum(a["columns_incomplete"] for a in corpus_per_language.values())

    epoch_lines = sorted(
        f"{e['language']}:{e['title']}:{e['revision_id']}"
        for family in families for e in family["editions"] if e.get("status") == "ok"
    )
    cache_epoch = hashlib.sha256("\n".join(epoch_lines).encode("utf-8")).hexdigest()[:16]

    return {
        "tool": {"name": "tablediff", "version": __version__},
        "generated_at": format_ts(utc_now()),
        "cache_epoch": cache_epoch,
        "options": {
            "languages": run_languages,
            "offline": options.offline,
            "rel_tol": options.rel_tol,
            "staleness_days": options.staleness_days,
            "all_tables": options.all_tables,
        },
        "manifest": manifest.to_dict(),
        "families": families,
        "corpus": {
            "languages": run_languages,
            "per_language": corpus_per_language,
            "overall": {
                "columns_total": columns_total,
                "columns_complete": columns_complete,
                "columns_incomplete": columns_incomplete,
                "complete_rate": round(100.0 * columns_complete / columns_total, 1) if columns_total else 0.0,
                "incomplete_rate": round(100.0 * columns_incomplete / columns_total, 1) if columns_total else 0.0,
            },
        },
    }


def warm_cache(manifest: DatasetManifest, mapping: HeaderMapping, client: MediaWikiClient,
               options: PipelineOptions) -> dict:
    """Populate page, langlink and QID caches without running the analysis.

    Gathers each family's editions and runs ``analyze_family``'s extract and
    link step (``_read_edition``) on each, so it resolves exactly the QIDs an
    analysis links. That step reads no header mapping: ``mapping`` is unused
    and stays for callers that pass it positionally. The QID and langlink
    maps are saved after each family, also when the family fails part way.
    """
    fetched = absent = 0
    for entry in manifest.families:
        with _saving(client):
            _wanted, editions = _gather_editions(entry, client, options, [])
            for edition in editions:
                if _read_edition(entry, edition, client, options, [], []) is None:
                    absent += 1
                else:
                    fetched += 1
    return {"fetched": fetched, "absent_or_failed": absent}
