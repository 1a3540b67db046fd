"""End-to-end analysis of one article family, in stages.

1. gather (``_gather_editions``): list the family's editions and fetch the
   page of each wanted language, every page before the first is read;
2. extract and 3. link, one edition at a time (``_read_edition``): extract
   the page's data tables, choose each table's entity column, take one
   mention per row and resolve the mentions' links to QIDs. The step gives
   back the page, its tables and its linked tables, or the status and
   reason of an edition without a page;
4. align: ``analyze_family`` folds each edition into the family as it is
   read (its report row, page metrics, each table's
   ``{attribute: [columns]}``, its mentions and the attributes of its
   entity columns), then builds the attribute presence grid and the entity
   matrix, an ordered map ``{entity: {language: [(table_index, row_index), ...]}}``;
5. analyze: one walk over the matrix takes each entity's first non-missing
   value per language for every attribute seen in two or more languages and
   no linked table's entity column (``_attribute_values``); one pass per
   attribute compares them by value kind (``detect_conflicts``); then incompleteness;
6. serialize: the family's part of the report.

A page leaves the gathered editions when its step starts and is dropped
once the family has read it, so each page is freed once it is read and at
most one page is scanned at a time. ``warm_cache`` runs stage 1 and the
same ``_read_edition`` step only, so ``fetch`` warms exactly the QIDs that
``analyze`` links. The pipeline downgrades per-edition problems (missing
pages, unalignable tables) into findings inside the report instead of
aborting; a family only counts as failed when no edition could be analyzed
at all.

``run_pipeline`` and ``warm_cache`` pause Python's cyclic garbage collector
for each family (its steps and the cache save after them) and restore its
state afterwards: the pipeline builds no reference cycles, so a collection
there would free nothing. Between families the collector runs as before.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
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


# Per (language, table index): the table and its columns grouped by attribute.
TableColumns = dict[tuple[str, int], tuple[WikiTable, dict[Attribute, list[int]]]]
# A gathered edition's page, or the status ("absent" or "error") and reason
# of an edition without one.
Fetched = PageDocument | tuple[str, str]
# A table the link step aligned: the table, its linked mentions and its entity column.
Linked = tuple[WikiTable, list[EntityMention], int]


def _gather_editions(entry: FamilyEntry, client: MediaWikiClient, options: PipelineOptions,
                     findings: list[dict]) -> tuple[dict[str, str], dict[str, Fetched]]:
    """Two maps over the distinct languages to analyze, in order: the titles and what was fetched.

    Every page of the family is fetched before any is read. With
    ``options.jobs > 1`` the fetches of a run that may reach the network run
    in that many threads. An offline run reads its pages in the calling
    thread: a cache read and its JSON decoding hold the GIL, so threads there
    only add pool start-up and lock contention.
    """
    try:
        listed = {ref.language: ref.title
                  for ref in client.list_language_versions(entry.seed, options.cache_policy)}
    except (PageMissing, CacheMiss, NetworkError, SnapshotError) as exc:
        findings.append({"kind": "langlinks-unavailable", "family": entry.id,
                         "detail": f"{type(exc).__name__}: {exc}"})
        listed = {entry.seed.language: entry.seed.title}
    requested = options.languages or entry.languages
    wanted = sorted(listed) if requested == "all" else list(dict.fromkeys(requested))

    def fetch(language: str) -> Fetched:
        if language not in listed:
            return "absent", "no edition listed for this language"
        try:
            return client.fetch_page(ArticleRef(language, listed[language]), options.cache_policy)
        except PageMissing:
            return "absent", "page missing in this edition"
        except CacheMiss:
            return "absent", "no cached snapshot (offline run)"
        except (NetworkError, SnapshotError) as exc:
            logger.warning("fetch failed for %s:%s: %s", language, listed[language], exc)
            return "error", str(exc)

    titles = {language: listed.get(language, entry.seed.title) for language in wanted}
    if options.jobs > 1 and len(wanted) > 1 and not options.offline:
        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            return titles, dict(zip(wanted, pool.map(fetch, wanted)))
    return titles, {language: fetch(language) for language in wanted}


def _read_edition(entry: FamilyEntry, language: str, fetched: Fetched, client: MediaWikiClient,
                  options: PipelineOptions, link_findings: list[dict],
                  ) -> tuple[PageDocument, list[WikiTable], list[Linked]] | tuple[str, str]:
    """Extract and link one gathered edition: its page, tables and linked tables.

    An edition without a page gives back its status and reason, and so does
    a page whose scan fails, as an ``"error"`` like a failed fetch. Each
    table's entity column is the manifest's hint, else the detected one; a
    table without a usable one is left out of alignment. Each other table
    links one mention per row to a QID; a row whose entity cell gives no
    alignment key (see ``mention_key``) is left out and counted in the
    table's ``rows-skipped`` finding. These findings go to ``link_findings``.
    The step keeps no reference to the page, so it is freed once the caller
    drops the result.
    """
    if not isinstance(fetched, PageDocument):
        return fetched
    try:
        tables = extract_tables(fetched)
    except ParseError as exc:
        logger.warning("parse failed for %s: %s", fetched.article.key, exc)
        return "error", str(exc)
    linked = []
    for table in tables:
        where = {"family": entry.id, "language": language, "table_index": table.table_index}
        col = entry.column_hint(language, table.table_index)
        if col is None:
            col = detect_entity_column(table)
        if col is None or col >= table.n_cols:
            link_findings.append({"kind": "no-entity-column", **where,
                                  "detail": "table excluded from alignment"})
            continue
        mentions = link_mentions(extract_row_entities(table, col, options.extra_missing),
                                 language, client, options.cache_policy)
        mentions = [m for m in mentions if mention_key(m, language) is not None]
        skipped = table.n_body_rows - len(mentions)
        if skipped:
            link_findings.append({"kind": "rows-skipped", **where,
                                  "detail": f"{skipped} row(s) with empty entity cells"})
        linked.append((table, mentions, col))
    return fetched, tables, linked


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
    if not 0 <= options.rel_tol < math.inf:
        raise ValueError(f"rel_tol must be a finite number >= 0, got {options.rel_tol!r}")
    window = timedelta(days=options.staleness_days)
    findings: list[dict] = []
    link_findings: list[dict] = []
    titles, pages = _gather_editions(entry, client, options, findings)
    # Fold each edition into the family as it is read.
    columns: TableColumns = {}
    attr_languages: dict[Attribute, set[str]] = {}
    main_attributes: dict[str, Optional[list[Attribute]]] = {}
    revision_timestamps = {}
    mentions_by_language: dict[str, list[EntityMention]] = {}
    aligned_languages = []
    row_keys: set[Attribute] = set()  # the attributes of linked tables' entity columns
    edition_rows = []
    for language, title in titles.items():
        read = _read_edition(entry, language, pages.pop(language), client, options, link_findings)
        if isinstance(read[0], str):  # no page: the edition's status and reason
            status, reason = read
            findings.append({"kind": "edition-absent" if status == "absent" else "fetch-error",
                             "family": entry.id, "language": language, "detail": reason})
            edition_rows.append({"language": language, "title": title, "status": status,
                                 "detail": reason})
            continue
        page, tables, linked = read
        metrics = page_stats(tables=tables, reference_count=count_references(page),
                             main_override=entry.main_table_index.get(language),
                             extra_missing=options.extra_missing, all_tables=options.all_tables)
        for table in tables:
            by_attr = resolve_columns(table, language, mapping)
            columns[(language, table.table_index)] = table, by_attr
            for attr in by_attr:
                attr_languages.setdefault(attr, set()).add(language)
        main = metrics["main_table_index"]
        main_attributes[language] = None if main is None else list(columns[(language, main)][1])
        revision_timestamps[language] = page.revision_timestamp
        edition_rows.append({
            "language": language,
            "title": title,
            "status": "ok",
            "revision_id": page.revision_id,
            "revision_timestamp": format_ts(page.revision_timestamp),
            **metrics,
        })
        del page, read  # else this page and its scan live on while the next one is read
        mentions_by_language[language] = [m for _table, mentions, _col in linked for m in mentions]
        if linked:
            aligned_languages.append(language)
        row_keys.update(attr for table, _mentions, col in linked
                        for attr, cols in columns[(language, table.table_index)][1].items()
                        if col in cols)
    findings.extend(link_findings)

    matrix = build_matrix(mentions_by_language)
    presence = build_presence_grid(main_attributes, mapping)

    # Compare attributes seen in >= 2 languages, but no entity column: a row key is not a value.
    compared = [attr for attr in mapping.attributes
                if len(attr_languages.get(attr, ())) >= 2 and attr not in row_keys]
    records: list[dict] = []
    for attr, values in _attribute_values(matrix, columns, compared,
                                          options.extra_missing).items():
        conflicts, conflict_findings = detect_conflicts(entry.id, attr, values, options.rel_tol,
                                                        revision_timestamps, window)
        records.extend(conflicts)
        findings.extend(conflict_findings)

    records.extend(detect_incompleteness(entry.id, presence, matrix, aligned_languages))

    return {
        "id": entry.id,
        "seed": {"language": entry.seed.language, "title": entry.seed.title},
        "status": "ok" if mentions_by_language else "failed",
        "languages_requested": list(titles),
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
            titles, pages = _gather_editions(entry, client, options, [])
            for language in titles:
                # The step's result is never bound, so its page goes when it returns.
                if isinstance(_read_edition(entry, language, pages.pop(language), client,
                                            options, [])[0], str):
                    absent += 1
                else:
                    fetched += 1
    return {"fetched": fetched, "absent_or_failed": absent}
