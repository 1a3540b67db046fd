"""End-to-end analysis of one article family, in stages.

1. gather (``_gather_editions``): list the family's editions and fetch one
   page per wanted language;
2. extract (``_extract``): parse each page and extract its data tables;
3. link (``_link_edition``): choose each table's entity column, take one
   mention per row and resolve the mentions' links to QIDs;
4. align: page metrics, the entity matrix, per-table columns resolved to
   attributes, and the attribute presence grid;
5. analyze: one walk over the matrix's occurrences takes each entity's
   first non-missing value per language for every attribute seen in two or
   more languages (``_attribute_values``); then value conflicts, text
   divergence and incompleteness;
6. serialize: the family's part of the report.

``warm_cache`` runs the first three stages only, so ``fetch`` warms exactly
the QIDs that ``analyze`` links. The pipeline downgrades per-edition problems
(missing pages, unalignable tables) into findings inside the report instead
of aborting; a family only counts as failed when no edition could be
analyzed at all.
"""

from __future__ import annotations

import hashlib
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Optional

from . import __version__
from .entity_align import (AlignedMatrix, EntityKey, EntityMention, build_matrix,
                           detect_entity_column, extract_row_entities, link_mentions)
from .errors import CacheMiss, NetworkError, PageMissing, ParseError
from .manifest import DatasetManifest, FamilyEntry
from .metrics import aggregate_corpus, aggregate_pages, page_stats
from .mw_client import (ArticleRef, CachePolicy, MediaWikiClient, PageDocument, count_references,
                        format_ts, utc_now)
from .schema_align import Attribute, HeaderMapping, build_presence_grid, resolve_columns
from .table_parser import WikiTable, extract_tables
from .value_analysis import (MISSING, CellValue, classify, detect_conflicts, detect_incompleteness,
                             detect_text_divergence, is_missing, parse_value)

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
    except (PageMissing, CacheMiss, NetworkError) as exc:
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
    except NetworkError as exc:
        logger.warning("fetch failed for %s:%s: %s", language, title, exc)
        return EditionData(language, title, "error", reason=str(exc))
    return EditionData(language, title, "ok", doc=doc)


def _gather_editions(entry: FamilyEntry, client: MediaWikiClient, options: PipelineOptions,
                     findings: list[dict]) -> tuple[list[str], list[EditionData]]:
    """The distinct languages to analyze and one fetched edition per language, in order.

    With ``options.jobs > 1`` the page fetches run in that many threads.
    """
    titles = _edition_titles(entry, client, options, findings)
    requested = options.languages or entry.languages
    wanted = sorted(titles) if requested == "all" else list(dict.fromkeys(requested))

    editions: list[EditionData] = []
    to_fetch: list[tuple[str, str]] = []
    for language in wanted:
        title = titles.get(language)
        if title is None:
            editions.append(EditionData(language, entry.seed.title, "absent",
                                        reason="no edition listed for this language"))
        else:
            to_fetch.append((language, title))

    if options.jobs > 1 and len(to_fetch) > 1:
        with ThreadPoolExecutor(max_workers=options.jobs) as pool:
            fetched = list(pool.map(
                lambda pair: _fetch_edition(client, pair[0], pair[1], options), to_fetch))
    else:
        fetched = [_fetch_edition(client, lang, title, options) for lang, title in to_fetch]
    editions.extend(fetched)
    editions.sort(key=lambda e: wanted.index(e.language))
    return wanted, editions


def _extract(edition: EditionData) -> None:
    """Extract the tables of an ok edition's page, which is parsed here on first use.

    A page that cannot be parsed turns the edition into an error, like a
    failed fetch.
    """
    try:
        edition.tables = extract_tables(edition.doc)
    except ParseError as exc:
        logger.warning("parse failed for %s:%s: %s", edition.language, edition.title, exc)
        edition.status, edition.reason, edition.doc = "error", str(exc), None


def _link_edition(entry: FamilyEntry, edition: EditionData, client: MediaWikiClient,
                  options: PipelineOptions, findings: list[dict]) -> None:
    """Link one mention per row of each table to a QID, into ``edition.linked``.

    A table's entity column is the manifest's hint, else the detected one;
    a table without a usable entity column is left out of alignment.
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
        mentions = extract_row_entities(table, col, options.extra_missing)
        skipped = table.n_body_rows - len(mentions)
        if skipped:
            findings.append({"kind": "rows-skipped", **where,
                             "detail": f"{skipped} row(s) with empty entity cells"})
        mentions = link_mentions(mentions, edition.language, client, options.cache_policy)
        edition.linked.append((table, mentions, col))


def _table_columns(language: str, tables: list[WikiTable],
                   mapping: HeaderMapping) -> TableColumns:
    """Each table's columns, grouped by the attribute they resolve to."""
    out: TableColumns = {}
    for table in tables:
        by_attr: dict[Attribute, list[int]] = {}
        for col, attr in resolve_columns(table, language, mapping):
            by_attr.setdefault(attr, []).append(col)
        out[(language, table.table_index)] = (table, by_attr)
    return out


def _attribute_values(
    matrix: AlignedMatrix,
    columns: TableColumns,
    attributes: list[Attribute],
    extra_missing: tuple[str, ...],
) -> dict[Attribute, dict[EntityKey, dict[str, CellValue]]]:
    """First non-missing value per (entity, language) of each attribute, in one walk.

    The value is the first non-missing cell in occurrence order, then column
    order. Languages where no occurrence table carries the attribute's column
    are left out; a language whose cells are all missing markers maps to
    MISSING. Entities keep ``matrix.entities`` order and languages
    ``matrix.languages`` order; an entity with no language is left out.
    Equal attributes share one entry.
    """
    values: dict[Attribute, dict[EntityKey, dict[str, CellValue]]] = {a: {} for a in attributes}
    # Per table: its body rows and, for each compared attribute it carries,
    # that attribute's output dict and columns.
    plans = {key: (table.body_rows, [(values[attr], cols) for attr, cols in by_attr.items()
                                     if attr in values])
             for key, (table, by_attr) in columns.items()}
    for entity in matrix.entities:
        for language in matrix.languages:
            for table_index, row_index in matrix.occurrences(entity, language):
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
                        if not is_missing(text, extra_missing):
                            value = parse_value(text, language)
                            break
                    by_language[language] = value
    return values


def analyze_family(entry: FamilyEntry, mapping: HeaderMapping, client: MediaWikiClient,
                   options: PipelineOptions) -> dict:
    """The family's part of the report, as one plain JSON-ready dict."""
    findings: list[dict] = []
    wanted, editions = _gather_editions(entry, client, options, findings)
    for edition in editions:
        if edition.status == "ok":
            _extract(edition)

    for edition in editions:
        if edition.status != "ok":
            findings.append({
                "kind": "edition-absent" if edition.status == "absent" else "fetch-error",
                "family": entry.id,
                "language": edition.language,
                "detail": edition.reason,
            })

    # Link each edition, then its page metrics and column attributes.
    columns: TableColumns = {}
    main_attributes: dict[str, Optional[list[Attribute]]] = {}
    edition_rows = []
    for edition in editions:
        if edition.status != "ok":
            edition_rows.append({"language": edition.language, "title": edition.title,
                                 "status": edition.status, "detail": edition.reason})
            continue
        _link_edition(entry, edition, client, options, findings)
        doc = edition.doc
        metrics = page_stats(
            tables=edition.tables,
            reference_count=count_references(doc),
            main_override=entry.main_table_index.get(edition.language),
            extra_missing=options.extra_missing,
            all_tables=options.all_tables,
        )
        columns.update(_table_columns(edition.language, edition.tables, mapping))
        main = metrics["main_table_index"]
        main_attributes[edition.language] = (
            None if main is None else list(columns[(edition.language, main)][1]))
        edition_rows.append({
            "language": edition.language,
            "title": edition.title,
            "status": "ok",
            "revision_id": doc.revision_id,
            "revision_timestamp": format_ts(doc.revision_timestamp),
            **metrics,
        })

    analyzed = [e for e in editions if e.status == "ok"]
    languages = [e.language for e in analyzed]
    aligned_languages = [e.language for e in analyzed if e.linked]
    matrix = build_matrix({e.language: [m for _table, mentions, _col in e.linked for m in mentions]
                           for e in analyzed}, languages=languages)
    presence = build_presence_grid(main_attributes, mapping, languages=languages)

    # Conflicts and text divergence over attributes seen in >= 2 languages.
    revision_timestamps = {e.language: e.doc.revision_timestamp for e in analyzed}
    attr_languages: dict[Attribute, set[str]] = {}
    for (language, _index), (_table, by_attr) in columns.items():
        for attr in by_attr:
            attr_languages.setdefault(attr, set()).add(language)
    # An attribute serving as an entity column is skipped in text-divergence
    # checks: the row key is language-specific.
    entity_column_attrs: set[Attribute] = set()
    for edition in analyzed:
        for table, _mentions, col in edition.linked:
            by_attr = columns[(edition.language, table.table_index)][1]
            entity_column_attrs.update(attr for attr, cols in by_attr.items() if col in cols)

    records: list[dict] = []
    window = timedelta(days=options.staleness_days)
    compared = [attr for attr in mapping.attributes if len(attr_languages.get(attr, ())) >= 2]
    for attr, values in _attribute_values(matrix, columns, compared,
                                          options.extra_missing).items():
        conflicts, conflict_findings = detect_conflicts(entry.id, attr, values, options.rel_tol)
        findings.extend(conflict_findings)
        records.extend(classify(record, revision_timestamps, window) for record in conflicts)
        if attr not in entity_column_attrs:
            findings.extend(detect_text_divergence(entry.id, attr, values))

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
                "occurrences": {
                    lang: [list(occurrence) for occurrence in matrix.occurrences(entity, lang)]
                    for lang in matrix.languages if matrix.occurrences(entity, lang)
                },
            }
            for entity in matrix.entities
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


def run_pipeline(manifest: DatasetManifest, mapping: HeaderMapping,
                 client: MediaWikiClient, options: PipelineOptions) -> dict:
    """Analyze every family in the manifest and assemble the report dict."""
    families = []
    for entry in manifest.families:
        try:
            families.append(analyze_family(entry, mapping, client, options))
        finally:
            client.save()

    if options.languages and options.languages != "all":
        run_languages = options.languages
    else:
        run_languages = _union_languages(families)
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


def _union_languages(families: list[dict]) -> list[str]:
    seen: dict[str, None] = {}
    for family in families:
        for lang in family["languages_requested"]:
            seen.setdefault(lang, None)
    return list(seen)


def warm_cache(manifest: DatasetManifest, mapping: HeaderMapping, client: MediaWikiClient,
               options: PipelineOptions) -> dict:
    """Populate page, langlink and QID caches without running the analysis.

    Runs the gather, extract and link stages of ``analyze_family``, so it
    resolves exactly the QIDs an analysis of the manifest links. Those
    stages read no header mapping: ``mapping`` is unused and stays for
    callers that pass it positionally. The QID and langlink maps are saved
    after each family, also when the family fails part way.
    """
    fetched = absent = 0
    for entry in manifest.families:
        try:
            _wanted, editions = _gather_editions(entry, client, options, [])
            for edition in editions:
                if edition.status == "ok":
                    _extract(edition)
                    # Drop each page once extracted, so a family's trees never coexist.
                    edition.doc = None
                if edition.status != "ok":
                    absent += 1
                    continue
                fetched += 1
                _link_edition(entry, edition, client, options, [])
        finally:
            client.save()
    return {"fetched": fetched, "absent_or_failed": absent}
