"""Row-entity extraction and the cross-language entity alignment matrix.

Rows are keyed by Wikidata QID wherever a wiki-link resolves to one; rows
without a usable link stay language-local, keyed by their folded surface
form. Only QIDs ever cross the language boundary. The matrix is a plain
ordered map, ``{entity: {language: [(table_index, row_index), ...]}}``.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple, Optional

from .mw_client import CachePolicy, MediaWikiClient
from .table_parser import WikiTable
from .value_analysis import missing_markers


class EntityMention(NamedTuple):
    """The entity one body row describes."""

    table_index: int
    row_index: int
    surface: str
    link_title: Optional[str]
    qid: Optional[str] = None


class EntityKey(NamedTuple):
    """Alignment key: a QID, or a language-scoped folded surface form."""

    kind: str  # "qid" | "surface"
    value: str
    language: Optional[str] = None

    @property
    def is_qid(self) -> bool:
        return self.kind == "qid"

    def label(self) -> str:
        if self.is_qid:
            return self.value
        return f"{self.language}:{self.value}"

    def to_json(self) -> dict:
        return {key: field for key, field in self._asdict().items() if field is not None}


# entity -> language -> that language's (table_index, row_index) occurrences
EntityMatrix = dict[EntityKey, dict[str, list[tuple[int, int]]]]


def fold_surface(surface: str) -> str:
    """Case-folded, diacritic-stripped key for unlinked mentions."""
    text = unicodedata.normalize("NFKD", surface.casefold())
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    return re.sub(r"\s+", " ", text).strip()


def detect_entity_column(table: WikiTable) -> Optional[int]:
    """Leftmost column with the most distinct link titles over the body rows.

    A title that repeats in a column counts once, so a column that links
    each row to its subject outscores one that links most rows to a few
    countries.
    """
    best_col, best_count = None, 0
    for col in range(table.n_cols):
        count = len({row[col].link_title for row in table.body_rows if row[col].link_title})
        if count > best_count:
            best_col, best_count = col, count
    return best_col


def extract_row_entities(table: WikiTable, col: int,
                         extra_missing: tuple[str, ...] = ()) -> list[EntityMention]:
    """One mention per body row, taken from entity column ``col``.

    Rows whose unlinked entity cell is empty or a missing-value marker (the
    defaults plus ``extra_missing``) are skipped: the caller can itemize
    them as ``row_index`` gaps.
    """
    markers = missing_markers(extra_missing)
    mentions = []
    for row_index, row in enumerate(table.body_rows):
        cell = row[col]
        if cell.link_title is None and cell.text in markers:
            continue
        mentions.append(EntityMention(
            table_index=table.table_index,
            row_index=row_index,
            surface=cell.text,
            link_title=cell.link_title,
        ))
    return mentions


def link_mentions(mentions: list[EntityMention], language: str, client: MediaWikiClient,
                  cache_policy: CachePolicy = CachePolicy.PREFER_CACHE) -> list[EntityMention]:
    """Populate ``qid`` via batched QID resolution of the mentions' links."""
    titles = [m.link_title for m in mentions if m.link_title]
    resolved = client.resolve_qids(language, titles, cache_policy) if titles else {}
    return [
        m._replace(qid=resolved.get(m.link_title)) if m.link_title else m
        for m in mentions
    ]


def mention_key(mention: EntityMention, language: str) -> Optional[EntityKey]:
    """The mention's QID key, else its folded surface; None when both are empty."""
    if mention.qid:
        return EntityKey("qid", mention.qid)
    folded = fold_surface(mention.surface)
    if not folded:
        return None
    return EntityKey("surface", folded, language)


def build_matrix(mentions_by_language: dict[str, list[EntityMention]]) -> EntityMatrix:
    """Group each language's mentions into ``{entity: {language: occurrences}}``.

    Entities are ordered by descending language coverage, then ascending QID
    number; surface-keyed entities sort after QIDs with the same coverage.
    Each entity's languages keep the order of ``mentions_by_language``, and
    each language's occurrences are sorted. A mention with no key (see
    ``mention_key``) is left out, so a language appears only under the
    entities it mentions.
    """
    matrix: EntityMatrix = {}
    for lang, mentions in mentions_by_language.items():
        for mention in mentions:
            key = mention_key(mention, lang)
            if key is not None:
                matrix.setdefault(key, {}).setdefault(lang, []).append(
                    (mention.table_index, mention.row_index))
    for by_language in matrix.values():
        for occurrences in by_language.values():
            occurrences.sort()

    def order(item: tuple[EntityKey, dict]):
        key, coverage = item[0], len(item[1])
        if key.is_qid:
            return (-coverage, 0, int(key.value[1:]), "", "")
        return (-coverage, 1, 0, key.value, key.language or "")

    return dict(sorted(matrix.items(), key=order))
