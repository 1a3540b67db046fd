"""Per-page and per-family quantitative metrics.

Three measures per (article, language): how many data tables the page has,
how many reference-list items it cites, and how complete the columns of its
main table are. A language that lacks the article contributes nothing, which
is not the same as a page with zero tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .table_parser import WikiTable
from .value_analysis import is_missing


@dataclass
class PageStats:
    """Metric bundle for one (article, language) page."""

    table_count: int
    reference_count: int
    main_table_index: Optional[int]
    total_columns: int = 0
    complete_columns: int = 0
    incomplete_columns: int = 0

    def __post_init__(self):
        if self.complete_columns + self.incomplete_columns != self.total_columns:
            raise ValueError("complete + incomplete must equal total columns")


@dataclass
class LanguageAggregate:
    pages: int = 0
    pages_with_tables: int = 0
    table_count: int = 0
    reference_total: int = 0
    reference_mean: float = 0.0
    columns_total: int = 0
    columns_complete: int = 0
    columns_incomplete: int = 0
    incompleteness_rate: float = 0.0


@dataclass
class FamilyStats:
    """All PageStats of one article family plus per-language aggregates."""

    family: str
    per_language: dict[str, list[PageStats]] = field(default_factory=dict)

    def aggregates(self) -> dict[str, LanguageAggregate]:
        return {lang: aggregate_pages(stats) for lang, stats in self.per_language.items()}


def select_main_table(tables: list[WikiTable], override: Optional[int] = None) -> Optional[int]:
    """Index of the page's primary table: largest body area, earliest on ties.

    A manifest override wins when valid. Returns None for a page without
    qualifying tables.
    """
    if override is not None and 0 <= override < len(tables):
        return override
    best: Optional[int] = None
    best_area = -1
    for table in tables:
        area = table.n_body_rows * table.n_cols
        if area > best_area:
            best, best_area = table.table_index, area
    return best


def column_completeness(table: WikiTable, extra_missing: tuple[str, ...] = ()) -> tuple[int, int, int]:
    """(total, complete, incomplete) columns of one table.

    A column is complete iff none of its body cells is a missing value; pad
    cells inserted during span repair are empty and therefore missing. A
    table with zero body rows is vacuously complete.
    """
    total = table.n_cols
    incomplete = 0
    for col in range(total):
        if any(is_missing(row[col].text, extra_missing) for row in table.body_rows):
            incomplete += 1
    return total, total - incomplete, incomplete


def page_stats(tables: list[WikiTable], reference_count: int,
               main_override: Optional[int] = None,
               extra_missing: tuple[str, ...] = (),
               all_tables: bool = False) -> PageStats:
    """Assemble the stats bundle for one fetched page.

    Column completeness covers the main table only unless ``all_tables`` is
    set (which goes beyond the standard protocol and is labeled as such by
    the CLI).
    """
    main_index = select_main_table(tables, main_override)
    total = complete = incomplete = 0
    if all_tables:
        for table in tables:
            t, c, i = column_completeness(table, extra_missing)
            total, complete, incomplete = total + t, complete + c, incomplete + i
    elif main_index is not None:
        total, complete, incomplete = column_completeness(tables[main_index], extra_missing)
    return PageStats(
        table_count=len(tables),
        reference_count=reference_count,
        main_table_index=main_index,
        total_columns=total,
        complete_columns=complete,
        incomplete_columns=incomplete,
    )


def aggregate_pages(pages: list[PageStats]) -> LanguageAggregate:
    agg = LanguageAggregate()
    for p in pages:
        agg.pages += 1
        agg.pages_with_tables += 1 if p.table_count else 0
        agg.table_count += p.table_count
        agg.reference_total += p.reference_count
        agg.columns_total += p.total_columns
        agg.columns_complete += p.complete_columns
        agg.columns_incomplete += p.incomplete_columns
    if agg.pages:
        agg.reference_mean = round(agg.reference_total / agg.pages, 1)
    if agg.columns_total:
        agg.incompleteness_rate = round(100.0 * agg.columns_incomplete / agg.columns_total, 1)
    return agg


def aggregate_corpus(families: list[FamilyStats], languages: list[str]) -> dict[str, LanguageAggregate]:
    """Per-language aggregates across all families of a run.

    Means divide by pages actually present, so coverage gaps are not
    zero-filled into the denominators.
    """
    combined: dict[str, list[PageStats]] = {lang: [] for lang in languages}
    for family in families:
        for lang, pages in family.per_language.items():
            combined.setdefault(lang, []).extend(pages)
    return {lang: aggregate_pages(pages) for lang, pages in combined.items()}
