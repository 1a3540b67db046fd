"""Per-page and per-language quantitative metrics.

Three measures per (article, language): how many data tables the page has,
how many reference-list items it cites, and how complete the columns of its
main table are. ``page_stats`` returns them as the metric fields of the
page's edition row in the report; that row is their only record, and both
the per-family and the corpus aggregates are computed from such rows. A
language that lacks the article contributes no row, which is not the same
as a page with zero tables.
"""

from __future__ import annotations

from typing import Optional

from .table_parser import WikiTable
from .value_analysis import is_missing


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
               all_tables: bool = False) -> dict:
    """The metric fields of one fetched page's edition row, in report order.

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
    return {
        "table_count": len(tables),
        "reference_count": reference_count,
        "main_table_index": main_index,
        "columns": {"total": total, "complete": complete, "incomplete": incomplete},
    }


def aggregate_pages(rows: list[dict]) -> dict:
    """Aggregates over ok edition rows, one row per page."""
    pages = len(rows)
    reference_total = sum(row["reference_count"] for row in rows)
    columns_total = sum(row["columns"]["total"] for row in rows)
    columns_incomplete = sum(row["columns"]["incomplete"] for row in rows)
    return {
        "pages": pages,
        "pages_with_tables": sum(1 for row in rows if row["table_count"]),
        "table_count": sum(row["table_count"] for row in rows),
        "reference_total": reference_total,
        "reference_mean": round(reference_total / pages, 1) if pages else 0.0,
        "columns_total": columns_total,
        "columns_complete": sum(row["columns"]["complete"] for row in rows),
        "columns_incomplete": columns_incomplete,
        "incompleteness_rate": (round(100.0 * columns_incomplete / columns_total, 1)
                                if columns_total else 0.0),
    }


def aggregate_corpus(families: list[dict], languages: list[str]) -> dict[str, dict]:
    """Per-language aggregates over the ok edition rows of a run's family dicts.

    Every run language is present; means divide by pages actually present,
    so coverage gaps are not zero-filled into the denominators.
    """
    rows: dict[str, list[dict]] = {lang: [] for lang in languages}
    for family in families:
        for row in family["editions"]:
            if row["status"] == "ok":
                rows.setdefault(row["language"], []).append(row)
    return {lang: aggregate_pages(lang_rows) for lang, lang_rows in rows.items()}
