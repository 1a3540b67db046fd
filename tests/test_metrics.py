from datetime import datetime, timezone

from tablediff.metrics import (FamilyStats, PageStats, aggregate_corpus, aggregate_pages,
                               column_completeness, page_stats, select_main_table)
from tablediff.mw_client import ArticleRef, CachePolicy, PageDocument
from tablediff.table_parser import extract_tables

TS = datetime(2025, 1, 1, tzinfo=timezone.utc)


def tables_from(*specs):
    """Build WikiTables with given (rows, cols) body shapes."""
    html = ""
    for rows, cols in specs:
        header = "".join(f"<th>h{c}</th>" for c in range(cols))
        body = "".join(
            "<tr>" + "".join(f"<td>v{r}{c}</td>" for c in range(cols)) + "</tr>"
            for r in range(rows)
        )
        html += f'<table class="wikitable"><tbody><tr>{header}</tr>{body}</tbody></table>'
    page = PageDocument(article=ArticleRef("en", "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)
    return extract_tables(page)


def test_select_main_table_strict_dominance():
    tables = tables_from((3, 2), (7, 5))
    assert select_main_table(tables) == 1


def test_select_main_table_tie_prefers_earlier():
    tables = tables_from((5, 4), (5, 4))
    assert select_main_table(tables) == 0


def test_select_main_table_override_and_empty():
    tables = tables_from((3, 2), (7, 5))
    assert select_main_table(tables, override=0) == 0
    assert select_main_table(tables, override=99) == 1  # invalid override ignored
    assert select_main_table([]) is None


def test_seven_summits_fixture_main_is_the_summits_table(offline_client, golden):
    page = offline_client.fetch_page(ArticleRef("en", "Seven Summits"), CachePolicy.OFFLINE_ONLY)
    tables = extract_tables(page)
    index = select_main_table(tables)
    assert index == golden["main_table_index"]["seven_summits"]["en"]
    assert tables[index].n_body_rows == 7


def test_eight_thousander_en_main_is_not_first_table(offline_client, golden):
    page = offline_client.fetch_page(ArticleRef("en", "Eight-thousander"),
                                     CachePolicy.OFFLINE_ONLY)
    index = select_main_table(extract_tables(page))
    assert index == golden["main_table_index"]["eight_thousander"]["en"] == 1


def table_with_cells(rows):
    body = "".join("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows)
    header = "<tr>" + "".join(f"<th>h{i}</th>" for i in range(len(rows[0]))) + "</tr>"
    html = f'<table class="wikitable"><tbody>{header}{body}</tbody></table>'
    page = PageDocument(article=ArticleRef("en", "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)
    return extract_tables(page)[0]


def test_column_completeness_counts_missing_columns():
    table = table_with_cells([["a", "—", "c"], ["d", "e", "f"]])
    assert column_completeness(table) == (3, 2, 1)


def test_column_completeness_vacuous_on_headers_only():
    html = ('<table class="wikitable"><tbody><tr><th>a</th><th>b</th></tr></tbody></table>')
    page = PageDocument(article=ArticleRef("en", "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)
    table = extract_tables(page)[0]
    assert column_completeness(table) == (2, 2, 0)


def test_column_completeness_counts_pads_as_missing():
    table = table_with_cells([["a", "b"], ["c"]])  # ragged second row gets a pad
    assert column_completeness(table) == (2, 1, 1)


def test_page_stats_invariants_and_monotonicity():
    small = tables_from((3, 2))
    bigger = tables_from((3, 2), (2, 2))
    a = page_stats(small, reference_count=5)
    b = page_stats(bigger, reference_count=5)
    assert a.complete_columns + a.incomplete_columns == a.total_columns
    assert b.table_count >= a.table_count
    assert b.total_columns >= a.total_columns


def test_aggregate_consistency_recomputable():
    pages = [
        PageStats(table_count=2, reference_count=10, main_table_index=0,
                  total_columns=5, complete_columns=4, incomplete_columns=1),
        PageStats(table_count=0, reference_count=3, main_table_index=None),
    ]
    agg = aggregate_pages(pages)
    assert agg.pages == 2
    assert agg.pages_with_tables == 1
    assert agg.table_count == 2
    assert agg.reference_total == 13
    assert agg.reference_mean == 6.5
    assert agg.columns_total == 5
    assert agg.incompleteness_rate == 20.0


def test_absence_is_not_zero():
    fam = FamilyStats("fam", per_language={"en": [
        PageStats(table_count=0, reference_count=0, main_table_index=None)]})
    corpus = aggregate_corpus([fam], ["en", "de"])
    assert corpus["en"].pages == 1          # page exists with zero tables
    assert corpus["de"].pages == 0          # edition absent: no page at all
    assert corpus["de"].reference_mean == 0.0
