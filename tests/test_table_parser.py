import hashlib
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from tablediff.htmldom import Node
from tablediff.mw_client import ArticleRef, PageDocument
from tablediff.table_parser import (_HTML_SPAN_CAP, Cell, _cell_content, detect_header,
                                    expand_spans, extract_tables, link_target, normalize_text)

from conftest import FIXTURE_CACHE, REPO
from oracles import oracle_expand, oracle_header_flags

TS = datetime(2025, 1, 1, tzinfo=timezone.utc)


def doc(html: str) -> PageDocument:
    return PageDocument(article=ArticleRef("en", "T"), html=html,
                        revision_id=1, revision_timestamp=TS, fetched_at=TS)


def table_html(inner: str, cls: str = "wikitable") -> str:
    return f'<table class="{cls}"><tbody>{inner}</tbody></table>'


# -- normalization -----------------------------------------------------------

def test_normalize_strips_footnotes_and_nbsp():
    assert normalize_text("8,848[7]") == "8,848"
    assert normalize_text("text[a]") == "text"
    assert normalize_text("value[note 3]") == "value"
    assert normalize_text("plain\u00a0text") == "plain text"
    assert normalize_text("  a   b  ") == "a b"


def test_normalize_keeps_non_marker_brackets():
    assert normalize_text("Everest [the mountain]") == "Everest [the mountain]"


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


# -- link extraction ---------------------------------------------------------

def test_link_target_resolution():
    assert link_target("/wiki/Mount_Everest", None) == "Mount Everest"
    assert link_target("/wiki/Mount_Everest#Summit", None) == "Mount Everest"
    assert link_target("/wiki/X", "Mount Everest") == "Mount Everest"
    assert link_target("/wiki/File:Photo.jpg", None) is None
    assert link_target("/w/index.php?title=X&action=edit&redlink=1", None) is None
    assert link_target(None, "X") is None


# -- extraction and filtering ------------------------------------------------

def test_extract_skips_non_wikitable_and_excluded_classes():
    html = (
        table_html("<tr><th>H</th></tr><tr><td>a</td></tr>")
        + table_html("<tr><td>nav</td></tr>", cls="navbox")
        + table_html("<tr><td>info</td></tr>", cls="infobox wikitable")
        + '<table><tbody><tr><td>plain</td></tr></tbody></table>'
    )
    tables = extract_tables(doc(html))
    assert len(tables) == 1
    assert tables[0].table_index == 0


def test_extract_no_wikitable_gives_empty_list():
    assert extract_tables(doc("<p>prose only</p>")) == []


def test_nested_tables_flatten_into_cell():
    inner = table_html("<tr><td>inner</td></tr>")
    html = table_html(f"<tr><th>H</th></tr><tr><td>outer {inner}</td></tr>")
    tables = extract_tables(doc(html))
    assert len(tables) == 1
    assert tables[0].n_body_rows == 1
    assert "inner" in tables[0].body_rows[0][0].text


def test_wikitable_inside_layout_table_is_not_emitted():
    nested = table_html("<tr><th>H</th></tr><tr><td>nested</td></tr>")
    html = (f"<table><tbody><tr><td>{nested}</td></tr></tbody></table>"
            + table_html("<tr><th>H</th></tr><tr><td>after</td></tr>"))
    tables = extract_tables(doc(html))
    assert [(t.table_index, t.body_rows[0][0].text) for t in tables] == [(0, "after")]


def test_document_order_and_indexes():
    html = "".join(table_html(f"<tr><th>H</th></tr><tr><td>t{i}</td></tr>") for i in range(3))
    tables = extract_tables(doc(html))
    assert [t.table_index for t in tables] == [0, 1, 2]
    assert [t.body_rows[0][0].text for t in tables] == ["t0", "t1", "t2"]


def test_cell_text_and_links_from_fixture_markup():
    html = table_html(
        "<tr><th>Mountain</th><th>Height (m)</th></tr>"
        '<tr><td><a href="/wiki/Mount_Everest" title="Mount Everest">Everest</a>'
        '<sup class="reference"><a href="#cite_note-1">[1]</a></sup></td>'
        "<td>8,849</td></tr>"
    )
    table = extract_tables(doc(html))[0]
    cell = table.body_rows[0][0]
    assert cell.text == "Everest"
    assert cell.link_title == "Mount Everest"
    assert table.body_rows[0][1].text == "8,849"


@pytest.mark.parametrize("cell_html, text, link", [
    # an anchor whose parent is a reference sup is skipped, with the sup's text
    ('<sup class="reference"><a href="/wiki/Note">[1]</a></sup><a href="/wiki/Real">R</a>',
     "R", "Real"),
    ('<sup id="cite_ref-2"><a href="/wiki/Note">[2]</a></sup><a href="/wiki/Real">R</a>',
     "R", "Real"),
    # only the parent counts: an anchor deeper inside the sup still wins
    ('<sup class="reference"><span><a href="/wiki/Deep">[3]</a></span></sup>'
     '<a href="/wiki/Later">L</a>', "L", "Deep"),
    # red links are skipped
    ('<a href="/w/index.php?title=Red&amp;action=edit&amp;redlink=1" class="new" '
     'title="Red">Red</a> <a href="/wiki/Blue" class="new">B</a> <a href="/wiki/Ok">Ok</a>',
     "Red B Ok", "Ok"),
    # a nested table's links count, in document order
    ('<table><tbody><tr><td><a href="/wiki/Inner">In</a></td></tr></tbody></table>'
     '<a href="/wiki/Outer">Out</a>', "In Out", "Inner"),
    ("plain <b>text</b>", "plain text", None),
])
def test_first_link_rule(cell_html, text, link):
    html = table_html(f"<tr><th>H</th></tr><tr><td>{cell_html}</td></tr>")
    cell = extract_tables(doc(html))[0].body_rows[0][0]
    assert (cell.text, cell.link_title) == (text, link)


def test_first_link_searches_inside_script_and_style():
    # The tokenizer keeps script/style content raw, so only a built tree holds
    # an element there; the rule still searches it while dropping its text.
    td = Node("td")
    style = Node("style")
    style.children.append(Node("a", {"href": "/wiki/Styled"}))
    td.children += [style, "visible"]
    assert _cell_content(td) == ("visible", "Styled")


# -- golden table bytes ------------------------------------------------------

GOLDEN_TABLES = REPO / "fixtures" / "golden" / "tables_sha256.json"


def tables_dump(paths) -> list:
    """Every extracted table of each page, as plain JSON values, in path order."""
    def rows(grid):
        return [[[c.text, c.link_title, c.is_spanned_copy] for c in row] for row in grid]

    out = []
    for path in paths:
        page = PageDocument.from_dict(json.loads(path.read_text(encoding="utf-8")))
        out.append([path.relative_to(FIXTURE_CACHE).as_posix(), [
            {"table_index": t.table_index, "n_cols": t.n_cols,
             "header_rows": rows(t.header_rows), "body_rows": rows(t.body_rows)}
            for t in extract_tables(page)]])
    return out


def test_vendored_tables_match_golden_digest():
    golden = json.loads(GOLDEN_TABLES.read_text(encoding="utf-8"))
    dump = tables_dump(sorted((FIXTURE_CACHE / "pages").rglob("*.json")))
    data = json.dumps(dump, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    actual = {
        "pages": len(dump),
        "tables": sum(len(tables) for _, tables in dump),
        "cells": sum(len(row) for _, tables in dump for t in tables
                     for row in t["header_rows"] + t["body_rows"]),
        "sha256": hashlib.sha256(data.encode("utf-8")).hexdigest(),
    }
    assert actual == golden, f"extracted tables moved: {actual}"


# -- span expansion ----------------------------------------------------------

def raw(text, rowspan=1, colspan=1, header=False):
    return (text, None, header, rowspan, colspan)


def test_expand_identity_on_1x1():
    grid, flags = expand_spans([[raw("a")]])
    assert len(grid) == 1 and len(grid[0]) == 1
    assert grid[0][0].text == "a"
    assert not grid[0][0].is_spanned_copy


def test_expand_rowspan_copies_down():
    grid, _ = expand_spans([[raw("span", rowspan=2), raw("b")], [raw("c")]])
    assert [c.text for c in grid[0]] == ["span", "b"]
    assert [c.text for c in grid[1]] == ["span", "c"]
    assert grid[1][0].is_spanned_copy and not grid[0][0].is_spanned_copy


def test_expand_colspan_occupies_adjacent_columns():
    grid, _ = expand_spans([[raw("wide", colspan=3), raw("x")],
                            [raw("a"), raw("b"), raw("c"), raw("d")]])
    assert all(len(row) == 4 for row in grid)
    assert [c.text for c in grid[0]] == ["wide", "wide", "wide", "x"]
    assert [c.is_spanned_copy for c in grid[0]] == [False, True, True, False]


def test_expand_pads_ragged_rows():
    grid, _ = expand_spans([[raw("a"), raw("b")], [raw("c")]])
    assert [c.text for c in grid[1]] == ["c", ""]
    assert not grid[1][1].is_spanned_copy


def test_expand_rowspan_clipped_at_table_end():
    grid, _ = expand_spans([[raw("deep", rowspan=99)], [raw("x"), raw("y")]])
    assert len(grid) == 2
    assert grid[1][0].text == "deep"


def test_invalid_spans_coerced_to_one():
    html = table_html(
        '<tr><th>H1</th><th>H2</th></tr>'
        '<tr><td rowspan="0">a</td><td colspan="x">b</td></tr>'
        "<tr><td>c</td><td>d</td></tr>"
    )
    table = extract_tables(doc(html))[0]
    assert [c.text for c in table.body_rows[1]] == ["c", "d"]


def rowspan_rows(rowspan: str) -> list[list[str]]:
    html = table_html(
        "<tr><th>H1</th><th>H2</th></tr>"
        f'<tr><td rowspan="{rowspan}">x</td><td>1</td></tr>'
        "<tr><td>2</td></tr>"
    )
    return [[c.text for c in row] for row in extract_tables(doc(html))[0].body_rows]


@pytest.mark.parametrize("rowspan", ["2;", "2px", "2.0", "+2", " \t\n2 ", "02", "2 3"])
def test_rowspan_reads_leading_digits(rowspan):
    assert rowspan_rows(rowspan) == [["x", "1"], ["x", "2"]]


# Only ASCII whitespace is skipped and only ASCII digits are read.
@pytest.mark.parametrize("rowspan", ["-1", "-2", "abc", "", "+", "++2", "x2", "0",
                                     "\u00a02", "\u0662"])
def test_rowspan_without_leading_digits_is_one(rowspan):
    assert rowspan_rows(rowspan) == [["x", "1"], ["2", ""]]


@pytest.mark.parametrize("colspan, width", [("2px", 2), ("3;", 3), ("5000px", _HTML_SPAN_CAP)])
def test_colspan_reads_leading_digits_up_to_the_cap(colspan, width):
    html = table_html(f'<tr><th colspan="{colspan}">wide</th></tr><tr><td>a</td></tr>')
    table = extract_tables(doc(html))[0]
    assert table.n_cols == width
    assert [c.text for c in table.header_rows[0]] == ["wide"] * width


@pytest.mark.parametrize("colspan", [str(_HTML_SPAN_CAP), str(5 * _HTML_SPAN_CAP)])
def test_capped_colspan_pads_every_other_row(colspan):
    html = table_html(f'<tr><th colspan="{colspan}">wide</th></tr>'
                      '<tr><td>a</td><td>b</td></tr><tr><td>c</td></tr>')
    table = extract_tables(doc(html))[0]
    assert table.n_cols == _HTML_SPAN_CAP
    assert all(len(row) == _HTML_SPAN_CAP for row in table.header_rows + table.body_rows)
    assert [c.text for c in table.body_rows[0][:3]] == ["a", "b", ""]
    assert all(c == Cell("") for row in table.body_rows for c in row[2:])


def test_empty_row_does_not_consume_rowspan():
    html = table_html(
        "<tr><th>H1</th><th>H2</th></tr>"
        '<tr><td rowspan="2">a</td><td>b</td></tr>'
        "<tr></tr>"
        "<tr><td>c</td></tr>"
        "<tr><td>d</td><td>e</td></tr>"
    )
    table = extract_tables(doc(html))[0]
    assert [[c.text for c in row] for row in table.body_rows] == [["a", "b"], ["a", "c"],
                                                                  ["d", "e"]]
    assert table.body_rows[1][0].is_spanned_copy


def test_spanned_copies_carry_anchor_link():
    html = table_html(
        "<tr><th>Name</th><th>A</th><th>B</th></tr>"
        '<tr><td rowspan="2" colspan="2"><a href="/wiki/Mount_Everest">Everest</a></td>'
        "<td>1</td></tr>"
        "<tr><td>2</td></tr>"
    )
    body = extract_tables(doc(html))[0].body_rows
    spanned = [body[0][0], body[0][1], body[1][0], body[1][1]]
    assert [(c.text, c.link_title) for c in spanned] == [("Everest", "Mount Everest")] * 4
    assert [c.is_spanned_copy for c in spanned] == [False, True, True, True]
    assert body[1][2] == Cell("2")


# -- header detection --------------------------------------------------------

def test_th_rowspan_copy_keeps_header_flag():
    # The second row is all-th only through the copy of "Name"; a copy that
    # lost its header flag would end the header after one row.
    html = table_html(
        '<tr><th rowspan="2">Name</th><th>Height</th></tr>'
        "<tr><th>m</th></tr>"
        "<tr><td>Everest</td><td>8849</td></tr>"
    )
    table = extract_tables(doc(html))[0]
    assert len(table.header_rows) == 2
    assert table.header_rows[1][0] == Cell("Name", is_spanned_copy=True)
    assert [[c.text for c in row] for row in table.body_rows] == [["Everest", "8849"]]


def test_detect_header_th_rows():
    grid, flags = expand_spans([[raw("H", header=True)], [raw("a")]])
    header, body = detect_header(grid, flags)
    assert len(header) == 1 and len(body) == 1


def test_detect_header_fallback_promotes_first_row():
    grid, flags = expand_spans([[raw("a")], [raw("b")]])
    header, body = detect_header(grid, flags)
    assert header[0][0].text == "a"
    assert body[0][0].text == "b"


def test_multi_row_header_labels_join():
    html = table_html(
        '<tr><th rowspan="2">Name</th><th colspan="2">Height</th></tr>'
        "<tr><th>m</th><th>ft</th></tr>"
        "<tr><td>Everest</td><td>8849</td><td>29032</td></tr>"
    )
    table = extract_tables(doc(html))[0]
    assert table.column_labels() == ["Name", "Height / m", "Height / ft"]
    assert table.n_body_rows == 1


# -- property: spans vs. occupancy oracle -------------------------------

@st.composite
def span_layouts(draw):
    """Rows of (rowspan, colspan, text) plus a parallel grid of th/td flags."""
    n_rows = draw(st.integers(1, 6))
    rows, headers = [], []
    for r in range(n_rows):
        n_cells = draw(st.integers(1, 5))
        rows.append([
            (draw(st.integers(1, 3)), draw(st.integers(1, 3)), f"r{r}c{i}")
            for i in range(n_cells)
        ])
        headers.append([draw(st.booleans()) for _ in range(n_cells)])
    return rows, headers


def layout_to_raw(layout, headers):
    return [[raw(text, rowspan=rs, colspan=cs, header=h)
             for (rs, cs, text), h in zip(row, hrow)] for row, hrow in zip(layout, headers)]


@settings(max_examples=300, deadline=None)
@given(span_layouts())
def test_expand_matches_occupancy_oracle(layout_and_headers):
    layout, headers = layout_and_headers
    grid, flags = expand_spans(layout_to_raw(layout, headers))
    expected = oracle_expand(layout)
    assert len(grid) == len(expected)
    widths = {len(row) for row in grid}
    assert widths == {len(expected[0])}, "expanded grid must be rectangular"
    for grow, erow in zip(grid, expected):
        for cell, (text, is_copy) in zip(grow, erow):
            assert cell.text == text
            assert cell.is_spanned_copy == is_copy
    assert flags == oracle_header_flags(layout, headers)
