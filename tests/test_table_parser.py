import hashlib
import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from tablediff import htmldom
from tablediff.htmldom import _HTML_SPAN_CAP, link_target, parse_html
from tablediff.mw_client import ArticleRef, PageDocument
from tablediff.table_parser import (Cell, WikiTable, build_grid, extract_tables, load_table,
                                   normalize_text, stored_table)

from conftest import FIXTURE_CACHE, REPO
from oracles import (layout_to_html, oracle_expand, oracle_header_flags, oracle_normalize_text,
                     oracle_scan)

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


# Cell text made of spaces, brackets and the pieces of footnote markers.
MARKER_TEXTS = st.lists(st.sampled_from(["\u00a0", " ", "\u2009", "\u3000", "\t", "\n", "[", "]",
                                         "1", "12", "a", "iv", "note", "nb", "N", "x", "[1]",
                                         "[\u00a01\u00a0]", "[note\u00a03]", "[a\u00a02]",
                                         "8,848"]),
                        max_size=20).map("".join)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=80), MARKER_TEXTS))
@example("[1[2]]")
@example("[[1]a]")
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


# str.split() and re's \s both take NBSP for whitespace, so replacing it first changes nothing.
@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), MARKER_TEXTS))
def test_normalize_matches_the_nbsp_replacing_definition(text):
    assert normalize_text(text) == oracle_normalize_text(text)


# A stored table joins its cell texts with newlines, so no text may hold one.
@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=80), MARKER_TEXTS))
@example("a\nb\r\n\x0bc\x1c\x85\u2028\u2029[1]\n")
def test_normalized_text_holds_no_newline(text):
    assert "\n" not in normalize_text(text)


# -- link extraction ---------------------------------------------------------

def test_link_target_resolution():
    assert link_target("/wiki/Mount_Everest", None) == "Mount Everest"
    assert link_target("/wiki/Mount_Everest#Summit", None) == "Mount Everest"
    assert link_target("/wiki/X", "Mount Everest") == "Mount Everest"
    assert link_target("/wiki/File:Photo.jpg", None) is None
    assert link_target("/w/index.php?title=X&action=edit&redlink=1", None) is None
    assert link_target(None, "X") is None


@pytest.mark.parametrize("href, title", [
    ("/wiki/File:Foo.jpg", "A caption"),  # the namespace is the href's, not the title's
    ("/wiki/Datei:Flag_of_Nepal.svg", None),
    ("/wiki/Bild:Flag_of_Nepal.svg", None),
    ("/wiki/Kategorie:Achttausender", None),
    ("/wiki/Bestand:Flag_of_Nepal.svg", None),
    ("/wiki/Afbeelding:Flag_of_Nepal.svg", None),
    ("/wiki/Categorie:Achtduizender", "Categorie:Achtduizender"),
    ("/wiki/Immagine:Flag_of_Nepal.svg", None),
    ("/wiki/Categoria:Ottomila", None),
    ("/wiki/%E6%96%87%E4%BB%B6:Flag_of_Nepal.svg", None),  # 文件:
    ("/wiki/%E5%88%86%E7%B1%BB:%E5%B1%B1", None),  # 分类:山
])
def test_link_target_skips_local_file_and_category_hrefs(href, title):
    assert link_target(href, title) is None


@pytest.mark.parametrize("anchor", [
    # the de flag icon: a file link in the edition's own namespace name
    '<a href="/wiki/Datei:Flag_of_Nepal.svg" class="mw-file-description"><img src="f.svg"></a>',
    # anchors around an image are skipped by class, whatever their href
    '<a href="/wiki/Flag_of_Nepal.svg" class="mw-file-description"><img src="f.svg"></a>',
    '<a href="/wiki/Flag_of_Nepal.svg" class="image" title="Flag"><img src="f.svg"></a>',
])
def test_flag_icon_is_not_the_cell_link(anchor):
    html = table_html('<tr><th>Land</th></tr><tr><td><span class="flagicon">'
                      f'{anchor}</span> <a href="/wiki/Nepal" title="Nepal">Nepal</a></td></tr>')
    assert parse_html(html) == oracle_scan(html)
    cell = extract_tables(doc(html))[0].body_rows[0][0]
    assert (cell.text, cell.link_title) == ("Nepal", "Nepal")


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
    # Both tokenizer paths keep script/style content raw, so no anchor can sit
    # inside one: the link search goes through it while its text is dropped.
    for cell_html in [
        '<style><a href="/wiki/Styled">s</a></style>visible <a href="/wiki/Real">R</a>',
        # "<a/b>" sends the page to the html.parser path
        '<a/b><script><a href="/wiki/Scripted">s</a></script>visible <a href="/wiki/Real">R</a>',
    ]:
        html = table_html(f"<tr><td>{cell_html}</td></tr>")
        tables = [[[("visible R", "Real", False, 1, 1)]]]
        assert parse_html(html) == (tables, 0) == oracle_scan(html)


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


def oracle_header_count(layout, headers):
    """The leading rows whose oracle flags are all true, else 1 (the first row promoted)."""
    flags = oracle_header_flags(layout, headers)
    return next((r for r, row in enumerate(flags) if not all(row)), len(flags)) or 1


def test_expand_identity_on_1x1():
    grid, _ = build_grid([[raw("a")]])
    assert len(grid) == 1 and len(grid[0]) == 1
    assert grid[0][0].text == "a"
    assert not grid[0][0].is_spanned_copy


def test_expand_rowspan_copies_down():
    grid, _ = build_grid([[raw("span", rowspan=2), raw("b")], [raw("c")]])
    assert [c.text for c in grid[0]] == ["span", "b"]
    assert [c.text for c in grid[1]] == ["span", "c"]
    assert grid[1][0].is_spanned_copy and not grid[0][0].is_spanned_copy


def test_expand_colspan_occupies_adjacent_columns():
    grid, _ = build_grid([[raw("wide", colspan=3), raw("x")],
                          [raw("a"), raw("b"), raw("c"), raw("d")]])
    assert all(len(row) == 4 for row in grid)
    assert [c.text for c in grid[0]] == ["wide", "wide", "wide", "x"]
    assert [c.is_spanned_copy for c in grid[0]] == [False, True, True, False]


def test_expand_pads_ragged_rows():
    grid, _ = build_grid([[raw("a"), raw("b")], [raw("c")]])
    assert [c.text for c in grid[1]] == ["c", ""]
    assert not grid[1][1].is_spanned_copy


def test_expand_rowspan_clipped_at_table_end():
    grid, _ = build_grid([[raw("deep", rowspan=99)], [raw("x"), raw("y")]])
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


def tables_on_both_paths(html: str) -> list[WikiTable]:
    """The tables of ``html``, which both tokenizer paths must read alike."""
    tables = extract_tables(doc(html))
    with pytest.MonkeyPatch.context() as patch:
        # A token pattern that never matches sends the page to html.parser.
        patch.setattr(htmldom, "_TOKEN", re.compile(r"(?!)"))
        assert extract_tables(doc(html)) == tables
    return tables


def rowspan_rows(rowspan: str) -> list[list[str]]:
    html = table_html(
        "<tr><th>H1</th><th>H2</th></tr>"
        f'<tr><td rowspan="{rowspan}">x</td><td>1</td></tr>'
        "<tr><td>2</td></tr>"
    )
    return [[c.text for c in row] for row in tables_on_both_paths(html)[0].body_rows]


# More digits than int() reads (4,300) clamp to the cap like any span past it.
@pytest.mark.parametrize("rowspan", ["2;", "2px", "2.0", "+2", " \t\n2 ", "02", "2 3",
                                     pytest.param("9" * 5000, id="5000-nines")])
def test_rowspan_reads_leading_digits(rowspan):
    assert rowspan_rows(rowspan) == [["x", "1"], ["x", "2"]]


# Only ASCII whitespace is skipped and only ASCII digits are read.
@pytest.mark.parametrize("rowspan", ["-1", "-2", "abc", "", "+", "++2", "x2", "0",
                                     "\u00a02", "\u0662"])
def test_rowspan_without_leading_digits_is_one(rowspan):
    assert rowspan_rows(rowspan) == [["x", "1"], ["2", ""]]


@pytest.mark.parametrize("colspan, width", [
    ("2px", 2), ("3;", 3), ("5000px", _HTML_SPAN_CAP),
    pytest.param("9" * 5000, _HTML_SPAN_CAP, id="5000-nines"),
    pytest.param("0" * 5000 + "7", 7, id="5000-zeros-then-7")])
def test_colspan_reads_leading_digits_up_to_the_cap(colspan, width):
    html = table_html(f'<tr><th colspan="{colspan}">wide</th></tr><tr><td>a</td></tr>')
    table = tables_on_both_paths(html)[0]
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


# -- span-free tables --------------------------------------------------------

def test_a_span_only_in_a_tbody_row_is_expanded():
    # The table's own rows span nothing; its section's do.
    html = ('<table class="wikitable"><tr><th>A</th><th>B</th></tr>'
            '<tbody><tr><td rowspan="2">x</td><td>1</td></tr><tr><td>2</td></tr></tbody></table>')
    table = extract_tables(doc(html))[0]
    assert [[c.text for c in row] for row in table.body_rows] == [["x", "1"], ["x", "2"]]
    assert table.body_rows[1][0] == Cell("x", is_spanned_copy=True)


@st.composite
def span_free_tables(draw):
    """Raw rows of unit-span cells (ragged, some linked) and their layout and th/td flags."""
    layout, headers, raw_rows = [], [], []
    for r in range(draw(st.integers(1, 6))):
        n_cells = draw(st.integers(1, 5))
        all_th = draw(st.booleans())
        flags = [all_th or draw(st.booleans()) for _ in range(n_cells)]
        texts = [draw(st.sampled_from([f"r{r}c{i}", f" r{r}c{i}[1] ", "", "\u00a0"]))
                 for i in range(n_cells)]
        links = [draw(st.sampled_from([None, f"L{r}{i}"])) for i in range(n_cells)]
        layout.append([(1, 1, normalize_text(text)) for text in texts])
        headers.append(flags)
        raw_rows.append([(text, link, flag, 1, 1) for text, link, flag in zip(texts, links, flags)])
    return raw_rows, layout, headers


@settings(max_examples=300, deadline=None)
@given(span_free_tables())
def test_span_free_rows_match_occupancy_oracle(table):
    raw_rows, layout, headers = table
    grid, split = build_grid(raw_rows)
    assert [[(c.text, c.is_spanned_copy) for c in row] for row in grid] == oracle_expand(layout)
    assert all(type(c) is Cell for row in grid for c in row)
    for raw_row, row in zip(raw_rows, grid):
        assert [c.link_title for c in row] == [cell[1] for cell in raw_row] + [None] * (
            len(row) - len(raw_row))
    assert split == oracle_header_count(layout, headers)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=4),
                min_size=1, max_size=5))
def test_extract_tables_matches_occupancy_oracle(spans):
    # Every cell is a <td>, so the first row is promoted to the header.
    layout = [[(rs, cs, f"r{r}c{i}") for i, (rs, cs) in enumerate(row)]
              for r, row in enumerate(spans)]
    [table] = extract_tables(doc(layout_to_html(layout)))
    grid = table.header_rows + table.body_rows
    assert [[(c.text, c.is_spanned_copy) for c in row] for row in grid] == oracle_expand(layout)
    assert len(table.header_rows) == 1
    assert table.n_cols == len(grid[0])


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


def test_header_is_the_leading_th_rows():
    th = [raw("H", header=True)]
    assert build_grid([th, th, [raw("a")], th])[1] == 2


def test_header_fallback_promotes_first_row():
    grid, split = build_grid([[raw("a")], [raw("b")]])
    assert split == 1
    assert [row[0].text for row in grid] == ["a", "b"]


def test_narrow_th_row_ends_the_header():
    # The second row is all <th> but one slot short, and a pad is no header cell.
    grid, split = build_grid([[raw("A", header=True), raw("B", header=True)],
                              [raw("a", header=True)], [raw("b"), raw("c")]])
    assert split == 1
    assert grid[1] == [Cell("a"), Cell("")]


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
def test_build_grid_matches_occupancy_oracle(layout_and_headers):
    layout, headers = layout_and_headers
    grid, split = build_grid(layout_to_raw(layout, headers))
    expected = oracle_expand(layout)
    assert len(grid) == len(expected)
    widths = {len(row) for row in grid}
    assert widths == {len(expected[0])}, "expanded grid must be rectangular"
    for grow, erow in zip(grid, expected):
        for cell, (text, is_copy) in zip(grow, erow):
            assert cell.text == text
            assert cell.is_spanned_copy == is_copy
    assert split == oracle_header_count(layout, headers)


@st.composite
def mostly_unit_layouts(draw):
    """Rows of mostly 1x1 cells with a few rowspans, plus th/td flags and links.

    Most rows span nothing, and some of those sit under a rowspan from above.
    A leading run of rows is all <th>, of varied widths, so some header rows are
    narrower than the grid and some are completed by the copy of a <th> rowspan;
    a later row is sometimes all <th> too.
    """
    layout, headers, links = [], [], []
    n_rows = draw(st.integers(1, 8))
    n_header = draw(st.integers(0, min(3, n_rows)))
    for r in range(n_rows):
        n_cells = draw(st.integers(1, 4))
        layout.append([(draw(st.sampled_from([1] * 6 + [2, 3])),
                        draw(st.sampled_from([1] * 9 + [2])), f"r{r}c{i}")
                       for i in range(n_cells)])
        all_th = r < n_header or draw(st.integers(0, 3)) == 0
        headers.append([all_th or draw(st.integers(0, 4)) == 0 for _ in range(n_cells)])
        links.append([draw(st.sampled_from([None, f"L{r}{i}"])) for i in range(n_cells)])
    return layout, headers, links


@settings(max_examples=300, deadline=None)
@given(mostly_unit_layouts())
# The copy of a <th> rowspan completes the second header row; the third row is
# taken as it stands, and the last is reached only by the rowspan above it.
@example(([[(2, 1, "N"), (1, 1, "H")], [(1, 1, "m")], [(1, 1, "a"), (1, 1, "b")],
           [(1, 1, "c"), (2, 1, "d")], [(1, 1, "e")]],
          [[True, True], [True], [False, False], [False, False], [False]],
          [["Name", None], [None], [None, "B"], [None, "D"], [None]]))
def test_mostly_unit_rows_match_occupancy_oracle(table):
    layout, headers, links = table
    raw_rows = [[(text, link, th, rs, cs) for (rs, cs, text), th, link in zip(*row)]
                for row in zip(layout, headers, links)]
    grid, split = build_grid(raw_rows)
    assert [[(c.text, c.is_spanned_copy) for c in row] for row in grid] == oracle_expand(layout)
    assert split == oracle_header_count(layout, headers)
    link_of = {text: link for row in raw_rows for text, link, *_ in row}
    assert all(c.link_title == link_of.get(c.text) for row in grid for c in row)


# -- property: a stored table loads as the table it was made of ---------------

@st.composite
def linked_span_layouts(draw):
    """Rows of raw cells of any spans, th/td flags, texts and links."""
    layout, headers = draw(span_layouts())
    return [[(draw(st.one_of(st.just(text), st.text(max_size=6), MARKER_TEXTS)),
              draw(st.sampled_from([None, f"L{r}{i}", ""])), th, rowspan, colspan)
             for i, ((rowspan, colspan, text), th) in enumerate(zip(row, hrow))]
            for r, (row, hrow) in enumerate(zip(layout, headers))]


@settings(max_examples=300, deadline=None)
@given(linked_span_layouts(), st.integers(0, 3))
def test_a_stored_table_loads_as_build_grid_made_it(raw_rows, table_index):
    grid, split = build_grid(raw_rows)
    made = WikiTable(table_index, grid[:split], grid[split:], len(grid[0]))
    loaded = load_table(table_index, json.loads(json.dumps(stored_table(made))))
    assert loaded == made
    assert all(type(cell) is Cell for row in loaded.header_rows + loaded.body_rows
               for cell in row)
