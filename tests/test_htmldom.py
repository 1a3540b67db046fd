import gc
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from tablediff import htmldom
from tablediff.htmldom import parse_html
from tablediff.mw_client import PageDocument, count_references
from tablediff.table_parser import extract_tables

from conftest import FIXTURE_CACHE
from oracles import oracle_scan


def in_cell(html: str) -> str:
    """``html`` as the one cell of a data table, where the reader reads it."""
    return f'<table class="wikitable"><tr><td>{html}</td></tr></table>'


def assert_same_scan(html):
    """The scan's tables and reference count equal those of the tree oracle."""
    assert parse_html(html) == oracle_scan(html)


def cell_text(html: str) -> str:
    """The raw text of the one cell of ``in_cell(html)``, checked against the oracle."""
    html = in_cell(html)
    assert_same_scan(html)
    [[[cell]]] = parse_html(html).tables
    return cell[0]


def test_basic_tree_and_classes():
    html = ('<table class="sortable wikitable jquery-tablesorter"><tr><td>'
            '<div class="a b"><p>hi <b>there</b></p></div></td></tr></table>')
    assert_same_scan(html)
    assert parse_html(html).tables == [[[("hi there  ", None, False, 1, 1)]]]


def test_stray_close_tags_ignored():
    assert cell_text("<p>one</p></div></span><p>two</p>") == "one two "
    html = '</td></tr></table>' + in_cell("x")
    assert_same_scan(html)
    assert parse_html(html).tables == [[[("x", None, False, 1, 1)]]]


def test_unclosed_elements_close_implicitly():
    # </div> closes the span and p inside it; "after" is in a p of its own.
    assert cell_text("<div><span>inner<p>deep</div><p>after</p>") == "innerdeep  after "
    # whatever is open at the end of input closes there
    html = '<table class="wikitable"><tr><td>x<td>y'
    assert_same_scan(html)
    assert parse_html(html).tables == [[[("xy ", None, False, 1, 1)]]]


def test_void_elements_take_no_children():
    # Text after a void element is its parent's, so it is not dropped with the <br>.
    assert cell_text("<p>a<br>b<img src='x'>c</p>") == "a bc "


def test_entity_references_decoded():
    assert cell_text("Tote&nbsp;/&nbsp;Besteigungen &amp; mehr") == (
        "Tote\u00a0/\u00a0Besteigungen & mehr")


def test_script_and_style_text_excluded():
    assert cell_text("<div><style>.x{}</style><script>var a;</script>visible</div>") == (
        "visible ")


# -- differential: the scan against the html.parser tree oracle --------------

VENDORED_PAGES = sorted(FIXTURE_CACHE.glob("pages/*/*.json"))


def page_html(path):
    return json.loads(path.read_text(encoding="utf-8"))["html"]


@pytest.mark.parametrize("path", VENDORED_PAGES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_vendored_page_tree_matches_oracle(path):
    assert_same_scan(page_html(path))


def test_vendored_corpus_is_all_there():
    assert len(VENDORED_PAGES) == 44


def test_vendored_pages_never_take_the_html_parser_path(monkeypatch):
    # Rendered MediaWiki markup is regular: the fast tokenizer scans every page to its end.
    def fallback():
        raise AssertionError("html.parser path taken")
    monkeypatch.setattr(htmldom, "_ParserFeed", fallback)
    for path in VENDORED_PAGES:
        parse_html(page_html(path))


def test_vendored_pages_read_the_same_on_the_html_parser_path(monkeypatch):
    fast = [parse_html(page_html(path)) for path in VENDORED_PAGES]
    assert sum(len(scan.tables) for scan in fast) > 0
    # A token pattern that never matches sends every page to html.parser.
    monkeypatch.setattr(htmldom, "_TOKEN", re.compile(r"(?!)"))
    assert [parse_html(page_html(path)) for path in VENDORED_PAGES] == fast


@pytest.mark.parametrize("fallback", [False, True], ids=["token-scan", "html-parser"])
def test_scanned_pages_leave_no_cyclic_garbage(monkeypatch, fallback):
    # Neither tokenizer path leaves a reference cycle (a feed and a reader
    # pointing at each other, say), so reference counting alone frees a
    # dropped page: the cyclic collector finds nothing to collect.
    if fallback:
        monkeypatch.setattr(htmldom, "_TOKEN", re.compile(r"(?!)"))
    pages = [json.loads(path.read_text(encoding="utf-8")) for path in VENDORED_PAGES]
    gc.collect()
    gc.disable()
    try:
        for page in pages:
            doc = PageDocument.from_dict(page)
            extract_tables(doc)
            count_references(doc)
            del doc
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_attributes_are_split_only_where_a_rule_reads_them(monkeypatch):
    # Outside a cell only table, ol, td and th have attributes a rule reads;
    # inside a cell every element's attributes are read.
    split = []
    original = htmldom._attributes

    def recording(attr_text):
        split.append(re.search(r'class="([^"]*)"', attr_text).group(1))
        return original(attr_text)

    monkeypatch.setattr(htmldom, "_attributes", recording)
    html = ('<div class="div-out"><ul><li class="li-out">x</li></ul><span class="span-out">y</span>'
            '<ol class="references"><li class="li-ref">r</li></ol>'
            '<table class="wikitable"><tr class="tr-out"><th class="th">H</th><th>G</th></tr>'
            '<tr><td class="td"><span class="span-in">A</span></td><td>1</td></tr></table></div>')
    scan = parse_html(html)
    assert split == ["references", "wikitable", "th", "td", "span-in"]
    monkeypatch.setattr(htmldom, "_attributes", original)
    assert scan == oracle_scan(html)
    assert scan.references == 1


@pytest.mark.parametrize("html", [
    "</ >x", "</3>y", "<!-->x", "<!--->x", "<!-->x<!-- y -->z", "<p><style>x", "<p><script>x",
    "<script>a</b>c</SCRIPT >d", "<a\xa0b>x</a\xa0b>", "<a\vb c=d>", "<br\xa0A!1;\x00\n</>",
    "<a\x00<b>c</b>", "<a&amp;\x00>", "<a b=c/>", "<a b=>", "<a b==c>", "<a/b>", '<a b="c"d>',
    "<a b='c", "<a", "a<", "</a", "</ a>", "</a\vb>", "<!doctype html><p>", "<?php x ?>y",
    "<!x>y", "<td rowspan>", "<p>a&ampb &notit; &#x41;</p>",
    # leaf elements, which one token matches: start tag, text, same-spelled end tag
    "<br>x</br>", "<br/>x</br>", "<img src=y>x</img>", "<td/>x</td>",
    "<script>x</script>", "<style>a</style>", "<script>a&amp;b</script>", "<style>a&lt;b</style>",
    "<TD>x</TD>", "<Td>x</td>", "<td>x</td >",
    "<td>a&amp;b</td>", "<td></td>", "<td><td>x</td>y</td>",
])
def test_edge_cases_match_oracle(html):
    assert_same_scan(in_cell(html))


MEDIAWIKI_PIECES = [
    "<!-- a comment -->",
    "<!--\nNewPP limit report\nParsed by mw1234\nCached time: 20250601000000\n"
    "CPU time usage: 0.123 seconds\nPreprocessor visited node count: 1/1000000\n-->",
    "<!--\nTransclusion expansion time report (%,ms,calls,template)\n"
    "100.00%  12.345      1 -total\n-->",
    "<!---->",
    '<style data-mw-deduplicate="TemplateStyles:r1">.mw-parser-output .x>b{color:red}</style>',
    "<script>if (a < b && c > d) { s = '<td>'; }</script>",
    '<td title="a > b">', "<td title='say \"hi\"'>", '<td title="it\'s">',
    '<a href="/w/index.php?title=X&amp;action=edit&amp;redlink=1" class="new" '
    'title="X (page does not exist)">',
    '<a href="/wiki/Mount_Everest" title="Mount Everest">',
    "<td rowspan=2>", '<table class="wikitable sortable" border>', "<input disabled>",
    '<td class="a" class="b">', '<TD ALIGN="right">', "</TD>", "<Br>", "<br/>", "<br />",
    '<img alt="" src="//x/y.png" decoding="async" width="23" height="15" />',
    '<sup id="cite_ref-1" class="reference">', '<span typeof="mw:File">',
    "&nbsp;", "&#8722;", "&", "&amp", "a < b", "x &lt; y", "8,848.86&#160;m",
    "</span>", "</table>", "</a>", "</sup>", "<p>", "<li>", "<tr>", "<td>", "<th>",
    "</ >", "</3>", "<!-->", "<style>x", "<script>x", "</div", "<a b='", "<p/a>",
    "<br>x</br>", "<br/>x</br>", '<img src="y">x</img>', "<td/>x</td>",
    "<script>x</script>", "<style>a&gt;b</style>", "<TD>x</TD>", "<Td>x</td>", "<td>x</td >",
    "<td>a&amp;b</td>", "<td></td>", "<td>8,848</td>", "<th>Height</th>",
    '<a href="/wiki/K2" title="K2">K2</a>', '<span class="reference-text">Ref</span>',
    "\n", " ", "Everest", "Ödön von Horváth", "珠穆朗玛峰",
]

mediawiki_documents = st.lists(
    st.one_of(st.sampled_from(MEDIAWIKI_PIECES), st.text(alphabet="ab <>&;#=\"'/", max_size=6)),
    max_size=40,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(mediawiki_documents)
def test_mediawiki_like_documents_match_oracle(html):
    assert_same_scan(in_cell(html))


# html.parser raises on most "<![" input, which parse_html drops instead.
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="<>/!?-=\"' \tab&;#x1\x00\n\xa0\vAS", max_size=40))
def test_markup_soup_matches_oracle(html):
    assert_same_scan(in_cell(html))


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_html_never_raises(html):
    parse_html(html)


def test_marked_section_is_dropped_not_raised():
    assert cell_text("a<![if gte mso 9]>b<![endif]>c<![x>d") == "abcd"
    # The irregular tag "<a/b>" sends these to the html.parser path.
    assert cell_text("<a/b>a<![if gte mso 9]>b<![endif]>c<![x>d") == "abcd"
    # With no ">" after it, "<![" is text.
    html = '<table class="wikitable"><tr><td><a/b>a<![x'
    assert_same_scan(html)
    assert parse_html(html).tables == [[[("a<![x", None, False, 1, 1)]]]


# -- property: random table markup against the tree oracle -------------------

TABLE_PIECES = [
    '<table class="wikitable">', '<table class="wikitable sortable">',
    '<table class="infobox wikitable">', '<table class="navbox">', "<table>", "</table>",
    "<thead>", "<tbody>", "<tfoot>", "</thead>", "</tbody>", "</tfoot>",
    "<tr><td>", "</td><td>", "</td></tr><tr><th>", "</th><td>", "</td></tr>",
    "<tr>", "</tr>", "<tr/>", "<td>", "<th>", "</td>", "</th>", "<td/>", "<th scope=col>",
    '<td rowspan="2">', '<th colspan="3">', '<td rowspan="x" colspan="2px">', "<td rowspan>",
    "<td>8,848</td>", "<th>Height</th>", "<caption>", "</caption>",
    '<sup class="reference">', '<sup id="cite_ref-1">', '<sup class="noprint">', "<sup>", "</sup>",
    '<a href="/wiki/A">', '<a href="/wiki/B_b" title="Bee">', '<a href="/wiki/C" class="new">',
    '<a href="/w/index.php?title=D&amp;action=edit&amp;redlink=1">', '<a href="/wiki/File:X.jpg">',
    '<a href="#cite_note-1">', '<sup class="reference"><a href="/wiki/N">[1]</a></sup>',
    '<sup id="cite_ref-2"><a href="/wiki/M">[2]</a></sup>', '<sup class="reference">a<br>b</sup>', '<a href="/wiki/E">E</a>', '<a href="/wiki/F"/>', "</a>",
    "<br>", "<br/>", "</br>", "<p>", "</p>", "<div>", "</div>", "<li>", "</li>", "<li>r</li>",
    "<span>", "</span>", "<b>", "</b>",
    '<script>var s = "<a href=\'/wiki/S\'>";</script>', "<style>.a{}</style>", "<script>", "<style>",
    '<ol class="references">', '<ol class="references"><li>', "<ol>", "</ol>", "<ul>", "</ul>",
    "<a/b>", "<a b='c", "<!-- c -->", "&amp;", "&nbsp;", "[1]", " ", "x", "Everest",
]

# Most documents open a data table's first cell, so that the rest reaches the reader.
TABLE_STARTS = [
    "", '<table class="wikitable"><tr><td>', '<table class="wikitable"><tbody><tr><th>',
    '<p>x</p><table class="wikitable"><thead><tr><th>H</th></tr></thead><tr><td>',
    '<table class="navbox"><tr><td>n</td></tr></table><table class="wikitable"><tr><td>',
]

table_documents = st.tuples(
    st.sampled_from(TABLE_STARTS),
    st.lists(st.one_of(st.sampled_from(TABLE_PIECES),
                       st.text(alphabet="ab <>/&;\"'=", max_size=4)), max_size=50),
).map(lambda parts: parts[0] + "".join(parts[1]))


@settings(max_examples=500, deadline=None)
@given(table_documents)
def test_random_table_markup_matches_oracle(html):
    assert_same_scan(html)


# -- runs of leaf cells ---------------------------------------------------------

def scan_on_both_paths(html):
    """The scan of ``html`` by the token path and by the html.parser path."""
    feed = htmldom._ParserFeed()
    feed.feed(html)
    feed.close()
    return parse_html(html), feed.reader.finish()


@pytest.fixture
def leaves(monkeypatch):
    """The text of every leaf event the reader gets, in order."""
    events = []
    leaf = htmldom._Reader.leaf

    def recorded(self, tag, attrs, data):
        events.append(data)
        return leaf(self, tag, attrs, data)

    monkeypatch.setattr(htmldom._Reader, "leaf", recorded)
    return events


def test_leaf_cells_after_a_row_cell_are_read_as_runs(leaves):
    html = ('<table class="wikitable"><tr><th>H</th>\n<TH>I</TH><th colspan="2">J</th></tr>'
            '<tr><td>1</td> <td>2</td><td>a&amp;b</td><td rowspan=2>3</td>'
            '<td><a href="/wiki/X">X</a></td><td>4</td><td>5</td></tr></table>')
    assert_same_scan(html)
    # One leaf event per row cell that starts a run, and one for the anchor in a cell.
    assert leaves == ["H", "1", "X", "4"]
    assert parse_html(html).tables == [[
        [("H", None, True, 1, 1), ("I", None, True, 1, 1), ("J", None, True, 1, 2)],
        [("1", None, False, 1, 1), ("2", None, False, 1, 1), ("a&b", None, False, 1, 1),
         ("3", None, False, 2, 1), ("X", "X", False, 1, 1), ("4", None, False, 1, 1),
         ("5", None, False, 1, 1)],
    ]]


def test_no_run_outside_a_data_table_row(leaves):
    html = ('<table class="navbox"><tr><td>a</td><td>b</td></tr></table>'
            + in_cell('<table class="wikitable"><tr><td>c</td><td>d</td></tr></table>'))
    assert_same_scan(html)
    assert leaves == ["a", "b", "c", "d"]


RUN_CELLS = [
    # leaf cells, which runs read
    "<td>1</td>", "<td>8,848</td>", "<td></td>", "<td> x </td>", "<td>a&amp;b</td>",
    "<td>&nbsp;</td>", "<th>H</th>", "<TD>u</TD>", "<Th>v</Th>", '<td rowspan="2">r</td>',
    "<th colspan=2>c</th>", '<td rowspan="x" colspan="2px">j</td>', "<td rowspan=1>o</td>",
    "<td nowrap>n</td>", '<td title="a > b">t</td>', '<td class="a" class="b">d</td>',
    "<td align=right>&minus;5</td>", "<td >s</td>",
    # cells that are not leaf cells, or not cells at all
    "<td>x</th>", "<td>y</td >", "<Td>z</td>", "<td/>", "<td />z</td>", "<td\v>w</td>", "<td>",
    "</td>", "<th>", "</th>", "<tr>", "</tr>",
    '<td><a href="/wiki/K2" title="K2">K2</a></td>',
    '<td><a href="/wiki/E">E</a><sup class="reference"><a href="#c">[1]</a></sup></td>',
    '<td rowspan=2><a href="/wiki/R">R</a></td>', '<td>9<sup id="cite_ref-1">[1]</sup></td>',
    '<td><span class="flagicon"><a href="/wiki/Datei:F.svg" class="mw-file-description">'
    '<img src="f.svg"></a></span> <a href="/wiki/Nepal">Nepal</a></td>',
    # tables nested in a cell, with runs of their own
    '<td><table class="wikitable"><tr><td>i1</td><td>i2</td><td rowspan=3>i3</td></tr>'
    "</table>out</td>",
    "<td>pre<table><tbody><tr><th>n</th><td>m</td><td>&amp;</td></tr></tbody></table></td>",
]
RUN_GAPS = ["", "", "\n", " ", "\t", "&amp;", "x", "<!-- c -->"]


@st.composite
def run_tables(draw):
    """One or two tables whose rows mix runs of leaf cells with every other kind of cell."""
    def rows():
        out = ""
        for _ in range(draw(st.integers(0, 4))):
            cells = draw(st.lists(st.tuples(st.sampled_from(RUN_GAPS), st.sampled_from(RUN_CELLS)),
                                  max_size=8))
            out += "<tr>" + "".join(gap + cell for gap, cell in cells)
            out += draw(st.sampled_from(["</tr>", "\n</tr>", " &amp; </tr>", ""]))
        return out

    def table():
        opening = draw(st.sampled_from(['<table class="wikitable">', '<table class="navbox">',
                                        '<table class="sortable wikitable">', "<table>"]))
        section, section_end = draw(st.sampled_from([("", ""), ("<tbody>", "</tbody>"),
                                                     ("<thead>", "</thead>"), ("<tbody>", "")]))
        html = opening + rows() + section + rows() + section_end + "</table>"
        if draw(st.booleans()):  # nested in a cell of a data table, with a run after it
            html = f'<table class="wikitable"><tr><td>{html}</td><td>1</td><td>2</td></tr></table>'
        return html

    return "\n".join(table() for _ in range(draw(st.integers(1, 2))))


@settings(max_examples=400, deadline=None)
@given(run_tables())
def test_runs_of_leaf_cells_match_oracle(html):
    expected = oracle_scan(html)
    assert scan_on_both_paths(html) == (expected, expected)
