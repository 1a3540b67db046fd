import gc
import json

import pytest
from hypothesis import given, settings, strategies as st

from tablediff import htmldom
from tablediff.htmldom import parse_html
from tablediff.mw_client import PageDocument, count_references
from tablediff.table_parser import _cell_content, extract_tables

from conftest import FIXTURE_CACHE
from oracles import oracle_parse_html, tree_shape


def text(node) -> str:
    """A node's visible text, as the table cell walk collects it."""
    return _cell_content(node)[0]


def test_basic_tree_and_classes():
    root = parse_html('<div class="a b"><p>hi <b>there</b></p></div>')
    div = root.find_all("div")[0]
    assert div.classes() == {"a", "b"}
    assert "hi there" in text(div)


def test_stray_close_tags_ignored():
    root = parse_html("<p>one</p></div></table><p>two</p>")
    assert [text(p).strip() for p in root.find_all("p")] == ["one", "two"]


def test_unclosed_elements_close_implicitly():
    root = parse_html("<div><span>inner<p>deep</div><p>after</p>")
    paragraphs = root.find_all("p")
    assert len(paragraphs) == 2
    assert paragraphs[1] in root.children


def test_void_elements_take_no_children():
    root = parse_html("<p>a<br>b<img src='x'>c</p>")
    p = root.find_all("p")[0]
    assert text(p).replace(" ", "") == "abc"
    assert not root.find_all("br")[0].children


def test_entity_references_decoded():
    root = parse_html("<td>Tote&nbsp;/&nbsp;Besteigungen &amp; mehr</td>")
    assert text(root.find_all("td")[0]) == "Tote / Besteigungen & mehr"


def test_script_and_style_text_excluded():
    root = parse_html("<div><style>.x{}</style><script>var a;</script>visible</div>")
    assert text(root.find_all("div")[0]).strip() == "visible"


# -- differential: the tokenizer against the html.parser tree builder --------

VENDORED_PAGES = sorted(FIXTURE_CACHE.glob("pages/*/*.json"))


def assert_same_tree(html):
    assert tree_shape(parse_html(html)) == tree_shape(oracle_parse_html(html))


@pytest.mark.parametrize("path", VENDORED_PAGES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_vendored_page_tree_matches_oracle(path):
    assert_same_tree(json.loads(path.read_text(encoding="utf-8"))["html"])


def test_vendored_corpus_is_all_there():
    assert len(VENDORED_PAGES) == 44


def test_vendored_pages_never_take_the_html_parser_path(monkeypatch):
    # Rendered MediaWiki markup is regular: the fast tokenizer scans every page to its end.
    def fallback():
        raise AssertionError("html.parser path taken")
    monkeypatch.setattr(htmldom, "_TreeBuilder", fallback)
    for path in VENDORED_PAGES:
        parse_html(json.loads(path.read_text(encoding="utf-8"))["html"])


def test_dropped_page_trees_leave_no_cyclic_garbage():
    # A tree holds no reference cycle, so reference counting alone frees a
    # dropped page: the cyclic collector finds nothing to collect.
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
    assert_same_tree(html)


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
    assert_same_tree(html)


# html.parser raises on most "<![" input, which parse_html drops instead.
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="<>/!?-=\"' \tab&;#x1\x00\n\xa0\vAS", max_size=40))
def test_markup_soup_matches_oracle(html):
    assert_same_tree(html)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_html_never_raises(html):
    parse_html(html)


def test_marked_section_is_dropped_not_raised():
    root = parse_html("a<![if gte mso 9]>b<![endif]>c<![x>d")
    assert text(root) == "abcd"
    # The irregular tag "<a/b>" sends these to the html.parser path.
    root = parse_html("<a/b>a<![if gte mso 9]>b<![endif]>c<![x>d")
    assert tree_shape(root) == ("#document", {}, [("a", {"b": None}, ["abcd"])])
    root = parse_html("<a/b>a<![x")
    assert tree_shape(root) == ("#document", {}, [("a", {"b": None}, ["a<![x"])])
