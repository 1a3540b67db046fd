"""Read a page's data tables and reference count in one pass over its HTML.

``parse_html`` has two tokenizer paths that feed the same ``_Reader``. The
fast path scans the document once with one compiled regex (``_TOKEN``), made
for the regular markup MediaWiki emits: each match is the text up to the
next ``<`` plus the markup there (a comment, a ``<!…>`` declaration, a
``<?…>`` instruction, an end tag, or a start tag whose attributes are well
delimited). A start tag followed by text with no ``<`` and then its end tag
spelled the same way (``<td>8,848</td>``: most cells) is one match and one
``leaf`` event, unless the tag is void, self-closing, ``script`` or
``style``. When a leaf event adds a cell to the open row of a data table,
the leaf ``<td>``/``<th>`` cells right behind it, with only text between
them (which a row does not read), are read as runs: one match bounds a run
and one ``findall`` splits it into the cells that their leaf events would
add. Nowhere else (inside a cell, so in a nested table, or in a table that
is not a data table) is a run taken.
Attributes are split with ``_ATTR``; text and attribute values go
through ``html.unescape`` only when they contain ``&``; ``script`` and
``style`` content is kept raw up to its close tag. A document that
``_TOKEN`` cannot scan to its end is read afresh by the stdlib
``html.parser`` through ``_ParserFeed``, with a new reader.

Both paths give the events html.parser gives: names lowercased, attribute
values unquoted and unescaped (``None`` when valueless, the last duplicate
winning), comments, declarations and instructions dropped. Malformed input
follows html.parser too (``</ >`` and ``</3>`` are dropped, ``<!-->`` with
no later ``-->`` is text, an unterminated ``<script>`` drops its content),
with one deliberate difference: ``<![…`` is dropped through the next ``>``
like any other ``<!…>``, where html.parser raises on most such input.

The reader keeps the names of the open elements and builds no tree: a close
tag with no matching open element is ignored, closing an element closes
everything still open inside it, void and self-closing elements take no
children, and whatever is open at the end of input closes there. It reads:

- data tables: tables inside no other table whose class includes
  ``wikitable`` and none of ``EXCLUDED_TABLE_CLASSES``. Their rows are their
  own ``<tr>`` children, then those of their ``thead``/``tbody``/``tfoot``
  children; a row's cells are its ``<th>``/``<td>`` children, each read into
  ``(raw_text, link_title, is_header, rowspan, colspan)``. Rows without
  cells and tables without rows are left out;
- a cell's text: all text inside it but that of reference sups (class
  ``reference`` or an ``id`` starting ``cite_ref``) and ``script``/``style``,
  with a space for each ``<br>`` and after each element of ``BLOCK_TAGS``,
  so a nested table's text flattens into its cell;
- a cell's link: the first anchor that resolves through ``link_target``, is
  not a red link (class ``new``) or an image's link to its file page (class
  ``mw-file-description`` or ``image``) and whose parent is not a reference
  sup; it may sit inside a nested table, or deeper inside a sup;
- the reference count: the ``<li>`` children of every ``<ol class="references">``.

Reading never raises on bad markup and never recurses, so depth is unbounded.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import NamedTuple, Optional
from urllib.parse import unquote

VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}

EXCLUDED_TABLE_CLASSES = {"infobox", "navbox", "metadata", "sidebar"}

# Elements whose text never counts as cell content.
NON_CONTENT_TAGS = {"script", "style"}

# Elements whose end separates words that would otherwise glue together.
BLOCK_TAGS = frozenset({"p", "div", "li", "tr", "td", "th", "table", "caption"})

# Links into these namespaces never denote a row entity. Besides the canonical
# names, the bundled editions' local names of the File (6) and Category (14)
# namespaces. These were written from memory of MediaWiki's namespace names,
# not checked against a siteinfo answer (meta=siteinfo&siprop=namespaces|
# namespacealiases) or a page here: no bundled page has a File or Category
# href. A rendered href carries a namespace's primary name, believed to be de
# Datei/Kategorie, nl Bestand/Categorie and it Categoria; the entries marked
# as aliases may appear only in hand-written links.
_NAMESPACE_PREFIXES = (
    "file:", "image:", "category:", "help:", "template:", "special:",
    "wikipedia:", "portal:", "talk:", "user:", "wiktionary:", "media:",
    "datei:", "kategorie:",  # de primary
    "bild:",  # de alias of Datei
    "bestand:", "categorie:",  # nl primary
    "afbeelding:",  # nl alias of Bestand
    "categoria:",  # it primary; its File name is the canonical "file:"
    "immagine:",  # it alias of File
    "文件:", "分类:",  # zh aliases of File and Category
)

# Anchors around an image (a flag icon, say) link to its file page, never to an entity.
_SKIPPED_LINK_CLASSES = frozenset({"new", "mw-file-description", "image"})

_HTML_SPAN_CAP = 1000  # browsers clamp colspan/rowspan; so do we
_HTML_SPAN_CAP_DIGITS = len(str(_HTML_SPAN_CAP))

# HTML's rules for parsing non-negative integers: leading ASCII whitespace,
# an optional "+", then the leading digits; whatever follows is ignored.
_SPAN_RE = re.compile(r"[\t\n\f\r ]*\+?([0-9]+)")


def link_target(href: Optional[str], title_attr: Optional[str]) -> Optional[str]:
    """Resolve an anchor to an internal page title, or None.

    Only ``/wiki/Title`` hrefs qualify; red links (``action=edit``) and
    hrefs into non-article namespaces are skipped. The title is the
    ``title`` attribute when there is one, else the href's.
    """
    if not href or not href.startswith("/wiki/"):
        return None
    path_title = unquote(href[len("/wiki/"):]).split("#", 1)[0].replace("_", " ").strip()
    if path_title.lower().startswith(_NAMESPACE_PREFIXES):
        return None
    title = title_attr.strip() if title_attr else path_title
    return title or None


def _coerce_span(value) -> int:
    if value is None or value == "1":
        return 1
    match = _SPAN_RE.match(value)
    if match is None:
        return 1
    digits = match.group(1).lstrip("0")
    if len(digits) > _HTML_SPAN_CAP_DIGITS:  # past the cap; int() refuses more than 4,300 digits
        return _HTML_SPAN_CAP
    return min(max(int(digits or "0"), 1), _HTML_SPAN_CAP)


# Elements a rule reads outside a cell; inside a cell every element counts.
_STRUCTURE_TAGS = frozenset({"li", "ol", "table", "thead", "tbody", "tfoot", "tr", "td", "th"})
# Those of them whose attributes a rule reads (class, rowspan, colspan).
_ATTRIBUTE_TAGS = frozenset({"ol", "table", "td", "th"})

_ROWS = ("row", "section row")  # the roles of a data table's own rows and its sections' rows


def _classes(attrs: dict) -> list[str]:
    return (attrs.get("class") or "").split()


def _cell_form(tag: str, attrs: dict) -> tuple[bool, int, int]:
    """A <th>/<td>'s is_header, rowspan and colspan."""
    if not attrs:
        return tag == "th", 1, 1
    return tag == "th", _coerce_span(attrs.get("rowspan")), _coerce_span(attrs.get("colspan"))


# The version of the tables ``mw_client`` stores beside a cached page: the grids
# that ``table_parser.build_grid`` makes of the ``PageScan``, their texts put
# through ``table_parser.normalize_text`` (and its ``FOOTNOTE_RE``). Raise it
# whenever a rule above changes what ``parse_html`` returns for some page, and
# whenever a change to ``build_grid``, ``normalize_text`` or ``FOOTNOTE_RE``
# changes the tables made of it: stored tables of another version are not read,
# and the page is parsed and its tables rewritten.
SCAN_VERSION = 2


class PageScan(NamedTuple):
    """What one pass reads off a page; each cell is a tuple."""

    tables: list  # each data table's rows of (raw_text, link_title, is_header, rowspan, colspan)
    references: int  # <li> children of <ol class="references"> elements


class _Reader:
    """The rules above: one page's events in, its ``PageScan`` out.

    Besides the names of the open elements it keeps a role for the few open
    elements a rule tracks (the data table, its sections, rows and cell,
    reference sups and script/style inside the cell, reference lists), keyed
    by stack position. Only one outer table, row and cell is open at a time.
    """

    def __init__(self):
        self.stack: list[str] = []  # names of the open elements, innermost last
        self.roles: dict[int, str] = {}  # stack position -> role of a tracked open element
        self.in_table = False  # an outer table, data table or not, is open
        self.tables: list = []
        self.rows: list = []  # the open data table's own rows
        self.section_rows: list = []  # its sections' rows
        self.cells: list = []  # the open row's cells
        self.parts: Optional[list[str]] = None  # the open cell's text; None outside a cell
        self.link: Optional[str] = None  # the open cell's first link
        self.cell = (False, 1, 1)  # the open cell's is_header, rowspan, colspan
        self.dropped = 0  # open reference sups and script/style elements in the cell
        self.references = 0

    def start(self, tag: str, attrs: dict, closed: bool = False) -> None:
        stack = self.stack
        if self.parts is None and tag not in _STRUCTURE_TAGS:  # no rule reads it
            if not closed and tag not in VOID_TAGS:
                stack.append(tag)
            return
        parent = self.roles.get(len(stack) - 1)
        role = None
        if tag == "li":
            if parent == "references":
                self.references += 1
        elif tag == "ol" and "references" in _classes(attrs):
            role = "references"
        if self.parts is not None:
            if tag == "a":
                if (self.link is None and parent != "sup"
                        and _SKIPPED_LINK_CLASSES.isdisjoint(_classes(attrs))):
                    self.link = link_target(attrs.get("href"), attrs.get("title"))
            elif tag == "br":
                if not self.dropped:
                    self.parts.append(" ")
            elif tag in NON_CONTENT_TAGS:
                role = "dropped"
                self.dropped += 1
            elif tag == "sup" and ("reference" in _classes(attrs)
                                   or (attrs.get("id") or "").startswith("cite_ref")):
                role = "sup"
                self.dropped += 1
        elif not self.in_table:
            if tag == "table":
                self.in_table = True
                classes = set(_classes(attrs))
                qualifies = "wikitable" in classes and not classes & EXCLUDED_TABLE_CLASSES
                role = "table" if qualifies else "other table"
        elif tag == "tr":
            if parent == "table" or parent == "section":
                role = "row" if parent == "table" else "section row"
                self.cells = []
        elif tag == "td" or tag == "th":
            if parent in _ROWS:
                role = "cell"
                self.parts, self.link, self.cell = [], None, _cell_form(tag, attrs)
        elif parent == "table" and tag in ("thead", "tbody", "tfoot"):
            role = "section"
        stack.append(tag)
        if role is not None:
            self.roles[len(stack) - 1] = role
        if closed or tag in VOID_TAGS:
            self._close(len(stack) - 1)

    def leaf(self, tag: str, attrs: dict, data: str) -> bool:
        """``start``, ``text`` and ``end`` of an element that holds only ``data``.

        True when it was a cell of the open row, so the reader is still in that
        row and outside any cell.
        """
        if self.parts is None:
            if tag not in _STRUCTURE_TAGS:
                return False  # no rule reads it
            if (tag == "td" or tag == "th") and self.roles.get(len(self.stack) - 1) in _ROWS:
                self.cells.append((data, None, *_cell_form(tag, attrs)))  # most cells
                return True
        self.start(tag, attrs)
        self.text(data)
        self._close(len(self.stack) - 1)
        return False

    def text(self, data: str) -> None:
        if self.parts is not None and not self.dropped:
            self.parts.append(data)

    def end(self, tag: str) -> None:
        """Close the innermost open element with this name, if any."""
        stack = self.stack
        for depth in range(len(stack) - 1, -1, -1):
            if stack[depth] == tag:
                self._close(depth)
                return

    def _close(self, depth: int) -> None:
        """Close the open elements from stack position ``depth`` up, innermost first."""
        stack, roles = self.stack, self.roles
        for pos in range(len(stack) - 1, depth - 1, -1):
            role = roles.pop(pos, None)
            if role == "cell":
                self.cells.append(("".join(self.parts), self.link, *self.cell))
                self.parts = None
            elif role == "sup" or role == "dropped":
                self.dropped -= 1
            elif role in _ROWS:
                if self.cells:
                    (self.rows if role == "row" else self.section_rows).append(self.cells)
            elif role == "table":
                if self.rows or self.section_rows:
                    self.tables.append(self.rows + self.section_rows)
                self.rows, self.section_rows = [], []
                self.in_table = False
            elif role == "other table":
                self.in_table = False
            if self.parts is not None and not self.dropped and stack[pos] in BLOCK_TAGS:
                self.parts.append(" ")
        del stack[depth:]

    def finish(self) -> PageScan:
        self._close(0)
        return PageScan(self.tables, self.references)


# Character classes follow html.parser so both tokenize a tag the same way.
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_ATTR_NAME = r"[^\s/>\"'=][^\s/=>]*"
_ATTR_VALUE = r"\"[^\"]*\"|'[^']*'|[^\s\"'=<>`]+"
_ATTRS = rf"(?:\s+{_ATTR_NAME}(?:\s*=\s*(?:{_ATTR_VALUE}))?)*"

# Text up to the next "<" (group 1), then the markup there: 2 a start tag
# name (never cut short: html.parser ends it only at one of "\t\n\r\f />"),
# 3 its attribute text, 4 "/" when self-closing, 5 when the start tag is
# followed by text with no "<" and then its end tag spelled exactly
# "</name>", that text (a leaf element in one match); 6 or 7 an end tag name;
# 8 markup that gives no event (comments, declarations, processing
# instructions, end tags without a name). At the end of input only group 1
# is set.
_TOKEN = re.compile(
    r"([^<]*)(?:"
    rf"<({_TAG_NAME})(?=[\t\n\r\f />])({_ATTRS})\s*(/?)>"
    r"(?:([^<]*)</\2>)?"
    r"|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"
    rf"|</({_TAG_NAME})[^>]*>"
    r"|(<!--[\s\S]*?--\s*>|<!(?!--)[^>]*>|<\?[^>]*>|</[^>]*>)"
    r"|\Z)"
)
_ATTR = re.compile(rf"\s+({_ATTR_NAME})(\s*=\s*({_ATTR_VALUE}))?")

# A leaf cell: _TOKEN's leaf element named td or th (group 1, as spelled) and
# not self-closing, with its attribute text (2) and its text (3), after text
# with no "<", which a row reads nothing of. _LEAF_RUN is one or more of them
# back to back.
_LEAF_CELL = re.compile(rf"[^<]*<([tT][dDhH])(?=[\t\n\r\f />])({_ATTRS})\s*>([^<]*)</\1>")
_LEAF_RUN = re.compile(rf"(?:{_LEAF_CELL.pattern})+")
_HEADER_NAMES = frozenset({"th", "tH", "Th", "TH"})

_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


def _attr_value(value: str) -> str:
    if value[:1] in ("'", '"'):
        value = value[1:-1]
    return unescape(value) if "&" in value else value


def _attributes(attr_text: str) -> dict:
    """A start tag's attributes by lowercased name, the last duplicate winning."""
    attrs = {}
    for name, eq, value in _ATTR.findall(attr_text):
        attrs[name.lower()] = _attr_value(value) if eq else None
    return attrs


def _run_cell(name: str, attr_text: str, data: str) -> tuple:
    """A leaf cell of a run that has attributes or a character reference, read as ``leaf`` does."""
    return (unescape(data) if "&" in data else data, None,
            *_cell_form(name.lower(), _attributes(attr_text)))


def _read_runs(cells: list, html: str, pos: int) -> int:
    """Add the leaf cells from ``pos`` on to the open row ``cells``; return where they end."""
    run = _LEAF_RUN.match(html, pos)
    if run is None:
        return pos
    cells.extend([
        (data, None, name in _HEADER_NAMES, 1, 1) if not attr_text and "&" not in data
        else _run_cell(name, attr_text, data)
        for name, attr_text, data in _LEAF_CELL.findall(html, pos, run.end())])
    return run.end()


class _ParserFeed(HTMLParser):
    """html.parser's events, fed to a reader, for documents ``_TOKEN`` cannot scan."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.reader = _Reader()

    def handle_starttag(self, tag, attrs):
        self.reader.start(tag, dict(attrs))

    def handle_startendtag(self, tag, attrs):
        self.reader.start(tag, dict(attrs), closed=True)

    def handle_endtag(self, tag):
        self.reader.end(tag)

    def handle_data(self, data):
        self.reader.text(data)

    def parse_marked_section(self, i, report=1):
        # "<![" is dropped through the next ">", as _TOKEN drops any "<!…>".
        end = self.rawdata.find(">", i + 3)
        return end + 1 if end >= 0 else -1


def parse_html(html: str) -> PageScan:
    """Read a page's data tables and reference count. Never raises on bad markup."""
    reader = _Reader()
    start, leaf, text, end = reader.start, reader.leaf, reader.text, reader.end
    n = len(html)
    pos = 0
    match = _TOKEN.match
    while pos < n:
        m = match(html, pos)
        if m is None:
            # Markup outside the regular shape: html.parser reads the whole page afresh.
            feed = _ParserFeed()
            feed.feed(html)
            feed.close()
            return feed.reader.finish()
        pos = m.end()
        data, tag, attr_text, slash, leaf_text, end_name, loose_end_name, _ = m.groups()
        if data:
            text(unescape(data) if "&" in data else data)
        if tag is None:
            end_name = end_name or loose_end_name
            if end_name:
                end(end_name.lower())
            continue
        tag = tag.lower()
        # Split the attributes only where a rule reads them: inside a cell, every element.
        if attr_text and (reader.parts is not None or tag in _ATTRIBUTE_TAGS):
            attrs = _attributes(attr_text)
        else:
            attrs = {}
        closed = slash == "/"
        if leaf_text is not None:
            if closed or tag in VOID_TAGS or tag in _RAW_TEXT_END:
                pos = m.end(4) + 1  # rescan from just after the start tag's ">"
            else:
                # A leaf element: the start tag, text and end tag in one match.
                if leaf(tag, attrs, unescape(leaf_text) if "&" in leaf_text else leaf_text):
                    # A cell of the open row: the leaf cells right after it join the row too.
                    pos = _read_runs(reader.cells, html, pos)
                continue
        start(tag, attrs, closed)
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None and not closed:
            close = raw_end.search(html, pos)
            if close is None:
                break  # unterminated: html.parser drops the content too
            if close.start() > pos:
                text(html[pos:close.start()])
            end(tag)
            pos = close.end()
    return reader.finish()
