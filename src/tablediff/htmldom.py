"""Minimal tolerant DOM: a purpose-built HTML tokenizer, html.parser for the rest.

``parse_html`` has two paths. The fast path scans the document once with one
compiled regex (``_TOKEN``), made for the regular markup MediaWiki emits:
each match is the text up to the next ``<`` plus the markup there, which is
a comment, a ``<!…>`` declaration, a ``<?…>`` instruction, an end tag, or a
start tag whose attributes are well delimited. A start tag followed by text
with no ``<`` and then its end tag spelled the same way (``<td>8,848</td>``:
most cells, links and reference texts) is one match, a leaf element that
never enters the stack of open elements; when such a start tag is void,
self-closing, ``script`` or ``style``, scanning resumes after its ``>``
instead. Attributes are split with one more regex (``_ATTR``). Text and
attribute values go through ``html.unescape`` only when they contain ``&``;
``script`` and ``style`` content is kept raw up to its close tag. A document
that ``_TOKEN`` cannot scan to its end (a start tag with odd attribute
syntax, a construct with no closing ``>``) is parsed whole by the stdlib
``html.parser`` instead, through ``_TreeBuilder``.

Both paths build the tree that html.parser's events build: tag and attribute
names lowercased; attribute values unquoted and unescaped, ``None`` for a
valueless attribute, the last duplicate winning; comments, doctypes and
processing instructions dropped; text unescaped, possibly split over
adjacent strings. Malformed input follows html.parser too: ``</ >`` and
``</3>`` are dropped, ``<!-->`` with no later ``-->`` is text, and an
unterminated ``<script>`` or ``<style>`` drops its content. Tree rules: a
close tag with no matching open element is ignored, closing an outer element
implicitly closes everything nested inside it, void elements take no
children, and parsing never raises. Nodes hold no parent pointers, so a tree
has no reference cycles and is freed by reference counting once dropped.

One deliberate difference from plain ``html.parser``: ``<![…`` (CDATA or a
marked section) is dropped through the next ``>`` like any other ``<!…>``
declaration, where the stdlib parser raises on most such input or drops it
through ``]]>``. Rendered MediaWiki HTML contains neither form.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Optional

VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


class Node:
    """One element: tag name, attributes, and mixed node/str children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[dict] = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list = []

    def classes(self) -> set[str]:
        return set((self.attrs.get("class") or "").split())

    def get(self, name: str, default=None):
        return self.attrs.get(name, default)

    def find_all(self, tag: str, class_: Optional[str] = None) -> list["Node"]:
        """Element descendants with this tag (and class), in document order."""
        out = []
        stack = self.children[::-1]
        while stack:
            node = stack.pop()
            if isinstance(node, Node):
                if node.tag == tag and (class_ is None or class_ in node.classes()):
                    out.append(node)
                stack.extend(reversed(node.children))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.tag} {self.attrs.get('class', '')!r}>"


# Character classes follow html.parser so both tokenize a tag the same way.
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_ATTR_NAME = r"[^\s/>\"'=][^\s/=>]*"
_ATTR_VALUE = r"\"[^\"]*\"|'[^']*'|[^\s\"'=<>`]+"

# Text up to the next "<" (group 1), then the markup there: 2 a start tag
# name (never cut short: html.parser ends it only at one of "\t\n\r\f />"),
# 3 its attribute text, 4 "/" when self-closing, 5 when the start tag is
# followed by text with no "<" and then its end tag spelled exactly
# "</name>", that text (a leaf element in one match); 6 or 7 an end tag name;
# 8 markup that builds nothing (comments, declarations, processing
# instructions, end tags without a name). At the end of input only group 1
# is set.
_TOKEN = re.compile(
    r"([^<]*)(?:"
    rf"<({_TAG_NAME})(?=[\t\n\r\f />])((?:\s+{_ATTR_NAME}(?:\s*=\s*(?:{_ATTR_VALUE}))?)*)\s*(/?)>"
    r"(?:([^<]*)</\2>)?"
    r"|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"
    rf"|</({_TAG_NAME})[^>]*>"
    r"|(<!--[\s\S]*?--\s*>|<!(?!--)[^>]*>|<\?[^>]*>|</[^>]*>)"
    r"|\Z)"
)
_ATTR = re.compile(rf"\s+({_ATTR_NAME})(\s*=\s*({_ATTR_VALUE}))?")

_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


def _attr_value(value: str) -> str:
    if value[:1] in ("'", '"'):
        value = value[1:-1]
    return unescape(value) if "&" in value else value


class _TreeBuilder(HTMLParser):
    """The tree of html.parser's events, for documents ``_TOKEN`` cannot scan."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.open_elements = [Node("#document")]  # innermost open element last

    def handle_starttag(self, tag, attrs):
        node = Node(tag, dict(attrs))
        self.open_elements[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.open_elements.append(node)

    def handle_startendtag(self, tag, attrs):
        self.open_elements[-1].children.append(Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        # Close the innermost open element with this name, if any; never the root.
        for depth in range(len(self.open_elements) - 1, 0, -1):
            if self.open_elements[depth].tag == tag:
                del self.open_elements[depth:]
                return

    def handle_data(self, data):
        if data:
            self.open_elements[-1].children.append(data)

    def parse_marked_section(self, i, report=1):
        # "<![" is dropped through the next ">", as _TOKEN drops any "<!…>".
        end = self.rawdata.find(">", i + 3)
        return end + 1 if end >= 0 else -1


def parse_html(html: str) -> Node:
    """Parse an HTML document into a Node tree. Never raises on bad markup."""
    root = current = Node("#document")
    open_elements = [root]  # the root, then each element still open, innermost last
    n = len(html)
    pos = 0
    match = _TOKEN.match
    while pos < n:
        m = match(html, pos)
        if m is None:
            # Markup outside the regular shape: let html.parser build the whole tree.
            builder = _TreeBuilder()
            builder.feed(html)
            builder.close()
            return builder.open_elements[0]
        pos = m.end()
        text, tag, attr_text, slash, leaf_text, end_name, loose_end_name, _ = m.groups()
        if text:
            current.children.append(unescape(text) if "&" in text else text)
        if tag is None:
            end_name = end_name or loose_end_name
            if end_name:
                # Close the innermost open element with this name, if any.
                end_name = end_name.lower()
                for depth in range(len(open_elements) - 1, 0, -1):
                    if open_elements[depth].tag == end_name:
                        del open_elements[depth:]
                        current = open_elements[-1]
                        break
            continue
        tag = tag.lower()
        attrs = {}
        if attr_text:
            for name, eq, value in _ATTR.findall(attr_text):
                attrs[name.lower()] = _attr_value(value) if eq else None
        self_closing = slash == "/"
        if leaf_text is not None:
            if self_closing or tag in VOID_TAGS or tag in _RAW_TEXT_END:
                pos = m.end(4) + 1  # rescan from just after the start tag's ">"
            else:
                # A leaf element: the tree the start tag, text and end tag would build.
                node = Node(tag, attrs)
                if leaf_text:
                    node.children.append(unescape(leaf_text) if "&" in leaf_text else leaf_text)
                current.children.append(node)
                continue
        node = Node(tag, attrs)
        current.children.append(node)
        if self_closing or tag in VOID_TAGS:
            continue
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            close = raw_end.search(html, pos)
            if close is None:
                break  # unterminated: html.parser drops the content too
            if close.start() > pos:
                node.children.append(html[pos:close.start()])
            pos = close.end()
            continue
        open_elements.append(node)
        current = node
    return root
