"""Minimal tolerant DOM over a purpose-built HTML tokenizer.

``parse_html`` scans the document once with one compiled regex
(``_TOKEN``): each match is the text up to the next ``<`` plus the markup
there, which is a comment, a ``<!…>`` declaration, a ``<?…>`` instruction,
an end tag, or a start tag whose attributes are well delimited. A start tag
followed by text with no ``<`` and then its end tag spelled the same way
(``<td>8,848</td>``: most cells, links and reference texts) is one match, a
leaf element that never enters the stack of open elements; when such a
start tag is void, self-closing, ``script`` or ``style``, scanning resumes
after its ``>`` instead. Attributes are split with one more regex
(``_ATTR``). Text and attribute values go through ``html.unescape`` only
when they contain ``&``; ``script`` and ``style`` content is kept raw up to
its close tag. Rarer markup (a start tag with odd attribute syntax, a
construct with no closing ``>``) takes ``_irregular_markup``, which follows
the tolerant rules of the stdlib ``html.parser``.

The tree is the one the stdlib parser's events would build: tag and
attribute names lowercased; attribute values unquoted and unescaped,
``None`` for a valueless attribute, the last duplicate winning; comments,
doctypes and processing instructions dropped; text unescaped, possibly split
over adjacent strings. Malformed input follows html.parser too: ``</ >``
and ``</3>`` are dropped, ``<!-->`` with no later ``-->`` is text, and an
unterminated ``<script>`` or ``<style>`` drops its content. Tree rules: a
close tag with no matching open element is ignored, closing an outer element
implicitly closes everything nested inside it, void elements take no
children, and parsing never raises. Nodes hold no parent pointers, so a tree
has no reference cycles and is freed by reference counting once dropped.

One deliberate difference from ``html.parser``: ``<![…`` (CDATA or a marked
section) is dropped through the next ``>`` like any other ``<!…>``
declaration, where the stdlib parser raises on most such input or drops it
through ``]]>``. Rendered MediaWiki HTML contains neither form.
"""

from __future__ import annotations

import re
from html import unescape
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

# html.parser's own patterns for start tags outside the _TOKEN shape.
_LOCATE_START_TAG_END = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*
  (?:[\s/]*
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*
      (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?
      (?:\s|/(?!>))*
    )*
  )?
  \s*
""", re.VERBOSE)
_TAG_FIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR_FIND = re.compile(
    r"((?<=['\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"('[^']*'|\"[^\"]*\"|(?!['\"])[^>\s]*))?(?:\s|/(?!>))*")


def _attr_value(value: str) -> str:
    if value[:1] in ("'", '"'):
        value = value[1:-1]
    return unescape(value) if "&" in value else value


def _irregular_markup(html: str, i: int):
    """Markup at ``html[i] == "<"`` that ``_TOKEN`` does not match.

    Returns ``(end, tag, attrs, self_closing, text)``: a start tag when
    ``tag`` is set, otherwise ``text`` (which may be empty) is data. Follows
    html.parser: a start tag that cannot be completed, and any other
    construct with no closing ``>``, becomes text through the next ``>``,
    or up to the next ``<`` when no ``>`` follows.
    """
    nxt = html[i + 1:i + 2]
    if nxt.isascii() and nxt.isalpha():
        end = _LOCATE_START_TAG_END.match(html, i).end()
        after = html[end:end + 1]
        if after == ">":
            end += 1
        elif html.startswith("/>", end):
            end += 2
        elif not after or after in "=/" or (after.isascii() and after.isalpha()):
            return _unfinished(html, i)
        match = _TAG_FIND.match(html, i + 1)
        k = match.end()
        attrs = {}
        while k < end:
            m = _ATTR_FIND.match(html, k)
            if not m:
                break
            name, rest, value = m.group(1, 2, 3)
            attrs[name.lower()] = _attr_value(value) if rest else None
            k = m.end()
        rest = html[k:end].strip()
        if rest not in (">", "/>"):
            # A tag cut short by a character it cannot hold is kept as raw text.
            return end, None, None, False, html[i:end]
        return end, match.group(1).lower(), attrs, rest == "/>", ""
    if nxt in ("/", "!", "?"):
        return _unfinished(html, i)
    # A "<" that opens no markup is text.
    end = html.find("<", i + 1)
    if end < 0:
        end = len(html)
    return end, None, None, False, _text(html[i:end])


def _unfinished(html: str, i: int):
    end = html.find(">", i + 1)
    if end >= 0:
        end += 1
    else:
        end = html.find("<", i + 1)
        if end < 0:
            end = i + 1
    return end, None, None, False, _text(html[i:end])


def _text(raw: str) -> str:
    return unescape(raw) if "&" in raw else raw


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
            lt = html.find("<", pos)
            if lt > pos:
                current.children.append(_text(html[pos:lt]))
            pos, tag, attrs, self_closing, text = _irregular_markup(html, lt)
            if tag is None:
                if text:
                    current.children.append(text)
                continue
        else:
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
                        node.children.append(
                            unescape(leaf_text) if "&" in leaf_text else leaf_text)
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
