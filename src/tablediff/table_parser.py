"""Extract data tables from rendered page HTML as rectangular cell grids.

Only ``wikitable``-classed tables qualify as data tables; infoboxes,
navboxes, metadata and sidebar tables are a different artifact class and are
skipped. Nested tables are flattened into the text of the cell that holds
them and never emitted separately.

Each <th>/<td> is read once into a plain ``(raw_text, link_title, is_header,
rowspan, colspan)`` tuple; ``expand_spans`` then places the tuples straight
into one Python list per grid row, so no per-cell object exists between the
HTML node and the final ``Cell``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional
from urllib.parse import unquote

from .htmldom import Node
from .mw_client import PageDocument

EXCLUDED_TABLE_CLASSES = {"infobox", "navbox", "metadata", "sidebar"}

# Elements whose text never counts as cell content.
NON_CONTENT_TAGS = {"script", "style"}

# Elements whose end separates words that would otherwise glue together.
BLOCK_TAGS = frozenset({"p", "div", "li", "tr", "td", "th", "table", "caption"})

# Rendered footnote markers: [12], [a], [iv], [note 3], [N 1], [nb 2].
FOOTNOTE_RE = re.compile(
    r"\[\s*(?:\d{1,3}|[a-z]|[ivxlcdm]{1,6}|note\s*\d+|nb\s*\d+|[a-z]\s*\d+)\s*\]",
    re.IGNORECASE,
)

# Links into these namespaces never denote a row entity.
_NAMESPACE_PREFIXES = (
    "file:", "image:", "category:", "help:", "template:", "special:",
    "wikipedia:", "portal:", "talk:", "user:", "wiktionary:", "media:",
)

_HTML_SPAN_CAP = 1000  # browsers clamp colspan/rowspan; so do we

# HTML's rules for parsing non-negative integers: leading ASCII whitespace,
# an optional "+", then the leading digits; whatever follows is ignored.
_SPAN_RE = re.compile(r"[\t\n\f\r ]*\+?([0-9]+)")


def normalize_text(raw: str) -> str:
    """Whitespace-collapsed cell text with footnote markers stripped.

    NBSP becomes a plain space, bracketed footnote markers (``[12]``,
    ``[a]``, ``[note 3]``) are removed, and runs of whitespace collapse to a
    single space. Idempotent. Footnotes rendered as ``<sup class="reference">``
    are already dropped structurally before this runs, so only plain-text
    markers matching the patterns above are at risk; bracketed text in link
    labels does not take those shapes.
    """
    text = raw.replace("\u00a0", " ")
    if "[" in text:
        text = FOOTNOTE_RE.sub("", text)
    return " ".join(text.split())


@dataclass(frozen=True)
class Cell:
    """One grid position: normalized text plus the first wiki-link target."""

    text: str
    link_title: Optional[str] = None
    is_spanned_copy: bool = False


# Every unclaimed grid position: an empty, non-header cell.
_PAD = (Cell(""), False)


@dataclass
class WikiTable:
    """A rectangular table: every header and body row has n_cols cells."""

    table_index: int
    header_rows: list[list[Cell]]
    body_rows: list[list[Cell]]
    n_cols: int

    @property
    def n_body_rows(self) -> int:
        return len(self.body_rows)

    def column_labels(self) -> list[str]:
        """One logical header label per column.

        Multi-row headers collapse by joining the distinct stacked texts with
        " / ", so a "Height" cell spanning "m" and "ft" sub-headers yields
        "Height / m" and "Height / ft".
        """
        labels = []
        for col in range(self.n_cols):
            parts: list[str] = []
            for row in self.header_rows:
                text = row[col].text
                if text and (not parts or parts[-1] != text):
                    parts.append(text)
            labels.append(" / ".join(parts))
        return labels


def _coerce_span(value) -> int:
    if value is None or value == "1":
        return 1
    match = _SPAN_RE.match(value)
    if match is None:
        return 1
    return min(max(int(match.group(1)), 1), _HTML_SPAN_CAP)


def _is_reference_sup(node: Node) -> bool:
    return node.tag == "sup" and (
        "reference" in node.classes() or str(node.get("id", "")).startswith("cite_ref")
    )


def _cell_content(node: Node) -> tuple[str, Optional[str]]:
    """Visible text (rendered footnote sups dropped) and first link target.

    One walk collects both. The first link is the first anchor in document
    order that resolves through ``link_target``, is not a red link, and
    whose parent is not a reference sup; it may sit inside a nested table,
    or deeper inside a sup, whose text is dropped.
    """
    children = node.children
    if len(children) == 1 and isinstance(children[0], str):  # plain text: nothing to walk
        return children[0], None
    parts: list[str] = []
    link = _walk_cell(node, parts, None)
    return "".join(parts), link


def _walk_cell(node: Node, parts: list[str], link: Optional[str]) -> Optional[str]:
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
            continue
        tag = child.tag
        if tag in NON_CONTENT_TAGS or _is_reference_sup(child):
            if link is None:
                link = _walk_cell(child, [], None)
            continue
        if tag == "br":
            parts.append(" ")
            continue
        if tag == "a" and link is None:
            link = _anchor_link(child, node)
        link = _walk_cell(child, parts, link)
        if tag in BLOCK_TAGS:
            parts.append(" ")
    return link


def link_target(href: Optional[str], title_attr: Optional[str]) -> Optional[str]:
    """Resolve an anchor to an internal page title, or None.

    Only ``/wiki/Title`` hrefs qualify; red links (``action=edit``) and
    non-article namespaces are skipped.
    """
    if not href or not href.startswith("/wiki/"):
        return None
    if title_attr:
        title = title_attr
    else:
        title = unquote(href[len("/wiki/"):]).split("#", 1)[0].replace("_", " ")
    title = title.strip()
    if not title or title.lower().startswith(_NAMESPACE_PREFIXES):
        return None
    return title


def _anchor_link(anchor: Node, parent: Node) -> Optional[str]:
    if _is_reference_sup(parent):
        return None
    if "new" in anchor.classes():  # red link
        return None
    return link_target(anchor.get("href"), anchor.get("title"))


def _parse_raw_cell(node: Node) -> tuple[str, Optional[str], bool, int, int]:
    """A <th>/<td> before span expansion: (raw_text, link_title, is_header, rowspan, colspan)."""
    raw, link = _cell_content(node)
    attrs = node.attrs
    if not attrs:
        return raw, link, node.tag == "th", 1, 1
    return (raw, link, node.tag == "th",
            _coerce_span(attrs.get("rowspan")), _coerce_span(attrs.get("colspan")))


def _table_rows(table: Node) -> list[Node]:
    """The table's own <tr> rows, never rows of a nested table."""
    rows, sections = [], []
    for child in table.children:
        if isinstance(child, Node) and child.tag in ("thead", "tbody", "tfoot"):
            sections.append(child)
        elif isinstance(child, Node) and child.tag == "tr":
            rows.append(child)
    for section in sections:
        for child in section.children:
            if isinstance(child, Node) and child.tag == "tr":
                rows.append(child)
    return rows


def _row_cells(tr: Node) -> list[Node]:
    return [c for c in tr.children if isinstance(c, Node) and c.tag in ("th", "td")]


def expand_spans(raw_rows: list[list[tuple]]) -> tuple[list[list[Cell]], list[list[bool]]]:
    """Materialize rowspan/colspan into a rectangular Cell grid.

    Every grid row is one list of ``(Cell, is_header)`` entries in which
    ``None`` marks a free slot. Rows are processed top to bottom, cells left
    to right. The column cursor skips filled slots; each cell fills the free
    slot there and then copies itself into the free slots of its ``rowspan x
    colspan`` rectangle, extending the lists of the rows below as needed
    (a slot already filled stays with its first claimant). Rowspans are
    clipped at the last row; empty rows never reach this function. Every
    position beyond the anchor holds a copy flagged ``is_spanned_copy``. The
    grid is as wide as the last claimed column + 1; free and missing slots
    become empty cells.

    Returns the cell grid and a parallel header-flag grid (pads are never
    header cells).
    """
    slots: list[list] = [[] for _ in raw_rows]
    for r, row in enumerate(raw_rows):
        line = slots[r]
        cursor = 0
        for raw_text, link, is_header, rowspan, colspan in row:
            filled = len(line)
            while cursor < filled and line[cursor] is not None:
                cursor += 1
            text = normalize_text(raw_text)
            if cursor == filled:
                line.append((Cell(text, link), is_header))
            else:
                line[cursor] = (Cell(text, link), is_header)
            if rowspan > 1 or colspan > 1:
                copy = (Cell(text, link, is_spanned_copy=True), is_header)
                stop = cursor + colspan
                for below in slots[r:r + rowspan]:
                    if len(below) < stop:
                        below += [None] * (stop - len(below))
                    for c in range(cursor, stop):
                        if below[c] is None:
                            below[c] = copy
            cursor += colspan

    width = max(map(len, slots), default=0) or min(len(slots), 1)
    grid, headers = [], []
    for line in slots:
        if len(line) < width:
            line += [_PAD] * (width - len(line))
        if None in line:
            line = [entry or _PAD for entry in line]
        grid.append([cell for cell, _ in line])
        headers.append([is_header for _, is_header in line])
    return grid, headers


def detect_header(grid: list[list[Cell]],
                  header_flags: list[list[bool]]) -> tuple[list[list[Cell]], list[list[Cell]]]:
    """Split a rectangular grid into header rows and body rows.

    Leading rows made up entirely of <th> cells are the header; when there is
    no such row the first row is promoted instead.
    """
    split = 0
    for flags in header_flags:
        if flags and all(flags):
            split += 1
        else:
            break
    if split == 0 and grid:
        return [grid[0]], grid[1:]
    return grid[:split], grid[split:]


def _qualifies(table: Node) -> bool:
    classes = table.classes()
    return "wikitable" in classes and not classes & EXCLUDED_TABLE_CLASSES


def _outer_tables(root: Node) -> list[Node]:
    """Tables inside no other table, in document order; never enters a table."""
    out = []
    stack = root.children[::-1]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            if node.tag == "table":
                out.append(node)
            else:
                stack.extend(reversed(node.children))
    return out


def extract_tables(doc: PageDocument) -> list[WikiTable]:
    """All qualifying data tables of a page, in document order."""
    out: list[WikiTable] = []
    for table in _outer_tables(doc.root):
        if not _qualifies(table):
            continue
        raw_rows = [[_parse_raw_cell(c) for c in _row_cells(tr)] for tr in _table_rows(table)]
        raw_rows = [row for row in raw_rows if row]
        if not raw_rows:
            continue
        grid, flags = expand_spans(raw_rows)
        header_rows, body_rows = detect_header(grid, flags)
        out.append(WikiTable(
            table_index=len(out),
            header_rows=header_rows,
            body_rows=body_rows,
            n_cols=len(grid[0]) if grid else 0,
        ))
    return out
