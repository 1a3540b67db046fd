"""Data tables of a rendered page as rectangular cell grids.

The page scan (``htmldom``) picks the data tables, ``wikitable``-classed
ones; infoboxes, navboxes, metadata and sidebar tables are a different
artifact class and are skipped. Nested tables are flattened into the text of
the cell that holds them and never emitted separately.

The scan reads each <th>/<td> into a plain ``(raw_text, link_title,
is_header, rowspan, colspan)`` tuple as the markup goes by, and
``build_grid`` turns a table's rows into its grid in one pass, top to
bottom, counting the leading header rows on the way. Most rows neither span
nor sit under a span: such a row becomes one grid row as it stands. Only
the others take their slots from a map of the cells that spans claimed in
them. No per-cell object exists between the markup and the final ``Cell``.

A cached page keeps its finished tables in a stored form (``stored_table``):
per table the header-row count, the width, every cell text in row-major
order joined by newlines, and sparse lists of the cells with a link and of
the spanned copies. ``load_table`` builds each ``Cell`` straight from it, so
a page read from its stored form runs neither ``build_grid`` nor
``normalize_text``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # mw_client builds a page's tables with this module
    from .mw_client import PageDocument

# Rendered footnote markers: [12], [a], [iv], [note 3], [N 1], [nb 2].
FOOTNOTE_RE = re.compile(
    r"\[\s*(?:\d{1,3}|[a-z]|[ivxlcdm]{1,6}|note\s*\d+|nb\s*\d+|[a-z]\s*\d+)\s*\]",
    re.IGNORECASE,
)


def normalize_text(raw: str) -> str:
    """Whitespace-collapsed cell text with footnote markers stripped.

    NBSP becomes a plain space, bracketed footnote markers (``[12]``, ``[a]``,
    ``[note 3]``) are removed until none is left (``[1[2]]`` reads as empty),
    and runs of whitespace collapse to a single space, so it is idempotent.
    Footnotes rendered as ``<sup class="reference">`` are already dropped
    structurally before this runs, so only plain-text markers matching the
    patterns above are at risk; bracketed text in link labels does not take those shapes.
    """
    while "[" in raw and FOOTNOTE_RE.search(raw):
        raw = FOOTNOTE_RE.sub("", raw)
    return " ".join(raw.split())


class Cell(NamedTuple):
    """One grid position: normalized text plus the first wiki-link target."""

    text: str
    link_title: Optional[str] = None
    is_spanned_copy: bool = False


# Builds a Cell from all three fields in order, without the Python-level
# __new__ that NamedTuple generates: the cells of rows taken as they stand and
# the cells of stored tables use it.
_new_cell = tuple.__new__

# Every unclaimed grid position: an empty, non-header cell.
_PAD_CELL = Cell("")


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


def build_grid(raw_rows: list[list[tuple]]) -> tuple[list[list[Cell]], int]:
    """Materialize rowspan/colspan into a rectangular Cell grid; count its header rows.

    Rows are placed top to bottom, cells left to right. A row that no earlier
    span reaches and none of whose cells spans is taken as it stands. Any
    other row starts from the slots that earlier spans claimed in it: the
    column cursor skips claimed slots, and each cell takes the free slot there
    and copies itself, flagged ``is_spanned_copy``, into the free slots of its
    ``rowspan x colspan`` rectangle (a claimed slot keeps its first claimant).
    Rowspans are clipped at the last row; empty rows never reach this
    function. The grid is as wide as the last claimed column + 1, and free or
    missing slots become empty cells.

    The header rows are the leading rows whose every slot holds a <th> cell
    or a copy of one (an empty slot is not a header cell), else the first row.
    """
    claimed: dict[int, dict] = {}  # row -> column -> (Cell copy, is_header)
    grid = []
    header_widths = []  # width of each row of the leading run of header rows
    for r, row in enumerate(raw_rows):
        slots = claimed.pop(r, None)
        if slots is None:
            for cell in row:
                if cell[3] != 1 or cell[4] != 1:  # rowspan, colspan
                    slots = {}
                    break
        if slots is None:
            cells = [_new_cell(Cell, (normalize_text(raw_text), link, False))
                     for raw_text, link, _, _, _ in row]
            is_header = len(header_widths) == r and all(cell[2] for cell in row)
        else:
            cursor = 0
            for raw_text, link, th, rowspan, colspan in row:
                while cursor in slots:
                    cursor += 1
                text = normalize_text(raw_text)
                slots[cursor] = (Cell(text, link), th)
                if rowspan > 1 or colspan > 1:
                    copy = (Cell(text, link, True), th)
                    columns = range(cursor, cursor + colspan)
                    for c in columns[1:]:
                        slots.setdefault(c, copy)
                    for below in range(r + 1, min(r + rowspan, len(raw_rows))):
                        taken = claimed.setdefault(below, {})
                        for c in columns:
                            taken.setdefault(c, copy)
                cursor += colspan
            cells = [slots[c][0] if c in slots else _PAD_CELL for c in range(max(slots) + 1)]
            is_header = (len(header_widths) == r and len(slots) == len(cells)
                         and all(flag for _, flag in slots.values()))
        if is_header:
            header_widths.append(len(cells))
        grid.append(cells)

    width = max(map(len, grid))
    for cells in grid:
        if len(cells) < width:
            cells += [_PAD_CELL] * (width - len(cells))
    split = next((i for i, n in enumerate(header_widths) if n < width), len(header_widths))
    return grid, split or 1


def grid_tables(raw_tables: list) -> list[WikiTable]:
    """Each data table of a page scan (its raw rows) as a WikiTable, in document order."""
    out: list[WikiTable] = []
    for raw_rows in raw_tables:
        grid, split = build_grid(raw_rows)
        out.append(WikiTable(
            table_index=len(out),
            header_rows=grid[:split],
            body_rows=grid[split:],
            n_cols=len(grid[0]),
        ))
    return out


def stored_table(table: WikiTable) -> dict:
    """The stored form of a table, which ``load_table`` reads back.

    ``texts`` joins every cell's text in row-major order with newlines, which
    ``normalize_text`` never leaves in a text; ``links`` holds the
    ``[index, title]`` of each cell with a link and ``copies`` the index of
    each spanned copy. Pad cells are empty texts.
    """
    cells = [cell for row in table.header_rows + table.body_rows for cell in row]
    return {"header_rows": len(table.header_rows), "n_cols": table.n_cols,
            "texts": "\n".join([cell.text for cell in cells]),
            "links": [[i, cell.link_title] for i, cell in enumerate(cells)
                      if cell.link_title is not None],
            "copies": [i for i, cell in enumerate(cells) if cell.is_spanned_copy]}


def load_table(table_index: int, stored) -> WikiTable:
    """The table whose stored form (``stored_table``) is ``stored``.

    Raises ValueError naming the first check it fails: ``n_cols`` an integer
    >= 1, ``texts`` a string of n texts that fill whole rows, ``header_rows``
    an integer from 1 to the number of rows, each link an ``[index, title]``
    pair of an index below n and a string, each copy an index below n.
    """
    if type(stored) is not dict:
        raise ValueError("a table is not a JSON object")
    width, header_rows, texts = stored.get("n_cols"), stored.get("header_rows"), stored.get("texts")
    links, copies = stored.get("links"), stored.get("copies")
    if not (type(width) is int and width >= 1):
        raise ValueError(f"n_cols {width!r} is not an integer >= 1")
    if type(texts) is not str:
        raise ValueError("texts is not a string")
    texts = texts.split("\n")
    n = len(texts)
    if n % width:
        raise ValueError(f"{n} texts do not fill rows of {width}")
    if not (type(header_rows) is int and 1 <= header_rows <= n // width):
        raise ValueError(f"header_rows {header_rows!r} is not an integer from 1 to {n // width}")
    if not (type(links) is list and type(copies) is list):
        raise ValueError("links or copies is not a list")
    cells = list(map(_new_cell, repeat(Cell), zip(texts, repeat(None), repeat(False))))
    for link in links:
        if not (type(link) is list and len(link) == 2 and type(link[0]) is int
                and 0 <= link[0] < n and type(link[1]) is str):
            raise ValueError(f"link {link!r} is not an [index below {n}, title] pair")
        index, title = link
        cells[index] = _new_cell(Cell, (texts[index], title, False))
    for index in copies:
        if not (type(index) is int and 0 <= index < n):
            raise ValueError(f"copy {index!r} is not an index below {n}")
        cells[index] = _new_cell(Cell, (texts[index], cells[index][1], True))
    rows = [cells[start:start + width] for start in range(0, n, width)]
    return WikiTable(table_index, rows[:header_rows], rows[header_rows:], width)


def extract_tables(doc: PageDocument) -> list[WikiTable]:
    """All data tables of a page, in document order (``PageDocument.contents``)."""
    return list(doc.contents.tables)
