"""Data tables of a rendered page as rectangular cell grids.

The page scan (``htmldom``) picks the data tables, ``wikitable``-classed
ones; infoboxes, navboxes, metadata and sidebar tables are a different
artifact class and are skipped. Nested tables are flattened into the text of
the cell that holds them and never emitted separately.

The scan reads each <th>/<td> into a plain ``(raw_text, link_title,
is_header, rowspan, colspan)`` tuple as the markup goes by. For a table in
which some cell spans more than one slot, ``expand_spans`` places the tuples
straight into one Python list per grid row, so no per-cell object exists
between the markup and the final ``Cell``. A table with no span skips that
slot bookkeeping: each of its rows becomes one grid row as it stands, padded
to the widest, and its header rows are the leading rows of <th> cells only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .mw_client import PageDocument

# Rendered footnote markers: [12], [a], [iv], [note 3], [N 1], [nb 2].
FOOTNOTE_RE = re.compile(
    r"\[\s*(?:\d{1,3}|[a-z]|[ivxlcdm]{1,6}|note\s*\d+|nb\s*\d+|[a-z]\s*\d+)\s*\]",
    re.IGNORECASE,
)


def normalize_text(raw: str) -> str:
    """Whitespace-collapsed cell text with footnote markers stripped.

    NBSP becomes a plain space, bracketed footnote markers (``[12]``,
    ``[a]``, ``[note 3]``) are removed, and runs of whitespace collapse to a
    single space. Idempotent. Footnotes rendered as ``<sup class="reference">``
    are already dropped structurally before this runs, so only plain-text
    markers matching the patterns above are at risk; bracketed text in link
    labels does not take those shapes.
    """
    if "[" in raw:
        raw = FOOTNOTE_RE.sub("", raw)
    return " ".join(raw.split())


class Cell(NamedTuple):
    """One grid position: normalized text plus the first wiki-link target."""

    text: str
    link_title: Optional[str] = None
    is_spanned_copy: bool = False


# Builds a Cell from all three fields in order, without the Python-level
# __new__ that NamedTuple generates: the cells of span-free tables take it.
_new_cell = tuple.__new__

# Every unclaimed grid position: an empty, non-header cell.
_PAD_CELL = Cell("")
_PAD = (_PAD_CELL, False)


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


def _has_span(raw_rows: list[list[tuple]]) -> bool:
    """Whether any cell of the rows has a rowspan or colspan above 1 (each is at least 1)."""
    for row in raw_rows:
        for cell in row:
            if cell[3] != 1 or cell[4] != 1:  # rowspan, colspan
                return True
    return False


def _span_free_grid(raw_rows: list[list[tuple]]) -> tuple[list[list[Cell]], int]:
    """``expand_spans`` and ``detect_header`` for rows none of whose cells spans.

    Each row's cells stay where they are, padded with empty cells to the
    widest row. Returns the grid and the number of header rows: the leading
    rows of <th> cells only that are as wide as the grid (a pad is never a
    header cell), else the first row.
    """
    width = max(map(len, raw_rows))
    grid = []
    for row in raw_rows:
        cells = [_new_cell(Cell, (normalize_text(raw_text), link, False))
                 for raw_text, link, _, _, _ in row]
        if len(cells) < width:
            cells += [_PAD_CELL] * (width - len(cells))
        grid.append(cells)
    split = 0
    for row in raw_rows:
        if len(row) < width or not all(cell[2] for cell in row):
            break
        split += 1
    return grid, split or 1


def extract_tables(doc: PageDocument) -> list[WikiTable]:
    """All data tables of a page, in document order.

    A table with no spanning cell skips the slot bookkeeping of ``expand_spans``.
    """
    out: list[WikiTable] = []
    for raw_rows in doc.scan.tables:
        if _has_span(raw_rows):
            grid, flags = expand_spans(raw_rows)
            header_rows, body_rows = detect_header(grid, flags)
        else:
            grid, split = _span_free_grid(raw_rows)
            header_rows, body_rows = grid[:split], grid[split:]
        out.append(WikiTable(
            table_index=len(out),
            header_rows=header_rows,
            body_rows=body_rows,
            n_cols=len(grid[0]),
        ))
    return out
