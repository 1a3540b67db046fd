"""Independent reference implementations used as test oracles.

Kept apart from the package so the implementations under test never share
code with the oracles that judge them. An oracle may still call the package's
helpers for the steps below the one it judges, such as ``parse_value``.
"""

import math
import re
from html.parser import HTMLParser

import numpy as np

from tablediff.htmldom import (BLOCK_TAGS, EXCLUDED_TABLE_CLASSES, NON_CONTENT_TAGS, VOID_TAGS,
                              _coerce_span, link_target)
from tablediff.table_parser import FOOTNOTE_RE, normalize_text
from tablediff.value_analysis import (_RATIO_WORDS, _SEPARATORS, _UNIT_ALTERNATION, _UNITS,
                                      MISSING, ParsedValue, _pair_difference, _record, classify,
                                      missing_markers, parse_value)


def oracle_normalize_text(raw):
    """``normalize_text`` with NBSP replaced before the split, as it was first written.

    It is the reference for the NBSP handling. Footnote markers go as in
    ``normalize_text``: stripped until none is left.
    """
    text = raw.replace("\u00a0", " ")
    stripped = FOOTNOTE_RE.sub("", text)
    while stripped != text:
        text, stripped = stripped, FOOTNOTE_RE.sub("", stripped)
    return " ".join(text.split())


def oracle_is_missing(text, extra_vocab=()):
    """Whether raw cell text counts as missing once read as a cell.

    The definition that the cell walks' ``cell.text in missing_markers(extra)``
    stands for, since every ``Cell.text`` comes out of ``normalize_text``.
    """
    return normalize_text(text) in missing_markers(extra_vocab)


def _paint(layout):
    """Claim grid of source ids plus (row, index in row, anchor column) per source id.

    Claims are painted into an explicit integer grid row by row: the cursor
    skips claimed positions, each cell claims its rectangle (first claimant
    wins), rowspans clip at the last row. Unclaimed positions hold -1; the
    grid is as wide as the last claimed column.
    """
    n_rows = len(layout)
    width_cap = 1 + max(sum(cs + 2 for _rs, cs, _t in row) for row in layout) + 4 * n_rows
    claims = np.full((n_rows, width_cap), -1, dtype=int)
    sources = []
    for r, row in enumerate(layout):
        cursor = 0
        for i, (rowspan, colspan, _text) in enumerate(row):
            while claims[r, cursor] != -1:
                cursor += 1
            sid = len(sources)
            sources.append((r, i, cursor))
            for dr in range(min(rowspan, n_rows - r)):
                for dc in range(colspan):
                    if claims[r + dr, cursor + dc] == -1:
                        claims[r + dr, cursor + dc] = sid
            cursor += colspan
    used = np.argwhere(claims != -1)
    width = int(used[:, 1].max()) + 1 if len(used) else 1
    return claims[:, :width], sources


def oracle_expand(layout):
    """Occupancy-bitmap reference for rowspan/colspan expansion.

    ``layout`` is rows of (rowspan, colspan, text). Returns rows of (text,
    is_copy) with unclaimed positions as ("", False) pads.
    """
    claims, sources = _paint(layout)
    out = []
    for r, claim_row in enumerate(claims):
        row_cells = []
        for c, sid in enumerate(claim_row):
            if sid == -1:
                row_cells.append(("", False))
            else:
                sr, si, sc = sources[sid]
                row_cells.append((layout[sr][si][2], (sr, sc) != (r, c)))
        out.append(row_cells)
    return out


def oracle_header_flags(layout, headers):
    """Header flag of each position's claimant; ``headers`` parallels ``layout``.

    Unclaimed positions are never header cells.
    """
    claims, sources = _paint(layout)
    source_flags = [bool(headers[sr][si]) for sr, si, _sc in sources]
    return [[source_flags[sid] if sid != -1 else False for sid in claim_row] for claim_row in claims]


def random_span_layout(rng, max_rows=8, max_cells=6, max_span=4):
    n_rows = rng.randint(1, max_rows)
    layout = []
    for r in range(n_rows):
        n_cells = rng.randint(1, max_cells)
        layout.append([
            (rng.randint(1, max_span), rng.randint(1, max_span), f"r{r}c{i}")
            for i in range(n_cells)
        ])
    return layout


def layout_to_html(layout, rng=None):
    """Render a layout as table HTML, sometimes spelling unit spans as junk."""
    rows = []
    for row in layout:
        cells = []
        for rowspan, colspan, text in row:
            attrs = ""
            if rowspan != 1:
                attrs += f' rowspan="{rowspan}"'
            elif rng is not None and rng.random() < 0.1:
                attrs += f' rowspan="{rng.choice(["0", "-2", "x", ""])}"'
            if colspan != 1:
                attrs += f' colspan="{colspan}"'
            elif rng is not None and rng.random() < 0.1:
                attrs += f' colspan="{rng.choice(["0", "-1", "?"])}"'
            cells.append(f"<td{attrs}>{text}</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")
    return '<table class="wikitable"><tbody>' + "".join(rows) + "</tbody></table>"


class Node:
    """One element of the oracle tree: tag name, attributes, and mixed node/str children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag, attrs=None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children = []

    def classes(self):
        return set((self.attrs.get("class") or "").split())

    def get(self, name, default=None):
        return self.attrs.get(name, default)

    def find_all(self, tag, class_=None):
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


class _TreeBuilder(HTMLParser):
    """The element tree of html.parser's events, as the page tree was built."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self.open_elements = [self.root]  # innermost open element last

    def handle_starttag(self, tag, attrs):
        node = Node(tag, dict(attrs))
        self.open_elements[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.open_elements.append(node)

    def handle_startendtag(self, tag, attrs):
        self.open_elements[-1].children.append(Node(tag, dict(attrs)))

    def handle_endtag(self, tag):
        for i in range(len(self.open_elements) - 1, 0, -1):
            if self.open_elements[i].tag == tag:
                del self.open_elements[i:]
                return
        # No matching open tag: ignore the stray close.

    def handle_data(self, data):
        if data:
            self.open_elements[-1].children.append(data)

    def parse_marked_section(self, i, report=1):
        # "<![" is dropped through the next ">", as parse_html drops any "<!…>".
        end = self.rawdata.find(">", i + 3)
        return end + 1 if end >= 0 else -1


def oracle_parse_html(html):
    """Reference tree built from ``html.parser`` events."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


# -- the tree walks: each page's tables and reference count -------------------

def _is_reference_sup(node):
    return node.tag == "sup" and (
        "reference" in node.classes() or str(node.get("id", "")).startswith("cite_ref"))


def _walk_cell(node, parts, link):
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
        if tag == "a" and link is None and not _is_reference_sup(node) \
                and not child.classes() & {"new", "mw-file-description", "image"}:
            link = link_target(child.get("href"), child.get("title"))
        link = _walk_cell(child, parts, link)
        if tag in BLOCK_TAGS:
            parts.append(" ")
    return link


def _raw_cell(node):
    """A <th>/<td>: (raw_text, link_title, is_header, rowspan, colspan)."""
    parts = []
    link = _walk_cell(node, parts, None)
    return ("".join(parts), link, node.tag == "th",
            _coerce_span(node.get("rowspan")), _coerce_span(node.get("colspan")))


def _outer_tables(root):
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


def _table_rows(table):
    """The table's own <tr> rows, then those of its sections; never a nested table's."""
    children = [c for c in table.children if isinstance(c, Node)]
    rows = [c for c in children if c.tag == "tr"]
    for section in children:
        if section.tag in ("thead", "tbody", "tfoot"):
            rows += [c for c in section.children if isinstance(c, Node) and c.tag == "tr"]
    return rows


def oracle_scan(html):
    """(raw rows of each data table, reference count) read off the html.parser tree.

    The tree walks ``table_parser`` and ``count_references`` made before the
    page scan read both straight off the markup.
    """
    root = oracle_parse_html(html)
    tables = []
    for table in _outer_tables(root):
        classes = table.classes()
        if "wikitable" not in classes or classes & EXCLUDED_TABLE_CLASSES:
            continue
        rows = [[_raw_cell(c) for c in tr.children
                 if isinstance(c, Node) and c.tag in ("th", "td")]
                for tr in _table_rows(table)]
        rows = [row for row in rows if row]
        if rows:
            tables.append(rows)
    references = sum(1 for ol in root.find_all("ol", class_="references")
                     for child in ol.children if getattr(child, "tag", None) == "li")
    return tables, references


def _oracle_separators(language):
    """(group, decimal) separators; en's for a language with no entry."""
    return _SEPARATORS.get(language, (",", "."))


def _oracle_number(token, language):
    group, dec = _oracle_separators(language)
    return float(token.replace(group, "").replace(dec, "."))


def _oracle_int(token, language):
    group, _ = _oracle_separators(language)
    return int(token.replace(group, ""))


def oracle_parse_value(text, language):
    """``parse_value`` as one ``re.fullmatch`` per cell form, tried in turn.

    Percentage, then ratio with each separator, then number with an optional
    unit. A form whose magnitude cannot be computed, or is not finite in its
    unit's base unit, does not apply; text that no form fits is ``text``.
    """
    group, dec = _oracle_separators(language)
    g, d = re.escape(group), re.escape(dec)
    integer = rf"\d{{1,3}}(?:{g}\d{{3}})+|\d+"
    num = rf"[+-]?(?:{integer})(?:{d}\d+)?"
    t = text.replace("\u00a0", " ").strip()
    m = re.fullmatch(rf"({num})\s*%", t)
    if m:
        magnitude = _oracle_number(m.group(1), language)
        if math.isfinite(magnitude):
            return ParsedValue(kind="percentage", original=text, magnitude=magnitude)
    words = [r"\s".join(map(re.escape, w.split())) for w in _RATIO_WORDS.get(language, ())]
    ratio_seps = [r"/"] + [rf"\s{w}\s" for w in words]
    for sep in ratio_seps:
        m = re.fullmatch(rf"({integer})\s*(?:{sep})\s*({integer})", t)
        if m:
            try:
                numerator = _oracle_int(m.group(1), language)
                denominator = _oracle_int(m.group(2), language)
                magnitude = 100.0 * numerator / denominator
            except (ZeroDivisionError, OverflowError, ValueError):
                continue
            if math.isfinite(magnitude):
                return ParsedValue(kind="ratio", original=text, magnitude=magnitude,
                                   numerator=numerator, denominator=denominator)
    m = re.fullmatch(rf"({num})\s*({_UNIT_ALTERNATION})?", t)
    if m:
        magnitude = _oracle_number(m.group(1), language)
        unit, _dimension, factor = _UNITS[m.group(2)] if m.group(2) else (None, None, 1.0)
        if math.isfinite(magnitude * factor):
            return ParsedValue(kind="number", original=text, magnitude=magnitude, unit=unit)
    return ParsedValue(kind="text", original=text)


def oracle_collect_attribute_values(matrix, columns, attribute, extra_missing):
    """First non-missing value per (entity, language) for one attribute.

    The per-attribute walk that ``pipeline._attribute_values`` replaced.
    Languages where no occurrence table carries the attribute's column are
    left out; a language whose cells are all missing markers maps to MISSING.
    """
    out = {}
    for entity, occurrences in matrix.items():
        per_language = {}
        for language, places in occurrences.items():
            saw_column = False
            value = MISSING
            for table_index, row_index in places:
                table, by_attr = columns[(language, table_index)]
                for col in by_attr.get(attribute, []):
                    saw_column = True
                    text = table.body_rows[row_index][col].text
                    if oracle_is_missing(text, extra_missing):
                        continue
                    value = parse_value(text, language)
                    break
                if value is not MISSING:
                    break
            if saw_column:
                per_language[language] = value
        if per_language:
            out[entity] = per_language
    return out


def oracle_detect_conflicts(family_id, attribute, values_by_entity, rel_tol,
                            revision_timestamps, staleness_window):
    """``detect_conflicts`` comparing every language pair of every entity.

    The pairwise loop before values that agree were let skip it; each record
    is classified by ``classify`` as it is built.
    """
    records = []
    findings = []
    for entity, by_language in values_by_entity.items():
        numeric = {lang: v for lang, v in by_language.items()
                   if isinstance(v, ParsedValue) and v.kind != "text"}
        if len(numeric) < 2:
            continue
        langs = list(numeric)
        worst = None
        for i in range(len(langs)):
            for j in range(i + 1, len(langs)):
                a, b = numeric[langs[i]], numeric[langs[j]]
                difference = _pair_difference(a, b)
                if difference in ("kind-mismatch", "unit-mismatch"):
                    findings.append({
                        "kind": "incomparable-values",
                        "family": family_id,
                        "entity": entity.label(),
                        "attribute": attribute.name,
                        "languages": [langs[i], langs[j]],
                        "detail": f"{difference}: {a.original!r} ({a.kind}/{a.unit}) vs "
                                  f"{b.original!r} ({b.kind}/{b.unit})",
                    })
                elif difference > rel_tol:
                    worst = difference if worst is None else max(worst, difference)
        if worst is not None:
            cls, timestamps, reason = classify(numeric, revision_timestamps, staleness_window)
            records.append(_record(
                family_id, cls, entity, attribute._asdict(), by_language,
                f"numeric disagreement on {attribute.name} "
                f"across {', '.join(numeric)} (rel_tol={rel_tol}){reason}", worst, timestamps))
    return records, findings


def oracle_text_divergence(family_id, attribute, values_by_entity):
    """The text walk that ``detect_conflicts`` took over: a finding per entity whose texts differ.

    Texts are compared stripped and casefolded; an empty one is left out.
    """
    findings = []
    for entity, by_language in values_by_entity.items():
        texts = {lang: v.original.strip() for lang, v in by_language.items()
                 if isinstance(v, ParsedValue) and v.kind == "text" and v.original.strip()}
        if len(texts) < 2:
            continue
        if len({t.casefold() for t in texts.values()}) > 1:
            findings.append({
                "kind": "text-divergence",
                "family": family_id,
                "entity": entity.label(),
                "attribute": attribute.name,
                "values": dict(sorted(texts.items())),
            })
    return findings
