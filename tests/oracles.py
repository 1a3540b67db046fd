"""Independent reference implementations used as test oracles.

Kept apart from the package so the implementations under test never share
code with the oracles that judge them. An oracle may still call the package's
helpers for the steps below the one it judges, such as ``parse_value``.
"""

from html.parser import HTMLParser

import numpy as np

from tablediff.htmldom import Node
from tablediff.schema_align import attribute_row
from tablediff.value_analysis import (MISSING, ParsedValue, _pair_difference,
                                      _record, classify, is_missing, parse_value)


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


_VOID_TAGS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


class _TreeBuilder(HTMLParser):
    """The stdlib-parser tree builder that ``parse_html`` replaced."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Node("#document")
        self.open_elements = [self.root]  # innermost open element last

    def handle_starttag(self, tag, attrs):
        node = Node(tag, dict(attrs))
        self.open_elements[-1].children.append(node)
        if tag not in _VOID_TAGS:
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


def oracle_parse_html(html):
    """Reference tree built from ``html.parser`` events."""
    builder = _TreeBuilder()
    builder.feed(html)
    builder.close()
    return builder.root


def tree_shape(node):
    """Nested (tag, attrs, children) tuples with adjacent strings merged."""
    children = []
    for child in node.children:
        if isinstance(child, str):
            if children and isinstance(children[-1], str):
                children[-1] += child
            else:
                children.append(child)
        else:
            children.append(tree_shape(child))
    return (node.tag, node.attrs, children)


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
                    if is_missing(text, extra_missing):
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
                family_id, cls, entity, attribute_row(attribute), by_language,
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
