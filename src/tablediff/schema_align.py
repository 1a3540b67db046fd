"""Header normalization and the cross-language attribute presence grid.

Headers map to canonical attributes through a curated bilingual mapping file;
automatic translation is deliberately out of scope. Headers the mapping does
not know stay visible as "unmapped" rows so coverage gaps are never hidden.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import MappingConflict
from .table_parser import FOOTNOTE_RE, WikiTable

_PAREN_RE = re.compile(r"\s*[(（][^)）]*[)）]")
_SNAKE_CASE_RE = re.compile(r"[a-z0-9]+(_[a-z0-9]+)*")


class Attribute(NamedTuple):
    """A column's attribute as the report names it; ``_asdict()`` is its report row."""

    name: str
    kind: str  # "mapped" (a canonical name of the map) or "unmapped" (a normalized header)


def normalize_header(raw: str, language: str) -> str:
    """Case-folded header with parenthesized unit suffixes dropped.

    Footnote markers are stripped, parenthesized groups (ASCII or fullwidth)
    are removed, and whitespace runs collapse to one space; no spaces are
    inserted into CJK text.
    """
    text = FOOTNOTE_RE.sub("", raw)
    text = _PAREN_RE.sub("", text)
    text = text.casefold()
    return re.sub(r"\s+", " ", text).strip()


class HeaderMapping:
    """Loaded attribute mapping; alias lookup is per language and exact."""

    def __init__(self, entries: Iterable[tuple[str, dict[str, list[str]]]]):
        """``entries`` are ``(canonical, {language: [alias, ...]})`` pairs in map order."""
        entries = list(entries)
        names = [canonical for canonical, _aliases in entries]
        for name in names:
            if not _SNAKE_CASE_RE.fullmatch(name):
                raise MappingConflict(f"canonical name must be lowercase snake_case: {name!r}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise MappingConflict(f"canonical name listed more than once: {', '.join(repeated)}")
        self.attributes = [Attribute(name, "mapped") for name in names]
        self._index: dict[tuple[str, str], Attribute] = {}
        for attr, (_name, aliases) in zip(self.attributes, entries):
            for lang, values in aliases.items():
                for alias in values:
                    other = self._index.setdefault((lang, alias), attr)
                    if other != attr:
                        raise MappingConflict(f"alias {alias!r} ({lang}) claimed by both "
                                              f"{other.name!r} and {attr.name!r}")

    def lookup(self, normalized: str, language: str) -> Attribute:
        """Exact alias match for that language, else the header as an "unmapped" attribute."""
        return self._index.get((language, normalized)) or Attribute(normalized, "unmapped")


def load_header_mapping(path: str | Path) -> HeaderMapping:
    """Load ``{"attributes": [{"canonical", "aliases"}]}``; ValueError on a malformed entry."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("attributes", []), list):
        raise ValueError("a header map must be a JSON object whose 'attributes' is a list")
    entries = []
    for entry in data.get("attributes", []):
        fields = entry if isinstance(entry, dict) else {}
        canonical, aliases = fields.get("canonical"), fields.get("aliases", {})
        if not isinstance(canonical, str) or not isinstance(aliases, dict) or not all(
                isinstance(values, list) and all(isinstance(v, str) for v in values)
                for values in aliases.values()):
            raise ValueError("an attribute needs a string 'canonical' and 'aliases' mapping each "
                             f"language to a list of strings: {entry!r}")
        entries.append((canonical, aliases))
    return HeaderMapping(entries)


def resolve_columns(table: WikiTable, language: str,
                    mapping: HeaderMapping) -> dict[Attribute, list[int]]:
    """The attribute of every column, as ``{attribute: [columns]}``.

    Attributes come in the order of their first column; columns ascend.
    """
    out: dict[Attribute, list[int]] = {}
    for col, label in enumerate(table.column_labels()):
        attr = mapping.lookup(normalize_header(label, language), language)
        out.setdefault(attr, []).append(col)
    return out


def build_presence_grid(main_attributes: dict[str, Optional[Iterable[Attribute]]],
                        mapping: HeaderMapping) -> dict:
    """The report's presence dict: ``grid[a][l]`` is 1 iff l's main table has attribute a.

    ``main_attributes`` holds, per language in report order, the attributes
    that ``resolve_columns`` gave the columns of its main table, or None
    when the language has no main table. Languages without a main table are
    left out entirely: an absent edition is not the same thing as an edition
    that omits every attribute. Mapped attributes keep the mapping file's
    order; unmapped ones follow, sorted by name.
    """
    langs = [lang for lang, attrs in main_attributes.items() if attrs is not None]
    sightings: dict[Attribute, set[str]] = {}
    for lang in langs:
        for attr in main_attributes[lang]:
            sightings.setdefault(attr, set()).add(lang)

    ordered: list[Attribute] = [a for a in mapping.attributes if a in sightings]
    ordered.extend(sorted(a for a in sightings if a.kind == "unmapped"))  # kinds equal: by name
    return {
        "languages": langs,
        "attributes": [attr._asdict() for attr in ordered],
        "grid": [[1 if lang in sightings[attr] else 0 for lang in langs] for attr in ordered],
    }
