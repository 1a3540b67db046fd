"""Header normalization and the cross-language attribute presence grid.

Headers map to canonical attributes through a curated bilingual mapping file;
automatic translation is deliberately out of scope. Headers the mapping does
not know stay visible as Unmapped rows so coverage gaps are never hidden.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .errors import MappingConflict
from .table_parser import FOOTNOTE_RE, WikiTable

_PAREN_RE = re.compile(r"\s*[(（][^)）]*[)）]")


@dataclass(frozen=True)
class AttributeKey:
    """Canonical attribute name plus its per-language normalized aliases."""

    canonical: str
    aliases: dict = field(compare=False, hash=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if not re.fullmatch(r"[a-z0-9]+(_[a-z0-9]+)*", self.canonical):
            raise MappingConflict(f"canonical name must be lowercase snake_case: {self.canonical!r}")

    @property
    def name(self) -> str:
        return self.canonical


@dataclass(frozen=True)
class Unmapped:
    """A normalized header with no mapping; kept visible under its own row."""

    normalized: str

    @property
    def name(self) -> str:
        return self.normalized


Attribute = Union[AttributeKey, Unmapped]


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

    def __init__(self, attributes: list[AttributeKey]):
        if len(set(attributes)) != len(attributes):
            repeated = sorted({a.canonical for a in attributes if attributes.count(a) > 1})
            raise MappingConflict(f"canonical name listed more than once: {', '.join(repeated)}")
        self.attributes = attributes
        self._index: dict[tuple[str, str], AttributeKey] = {}
        for attr in attributes:
            for lang, aliases in attr.aliases.items():
                for alias in aliases:
                    key = (lang, alias)
                    other = self._index.get(key)
                    if other is not None and other.canonical != attr.canonical:
                        raise MappingConflict(
                            f"alias {alias!r} ({lang}) claimed by both "
                            f"{other.canonical!r} and {attr.canonical!r}"
                        )
                    self._index[key] = attr

    def lookup(self, normalized: str, language: str) -> Attribute:
        """Exact alias match for that language, else an Unmapped passthrough."""
        return self._index.get((language, normalized)) or Unmapped(normalized)


def load_header_mapping(path: str | Path) -> HeaderMapping:
    """Load ``{"attributes": [{"canonical", "aliases"}]}``; ValueError on a malformed entry."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("attributes", []), list):
        raise ValueError("a header map must be a JSON object whose 'attributes' is a list")
    attributes = []
    for entry in data.get("attributes", []):
        fields = entry if isinstance(entry, dict) else {}
        canonical, aliases = fields.get("canonical"), fields.get("aliases", {})
        if not isinstance(canonical, str) or not isinstance(aliases, dict) or not all(
                isinstance(values, list) and all(isinstance(v, str) for v in values)
                for values in aliases.values()):
            raise ValueError("an attribute needs a string 'canonical' and 'aliases' mapping each "
                             f"language to a list of strings: {entry!r}")
        aliases = {lang: sorted(set(values)) for lang, values in aliases.items()}
        attributes.append(AttributeKey(canonical=canonical, aliases=aliases))
    return HeaderMapping(attributes)


def resolve_columns(table: WikiTable, language: str,
                    mapping: HeaderMapping) -> dict[Attribute, list[int]]:
    """The attribute (or Unmapped) of every column, as ``{attribute: [columns]}``.

    Attributes come in the order of their first column; columns ascend.
    """
    out: dict[Attribute, list[int]] = {}
    for col, label in enumerate(table.column_labels()):
        attr = mapping.lookup(normalize_header(label, language), language)
        out.setdefault(attr, []).append(col)
    return out


def attribute_row(attribute: Attribute) -> dict:
    """An attribute as the report names it: ``{name, kind}``, kind "mapped" or "unmapped"."""
    return {"name": attribute.name,
            "kind": "mapped" if isinstance(attribute, AttributeKey) else "unmapped"}


def build_presence_grid(main_attributes: dict[str, Optional[Iterable[Attribute]]],
                        mapping: HeaderMapping) -> dict:
    """The report's presence dict: ``grid[a][l]`` is 1 iff l's main table has attribute a.

    ``main_attributes`` holds, per language in report order, the attributes
    that ``resolve_columns`` gave the columns of its main table, or None
    when the language has no main table. Languages without a main table are
    left out entirely: an absent edition is not the same thing as an edition
    that omits every attribute. Mapped attributes keep the mapping file's
    order; Unmapped rows follow, sorted.
    """
    langs = [lang for lang, attrs in main_attributes.items() if attrs is not None]
    sightings: dict[Attribute, set[str]] = {}
    for lang in langs:
        for attr in main_attributes[lang]:
            sightings.setdefault(attr, set()).add(lang)

    ordered: list[Attribute] = [a for a in mapping.attributes if a in sightings]
    ordered.extend(sorted((a for a in sightings if isinstance(a, Unmapped)),
                          key=lambda a: a.normalized))
    return {
        "languages": langs,
        "attributes": [attribute_row(attr) for attr in ordered],
        "grid": [[1 if lang in sightings[attr] else 0 for lang in langs] for attr in ordered],
    }
