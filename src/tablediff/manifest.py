"""Dataset manifests: the machine-readable article selection for a run."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Optional

from .emit import FORMATS
from .errors import ManifestError
from .mw_client import ArticleRef


@dataclass
class FamilyEntry:
    """One article family: seed edition, wanted languages, local overrides."""

    id: str
    seed: ArticleRef
    languages: list[str] | str = "all"
    main_table_index: dict[str, int] = field(default_factory=dict)
    column_hints: dict[str, dict[int, int]] = field(default_factory=dict)

    def column_hint(self, language: str, table_index: int) -> Optional[int]:
        return self.column_hints.get(language, {}).get(table_index)


@dataclass
class DatasetManifest:
    families: list[FamilyEntry]
    defaults: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "defaults": self.defaults,
            "families": [
                {
                    "id": f.id,
                    "seed": {"language": f.seed.language, "title": f.seed.title},
                    "languages": f.languages,
                    **({"overrides": {
                        **({"main_table_index": f.main_table_index} if f.main_table_index else {}),
                        **({"column_hints": {
                            lang: {str(t): c for t, c in hints.items()}
                            for lang, hints in f.column_hints.items()
                        }} if f.column_hints else {}),
                    }} if (f.main_table_index or f.column_hints) else {}),
                }
                for f in self.families
            ],
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


# Each known ``defaults`` key (and ``PipelineOptions`` field of its name): what its
# value must be, and the check. Values are kept as given: the report repeats them.
SETTINGS = {
    "languages": ("a list of strings or a comma-separated string",
                  lambda v: isinstance(v, str) or _is_str_list(v)),
    "offline": ("a boolean", lambda v: isinstance(v, bool)),
    "all_tables": ("a boolean", lambda v: isinstance(v, bool)),
    "rel_tol": ("a finite number >= 0",
                # NaN would hide every conflict and inf is not JSON; also bounds
                # an int, which the run turns into a float
                lambda v: (_is_int(v) or isinstance(v, float)) and 0 <= v <= sys.float_info.max),
    "staleness_days": (f"an integer from 0 to {timedelta.max.days}",  # the window is a timedelta
                       lambda v: _is_int(v) and 0 <= v <= timedelta.max.days),
    "jobs": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "missing_values": ("a list of strings", _is_str_list),
    "format": (f"one of {', '.join(map(repr, FORMATS))}", lambda v: v in list(FORMATS)),
    "cache_dir": ("a string", lambda v: isinstance(v, str)),
    "header_map": ("a string", lambda v: isinstance(v, str)),
    "out": ("a string", lambda v: isinstance(v, str)),
}


def parse_manifest(data: dict) -> DatasetManifest:
    _require(isinstance(data, dict), "manifest must be a JSON object")
    raw_families = data.get("families")
    _require(isinstance(raw_families, list), "manifest needs a 'families' array")
    families: list[FamilyEntry] = []
    seen_ids: set[str] = set()
    for raw in raw_families:
        _require(isinstance(raw, dict), "each family must be an object")
        fid = raw.get("id")
        _require(isinstance(fid, str) and bool(fid), "family id must be a non-empty string")
        # the id names files such as ``presence_{id}.csv``
        _require("/" not in fid and "\0" not in fid,
                 f"family id {fid!r} must not contain '/' or NUL")
        _require(fid not in seen_ids, f"duplicate family id {fid!r}")
        seen_ids.add(fid)
        seed = raw.get("seed") or {}
        _require(isinstance(seed, dict)
                 and all(isinstance(seed.get(key), str) for key in ("language", "title")),
                 f"family {fid!r}: seed needs language and title strings")
        languages = raw.get("languages", "all")
        if languages != "all":
            _require(isinstance(languages, list) and bool(languages)
                     and all(isinstance(l, str) for l in languages),
                     f"family {fid!r}: languages must be 'all' or a non-empty list of codes")
        overrides = raw.get("overrides") or {}
        _require(isinstance(overrides, dict), f"family {fid!r}: overrides must be an object")
        for key in ("main_table_index", "column_hints"):
            _require(isinstance(overrides.get(key) or {}, dict),
                     f"family {fid!r}: {key} must map languages")
        main_override = {}
        for lang, idx in (overrides.get("main_table_index") or {}).items():
            _require(_is_int(idx) and idx >= 0,
                     f"family {fid!r}: main_table_index override must be a non-negative int")
            main_override[lang] = idx
        hints: dict[str, dict[int, int]] = {}
        for lang, table_map in (overrides.get("column_hints") or {}).items():
            _require(isinstance(table_map, dict), f"family {fid!r}: column_hints must map tables")
            parsed = {}
            for table_key, col in table_map.items():
                _require(_is_int(col) and col >= 0,
                         f"family {fid!r}: column hint must be a non-negative int")
                try:
                    index = int(table_key)
                except ValueError:
                    index = -1
                # a plain decimal number: no sign, padding, underscore or non-ASCII digit
                _require(index >= 0 and str(index) == table_key,
                         f"family {fid!r}: bad table index {table_key!r}")
                parsed[index] = col
            hints[lang] = parsed
        try:
            seed_ref = ArticleRef(seed["language"], seed["title"])
        except ValueError as exc:
            raise ManifestError(f"family {fid!r}: {exc}") from exc
        families.append(FamilyEntry(id=fid, seed=seed_ref, languages=languages,
                                    main_table_index=main_override, column_hints=hints))
    defaults = data.get("defaults") or {}
    _require(isinstance(defaults, dict), "manifest defaults must be an object")
    for key, value in defaults.items():
        if key in SETTINGS:
            expected, check = SETTINGS[key]
            _require(check(value), f"manifest defaults: {key} must be {expected}, not {value!r}")
    return DatasetManifest(families=families, defaults=defaults)


def load_manifest(path: str | Path) -> DatasetManifest:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ManifestError(f"manifest not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or nested too deep to decode
        raise ManifestError(f"manifest is not valid JSON: {path}: {exc}") from exc
    return parse_manifest(data)
