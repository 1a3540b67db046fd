"""Seeded synthetic corpus for the benchmark, built from the fixture page builders.

The vendored corpus is small and fixed. This module clones each of its
article families ``clones`` times and repeats every entity row
``row_factor`` times in each main table, giving every cloned family and row
fresh page titles and fresh QIDs drawn from the seed. Page HTML comes from
``scripts/build_fixtures.py``, which is imported and never modified.

The expected per-language totals and the entity count per family are
derived from the page budgets alone, never by running the pipeline, so the
benchmark can check the analysis against them.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

LANGS = ["en", "de", "zh", "it", "nl"]


def load_fixture_builder(root: Path):
    """Import ``scripts/build_fixtures.py`` of the checkout as a module."""
    path = root / "scripts" / "build_fixtures.py"
    spec = importlib.util.spec_from_file_location("build_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Corpus:
    """Everything one seeded corpus holds, plus the answers it should give."""

    pages: dict[tuple[str, str], dict] = field(default_factory=dict)  # (lang, title) -> doc
    qids: dict[str, str] = field(default_factory=dict)                 # "lang:title" -> QID
    langlinks: dict[str, list[list[str]]] = field(default_factory=dict)
    manifest: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)

    @property
    def html_bytes(self) -> int:
        return sum(len(doc["html"].encode("utf-8")) for doc in self.pages.values())

    @property
    def rows(self) -> int:
        return sum(self.expected["entities"].values())


def _fresh_entity(entity: dict, qid: str, tag: str, delta: int) -> dict:
    """Copy of an entity with a new QID, tagged titles and shifted numbers."""
    out = copy.deepcopy(entity)
    out["qid"] = qid
    out["titles"] = {lang: f"{title} ({tag})" for lang, title in entity["titles"].items()}
    for value in out["data"].values():
        if isinstance(value, dict) and "__num__" in value:
            for key in list(value):
                value[key] += delta
    return out


def build_scaled(bf, seed: int, clones: int, row_factor: int) -> Corpus:
    """Clone every fixture family ``clones`` times with ``row_factor``x rows."""
    rng = random.Random(seed)
    corpus = Corpus()
    families = list(bf.FAMILIES.items())
    n_entities = clones * row_factor * sum(len(f["entities"]) for _, f in families)
    qid_numbers = iter(rng.sample(range(10_000_000, 100_000_000), n_entities))
    revids = iter(rng.sample(range(1_000_000, 10_000_000), clones * len(LANGS) * len(families)))
    manifest_families = []
    per_language = {lang: {"pages": 0, "table_count": 0, "reference_total": 0,
                           "columns_total": 0, "columns_incomplete": 0} for lang in LANGS}
    budgets: dict[str, dict[str, list[int]]] = {}
    entity_counts: dict[str, int] = {}
    serial = 0

    for clone in range(clones):
        for family_id, family in families:
            clone_id = f"{family_id}-{clone}"
            entities = []
            for _ in range(row_factor):
                for entity in family["entities"]:
                    serial += 1
                    entities.append(_fresh_entity(entity, f"Q{next(qid_numbers)}",
                                                  f"{seed}-{serial}", rng.randrange(1, 50)))
            cloned = dict(family, entities=entities,
                          titles={lang: f"{t} ({seed}-{clone})"
                                  for lang, t in family["titles"].items()})
            titles = cloned["titles"]
            budgets[clone_id] = {}
            for lang, spec in family["pages"].items():
                # The original id keeps the builder's per-family page quirks
                # (the unmapped zh header, the red link, the infobox choice).
                html = bf.build_page_html(family_id, cloned, lang, spec)
                corpus.pages[(lang, titles[lang])] = {
                    "language": lang,
                    "title": titles[lang],
                    "revision_id": next(revids),
                    "revision_timestamp": family["revisions"][lang],
                    "fetched_at": bf.FETCHED_AT,
                    "html": html,
                }
                n_tables, n_refs, n_cols, n_inc, _ = spec
                totals = per_language[lang]
                totals["pages"] += 1
                totals["table_count"] += n_tables
                totals["reference_total"] += n_refs
                totals["columns_total"] += n_cols
                totals["columns_incomplete"] += n_inc
                budgets[clone_id][lang] = [n_tables, n_refs, n_cols, n_inc]
                for entity in entities:
                    title = entity["titles"].get(lang, entity["titles"]["en"])
                    corpus.qids[f"{lang}:{title}"] = entity["qid"]
            ours = [[lang, titles[lang]] for lang in LANGS
                    if lang != "en" and lang in family["pages"]]
            fillers = [[code, titles["en"]]
                       for code in bf.FILLER_LANGS[:family["langlinks_total"] - 1 - len(ours)]]
            corpus.langlinks[f"en:{titles['en']}"] = ours + fillers
            entity_counts[clone_id] = len(entities)
            manifest_families.append({"id": clone_id,
                                      "seed": {"language": "en", "title": titles["en"]},
                                      "languages": list(LANGS)})

    corpus.manifest = {"defaults": {}, "families": manifest_families}
    corpus.expected = {
        "per_language": {lang: v for lang, v in per_language.items() if v["pages"]},
        "entities": entity_counts,
        "budgets": budgets,
    }
    return corpus


def write_cache(corpus: Corpus, cache_dir: Path) -> None:
    """Lay the corpus out as a MediaWikiClient cache directory."""
    for (lang, title), doc in corpus.pages.items():
        path = cache_dir / "pages" / lang / (quote(title, safe="") + ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True), encoding="utf-8")
    for name, payload in (("qids.json", corpus.qids), ("langlinks.json", corpus.langlinks)):
        (cache_dir / name).write_text(json.dumps(payload, ensure_ascii=False, sort_keys=True),
                                      encoding="utf-8")


def write_manifest(corpus: Corpus, path: Path) -> None:
    path.write_text(json.dumps(corpus.manifest, ensure_ascii=False), encoding="utf-8")

