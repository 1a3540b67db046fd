"""Command-line front end.

Subcommands separate the slow network phase from repeatable analysis:

- ``fetch``    populate the page/langlink/QID caches for a manifest
- ``langs``    Table-style language-version counts per family
- ``analyze``  run the full pipeline and emit a report
- ``report``   re-render a stored report.json into csv/plotdata
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .emit import emit
from .errors import ManifestError, MappingConflict, TableDiffError
from .manifest import DatasetManifest, load_manifest
from .mw_client import CachePolicy, MediaWikiClient
from .pipeline import PipelineOptions, run_pipeline, warm_cache
from .resources import bundled_header_map, bundled_manifest
from .schema_align import HeaderMapping, load_header_mapping

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_MANIFEST_ERROR = 1
EXIT_FAMILY_FAILED = 2


def _load_manifest_or_die(path: str | None) -> DatasetManifest:
    manifest_path = path or bundled_manifest()
    if manifest_path is None:
        click.echo("error: no manifest given and no bundled datasets/geography.json found",
                   err=True)
        sys.exit(EXIT_MANIFEST_ERROR)
    try:
        return load_manifest(manifest_path)
    except ManifestError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_MANIFEST_ERROR)


def _resolve(flag, manifest: DatasetManifest, key: str, fallback):
    """Flag value if given, else the manifest's defaults entry, else fallback."""
    if flag is not None:
        return flag
    if key in manifest.defaults:
        return manifest.defaults[key]
    return fallback


def _load_mapping_or_die(path, manifest: DatasetManifest) -> HeaderMapping:
    mapping_path = _resolve(path, manifest, "header_map", None) or bundled_header_map()
    if mapping_path is None:
        return HeaderMapping.empty()
    try:
        return load_header_mapping(mapping_path)
    except (OSError, ValueError, MappingConflict) as exc:
        click.echo(f"error: cannot load header map {mapping_path}: {exc}", err=True)
        sys.exit(EXIT_MANIFEST_ERROR)


def _split_langs(value) -> list[str] | str | None:
    """``--langs`` or the manifest default as a list; ``"all"`` stays ``"all"``."""
    if value is None:
        return None
    if isinstance(value, list):
        return list(value)
    langs = [item.strip() for item in str(value).split(",") if item.strip()]
    return "all" if langs == ["all"] else langs


manifest_option = click.option("--manifest", "manifest_path", type=click.Path(), default=None,
                               help="Dataset manifest JSON (default: bundled geography set).")
langs_option = click.option("--langs", default=None,
                            help="Comma-separated language codes, or 'all' for every listed "
                                 "edition; overrides the manifest.")
cache_dir_option = click.option("--cache-dir", default=None,
                                help="Cache directory (or $TABLEDIFF_CACHE_DIR).")
jobs_option = click.option("--jobs", type=int, default=None, help="Parallel fetch workers.")


@click.group()
@click.option("--verbose", is_flag=True, help="Log progress to stderr.")
def main(verbose: bool):
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


@main.command()
@manifest_option
@langs_option
@cache_dir_option
@jobs_option
@click.option("--refresh", is_flag=True, help="Bypass the cache and refetch.")
def fetch(manifest_path, langs, cache_dir, jobs, refresh):
    """Populate the cache for every family in the manifest."""
    manifest = _load_manifest_or_die(manifest_path)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    options = PipelineOptions(
        languages=_split_langs(_resolve(langs, manifest, "languages", None)),
        refresh=refresh,
        jobs=int(_resolve(jobs, manifest, "jobs", 1)),
    )
    summary = warm_cache(manifest, HeaderMapping.empty(), client, options)
    click.echo(f"fetched {summary['fetched']} page(s); "
               f"{summary['absent_or_failed']} absent or failed")


@main.command()
@manifest_option
@cache_dir_option
@click.option("--offline", is_flag=True, help="Serve only from the cache.")
def langs(manifest_path, cache_dir, offline):
    """Print the number of language versions per family."""
    manifest = _load_manifest_or_die(manifest_path)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    policy = CachePolicy.OFFLINE_ONLY if offline else CachePolicy.PREFER_CACHE
    try:
        for family in manifest.families:
            try:
                versions = client.list_language_versions(family.seed, policy)
                click.echo(f"{family.seed.title}\t{len(versions)}")
            except TableDiffError as exc:
                click.echo(f"{family.seed.title}\terror: {exc}")
    finally:
        client.save()


@main.command()
@manifest_option
@langs_option
@cache_dir_option
@jobs_option
@click.option("--offline", is_flag=True, default=None, help="Never touch the network.")
@click.option("--refresh", is_flag=True, default=None,
              help="Refetch everything (live results will drift from bundled goldens).")
@click.option("--rel-tol", type=float, default=None,
              help="Relative tolerance before a numeric disagreement counts (default 0).")
@click.option("--staleness-days", type=int, default=None,
              help="Revision-age gap behind the timeliness heuristic (default 180).")
@click.option("--header-map", "header_map_path", type=click.Path(), default=None,
              help="Attribute mapping JSON (default: bundled mapping).")
@click.option("--all-tables", is_flag=True, default=None,
              help="Column completeness over every table, not just the main one "
                   "(beyond the standard protocol).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "plotdata"]), default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (default ./tablediff-out).")
def analyze(manifest_path, langs, cache_dir, jobs, offline, refresh, rel_tol,
            staleness_days, header_map_path, all_tables, fmt, out_dir):
    """Run the full pipeline: fetch -> extract -> link -> align -> analyze."""
    manifest = _load_manifest_or_die(manifest_path)
    rel_tol = float(_resolve(rel_tol, manifest, "rel_tol", 0.0))
    if not rel_tol >= 0:  # also rejects NaN, which would hide every conflict
        click.echo(f"error: --rel-tol must be a non-negative number, got {rel_tol}", err=True)
        sys.exit(EXIT_MANIFEST_ERROR)
    mapping = _load_mapping_or_die(header_map_path, manifest)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    options = PipelineOptions(
        languages=_split_langs(_resolve(langs, manifest, "languages", None)),
        offline=bool(_resolve(offline, manifest, "offline", False)),
        refresh=bool(refresh),
        rel_tol=rel_tol,
        staleness_days=int(_resolve(staleness_days, manifest, "staleness_days", 180)),
        all_tables=bool(_resolve(all_tables, manifest, "all_tables", False)),
        extra_missing=tuple(manifest.defaults.get("missing_values", ())),
        jobs=int(_resolve(jobs, manifest, "jobs", 1)),
    )
    report = run_pipeline(manifest, mapping, client, options)
    fmt = _resolve(fmt, manifest, "format", "json")
    out_dir = Path(_resolve(out_dir, manifest, "out", "tablediff-out"))
    paths = emit(report, "json", out_dir)
    if fmt != "json":
        paths += emit(report, fmt, out_dir)
    for path in paths:
        click.echo(str(path))
    if any(f["status"] == "failed" for f in report["families"]):
        sys.exit(EXIT_FAMILY_FAILED)


@main.command(name="report")
@click.option("--in", "in_path", type=click.Path(exists=True), required=True,
              help="A previously emitted report.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "plotdata"]), required=True)
@click.option("--out", "out_dir", type=click.Path(), default="tablediff-out")
def rerender(in_path, fmt, out_dir):
    """Re-render a stored report into csv or plotdata files (no network)."""
    report = json.loads(Path(in_path).read_text(encoding="utf-8"))
    for path in emit(report, fmt, out_dir):
        click.echo(str(path))


if __name__ == "__main__":
    main()
