"""Command-line front end.

Subcommands separate the slow network phase from repeatable analysis:

- ``fetch``    populate the page/langlink/QID caches for a manifest
- ``langs``    Table-style language-version counts per family
- ``analyze``  run the full pipeline and emit a report
- ``report``   re-render a stored report.json into csv/plotdata
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from datetime import timedelta
from pathlib import Path

from .emit import emit
from .errors import ManifestError, MappingConflict, TableDiffError
from .manifest import DatasetManifest, load_manifest
from .mw_client import MediaWikiClient
from .pipeline import PipelineOptions, run_pipeline, warm_cache
from .resources import bundled_header_map, bundled_manifest
from .schema_align import HeaderMapping, load_header_mapping

EXIT_MANIFEST_ERROR = 1
EXIT_FAMILY_FAILED = 2


def _load_manifest(path: str | None) -> DatasetManifest:
    manifest_path = path or bundled_manifest()
    if manifest_path is None:
        raise ManifestError("no manifest given and no bundled datasets/geography.json found")
    return load_manifest(manifest_path)


def _resolve(flag, manifest: DatasetManifest, key: str, fallback):
    """Flag value if given, else the manifest's defaults entry, else fallback."""
    if flag is not None:
        return flag
    if key in manifest.defaults:
        return manifest.defaults[key]
    return fallback


def _load_mapping(path, manifest: DatasetManifest) -> HeaderMapping:
    mapping_path = _resolve(path, manifest, "header_map", None) or bundled_header_map()
    if mapping_path is None:
        return HeaderMapping([])
    try:
        return load_header_mapping(mapping_path)
    except (OSError, ValueError, MappingConflict) as exc:
        raise ManifestError(f"cannot load header map {mapping_path}: {exc}") from exc


def _split_langs(value) -> list[str] | str | None:
    """``--langs`` or the manifest default as a list; ``"all"`` stays ``"all"``."""
    if value is None:
        return None
    if isinstance(value, list):
        return list(value)
    langs = [item.strip() for item in str(value).split(",") if item.strip()]
    return "all" if langs == ["all"] else langs


def fetch(manifest_path, langs, cache_dir, jobs, refresh):
    """Populate the cache for every family in the manifest."""
    manifest = _load_manifest(manifest_path)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    options = PipelineOptions(
        languages=_split_langs(_resolve(langs, manifest, "languages", None)),
        refresh=refresh,
        jobs=int(_resolve(jobs, manifest, "jobs", 1)),
    )
    summary = warm_cache(manifest, HeaderMapping([]), client, options)
    print(f"fetched {summary['fetched']} page(s); {summary['absent_or_failed']} absent or failed")


def langs(manifest_path, cache_dir, offline):
    """Print the number of language versions per family."""
    manifest = _load_manifest(manifest_path)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    offline = bool(_resolve(offline, manifest, "offline", False))
    policy = PipelineOptions(offline=offline).cache_policy
    try:
        for family in manifest.families:
            try:
                versions = client.list_language_versions(family.seed, policy)
                print(f"{family.seed.title}\t{len(versions)}")
            except TableDiffError as exc:
                print(f"{family.seed.title}\terror: {exc}")
    finally:
        client.save()


def analyze(manifest_path, langs, cache_dir, jobs, offline, refresh, rel_tol,
            staleness_days, header_map_path, all_tables, fmt, out_dir):
    """Run the full pipeline: fetch -> extract -> link -> align -> analyze."""
    manifest = _load_manifest(manifest_path)
    rel_tol = float(_resolve(rel_tol, manifest, "rel_tol", 0.0))
    if not 0 <= rel_tol < math.inf:  # NaN would hide every conflict, inf is not JSON
        raise TableDiffError(f"--rel-tol must be a non-negative number less than infinity, "
                             f"got {rel_tol}")
    staleness_days = _resolve(staleness_days, manifest, "staleness_days", 180)
    if not 0 <= staleness_days <= timedelta.max.days:  # the window is a timedelta
        raise TableDiffError(f"--staleness-days must be an integer from 0 to "
                             f"{timedelta.max.days}, got {staleness_days}")
    offline = bool(_resolve(offline, manifest, "offline", False))
    if offline and refresh:  # an offline run reads only the cache, so it cannot refetch
        raise TableDiffError("--refresh cannot be combined with an offline run")
    mapping = _load_mapping(header_map_path, manifest)
    client = MediaWikiClient(cache_dir=_resolve(cache_dir, manifest, "cache_dir", None))
    options = PipelineOptions(
        languages=_split_langs(_resolve(langs, manifest, "languages", None)),
        offline=offline,
        refresh=bool(refresh),
        rel_tol=rel_tol,
        staleness_days=staleness_days,
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
        print(path)
    if any(f["status"] == "failed" for f in report["families"]):
        sys.exit(EXIT_FAMILY_FAILED)


def rerender(in_path, fmt, out_dir):
    """Re-render a stored report into csv or plotdata files (no network)."""
    try:
        for path in emit(json.loads(Path(in_path).read_text(encoding="utf-8")), fmt, out_dir):
            print(path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise TableDiffError(f"not a tablediff report: {in_path}: {type(exc).__name__}: {exc}") from exc


# Flags of more than one subcommand; each subcommand lists the ones it takes.
SHARED_OPTIONS = {
    "--manifest": dict(dest="manifest_path", metavar="PATH",
                       help="Dataset manifest JSON (default: bundled geography set)."),
    "--langs": dict(help="Comma-separated language codes, or 'all' for every listed edition."),
    "--cache-dir": dict(metavar="PATH", help="Cache directory (or $TABLEDIFF_CACHE_DIR)."),
    "--jobs": dict(type=int, metavar="N", help="Parallel fetch workers."),
}


def _parser() -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: a prefix such as --manif is a usage error, not --manifest.
    parser = argparse.ArgumentParser(prog="tablediff", allow_abbrev=False)
    parser.add_argument("--verbose", action="store_true", help="Log progress to stderr.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, name, *shared):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        for flag in shared:
            sub.add_argument(flag, **SHARED_OPTIONS[flag])
        return sub

    sub = command(fetch, "fetch", "--manifest", "--langs", "--cache-dir", "--jobs")
    sub.add_argument("--refresh", action="store_true", help="Bypass the cache and refetch.")
    sub = command(langs, "langs", "--manifest", "--cache-dir")
    sub.add_argument("--offline", action="store_true", help="Serve only from the cache.")
    sub.set_defaults(offline=None)  # None when not given, so the manifest's default applies
    sub = command(analyze, "analyze", "--manifest", "--langs", "--cache-dir", "--jobs")
    sub.add_argument("--offline", action="store_true", help="Never touch the network.")
    sub.add_argument("--refresh", action="store_true",
                     help="Refetch everything (live results will drift from bundled goldens).")
    sub.add_argument("--rel-tol", type=float, metavar="F",
                     help="Relative tolerance before a numeric disagreement counts (default 0).")
    sub.add_argument("--staleness-days", type=int, metavar="N",
                     help="Revision-age gap behind the timeliness heuristic (default 180).")
    sub.add_argument("--header-map", dest="header_map_path", metavar="PATH",
                     help="Attribute mapping JSON (default: bundled mapping).")
    sub.add_argument("--all-tables", action="store_true",
                     help="Column completeness over every table, not just the main one "
                          "(beyond the standard protocol).")
    sub.add_argument("--format", dest="fmt", choices=["json", "csv", "plotdata"])
    sub.add_argument("--out", dest="out_dir", metavar="DIR",
                     help="Output directory (default ./tablediff-out).")
    # None when not given, not False, so that _resolve falls back to the manifest defaults.
    sub.set_defaults(offline=None, refresh=None, all_tables=None)
    sub = command(rerender, "report")
    sub.add_argument("--in", dest="in_path", metavar="PATH", required=True,
                     help="A previously emitted report.json.")
    sub.add_argument("--format", dest="fmt", choices=["csv", "plotdata"], required=True)
    sub.add_argument("--out", dest="out_dir", metavar="DIR", default="tablediff-out")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names; a usage error exits 2."""
    options = vars(_parser().parse_args(argv))
    logging.basicConfig(level=logging.INFO if options.pop("verbose") else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    run = options.pop("run")
    try:
        run(**options)
    except (TableDiffError, OSError) as exc:  # an error line and exit 1, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_MANIFEST_ERROR)


if __name__ == "__main__":
    main()
