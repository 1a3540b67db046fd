"""Command-line front end.

Subcommands separate the slow network phase from repeatable analysis:

- ``fetch``    populate the page/langlink/QID caches for a manifest
- ``langs``    Table-style language-version counts per family
- ``analyze``  run the full pipeline and emit a report
- ``report``   re-render a stored report.json into csv/plotdata

Each flag of ``fetch``, ``langs`` and ``analyze`` is layered over the
manifest ``defaults`` entry of the same name. A setting that neither gives
keeps the default of ``PipelineOptions``, which checks the settings when it
is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .emit import FORMATS, emit
from .errors import ManifestError, MappingConflict, TableDiffError
from .manifest import SETTINGS, DatasetManifest, load_manifest
from .mw_client import MediaWikiClient
from .pipeline import PipelineOptions, run_pipeline, warm_cache
from .schema_align import HeaderMapping, load_header_mapping

EXIT_FAMILY_FAILED = 2

_OPTION_FIELDS = {field.name for field in dataclasses.fields(PipelineOptions)}


def _bundled(relative: str) -> Optional[Path]:
    """A file of the bundled data (datasets/, mappings/) at the checkout's root, if present.

    The root is the nearest ancestor of the package, else of the working
    directory, that holds datasets/geography.json.
    """
    for base in (Path(__file__).resolve().parents[2], Path.cwd()):
        for root in (base, *base.parents):
            if (root / "datasets" / "geography.json").exists():
                path = root / relative
                return path if path.exists() else None
    return None


def _settings(flags: dict) -> tuple[DatasetManifest, dict, PipelineOptions]:
    """The manifest, the run's settings and its ``PipelineOptions``.

    Each setting is its flag if given, else the manifest's ``defaults`` entry
    of the same name; a setting that is neither is left out, so its default
    is the one of ``PipelineOptions`` (or of the caller). Only the
    ``defaults`` keys the manifest checks are read: another key, such as
    ``refresh``, is ignored. ``--manifest`` defaults to the bundled geography set.
    """
    path = flags.pop("manifest") or _bundled("datasets/geography.json")
    if path is None:
        raise ManifestError("no manifest given and no bundled datasets/geography.json found")
    manifest = load_manifest(path)
    settings = {key: manifest.defaults[key]
                for key in flags.keys() & SETTINGS.keys() if key in manifest.defaults}
    settings.update((key, value) for key, value in flags.items() if value is not None)
    languages = settings.get("languages")
    if isinstance(languages, str):  # "en, de", or "all" for every listed edition
        languages = [code.strip() for code in languages.split(",") if code.strip()]
        settings["languages"] = "all" if languages == ["all"] else languages
    options = PipelineOptions(extra_missing=tuple(manifest.defaults.get("missing_values", ())),
                              **{key: settings[key] for key in settings.keys() & _OPTION_FIELDS})
    return manifest, settings, options


def fetch(flags: dict) -> None:
    """Populate the cache for every family in the manifest."""
    manifest, settings, options = _settings(flags)
    client = MediaWikiClient(cache_dir=settings.get("cache_dir"))
    summary = warm_cache(manifest, HeaderMapping([]), client, options)
    print(f"fetched {summary['fetched']} page(s); {summary['absent_or_failed']} absent or failed")


def langs(flags: dict) -> None:
    """Print the number of language versions per family."""
    manifest, settings, options = _settings(flags)
    client = MediaWikiClient(cache_dir=settings.get("cache_dir"))
    try:
        for family in manifest.families:
            try:
                versions = client.list_language_versions(family.seed, options.cache_policy)
                print(f"{family.seed.title}\t{len(versions)}")
            except TableDiffError as exc:
                print(f"{family.seed.title}\terror: {exc}")
    finally:
        client.save()


def analyze(flags: dict) -> None:
    """Run the full pipeline: fetch -> extract -> link -> align -> analyze."""
    manifest, settings, options = _settings(flags)
    mapping_path = settings.get("header_map") or _bundled("mappings/geography.json")
    try:
        mapping = load_header_mapping(mapping_path) if mapping_path else HeaderMapping([])
    except (OSError, ValueError, RecursionError, MappingConflict) as exc:
        raise ManifestError(f"cannot load header map {mapping_path}: {exc}") from exc
    client = MediaWikiClient(cache_dir=settings.get("cache_dir"))
    report = run_pipeline(manifest, mapping, client, options)
    fmt, out = settings.get("format", "json"), Path(settings.get("out", "tablediff-out"))
    paths = emit(report, "json", out)
    if fmt != "json":
        paths += emit(report, fmt, out)
    for path in paths:
        print(path)
    if any(f["status"] == "failed" for f in report["families"]):
        sys.exit(EXIT_FAMILY_FAILED)


def rerender(flags: dict) -> None:
    """Re-render a stored report into csv or plotdata files (no network)."""
    in_path = flags["in_path"]
    try:
        report = json.loads(Path(in_path).read_text(encoding="utf-8"))
        for path in emit(report, flags["format"], flags["out"]):
            print(path)
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        raise TableDiffError(f"not a tablediff report: {in_path}: {type(exc).__name__}: {exc}") from exc


# Flags of more than one subcommand; each subcommand lists the ones it takes.
# A flag's dest names the manifest default it is layered over (``--manifest``
# and ``--refresh`` have none), and a flag that is not given is None.
SHARED_OPTIONS = {
    "--manifest": dict(metavar="PATH",
                       help="Dataset manifest JSON (default: bundled geography set)."),
    "--langs": dict(dest="languages", metavar="LANGS",
                    help="Comma-separated language codes, or 'all' for every listed edition."),
    "--cache-dir": dict(metavar="PATH", help="Cache directory (or $TABLEDIFF_CACHE_DIR)."),
    "--jobs": dict(type=int, metavar="N", help="Parallel fetch workers."),
    "--offline": dict(action="store_true", default=None, help="Never touch the network."),
    "--refresh": dict(action="store_true", default=None,
                      help="Bypass the cache and refetch (live results drift from the goldens)."),
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

    command(fetch, "fetch", "--manifest", "--langs", "--cache-dir", "--jobs", "--refresh")
    command(langs, "langs", "--manifest", "--cache-dir", "--offline")
    sub = command(analyze, "analyze", "--manifest", "--langs", "--cache-dir", "--jobs",
                  "--offline", "--refresh")
    sub.add_argument("--rel-tol", type=float, metavar="F",
                     help="Relative tolerance before a numeric disagreement counts "
                          f"(default {PipelineOptions.rel_tol}).")
    sub.add_argument("--staleness-days", type=int, metavar="N",
                     help="Revision-age gap behind the timeliness heuristic "
                          f"(default {PipelineOptions.staleness_days}).")
    sub.add_argument("--header-map", metavar="PATH",
                     help="Attribute mapping JSON (default: bundled mapping).")
    sub.add_argument("--all-tables", action="store_true", default=None,
                     help="Column completeness over every table, not just the main one "
                          "(beyond the standard protocol).")
    sub.add_argument("--format", choices=list(FORMATS))
    sub.add_argument("--out", metavar="DIR", help="Output directory (default ./tablediff-out).")
    sub = command(rerender, "report")
    sub.add_argument("--in", dest="in_path", metavar="PATH", required=True,
                     help="A previously emitted report.json.")
    sub.add_argument("--format", choices=[f for f in FORMATS if f != "json"], required=True)
    sub.add_argument("--out", metavar="DIR", default="tablediff-out")
    return parser


def main(argv: list[str] | None = None) -> None:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names; a usage error exits 2."""
    flags = vars(_parser().parse_args(argv))
    logging.basicConfig(level=logging.INFO if flags.pop("verbose") else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    run = flags.pop("run")
    try:
        run(flags)
    except (TableDiffError, OSError) as exc:  # an error line and exit 1, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
