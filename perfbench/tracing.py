"""Span tracing of tablediff's layers, installed from outside the package.

``Tracer.install`` wraps each traced function and rebinds every module
attribute of ``tablediff`` that holds the original, so a name that
``pipeline`` or ``table_parser`` imported with ``from ... import`` is traced
at its call site as well as in its defining module. ``uninstall`` puts the
originals back. Spans (name, start, end, parent) are kept in memory; a
span's self time is its duration minus the part of it that child spans
cover. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def read_wchar() -> int:
    """Bytes this process has passed to write() so far (0 where unavailable)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# Counter hooks: called after a span ends with (counts, args, result).

def _count_html(counts, args, result):
    counts["htmldom.parse_html.chars"] += len(args[0])


def _count_tables(counts, args, result):
    counts["table_parser.tables"] += len(result)
    counts["table_parser.cells"] += sum(len(row) for table in result
                                        for row in table.header_rows + table.body_rows)


def _count_mentions(counts, args, result):
    counts["entity_align.mentions"] += len(result)


def _count_linked(counts, args, result):
    counts["entity_align.linked_in"] += len(result)
    counts["entity_align.linked_qid"] += sum(1 for mention in result if mention.qid)


def _count_values(counts, args, result):
    if result.kind != "text":
        counts["value_analysis.numeric"] += 1


def _count_conflicts(counts, args, result):
    counts["value_analysis.records"] += len(result[0])


def _count_incomplete(counts, args, result):
    counts["value_analysis.records"] += len(result)


def targets() -> list[tuple[str, object, str, Optional[Callable], bool]]:
    """(span name, owner, attribute, counter hook, track written bytes)."""
    from tablediff import (emit, entity_align, htmldom, metrics, mw_client, pipeline,
                           schema_align, table_parser, value_analysis)
    client = mw_client.MediaWikiClient
    return [
        ("htmldom.parse_html", htmldom, "parse_html", _count_html, False),
        ("table_parser.extract_tables", table_parser, "extract_tables", _count_tables, False),
        ("mw_client.fetch_page", client, "fetch_page", None, False),
        ("mw_client.list_language_versions", client, "list_language_versions", None, False),
        ("mw_client.resolve_qids", client, "resolve_qids", None, False),
        ("mw_client.count_references", mw_client, "count_references", None, False),
        ("schema_align.resolve_columns", schema_align, "resolve_columns", None, False),
        ("schema_align.build_presence_grid", schema_align, "build_presence_grid", None, False),
        ("entity_align.extract_row_entities", entity_align, "extract_row_entities",
         _count_mentions, False),
        ("entity_align.link_mentions", entity_align, "link_mentions", _count_linked, False),
        ("entity_align.build_matrix", entity_align, "build_matrix", None, False),
        ("value_analysis.parse_value", value_analysis, "parse_value", _count_values, False),
        ("value_analysis.detect_conflicts", value_analysis, "detect_conflicts",
         _count_conflicts, False),
        ("value_analysis.classify", value_analysis, "classify", None, False),
        ("value_analysis.detect_incompleteness", value_analysis, "detect_incompleteness",
         _count_incomplete, False),
        ("metrics.page_stats", metrics, "page_stats", None, False),
        ("pipeline.analyze_family", pipeline, "analyze_family", None, False),
        ("pipeline.run_pipeline", pipeline, "run_pipeline", None, False),
        ("pipeline.warm_cache", pipeline, "warm_cache", None, True),
        ("emit.emit", emit, "emit", None, True),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable], track_io: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A span opened on a worker thread (``--jobs`` fetches) is caused
            # by whatever the main thread has open while it waits on the pool.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1]
                if tracer._main_stack and stack is not tracer._main_stack else None)
            span = [name, 0.0, 0.0, parent]
            written = read_wchar() if track_io else 0
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if track_io:
                tracer.counts[name + ".wchar"] += read_wchar() - written
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every tablediff attribute that holds a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "tablediff" or key.startswith("tablediff.")]
        for name, owner, attr, hook, track_io in targets():
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, hook, track_io)
            sites = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._saved.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._saved):
            setattr(site, key, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                                "self_s": 0.0})
        for span in self.spans:
            name, start, end, _parent = span
            duration = end - start
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - _covered(children.get(id(span), ()), start, end)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: [id, name, start, end, parent id]."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                parent_id = ids.get(id(parent)) if parent is not None else None
                handle.write(json.dumps([index, name, start, end, parent_id]) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
