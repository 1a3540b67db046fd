"""A fixed stand-in unit of work that measures how fast the host runs right now.

On a shared host the speed of a core swings by tens of percent within a
second and drifts over minutes, and every wall time the benchmark takes swings
with it. The reference unit does the same kind of work as tablediff
(``html.parser`` tokenizing a table, regex matches, dict and list building)
with the standard library only, so no change to tablediff makes it faster or
slower. Timed right after a step of a pass, it tells how fast the host was
while that step ran.
"""

from __future__ import annotations

import gc
import re
import time
from html.parser import HTMLParser

# Reported times are seconds at the host speed at which one reference unit
# takes this long: a step's time is scaled by REFERENCE_UNIT_S over the time
# of the unit run right after it. On the 2-vCPU x86-64 VM the benchmark was
# tuned on, the unit's fastest runs took 13-17 ms.
REFERENCE_UNIT_S = 0.015

NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?")


def _page(rows: int) -> str:
    cells = "".join(
        f"<tr><td><a href=\"/wiki/Peak_{i}\" title=\"Peak {i}\">Peak {i}</a></td>"
        f"<td>{8000 + i * 7:,} m</td><td>{27.5 + i / 10:.2f}°N</td>"
        f"<td><span class=\"note\">[{i % 9}]</span> {1950 + i % 60}</td></tr>"
        for i in range(rows))
    return f"<html><body><table class=\"wikitable\"><tbody>{cells}</tbody></table></body></html>"


PAGE = _page(300)


class _Cells(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack: list[tuple[str, dict]] = []
        self.cells: list[str] = []
        self.text: list[str] = []

    def handle_starttag(self, tag, attrs):
        self.stack.append((tag, dict(attrs)))
        if tag == "td":
            self.text = []

    def handle_endtag(self, tag):
        if self.stack:
            self.stack.pop()
        if tag == "td":
            self.cells.append("".join(self.text).strip())

    def handle_data(self, data):
        self.text.append(data)


def unit() -> int:
    """One reference unit: tokenize the page, then parse every cell's number."""
    parser = _Cells()
    parser.feed(PAGE)
    parser.close()
    values: dict[str, float] = {}
    for index, cell in enumerate(parser.cells):
        match = NUMBER_RE.search(cell)
        if match:
            values[f"{index}:{cell[:8]}"] = float(match.group().replace(",", ""))
    return len(values)


def unit_s() -> float:
    """Wall time of one reference unit.

    The collector is off while it runs, so that a collection of the heap the
    program left behind is not charged to the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        unit()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
