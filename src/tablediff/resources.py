"""Locate the repository's bundled datasets, mappings, and fixtures.

The bundled data lives at the repository root (datasets/, mappings/,
fixtures/) rather than inside the package, matching how the analyses are run
in practice: from a checkout, with explicit paths always available to point
anywhere else.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional


def repo_root() -> Optional[Path]:
    """Nearest ancestor holding the bundled data, if any."""
    candidates = [Path(__file__).resolve().parents[2], Path.cwd()]
    for base in candidates:
        for root in (base, *base.parents):
            if (root / "datasets" / "geography.json").exists():
                return root
    return None


def _bundled(relative: str) -> Optional[Path]:
    root = repo_root()
    if root is None:
        return None
    path = root / relative
    return path if path.exists() else None


def bundled_manifest() -> Optional[Path]:
    return _bundled("datasets/geography.json")


def bundled_header_map() -> Optional[Path]:
    return _bundled("mappings/geography.json")
