"""Exception types shared across the toolkit."""


class TableDiffError(Exception):
    """Base class for all toolkit errors."""


class PageMissing(TableDiffError):
    """The requested title does not exist in that language edition.

    Signals a coverage gap, not a failure of the run.
    """

    def __init__(self, language: str, title: str):
        self.language = language
        self.title = title
        super().__init__(f"page not found: {language}:{title}")


class NetworkError(TableDiffError):
    """HTTP transport failed after retries were exhausted."""


class CacheMiss(TableDiffError):
    """An offline-only lookup found no snapshot in the cache."""

    def __init__(self, language: str, title: str):
        self.language = language
        self.title = title
        super().__init__(f"no cached snapshot for {language}:{title}")


class SnapshotError(TableDiffError):
    """A cached page snapshot (``--refresh`` refetches it) or QID/langlink map is unreadable."""


class ParseError(TableDiffError):
    """Scanning a page failed: a defect in the scan, which reads any markup."""


class MappingConflict(TableDiffError):
    """One normalized header is claimed by two attributes in the same language."""


class ManifestError(TableDiffError):
    """The dataset manifest is malformed."""


class OptionsError(TableDiffError, ValueError):
    """A run's settings are out of range or contradict each other."""
