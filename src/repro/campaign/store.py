"""Content-addressed on-disk store of campaign results.

One JSON file per job, named by the job's content hash, under a cache
directory.  A campaign consults the store before scheduling work
(skip-if-cached resumability: killing a campaign loses at most the jobs
in flight) and later campaigns or ad-hoc queries read the same files.

Writes are atomic (temp file + rename) so a killed process never leaves
a truncated entry that would poison resumption.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory holding *per-loop* artifacts (loop profiles, schedules)
#: written by the pipeline's loop cache.
LOOP_SUBDIR = "loops"


class StoreError(ReproError):
    """A result-store entry is missing or unreadable."""


class ResultStore:
    """JSON-per-job persistence keyed by job content hash."""

    def __init__(self, root) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    @property
    def loop_dir(self) -> Path:
        """Directory for per-loop artifacts (created on demand).

        The executor attaches the pipeline's loop cache here: a sweep
        resumed in a fresh process — or picked up by a different fleet
        worker — reuses every per-loop profile/schedule whose (loop x
        machine facets x point) key still matches, even across campaigns
        that share no whole job.  Deleting the ``*.json`` job results
        invalidates *measurements* only.
        """
        path = self._root / LOOP_SUBDIR
        path.mkdir(parents=True, exist_ok=True)
        return path

    def loop_keys(self) -> Iterator[str]:
        """All persisted per-loop artifact keys, sorted."""
        loop_dir = self._root / LOOP_SUBDIR
        for path in sorted(loop_dir.glob("*.json")):
            yield path.stem

    def path(self, key: str) -> Path:
        """File backing the entry for ``key``."""
        return self._root / f"{key}.json"

    def _entry_names(self) -> List[str]:
        """Entry file names (one scandir pass, no JSON parsing).

        Excludes subdirectories (``loops/``) and the hidden ``.*.tmp``
        files a concurrent :meth:`save` may have in flight, so listings
        only ever name complete entries.
        """
        return [
            entry.name
            for entry in os.scandir(self._root)
            if entry.name.endswith(".json")
            and not entry.name.startswith(".")
            and entry.is_file()
        ]

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        """Number of entries; a directory scan, no JSON is parsed."""
        return len(self._entry_names())

    def save(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        target = self.path(key)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self._root, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return target

    def load(self, key: str) -> Dict[str, Any]:
        """Read the entry for ``key``; raises :class:`StoreError`."""
        target = self.path(key)
        try:
            with open(target) as handle:
                return json.load(handle)
        except FileNotFoundError as error:
            raise StoreError(f"no cached result for job {key}") from error
        except json.JSONDecodeError as error:
            raise StoreError(f"corrupt cache entry {target}") from error

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry for ``key``, or ``None`` when absent or corrupt."""
        try:
            return self.load(key)
        except StoreError:
            return None

    def delete(self, key: str) -> bool:
        """Drop the entry for ``key``; True when something was removed."""
        try:
            os.unlink(self.path(key))
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> Iterator[str]:
        """All cached job keys, sorted for determinism.

        Listing never opens or parses the JSON bodies — it is a single
        directory scan, cheap enough for a resuming campaign or the
        warehouse ingester to call on every pass.
        """
        for name in sorted(self._entry_names()):
            yield name[: -len(".json")]

    def stat_entries(self) -> Iterator[Tuple[str, float]]:
        """``(key, mtime)`` per entry, sorted by key, bodies unread.

        The warehouse ingester keys its incremental sync on this: an
        entry whose key is already indexed with the same mtime needs no
        re-read, so re-ingesting a large cache directory costs one
        directory scan plus one stat per entry.
        """
        for name in sorted(self._entry_names()):
            try:
                mtime = os.stat(self._root / name).st_mtime
            except FileNotFoundError:  # deleted between scan and stat
                continue
            yield name[: -len(".json")], mtime

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All readable cached payloads, in key order."""
        for key in self.keys():
            payload = self.get(key)
            if payload is not None:
                yield payload
