"""Content-addressed on-disk store of campaign results.

One JSON file per job, named by the job's content hash, under a cache
directory.  A campaign consults the store before scheduling work
(skip-if-cached resumability: killing a campaign loses at most the jobs
in flight) and later campaigns or ad-hoc queries read the same files.

The store is the only record: beside the job entries it holds
``loops/`` (per-loop artifacts), ``campaigns/`` (the jobs each campaign
label names) and ``traces/`` (settled distributed traces); the
warehouse is an index rebuilt from these files.  Writes are atomic
(temp file + rename) so a killed process never leaves a truncated file.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.pipeline.serialization import content_key, write_json_atomic

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory holding *per-loop* artifacts (loop profiles, schedules)
#: written by the pipeline's loop cache.
LOOP_SUBDIR = "loops"

#: Subdirectories holding campaign memberships and settled traces.
CAMPAIGN_SUBDIR = "campaigns"
TRACE_SUBDIR = "traces"

#: Trace ids that name their own file; others are named by content key.
_PLAIN_ID = re.compile(r"[0-9A-Za-z_-]{1,64}")


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

    def _entry_names(self, directory: Optional[Path] = None) -> List[str]:
        """Sorted ``*.json`` file names of the store or of ``directory``
        (one scandir pass, no JSON parsing), excluding subdirectories and
        the hidden ``.*.tmp`` files a concurrent writer may have in
        flight, so listings only ever name complete files."""
        try:
            with os.scandir(directory or self._root) as entries:
                return sorted(
                    entry.name
                    for entry in entries
                    if entry.name.endswith(".json")
                    and not entry.name.startswith(".")
                    and entry.is_file()
                )
        except FileNotFoundError:
            return []

    def _stat(self, directory: Path) -> Iterator[Tuple[Path, float]]:
        """``(path, mtime)`` per ``*.json`` file of ``directory``, bodies unread."""
        for name in self._entry_names(directory):
            path = directory / name
            try:
                mtime = path.stat().st_mtime
            except FileNotFoundError:  # deleted between scan and stat
                continue
            yield path, mtime

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        """Number of entries; a directory scan, no JSON is parsed."""
        return len(self._entry_names())

    def save(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist ``payload`` under ``key``."""
        return write_json_atomic(self.path(key), payload)

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
        for name in self._entry_names():
            yield name[: -len(".json")]

    def stat_entries(self) -> Iterator[Tuple[str, float]]:
        """``(key, mtime)`` per entry, sorted by key, bodies unread.

        The warehouse ingester keys its incremental sync on this: an
        entry whose key is already indexed with the same mtime needs no
        re-read, so re-ingesting a large cache directory costs one
        directory scan plus one stat per entry.
        """
        for path, mtime in self._stat(self._root):
            yield path.stem, mtime

    def stat_records(self) -> Iterator[Tuple[Path, float]]:
        """``(path, mtime)`` per membership, then per trace, bodies unread."""
        for subdir in (CAMPAIGN_SUBDIR, TRACE_SUBDIR):
            yield from self._stat(self._root / subdir)

    def add_label(self, label: str, keys: Iterable[str]) -> Path:
        """File ``keys`` under campaign ``label``; returns the membership.

        A membership ``{label, created_at, keys}`` is immutable and named
        by the content key of its label and key set, so labelling the
        same keys again writes nothing.  A label named by several
        memberships holds their union and dates from the earliest.
        """
        keys = sorted(set(keys))
        name = content_key({"label": label, "keys": keys})
        path = self._record_path(CAMPAIGN_SUBDIR, name)
        if not path.exists():
            record = {"label": label, "created_at": time.time(), "keys": keys}
            write_json_atomic(path, record)
        return path

    def save_trace(
        self,
        trace_id: str,
        job_id: str,
        kind: str,
        created_at: float,
        tree: Dict[str, Any],
    ) -> Path:
        """Persist a settled distributed trace, replacing any earlier one
        under its id; ``tree`` (:meth:`Span.to_dict` shape) is kept
        verbatim so ``repro query timeline`` re-renders it exactly."""
        name = trace_id if _PLAIN_ID.fullmatch(trace_id) else content_key(trace_id)
        record = dict(trace=trace_id, job=job_id, kind=kind, created_at=created_at)
        path = self._record_path(TRACE_SUBDIR, name)
        return write_json_atomic(path, dict(record, tree=tree))

    def _record_path(self, subdir: str, name: str) -> Path:
        directory = self._root / subdir
        directory.mkdir(exist_ok=True)
        return directory / f"{name}.json"

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All readable cached payloads, in key order."""
        for key in self.keys():
            payload = self.get(key)
            if payload is not None:
                yield payload
