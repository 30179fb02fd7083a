"""The loop cache: per-loop profile and schedule artifacts.

Stages (:mod:`repro.pipeline.stages`) are pure functions of their
declared inputs, and the expensive ones — profiling and scheduling —
work loop by loop.  This module holds the process-wide
:data:`LOOP_CACHE` they consult, one :class:`StageCache` made of

* an **in-memory LRU** over live artifact objects (hits refresh recency
  via ``OrderedDict.move_to_end``, evictions drop the least recently
  *used* entry — not merely the oldest inserted), and
* an optional **on-disk layer**, one JSON file per artifact.  The
  campaign executor, fleet workers and the service attach it to their
  result store's ``loops/`` directory, so a resumed campaign — even in a
  fresh process — re-schedules no loop whose artifact is on disk.

Keys are content hashes of (loop fingerprint x machine facet
fingerprints x operating point x scheduler options x weights) — see
:mod:`repro.machine.fingerprint` — prefixed by the stage name
(``profile_loop``, ``schedule_loop``) so the counters and the on-disk
files stay attributable.  A sweep that changes a knob only some loops
can observe re-schedules only those loops; everything else is a hit.

On-disk artifacts are wrapped in a versioned envelope
(:data:`PAYLOAD_SCHEMA`); truncated, garbage or wrong-version files are
treated as *corrupt* — evicted, counted under
``repro_stage_cache_events_total{event="corrupt"}``, and recomputed —
never a crash.

Observability: :func:`loop_cache_info` reports entry counts and
hit/miss/eviction counters, overall and per stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.telemetry import counter, record_event

#: Cache events by stage: ``event`` is ``hits`` (memory LRU), ``misses``,
#: ``disk_hits``, ``corrupt`` (an unreadable on-disk artifact was
#: evicted and recomputed) or ``evictions``.
_CACHE_EVENTS = counter(
    "repro_stage_cache_events_total",
    "Loop-cache lookups and evictions, by stage and event",
)

#: The loop cache holds one profile + one schedule artifact per
#: (loop x machine facets x point); a ten-benchmark sweep at full scale
#: is ~4000 loops, so default to headroom for one full sweep in memory.
LOOP_CACHE_CAPACITY = 8192

#: Version of the on-disk artifact envelope.  Every payload is written
#: as ``{"schema": PAYLOAD_SCHEMA, "data": {...}}``; files whose
#: envelope does not parse, or parses to a different version, are
#: *corrupt*: evicted from disk, counted, and recomputed — never fatal.
PAYLOAD_SCHEMA = 1

_MISS = object()
_CORRUPT = object()


def stage_key(stage: str, *parts: Any) -> str:
    """Content-hashed cache key for one stage invocation.

    ``parts`` must have deterministic ``repr`` across processes (frozen
    dataclasses of ints/floats/Fractions/strings qualify); the stage
    name is kept as a readable prefix so keys, counters and on-disk
    artifacts group by stage.
    """
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()[:24]
    return f"{stage}-{digest}"


class StageCache:
    """LRU artifact memo with an optional JSON-per-artifact disk layer."""

    def __init__(self, capacity: int = LOOP_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._store_dir: Optional[Path] = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.corrupt = 0
        self.evictions = 0
        self._by_stage: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of in-memory entries."""
        return self._capacity

    @property
    def store_dir(self) -> Optional[Path]:
        """Directory of the attached disk layer (None when detached)."""
        return self._store_dir

    def attach_store(self, directory) -> None:
        """Persist/load JSON-serializable artifacts under ``directory``."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self._store_dir = path

    def detach_store(self) -> None:
        """Stop reading and writing the on-disk layer."""
        self._store_dir = None

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def _stage_of(self, key: str) -> str:
        return key.rsplit("-", 1)[0]

    def _count(self, key: str, event: str) -> None:
        stage = self._stage_of(key)
        bucket = self._by_stage.setdefault(
            stage,
            {"hits": 0, "misses": 0, "disk_hits": 0, "corrupt": 0},
        )
        bucket[event] += 1
        _CACHE_EVENTS.inc(stage=stage, event=event)

    def lookup(
        self,
        key: str,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
    ):
        """The cached value for ``key``, or :data:`MISS`.

        Memory is consulted first (a hit refreshes recency); when the
        disk layer is attached and ``decode`` is given, a miss falls
        through to ``<store_dir>/<key>.json``.
        """
        value = self._entries.get(key, _MISS)
        if value is not _MISS:
            self._entries.move_to_end(key)
            self.hits += 1
            self._count(key, "hits")
            return value
        if self._store_dir is not None and decode is not None:
            payload = self._read_payload(key)
            if payload is _CORRUPT:
                self._discard_payload(key)
            elif payload is not None:
                try:
                    value = decode(payload)
                except Exception:
                    # The envelope was intact but the artifact body does
                    # not decode (stale schema, missing field): same
                    # treatment as corruption — evict and recompute.
                    value = _MISS
                    self._discard_payload(key)
                if value is not _MISS:
                    self._insert(key, value)
                    self.disk_hits += 1
                    self._count(key, "disk_hits")
                    return value
        self.misses += 1
        self._count(key, "misses")
        return _MISS

    def store(
        self,
        key: str,
        value: Any,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Memoize ``value``; also write ``payload`` to the disk layer."""
        self._insert(key, value)
        if self._store_dir is not None and payload is not None:
            self._write_payload(key, payload)

    def _insert(self, key: str, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self._capacity:
            evicted, _value = self._entries.popitem(last=False)
            self.evictions += 1
            _CACHE_EVENTS.inc(stage=self._stage_of(evicted), event="evictions")
        self._entries[key] = value

    @staticmethod
    def is_miss(value: Any) -> bool:
        """True when :meth:`lookup` found nothing."""
        return value is _MISS

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def _payload_path(self, key: str) -> Path:
        assert self._store_dir is not None
        return self._store_dir / f"{key}.json"

    def _read_payload(self, key: str):
        """The artifact body, ``None`` (clean miss) or :data:`_CORRUPT`.

        A missing file is an ordinary miss.  Anything else that cannot
        yield a valid versioned payload — truncated JSON, garbage bytes,
        a non-dict, a wrong or missing schema version — is corruption.
        """
        try:
            with open(self._payload_path(key), "rb") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            return _CORRUPT
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != PAYLOAD_SCHEMA
            or not isinstance(envelope.get("data"), dict)
        ):
            return _CORRUPT
        return envelope["data"]

    def _discard_payload(self, key: str) -> None:
        """Drop a corrupt on-disk artifact so it is recomputed, not re-read."""
        self.corrupt += 1
        self._count(key, "corrupt")
        record_event(
            "cache.corrupt", key=key, stage=self._stage_of(key)
        )
        try:
            os.unlink(self._payload_path(key))
        except OSError:
            pass  # already gone, or read-only store: the miss still recomputes

    def _write_payload(self, key: str, payload: Dict[str, Any]) -> None:
        # Atomic (temp file + rename): a killed process must never leave
        # a truncated artifact that would poison a later resume.
        descriptor, temp_name = tempfile.mkstemp(
            dir=self._store_dir, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w") as handle:
                json.dump(
                    {"schema": PAYLOAD_SCHEMA, "data": payload},
                    handle,
                    sort_keys=True,
                )
            os.replace(temp_name, self._payload_path(key))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> Dict[str, Any]:
        """Counters: entries, hits, misses, disk_hits, evictions, by_stage."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "by_stage": {
                stage: dict(counts)
                for stage, counts in sorted(self._by_stage.items())
            },
        }

    def stats(self) -> Dict[str, int]:
        """The flat counters (cheap snapshot for deltas)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "corrupt": self.corrupt,
        }

    def clear(self) -> None:
        """Drop every in-memory entry (the disk layer is untouched)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.hits = self.misses = self.disk_hits = 0
        self.corrupt = self.evictions = 0
        self._by_stage.clear()


#: The process-wide per-loop artifact cache: Profile and Schedule
#: consult it per loop.  Its disk layer attaches to ``<cache-dir>/loops/``.
LOOP_CACHE = StageCache(capacity=LOOP_CACHE_CAPACITY)


def loop_cache_info() -> Dict[str, Any]:
    """Counters of the process-wide per-loop cache (see :data:`LOOP_CACHE`)."""
    return LOOP_CACHE.info()


def clear_loop_cache(reset_stats: bool = False) -> None:
    """Drop the in-memory per-loop memo (tests, long-lived processes)."""
    LOOP_CACHE.clear()
    if reset_stats:
        LOOP_CACHE.reset_stats()
