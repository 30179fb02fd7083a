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

Beside the LRU sits a **path memo**, memory-only: the profile and
schedule stages record every artifact they compute a second time under
a *palette-free* key (the same key parts with the scheduler's frequency
palette set to None), with the MIT its IT search started from, the
number of candidates it tried and the palette it ran under.  When a
palette-keyed lookup misses, the stage consults that entry and reuses
its artifact if both palettes' candidate streams agree on every IT and
per-domain assignment up to the one that succeeded — the palette enters
only the IT search, so the schedule is the same (see
:func:`~repro.scheduler.ii_selection.same_search_path`).  A frequency
palette sweep therefore schedules a loop once per IT path, not once per
palette.  A reuse counts as a memory hit, so ``misses`` still counts
the loops actually scheduled.

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
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.pipeline.serialization import write_json_atomic
from repro.telemetry import counter, record_event

#: Cache events by stage: ``event`` is ``hits`` (memory LRU), ``misses``,
#: ``disk_hits``, ``corrupt`` (an unreadable on-disk artifact was
#: evicted and recomputed) or ``evictions``.
_CACHE_EVENTS = counter(
    "repro_stage_cache_events_total",
    "Loop-cache lookups and evictions, by stage and event",
)

#: Events counted per stage in ``info()["by_stage"]``, in report order.
_STAGE_EVENTS = ("hits", "misses", "disk_hits", "corrupt")

#: ``_CACHE_EVENTS.series`` per ``(stage, event)``: the label key of a
#: series is built on its first event, not on every lookup.
_EVENT_SERIES: Dict[Tuple[str, str], Callable[..., None]] = {}


def _count_event(stage: str, event: str) -> None:
    """Add one to ``repro_stage_cache_events_total{stage, event}``."""
    series = _EVENT_SERIES.get((stage, event))
    if series is None:
        series = _EVENT_SERIES[stage, event] = _CACHE_EVENTS.series(
            stage=stage, event=event
        )
    series()


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


#: Loop keys :func:`loop_keys` keeps, the oldest dropped first: one per
#: artifact the loop cache can hold.
LOOP_KEY_MEMO_SIZE = LOOP_CACHE_CAPACITY

#: ``(stage, shared parts' text, fingerprint) -> key``, in insertion order.
_LOOP_KEYS: Dict[Tuple[str, str, str], str] = {}
_LOOP_KEYS_LOCK = threading.Lock()


def loop_keys(stage: str, *shared: Any) -> Callable[[str], str]:
    """``fingerprint -> stage_key(stage, fingerprint, *shared)``.

    A stage keys every loop of a corpus by the loop's fingerprint plus
    parts shared by all of them (machine facets, point or technology,
    options, weights); their ``repr`` is most of a key's cost, so it is
    computed once here.  The hashed text is exactly
    ``repr((fingerprint, *shared))``, so keys equal :func:`stage_key`'s.
    A key is a function of that text alone, so the last
    :data:`LOOP_KEY_MEMO_SIZE` keys are kept, by stage, shared text and
    fingerprint: a warm evaluation hashes no loop it keyed before.
    """
    tail = "".join(f", {part!r}" for part in shared) + (")" if shared else ",)")

    def key(fingerprint: str) -> str:
        known = (stage, tail, fingerprint)
        digest = _LOOP_KEYS.get(known)
        if digest is None:
            text = f"({fingerprint!r}{tail}"
            digest = f"{stage}-{hashlib.sha256(text.encode()).hexdigest()[:24]}"
            with _LOOP_KEYS_LOCK:
                if len(_LOOP_KEYS) >= LOOP_KEY_MEMO_SIZE:
                    del _LOOP_KEYS[next(iter(_LOOP_KEYS))]
                _LOOP_KEYS[known] = digest
        return digest

    return key


class StageCache:
    """LRU artifact memo with an optional JSON-per-artifact disk layer."""

    def __init__(self, capacity: int = LOOP_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        #: The path memo: palette-free key -> (mit, attempts, palette,
        #: artifact), an LRU of the same capacity.
        self._paths: "OrderedDict[str, tuple]" = OrderedDict()
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
        bucket = self._by_stage.get(stage)
        if bucket is None:
            bucket = self._by_stage[stage] = dict.fromkeys(_STAGE_EVENTS, 0)
        bucket[event] += 1
        _count_event(stage, event)

    def lookup(
        self,
        key: str,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
        reuse: Optional[Callable[[], Optional[Any]]] = None,
    ):
        """The cached value for ``key``, or :data:`MISS`.

        Memory is consulted first (a hit refreshes recency); when the
        disk layer is attached and ``decode`` is given, a miss falls
        through to ``<store_dir>/<key>.json``.  Only then is ``reuse``
        called: a value it returns (it files that value itself) counts
        as a memory hit, and None leaves the lookup a miss.
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
                    # not decode (stale schema, missing field, fails its
                    # validation): same treatment as corruption — evict
                    # and recompute.
                    value = _MISS
                    self._discard_payload(key)
                if value is not _MISS:
                    self._insert(key, value)
                    self.disk_hits += 1
                    self._count(key, "disk_hits")
                    return value
        if reuse is not None:
            value = reuse()
            if value is not None:
                self.hits += 1
                self._count(key, "hits")
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
            _count_event(self._stage_of(evicted), "evictions")
        self._entries[key] = value

    def recall_path(self, key: str) -> Optional[tuple]:
        """The path-memo entry under palette-free ``key``, or None."""
        entry = self._paths.get(key)
        if entry is not None:
            self._paths.move_to_end(key)
        return entry

    def record_path(self, key: str, entry: tuple) -> None:
        """File ``(mit, attempts, palette, artifact)`` under ``key``.

        The first writer keeps the key: a later artifact of the same
        loop under another palette is not filed over it.
        """
        if key in self._paths:
            return
        if len(self._paths) >= self._capacity:
            self._paths.popitem(last=False)
        self._paths[key] = entry

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
        # Atomic: a killed process must never leave a truncated artifact
        # that would poison a later resume.
        write_json_atomic(
            self._payload_path(key), {"schema": PAYLOAD_SCHEMA, "data": payload}
        )

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
        """Drop every in-memory entry and the path memo (the disk layer
        is untouched)."""
        self._entries.clear()
        self._paths.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.hits = self.misses = self.disk_hits = 0
        self.corrupt = self.evictions = 0
        self._by_stage.clear()


#: The process-wide per-loop artifact cache: Profile and Schedule
#: consult it per loop, and on a miss its path memo for an artifact
#: another frequency palette computed along the same IT path.  Its disk
#: layer attaches to ``<cache-dir>/loops/``; the path memo stays in
#: memory.
LOOP_CACHE = StageCache(capacity=LOOP_CACHE_CAPACITY)


def loop_cache_info() -> Dict[str, Any]:
    """Counters of the process-wide per-loop cache (see :data:`LOOP_CACHE`)."""
    return LOOP_CACHE.info()


def clear_loop_cache(reset_stats: bool = False) -> None:
    """Drop the in-memory per-loop memo (tests, long-lived processes)."""
    LOOP_CACHE.clear()
    if reset_stats:
        LOOP_CACHE.reset_stats()
