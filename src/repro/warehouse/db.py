"""The SQLite results warehouse: schema, ingestion, incremental sync.

One :class:`Warehouse` wraps one SQLite database (by convention
``warehouse.sqlite`` inside a result-store directory, but any path — or
``":memory:"`` — works).  Every row comes from a result-store file, so
the database is a disposable index: deleting it, or opening it under
another schema version (which drops it whole), and re-ingesting the
store rebuilds it exactly.  Schema (version 5), by source file:

* ``<key>.json`` entries: ``jobs`` (identity, outcome — the three
  ratios as :func:`~repro.pipeline.serialization.evaluation_ratios`
  defines them — and source mtime), ``cache_stats`` (the ``loop_*``
  loop-cache counters) and ``span_stats`` (per span name of a traced
  job: count, total seconds, distributed ``trace_id``/``worker``/
  ``attempt``; "where did campaign X spend its time");
* ``campaigns/*.json`` memberships: ``campaigns`` (one row per label,
  dated by its earliest membership) and ``campaign_jobs`` (the union of
  the label's keys; a key not yet indexed is linked but not counted);
* ``traces/*.json``: ``traces`` (one merged span tree per settled
  distributed trace, looked up by trace or job id for ``repro query
  timeline``).

``store_files`` keeps each indexed membership and trace file's mtime
(an unchanged re-ingest reads none), ``warehouse_meta`` the version.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.store import CAMPAIGN_SUBDIR, ResultStore
from repro.errors import ReproError
from repro.pipeline.serialization import content_key, evaluation_ratios

#: Conventional database file name inside a result-store directory.
DEFAULT_WAREHOUSE_NAME = "warehouse.sqlite"

#: Bumped on incompatible schema changes; a mismatching database is
#: dropped whole and rebuilt by the next ingest (it is only an index
#: over the store's files).
#: Version 5: the ratio columns use the evaluation's own ratio
#: definition (version 4 summed energies in another order).
SCHEMA_VERSION = 5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS warehouse_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    key                   TEXT PRIMARY KEY,
    benchmark             TEXT NOT NULL,
    scale                 REAL NOT NULL,
    config                TEXT NOT NULL,
    config_rest           TEXT NOT NULL,
    machine               TEXT NOT NULL,
    machine_fingerprint   TEXT NOT NULL,
    workload_fingerprint  TEXT NOT NULL,
    n_buses               INTEGER NOT NULL,
    status                TEXT NOT NULL,
    elapsed_s             REAL NOT NULL,
    ed2_ratio             REAL,
    energy_ratio          REAL,
    time_ratio            REAL,
    source_mtime          REAL,
    ingested_at           REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_benchmark ON jobs (benchmark, config);
CREATE INDEX IF NOT EXISTS jobs_by_machine ON jobs (machine);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id INTEGER PRIMARY KEY,
    label       TEXT NOT NULL UNIQUE,
    source      TEXT,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(campaign_id),
    job_key     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, job_key)
);
CREATE TABLE IF NOT EXISTS cache_stats (
    job_key TEXT NOT NULL REFERENCES jobs(key),
    counter TEXT NOT NULL,
    value   INTEGER NOT NULL,
    PRIMARY KEY (job_key, counter)
);
CREATE TABLE IF NOT EXISTS span_stats (
    job_key  TEXT NOT NULL REFERENCES jobs(key),
    span     TEXT NOT NULL,
    n        INTEGER NOT NULL,
    total_s  REAL NOT NULL,
    trace_id TEXT,
    worker   TEXT,
    attempt  INTEGER,
    PRIMARY KEY (job_key, span)
);
CREATE TABLE IF NOT EXISTS traces (
    trace_id   TEXT PRIMARY KEY,
    job_id     TEXT NOT NULL,
    kind       TEXT NOT NULL,
    created_at REAL NOT NULL,
    tree       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS traces_by_job ON traces (job_id);
CREATE TABLE IF NOT EXISTS store_files (
    name  TEXT PRIMARY KEY,
    mtime REAL NOT NULL
);
"""


class WarehouseError(ReproError):
    """A warehouse operation failed (bad payload, unknown campaign...)."""


@dataclass(frozen=True)
class JobRow:
    """One indexed job, as the query layer sees it."""

    key: str
    benchmark: str
    scale: float
    config: str
    config_rest: str
    machine: str
    machine_fingerprint: str
    workload_fingerprint: str
    n_buses: int
    status: str
    elapsed_s: float
    ed2_ratio: Optional[float]
    energy_ratio: Optional[float]
    time_ratio: Optional[float]


#: The ``jobs`` columns a :class:`JobRow` carries, in field order.
_JOB_ROW_COLUMNS = ", ".join(field.name for field in fields(JobRow))


@dataclass
class IngestReport:
    """Outcome of one :meth:`Warehouse.ingest_store` pass."""

    source: str
    added: int = 0
    updated: int = 0
    unchanged: int = 0
    skipped: int = 0

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        return (
            f"ingested {self.source}: {self.added} added, "
            f"{self.updated} updated, {self.unchanged} unchanged, "
            f"{self.skipped} skipped"
        )


# ----------------------------------------------------------------------
# payload -> row extraction
# ----------------------------------------------------------------------
def _config_rest(config: str) -> str:
    """A config label minus its machine-identifying parts.

    Jobs that differ *only* in machine align on this — the join key for
    machine-vs-machine regression diffs.
    """
    return ",".join(
        part
        for part in config.split(",")
        if not part.startswith(("machine=", "machine-file="))
        # icn=/cache= breakdown labels contain a comma; keep both halves.
    )


def _fingerprints(job_data: Dict[str, Any]) -> Tuple[str, str, str]:
    """(machine label, machine fingerprint, workload fingerprint)."""
    options = job_data.get("options", {})
    machine_file = options.get("machine_file")
    if machine_file is not None:
        machine = str(machine_file.get("scenario", "?"))
        machine_fp = f"pack:{machine_file.get('fingerprint', '?')}"
    else:
        machine = str(options.get("machine", "paper"))
        machine_fp = f"name:{machine}"
    workload = job_data.get("workload")
    if workload is not None:
        workload_fp = f"pack:{content_key(workload)}"
    else:
        workload_fp = f"builtin:{job_data['benchmark']}"
    return machine, machine_fp, workload_fp


def _file_name(path: Path) -> str:
    """A membership or trace file's ``store_files`` name: ``<subdir>/<file>``."""
    return f"{path.parent.name}/{path.name}"


# ----------------------------------------------------------------------
class Warehouse:
    """SQLite index over one or many result stores.

    Usable as a context manager; all writes are committed per call, so a
    crash never loses more than the in-flight statement.  The connection
    allows cross-thread use (the service records completions from its
    event-loop thread while queries arrive from request handlers — all
    on that same thread; CLI use is single-threaded).
    """

    #: How long SQLite itself blocks on a held write lock before raising.
    BUSY_TIMEOUT_S = 10.0

    #: Application-level retries on top of the busy timeout (a writer
    #: pinned under sustained contention backs off and re-runs).
    _RETRY_ATTEMPTS = 5

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self._path = str(path)
        if self._path != ":memory:":
            Path(self._path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self._path, check_same_thread=False, timeout=self.BUSY_TIMEOUT_S
        )
        self._conn.row_factory = sqlite3.Row
        # Writes may come from executor threads (the service records
        # results off its event loop so retry backoff never stalls it);
        # one connection => serialize whole transactions ourselves.
        self._write_lock = threading.RLock()
        # Fleet ingest is multi-process: several workers' completions and
        # `repro query` readers hit one database file.  WAL lets readers
        # proceed under a writer (no more SQLITE_BUSY on queries during
        # ingest); NORMAL sync is durable enough for a disposable index.
        # In-memory databases have a single connection — nothing to tune.
        if self._path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}"
        )
        self._ensure_schema()

    def _with_retry(self, operation):
        """Run a write transaction, retrying on lock contention.

        SQLite's busy timeout handles most contention; this catches the
        rest (e.g. a writer starved past the timeout): roll back and
        re-run the whole operation — every write here is an idempotent
        upsert, so a re-run is safe.
        """
        from repro import chaos

        injector = chaos.active()
        with self._write_lock:
            for attempt in range(self._RETRY_ATTEMPTS):
                try:
                    if (
                        injector is not None
                        and attempt < self._RETRY_ATTEMPTS - 1
                        and injector.sqlite_busy()
                    ):
                        # Synthetic busy storm: indistinguishable from a
                        # starved writer.  The final attempt is never
                        # faulted, so an idempotent upsert still lands.
                        from repro.telemetry import record_event

                        record_event(
                            "chaos.sqlite_busy",
                            path=self._path,
                            attempt=attempt,
                        )
                        raise sqlite3.OperationalError(
                            "database is locked (chaos)"
                        )
                    return operation()
                except sqlite3.OperationalError as error:
                    message = str(error).lower()
                    retryable = "locked" in message or "busy" in message
                    if not retryable or attempt == self._RETRY_ATTEMPTS - 1:
                        raise
                    try:
                        self._conn.rollback()
                    except sqlite3.OperationalError:
                        pass
                    time.sleep(0.05 * (2**attempt))

    @classmethod
    def for_store(cls, store: ResultStore) -> "Warehouse":
        """The conventional warehouse inside ``store``'s directory."""
        return cls(store.root / DEFAULT_WAREHOUSE_NAME)

    @property
    def path(self) -> str:
        """Database path (``":memory:"`` for in-memory warehouses)."""
        return self._path

    def close(self) -> None:
        """Close the underlying connection after any in-flight write
        (closing under a running statement crashes the process)."""
        with self._write_lock:
            self._conn.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_schema(self) -> None:
        try:
            row = self._conn.execute(
                "SELECT value FROM warehouse_meta WHERE key = 'schema_version'"
            ).fetchone()
        except sqlite3.OperationalError:  # a new database
            row = None
        if row is not None and int(row["value"]) == SCHEMA_VERSION:
            self._conn.executescript(_SCHEMA)
            return
        # The warehouse is only an index: a mismatched one is dropped
        # whole instead of migrated, and the next ingest rebuilds it.
        for (table,) in self._conn.execute(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name NOT LIKE 'sqlite_%'"
        ).fetchall():
            self._conn.execute(f'DROP TABLE "{table}"')
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR REPLACE INTO warehouse_meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def record_payload(
        self,
        payload: Dict[str, Any],
        source_mtime: Optional[float] = None,
    ) -> Optional[str]:
        """Index one result-store payload; returns the job key.

        Returns ``None`` (and indexes nothing) for payloads the index
        cannot describe — no job, no evaluation, unparseable options —
        so callers can sweep a store without pre-validating it.  Safe to
        call repeatedly with the same payload: rows are upserted by job
        key.  Retries on cross-process lock contention (concurrent fleet
        ingest).
        """
        return self._with_retry(
            lambda: self._record_payload(payload, source_mtime)
        )

    def _record_payload(
        self,
        payload: Dict[str, Any],
        source_mtime: Optional[float],
    ) -> Optional[str]:
        from repro.campaign.job import ExperimentJob

        job_data = payload.get("job")
        evaluation = payload.get("evaluation")
        if not isinstance(job_data, dict) or not isinstance(evaluation, dict):
            return None
        try:
            job = ExperimentJob.from_dict(job_data)
            # Pre-PR-5 payloads lack the key field; re-derive it the way
            # the campaign does, so the row matches the store file name.
            key = payload.get("key") or job.key()
            ratios = evaluation_ratios(evaluation)
            config = job.config_label()
            config_rest = _config_rest(config)
            machine, machine_fp, workload_fp = _fingerprints(job_data)
        except Exception:
            return None
        self._conn.execute(
            """
            INSERT INTO jobs (
                key, benchmark, scale, config, config_rest, machine,
                machine_fingerprint, workload_fingerprint, n_buses,
                status, elapsed_s, ed2_ratio, energy_ratio, time_ratio,
                source_mtime, ingested_at
            ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            ON CONFLICT(key) DO UPDATE SET
                status = excluded.status,
                elapsed_s = excluded.elapsed_s,
                ed2_ratio = excluded.ed2_ratio,
                energy_ratio = excluded.energy_ratio,
                time_ratio = excluded.time_ratio,
                source_mtime = excluded.source_mtime,
                ingested_at = excluded.ingested_at
            """,
            (
                key,
                job_data["benchmark"],
                float(job_data["scale"]),
                config,
                config_rest,
                machine,
                machine_fp,
                workload_fp,
                int(job_data.get("options", {}).get("n_buses", 1)),
                payload.get("status", "ok"),
                float(payload.get("elapsed_s", 0.0)),
                ratios[0],
                ratios[1],
                ratios[2],
                source_mtime,
                time.time(),
            ),
        )
        # Loop-cache counters land with a ``loop_`` prefix (``loop_hits``,
        # ``loop_misses``, ``loop_disk_hits``, ``loop_corrupt``).
        loop_cache = payload.get("loop_cache")
        if isinstance(loop_cache, dict):
            self._conn.executemany(
                "INSERT OR REPLACE INTO cache_stats (job_key, counter, value)"
                " VALUES (?, ?, ?)",
                [
                    (key, f"loop_{counter}", int(value))
                    for counter, value in sorted(loop_cache.items())
                ],
            )
        trace = payload.get("trace")
        if isinstance(trace, dict):
            from repro.telemetry import summarize_trace

            try:
                summary = summarize_trace(trace)
            except Exception:
                summary = {}
            if summary:
                # Replace wholesale: a recomputed job's trace supersedes
                # the old one, including spans that no longer appear.
                # Fleet-executed traced payloads carry their distributed
                # provenance (which trace, which worker, which attempt).
                trace_id = payload.get("trace_id")
                worker = payload.get("worker")
                raw_attempt = payload.get("attempt")
                attempt = None if raw_attempt is None else int(raw_attempt)
                self._conn.execute(
                    "DELETE FROM span_stats WHERE job_key = ?", (key,)
                )
                self._conn.executemany(
                    "INSERT INTO span_stats"
                    " (job_key, span, n, total_s, trace_id, worker, attempt)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            key,
                            name,
                            int(stats["n"]),
                            float(stats["total_s"]),
                            trace_id,
                            worker,
                            attempt,
                        )
                        for name, stats in sorted(summary.items())
                    ],
                )
        self._conn.commit()
        return key

    def index_file(self, path: Union[str, Path]) -> bool:
        """Index one membership or trace file of a result store; returns
        ``False``, indexing nothing, for a file that is gone or unreadable.

        A membership links its keys to its label, which dates from its
        earliest membership; a trace is upserted by trace id.
        """
        path = Path(path)
        membership = path.parent.name == CAMPAIGN_SUBDIR
        try:
            # Stat before reading: a file replaced in between is re-read
            # by the next ingest, never skipped as unchanged.
            mtime = path.stat().st_mtime
            with open(path) as handle:
                record = json.load(handle)
            if membership:
                label, created_at = str(record["label"]), float(record["created_at"])
                keys = [str(key) for key in record["keys"]]
            else:
                trace_row = (
                    *(str(record[field]) for field in ("trace", "job", "kind")),
                    float(record["created_at"]),
                    json.dumps(record["tree"], sort_keys=True),
                )
        except (OSError, ValueError, KeyError, TypeError):
            return False

        def write() -> None:
            if membership:
                self._conn.execute(
                    "INSERT INTO campaigns (label, created_at) VALUES (?, ?)"
                    " ON CONFLICT(label) DO UPDATE"
                    " SET created_at = min(created_at, excluded.created_at)",
                    (label, created_at),
                )
                campaign_id = self._campaign_id(label)
                self._conn.executemany(
                    "INSERT OR IGNORE INTO campaign_jobs (campaign_id, job_key)"
                    " VALUES (?, ?)",
                    [(campaign_id, key) for key in keys],
                )
            else:
                self._conn.execute(
                    "INSERT OR REPLACE INTO traces"
                    " (trace_id, job_id, kind, created_at, tree)"
                    " VALUES (?, ?, ?, ?, ?)",
                    trace_row,
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO store_files (name, mtime) VALUES (?, ?)",
                (_file_name(path), mtime),
            )
            self._conn.commit()

        self._with_retry(write)
        return True

    def trace(self, selector: str) -> Optional[Dict[str, Any]]:
        """One stored trace by trace id or job id, or ``None``.

        Trace ids win on a collision; among several jobs' traces under
        one job id (not expected, but ids are client-suppliable) the
        newest wins.
        """
        row = self._conn.execute(
            "SELECT trace_id, job_id, kind, created_at, tree FROM traces"
            " WHERE trace_id = ? OR job_id = ?"
            " ORDER BY (trace_id = ?) DESC, created_at DESC LIMIT 1",
            (selector, selector, selector),
        ).fetchone()
        if row is None:
            return None
        return {
            "trace": row["trace_id"],
            "job": row["job_id"],
            "kind": row["kind"],
            "created_at": row["created_at"],
            "tree": json.loads(row["tree"]),
        }

    def ingest_store(self, store: Union[ResultStore, str, Path]) -> IngestReport:
        """Index every file of a result store, incrementally.

        Files already indexed with an unchanged mtime are not re-read, so
        one ingest restores a dropped or deleted index, and an unchanged
        re-ingest costs a directory scan plus one stat per file.  The
        report counts job entries.
        """
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        report = IngestReport(source=str(store.root))
        known = {
            row["key"]: row["source_mtime"]
            for row in self._conn.execute(
                "SELECT key, source_mtime FROM jobs"
            )
        }
        for key, mtime in store.stat_entries():
            if key in known and known[key] == mtime:
                report.unchanged += 1
                continue
            payload = store.get(key)
            recorded = (
                None
                if payload is None
                else self.record_payload(payload, source_mtime=mtime)
            )
            if recorded is None:
                report.skipped += 1
            elif key in known:
                report.updated += 1
            else:
                report.added += 1
        indexed = dict(
            self._conn.execute("SELECT name, mtime FROM store_files").fetchall()
        )
        for path, mtime in store.stat_records():
            if indexed.get(_file_name(path)) != mtime:
                self.index_file(path)
        return report

    # ------------------------------------------------------------------
    # campaigns
    # ------------------------------------------------------------------
    def _campaign_id(self, label: str) -> int:
        row = self._conn.execute(
            "SELECT campaign_id FROM campaigns WHERE label = ?", (label,)
        ).fetchone()
        if row is None:
            raise WarehouseError(f"unknown campaign {label!r}")
        return row["campaign_id"]

    def campaigns(self) -> List[Dict[str, Any]]:
        """All campaigns with their indexed job counts, oldest first."""
        rows = self._conn.execute(
            """
            SELECT c.label, c.created_at, COUNT(jobs.key) AS n_jobs
            FROM campaigns c
            LEFT JOIN campaign_jobs cj ON cj.campaign_id = c.campaign_id
            LEFT JOIN jobs ON jobs.key = cj.job_key
            GROUP BY c.campaign_id
            ORDER BY c.created_at, c.label
            """
        ).fetchall()
        return [
            {
                "label": row["label"],
                "created_at": row["created_at"],
                "n_jobs": row["n_jobs"],
            }
            for row in rows
        ]

    # ------------------------------------------------------------------
    # row access (the query layer's substrate)
    # ------------------------------------------------------------------
    def _selector_sql(
        self, selector: Optional[str]
    ) -> Tuple[str, Sequence[Any]]:
        """WHERE fragment for a job selector.

        ``None`` selects everything; ``machine:NAME`` selects by machine
        label; anything else is a campaign label (unknown labels raise,
        rather than silently matching nothing).
        """
        if selector is None:
            return "1=1", ()
        if selector.startswith("machine:"):
            return "jobs.machine = ?", (selector[len("machine:"):],)
        campaign_id = self._campaign_id(selector)
        return (
            "jobs.key IN (SELECT job_key FROM campaign_jobs"
            " WHERE campaign_id = ?)",
            (campaign_id,),
        )

    def job_rows(
        self,
        selector: Optional[str] = None,
        benchmark: Optional[str] = None,
    ) -> List[JobRow]:
        """Successful jobs matching a selector, ordered for determinism."""
        where, params = self._selector_sql(selector)
        sql = (
            f"SELECT {_JOB_ROW_COLUMNS} FROM jobs WHERE status = 'ok' AND "
            + where
            + ("" if benchmark is None else " AND benchmark = ?")
            + " ORDER BY benchmark, config, key"
        )
        if benchmark is not None:
            params = (*params, benchmark)
        return [JobRow(*row) for row in self._conn.execute(sql, params)]

    def job_count(self) -> int:
        """Total indexed jobs (any status)."""
        return self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    def cache_stats(self, key: str) -> Dict[str, int]:
        """Loop-cache counters recorded for a job (may be empty)."""
        return {
            row["counter"]: row["value"]
            for row in self._conn.execute(
                "SELECT counter, value FROM cache_stats WHERE job_key = ?"
                " ORDER BY counter",
                (key,),
            )
        }

    def span_stats(self, key: str) -> Dict[str, Dict[str, Any]]:
        """Span summaries recorded for a job (may be empty)."""
        return {
            row["span"]: {"n": row["n"], "total_s": row["total_s"]}
            for row in self._conn.execute(
                "SELECT span, n, total_s FROM span_stats WHERE job_key = ?"
                " ORDER BY span",
                (key,),
            )
        }

    def span_rows(
        self, selector: Optional[str] = None
    ) -> List[Tuple[str, int, float, int]]:
        """Aggregated ``(span, n, total_s, jobs)`` rows over a selector.

        Ordered by total time descending — the "where did the time go"
        answer for a campaign, a machine, or the whole warehouse.
        """
        where, params = self._selector_sql(selector)
        sql = (
            "SELECT s.span AS span, SUM(s.n) AS n,"
            " SUM(s.total_s) AS total_s,"
            " COUNT(DISTINCT s.job_key) AS jobs"
            " FROM span_stats s JOIN jobs ON jobs.key = s.job_key"
            " WHERE " + where + " GROUP BY s.span"
            " ORDER BY total_s DESC, span"
        )
        return [
            (row["span"], row["n"], row["total_s"], row["jobs"])
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def cache_rows(
        self, selector: Optional[str] = None
    ) -> List[Tuple[str, int, int]]:
        """Aggregated ``(counter, total, jobs)`` cache rows over a selector.

        Loop-cache counters (``loop_``-prefixed) — the "how incremental
        were we" answer for a campaign or machine.
        """
        where, params = self._selector_sql(selector)
        sql = (
            "SELECT s.counter AS counter, SUM(s.value) AS total,"
            " COUNT(DISTINCT s.job_key) AS jobs"
            " FROM cache_stats s JOIN jobs ON jobs.key = s.job_key"
            " WHERE " + where + " GROUP BY s.counter"
            " ORDER BY counter"
        )
        return [
            (row["counter"], row["total"], row["jobs"])
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def summary(self) -> Dict[str, Any]:
        """Headline counts for health endpoints and the CLI."""
        jobs, benchmarks, configs, machines = self._conn.execute(
            "SELECT COUNT(*), COUNT(DISTINCT benchmark),"
            " COUNT(DISTINCT config), COUNT(DISTINCT machine) FROM jobs"
        ).fetchone()
        return {
            "path": self._path,
            "jobs": jobs,
            "benchmarks": benchmarks,
            "configs": configs,
            "machines": machines,
            "campaigns": len(self.campaigns()),
        }
