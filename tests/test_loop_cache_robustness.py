"""Loop-cache LRU semantics, invalidation, on-disk corruption and
killed writers.

The per-loop artifact store shares a cache directory between campaign
workers, fleet hosts and the service — so a truncated file, stray
garbage, or an artifact written by an older schema must degrade to a
*miss* (recompute, evict the bad file, count it), never to a crash or
a wrong result.  The process-level tests mirror
``tests/test_store_concurrency.py`` for the loop layer: a writer dying
mid-write must never poison a reader.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.pipeline import Experiment, evaluate_corpus
from repro.pipeline.cache import (
    LOOP_CACHE,
    PAYLOAD_SCHEMA,
    StageCache,
    clear_loop_cache,
    stage_key,
)
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json
from repro.power.breakdown import EnergyBreakdown
from repro.workloads import build_corpus, spec_profile

SCALE = 0.02

#: name -> bytes that must read back as corruption (not a clean miss).
CORRUPTIONS = {
    "truncated": None,  # computed from the real file, see _corrupt_file
    "garbage": b"\x00\xfenot json at all{",
    "empty": b"",
    "wrong_schema": json.dumps({"schema": 999, "data": {}}).encode(),
    "missing_envelope": json.dumps({"profile": {}}).encode(),
    "non_dict_data": json.dumps(
        {"schema": PAYLOAD_SCHEMA, "data": [1, 2]}
    ).encode(),
    "non_dict_envelope": json.dumps([1, 2, 3]).encode(),
}


def _corrupt_file(path, mode: str) -> None:
    if mode == "truncated":
        original = path.read_bytes()
        path.write_bytes(original[: max(1, len(original) // 2)])
    else:
        path.write_bytes(CORRUPTIONS[mode])


# ----------------------------------------------------------------------
# the LRU itself
# ----------------------------------------------------------------------
class TestLRU:
    def test_hit_refreshes_recency(self):
        cache = StageCache(capacity=2)
        cache.store("profile_loop-a", 1)
        cache.store("profile_loop-b", 2)
        assert cache.lookup("profile_loop-a") == 1  # refresh a
        cache.store("profile_loop-c", 3)  # evicts b, the least recently used
        assert cache.lookup("profile_loop-a") == 1
        assert StageCache.is_miss(cache.lookup("profile_loop-b"))
        assert cache.lookup("profile_loop-c") == 3
        assert cache.evictions == 1

    def test_insertion_order_alone_does_not_decide_eviction(self):
        # The seed bug: pop(next(iter(...))) dropped by *insertion* order
        # even when the oldest entry was the hottest.
        cache = StageCache(capacity=3)
        for name in ("a", "b", "c"):
            cache.store(f"profile_loop-{name}", name)
        cache.lookup("profile_loop-a")  # hottest
        cache.store("profile_loop-d", "d")
        assert cache.lookup("profile_loop-a") == "a"
        assert StageCache.is_miss(cache.lookup("profile_loop-b"))

    def test_counters(self):
        cache = StageCache(capacity=4)
        cache.store("schedule_loop-x", 1)
        cache.lookup("schedule_loop-x")
        cache.lookup("schedule_loop-y")
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["entries"] == 1
        assert info["by_stage"]["schedule_loop"] == {
            "hits": 1,
            "misses": 1,
            "disk_hits": 0,
            "corrupt": 0,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            StageCache(capacity=0)

    def test_store_same_key_updates_in_place(self):
        cache = StageCache(capacity=2)
        cache.store("schedule_loop-k", 1)
        cache.store("schedule_loop-k", 2)
        assert len(cache) == 1
        assert cache.lookup("schedule_loop-k") == 2

    def test_stage_key_is_deterministic_and_distinct(self):
        key = stage_key("profile_loop", "a", 1)
        assert key == stage_key("profile_loop", "a", 1)
        assert key != stage_key("profile_loop", "a", 2)
        assert key != stage_key("schedule_loop", "a", 1)
        assert key.startswith("profile_loop-")


# ----------------------------------------------------------------------
# hit/miss/invalidation through real experiment runs
# ----------------------------------------------------------------------
FAST = ExperimentOptions(simulate=False)


def _corpus(scale=SCALE):
    return build_corpus(spec_profile("swim"), scale=scale)


@pytest.fixture
def fresh_loop_cache():
    """Isolate a test from the process-wide memo, counters and store."""
    clear_loop_cache(reset_stats=True)
    LOOP_CACHE.detach_store()
    yield
    clear_loop_cache(reset_stats=True)
    LOOP_CACHE.detach_store()


@pytest.mark.usefixtures("fresh_loop_cache")
class TestExperimentCaching:
    def test_second_run_hits_every_loop_lookup(self):
        corpus = _corpus()
        n_loops = len(corpus.loops)
        Experiment.paper(FAST).run(corpus)
        first = LOOP_CACHE.info()
        # two profile passes (calibration) plus one heterogeneous schedule
        assert first["by_stage"]["profile_loop"]["misses"] == 2 * n_loops
        assert first["by_stage"]["schedule_loop"]["misses"] == n_loops
        assert first["hits"] == 0
        Experiment.paper(FAST).run(corpus)
        second = LOOP_CACHE.info()
        assert second["hits"] == first["misses"]
        assert second["misses"] == first["misses"]  # unchanged
        assert second["entries"] == first["entries"]

    def test_breakdown_change_reuses_only_the_first_profile_pass(self):
        corpus = _corpus()
        n_loops = len(corpus.loops)
        Experiment.paper(FAST).run(corpus)
        before = LOOP_CACHE.info()
        swept = ExperimentOptions(
            simulate=False,
            breakdown=EnergyBreakdown.paper_baseline().with_shares(0.2, 0.25),
        )
        Experiment.paper(swept).run(corpus)
        info = LOOP_CACHE.info()
        # The first profile pass runs before calibration and is shared;
        # the new breakdown changes the calibrated weights, so the second
        # pass and the heterogeneous schedules are recomputed.
        assert info["by_stage"]["profile_loop"]["hits"] == n_loops
        assert info["by_stage"]["schedule_loop"]["hits"] == 0
        assert info["misses"] == before["misses"] + 2 * n_loops

    def test_corpus_change_invalidates_every_loop(self):
        Experiment.paper(FAST).run(_corpus(scale=SCALE))
        Experiment.paper(FAST).run(_corpus(scale=0.03))
        info = LOOP_CACHE.info()
        assert info["hits"] == 0
        assert info["misses"] == info["entries"]

    def test_detach_stops_persistence(self, tmp_path):
        LOOP_CACHE.attach_store(tmp_path)
        LOOP_CACHE.detach_store()
        assert LOOP_CACHE.store_dir is None
        Experiment.paper(FAST).run(_corpus())
        assert list(tmp_path.glob("*.json")) == []
        assert LOOP_CACHE.info()["disk_hits"] == 0


@pytest.fixture
def attached_loop_dir(tmp_path):
    """A fresh loop cache persisted under a temp dir; detached after."""
    clear_loop_cache(reset_stats=True)
    loop_dir = tmp_path / "loops"
    LOOP_CACHE.attach_store(loop_dir)
    try:
        yield loop_dir
    finally:
        LOOP_CACHE.detach_store()
        clear_loop_cache(reset_stats=True)


def _evaluate():
    corpus = build_corpus(spec_profile("swim"), scale=SCALE)
    options = ExperimentOptions(simulate=False)
    return canonical_json(evaluate_corpus(corpus, options).to_dict())


class TestCorruptArtifacts:
    @pytest.mark.parametrize("mode", sorted(CORRUPTIONS))
    def test_corrupt_artifact_is_a_miss_not_a_crash(
        self, attached_loop_dir, mode
    ):
        reference = _evaluate()
        files = sorted(attached_loop_dir.glob("*.json"))
        assert files, "the run should have persisted per-loop artifacts"
        victim = files[0]
        _corrupt_file(victim, mode)

        # Fresh process equivalent: memory gone, disk consulted.
        clear_loop_cache(reset_stats=True)
        assert _evaluate() == reference
        stats = LOOP_CACHE.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        assert stats["disk_hits"] == len(files) - 1
        # The bad artifact was evicted and rewritten valid.
        envelope = json.loads(victim.read_bytes())
        assert envelope["schema"] == PAYLOAD_SCHEMA

    def test_every_artifact_corrupt_recomputes_everything(
        self, attached_loop_dir
    ):
        reference = _evaluate()
        files = sorted(attached_loop_dir.glob("*.json"))
        for index, path in enumerate(files):
            mode = sorted(CORRUPTIONS)[index % len(CORRUPTIONS)]
            _corrupt_file(path, mode)
        clear_loop_cache(reset_stats=True)
        assert _evaluate() == reference
        stats = LOOP_CACHE.stats()
        assert stats["corrupt"] == len(files)
        assert stats["misses"] == len(files)
        assert stats["disk_hits"] == 0

    def test_corruption_increments_the_telemetry_counter(
        self, attached_loop_dir
    ):
        from repro.pipeline.cache import _CACHE_EVENTS

        _evaluate()
        victim = sorted(attached_loop_dir.glob("*.json"))[0]
        stage = victim.stem.rsplit("-", 1)[0]
        before = _CACHE_EVENTS.value(stage=stage, event="corrupt")
        _corrupt_file(victim, "garbage")
        clear_loop_cache(reset_stats=True)
        _evaluate()
        after = _CACHE_EVENTS.value(stage=stage, event="corrupt")
        assert after == before + 1

    def test_unlink_failure_still_misses_cleanly(self, attached_loop_dir):
        # A read-only store (or a concurrent eviction) must not turn the
        # corruption path into an error.
        reference = _evaluate()
        victim = sorted(attached_loop_dir.glob("*.json"))[0]
        _corrupt_file(victim, "garbage")
        clear_loop_cache(reset_stats=True)
        victim.unlink()  # vanishes between read and discard: clean miss
        assert _evaluate() == reference


# ----------------------------------------------------------------------
# killed / interleaved writers (process-level, like the result store)
# ----------------------------------------------------------------------
N_WRITES = 200
PAD = "y" * 4096


def _hammer_loop_store(root: str, worker: int) -> None:
    cache = StageCache(capacity=8)
    cache.attach_store(root)
    for sequence in range(N_WRITES):
        body = {"worker": worker, "seq": sequence, "pad": PAD}
        cache.store("profile_loop-shared", body, payload=body)


class TestKilledWriters:
    def test_killed_writer_never_poisons_a_reader(self, tmp_path):
        root = tmp_path / "loops"
        root.mkdir()
        process = multiprocessing.Process(
            target=_hammer_loop_store, args=(str(root), 0)
        )
        process.start()
        process.kill()
        process.join(60)

        reader = StageCache(capacity=8)
        reader.attach_store(root)
        value = reader.lookup("profile_loop-shared", decode=lambda data: data)
        # Atomic rename: the entry is absent or complete — and whatever
        # the writer left behind, the reader counted zero corruption.
        from repro.pipeline.cache import _MISS

        if value is not _MISS:
            assert value["pad"] == PAD
        assert reader.stats()["corrupt"] == 0

    def test_reader_races_live_writers_without_corruption(self, tmp_path):
        root = tmp_path / "loops"
        root.mkdir()
        workers = [
            multiprocessing.Process(
                target=_hammer_loop_store, args=(str(root), worker)
            )
            for worker in range(2)
        ]
        for process in workers:
            process.start()
        reader = StageCache(capacity=8)
        reader.attach_store(root)
        observed = 0
        from repro.pipeline.cache import _MISS

        try:
            while any(process.is_alive() for process in workers):
                # A fresh cache each probe defeats the memory layer, so
                # every read goes through the disk decode path.
                probe = StageCache(capacity=8)
                probe.attach_store(root)
                value = probe.lookup(
                    "profile_loop-shared", decode=lambda data: data
                )
                assert probe.stats()["corrupt"] == 0
                if value is not _MISS:
                    assert value["pad"] == PAD
                    observed += 1
        finally:
            for process in workers:
                process.join(60)
        # Post-join probe: the writers completed, so the shared entry
        # must now read back complete (regardless of how many live
        # races the loop above managed to observe).
        final = StageCache(capacity=8)
        final.attach_store(root)
        value = final.lookup("profile_loop-shared", decode=lambda data: data)
        assert value is not _MISS
        assert value["pad"] == PAD
        assert value["seq"] == N_WRITES - 1
        assert final.stats()["corrupt"] == 0

    def test_temp_litter_is_invisible_to_key_listings(self, tmp_path):
        from repro.campaign import ResultStore

        store = ResultStore(tmp_path / "cache")
        cache = StageCache(capacity=8)
        cache.attach_store(store.loop_dir)
        cache.store("schedule_loop-abc", {"k": 1}, payload={"k": 1})
        # Simulate a writer killed between mkstemp and rename.
        (store.loop_dir / ".schedule_loop-dead.12345.tmp").write_text("{")
        assert list(store.loop_keys()) == ["schedule_loop-abc"]
