"""Path-checked reuse of loop artifacts across frequency palettes.

The palette enters the scheduler only through the IT search, so a loop
artifact computed under one palette is reused under another when both
candidate streams agree on every IT and per-domain assignment up to the
one that succeeded.  The oracle here: a palette sweep served by that
reuse is byte-identical — evaluations and the ``loops/`` directory — to
the same sweep with the loop cache cleared before every palette.

The palettes include ``global 1/2`` (one global frequency of 0.5 GHz):
at an even MIT its first IT equals the MIT, as under ``any``, but every
domain runs at half speed, so a reuse check that compared ITs only, or
skipped the replay, would serve it a wrong schedule.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.machine.clocking import FrequencyPalette
from repro.machine.operating_point import OperatingPoint
from repro.pipeline import Experiment, stages
from repro.pipeline.cache import LOOP_CACHE, StageCache, clear_loop_cache
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json
from repro.scenarios import bundled_pack_paths
from repro.scheduler import SchedulerOptions
from repro.scheduler.ii_selection import (
    iter_it_candidates,
    same_search_path,
    select_assignments,
)
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02

PACKS = ("paper-1bus", "paper-2bus", "wide-issue", "low-power", "embedded")

PALETTES = {
    "any": FrequencyPalette.any_frequency(),
    "per-domain 2": FrequencyPalette.per_domain_uniform(2),
    "per-domain 3": FrequencyPalette.per_domain_uniform(3),
    "per-domain 4": FrequencyPalette.per_domain_uniform(4),
    "global 1/2": FrequencyPalette((Fraction(1, 2),)),
}


def _options(machine: str, palette: FrequencyPalette) -> ExperimentOptions:
    scheduler = SchedulerOptions(palette=palette)
    if machine.startswith("paper@"):
        return ExperimentOptions(
            n_buses=int(machine.split("@")[1]), scheduler=scheduler
        )
    path = str(bundled_pack_paths()[machine])
    return ExperimentOptions(machine_file=path, scheduler=scheduler)


def _corpora(names):
    return [build_corpus(spec_profile(name), scale=SCALE) for name in names]


def _sweep(machine, corpora, fresh: bool):
    """Canonical JSON per (palette, corpus); the palettes run in order.

    ``fresh`` clears the loop cache before every palette, so nothing is
    reused; otherwise the cache is cleared once, before the first.
    """
    clear_loop_cache(reset_stats=True)
    results = {}
    for label, palette in PALETTES.items():
        if fresh:
            clear_loop_cache()
        experiment = Experiment.paper(_options(machine, palette))
        for corpus in corpora:
            evaluation = experiment.run(corpus)
            results[label, corpus.benchmark] = canonical_json(evaluation.to_dict())
    return results


@pytest.fixture
def replays(monkeypatch):
    """The outcome of every path replay the stages run."""
    outcomes = []

    def recorded(*args):
        same = same_search_path(*args)
        outcomes.append(same)
        return same

    monkeypatch.setattr(stages, "same_search_path", recorded)
    LOOP_CACHE.detach_store()
    yield outcomes
    clear_loop_cache(reset_stats=True)


class TestSweepEqualsFresh:
    @pytest.mark.parametrize("machine", ("paper@1", "paper@2"))
    def test_every_spec_corpus(self, machine, replays):
        corpora = _corpora(SPEC2000_PROFILES)
        reused = _sweep(machine, corpora, fresh=False)
        reused_misses = LOOP_CACHE.stats()["misses"]
        outcomes = list(replays)
        replays.clear()
        fresh = _sweep(machine, corpora, fresh=True)
        assert reused == fresh
        assert True in outcomes, "no artifact was reused"
        assert False in outcomes, "no path mismatch was recomputed"
        assert replays == []
        # A reuse is a hit: misses count the loops actually scheduled.
        assert reused_misses < LOOP_CACHE.stats()["misses"]

    @pytest.mark.parametrize("machine", PACKS)
    def test_machine_packs(self, machine, replays):
        corpora = _corpora(("171.swim", "301.apsi"))
        reused = _sweep(machine, corpora, fresh=False)
        fresh = _sweep(machine, corpora, fresh=True)
        assert reused == fresh
        assert True in replays

    def test_loops_dir_is_byte_identical(self, tmp_path, replays):
        corpora = _corpora(("171.swim", "173.applu"))
        dirs = {}
        for fresh in (False, True):
            dirs[fresh] = tmp_path / f"fresh-{fresh}"
            LOOP_CACHE.attach_store(dirs[fresh])
            try:
                _sweep("paper@1", corpora, fresh=fresh)
            finally:
                LOOP_CACHE.detach_store()

        def files(directory):
            return {path.name: path.read_bytes() for path in directory.iterdir()}

        reused, fresh = files(dirs[False]), files(dirs[True])
        assert reused and reused == fresh
        assert True in replays and False in replays


class TestSameSearchPath:
    @staticmethod
    def _point():
        return OperatingPoint.homogeneous(4, Fraction(1), 1.0, 0.25)

    def test_same_palette_always_matches(self):
        palette = PALETTES["global 1/2"]
        assert same_search_path(self._point(), Fraction(3), 5, palette, palette)

    def test_equal_first_it_with_other_assignments_is_a_mismatch(self):
        point = self._point()
        mit = Fraction(2)
        slow, fast = PALETTES["global 1/2"], PALETTES["any"]
        assert next(iter_it_candidates(point, slow, mit)) == mit
        assert next(iter_it_candidates(point, fast, mit)) == mit
        assert select_assignments(mit, point, slow) != select_assignments(
            mit, point, fast
        )
        assert not same_search_path(point, mit, 1, fast, slow)

    def test_per_domain_ladder_walks_the_any_path_at_integral_its(self):
        point = self._point()
        ladder = PALETTES["per-domain 2"]
        assert same_search_path(point, Fraction(3), 4, PALETTES["any"], ladder)

    def test_another_first_it_is_a_mismatch(self):
        # ``any`` starts at the MIT itself; the ladder's periods (1 and
        # 2 ns) have no multiple at 2.5 ns.
        point = self._point()
        ladder = PALETTES["per-domain 2"]
        assert not same_search_path(
            point, Fraction(5, 2), 1, PALETTES["any"], ladder
        )


class TestPathMemo:
    def test_first_writer_keeps_the_key(self):
        cache = StageCache(capacity=4)
        cache.record_path("k", (1, 1, "a", "first"))
        cache.record_path("k", (1, 1, "b", "second"))
        assert cache.recall_path("k") == (1, 1, "a", "first")

    def test_bounded_by_capacity_and_dropped_by_clear(self):
        cache = StageCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.record_path(key, (1, 1, None, key))
        assert cache.recall_path("a") is None
        assert cache.recall_path("c") is not None
        cache.clear()
        assert cache.recall_path("b") is None and cache.recall_path("c") is None

    def test_reuse_is_not_consulted_on_a_hit(self):
        cache = StageCache()
        cache.store("profile_loop-abc", "artifact")

        def reuse():
            raise AssertionError("consulted on a hit")

        assert cache.lookup("profile_loop-abc", reuse=reuse) == "artifact"
        assert cache.stats()["hits"] == 1

    def test_a_reuse_counts_as_one_hit(self):
        cache = StageCache()
        assert cache.lookup("schedule_loop-abc", reuse=lambda: "reused") == "reused"
        assert StageCache.is_miss(
            cache.lookup("schedule_loop-def", reuse=lambda: None)
        )
        assert cache.stats() == {
            "hits": 1, "misses": 1, "disk_hits": 0, "corrupt": 0
        }
        assert cache.info()["by_stage"]["schedule_loop"]["hits"] == 1

    def test_warm_evaluations_build_no_palette_free_key(self, monkeypatch, replays):
        corpus = build_corpus(spec_profile("171.swim"), scale=SCALE)
        experiment = Experiment.paper(_options("paper@1", PALETTES["any"]))
        experiment.run(corpus)

        def unbuilt(*args):
            raise AssertionError("palette-free key built on the warm path")

        monkeypatch.setattr(stages, "_path_key", unbuilt)
        experiment.run(corpus)
        assert replays == []
