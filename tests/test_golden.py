"""Golden pins: the pipeline's numbers and its loop-cache keys.

* Every SPEC2000 benchmark x {1, 2} buses at scale 0.02 must evaluate to
  the canonical-JSON digest recorded in ``perfbench/expected.json`` (the
  ``@0.02/b*/any`` points, i.e. default options).  A change that moves
  any evaluation by one bit fails here.
* One loop's ``profile_loop``/``schedule_loop`` keys are spelled out.
  A change to how the keys are composed turns every on-disk ``loops/``
  cache cold; this makes such a change fail a test instead.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.pipeline import Experiment, ExperimentOptions
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.pipeline.serialization import canonical_json
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02
EXPECTED_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def _expected_digests():
    return json.loads(EXPECTED_FILE.read_text())["digests"]


@pytest.fixture
def cold_loop_cache():
    LOOP_CACHE.detach_store()
    clear_loop_cache(reset_stats=True)
    yield
    clear_loop_cache(reset_stats=True)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the digests were recorded on Python 3.11; other versions' float "
    "sum() may round differently (3.12 uses compensated summation)",
)
class TestGoldenDigests:
    @pytest.mark.parametrize("buses", (1, 2))
    @pytest.mark.parametrize("name", sorted(SPEC2000_PROFILES))
    def test_evaluation_matches_recorded_digest(
        self, name, buses, cold_loop_cache
    ):
        corpus = build_corpus(spec_profile(name), scale=SCALE)
        evaluation = Experiment.paper(ExperimentOptions(n_buses=buses)).run(corpus)
        digest = hashlib.sha256(
            canonical_json(evaluation.to_dict()).encode()
        ).hexdigest()
        assert digest == _expected_digests()[f"{name}@{SCALE:g}/b{buses}/any"]


class TestPinnedLoopCacheKeys:
    @staticmethod
    def _first_swim_loop_keys(monkeypatch, options):
        """The (first profile, second profile, schedule) keys of swim's
        first loop, after checking one lookup per loop and pass."""
        keys = []
        lookup = LOOP_CACHE.lookup

        def recording_lookup(key, *args, **kwargs):
            keys.append(key)
            return lookup(key, *args, **kwargs)

        monkeypatch.setattr(LOOP_CACHE, "lookup", recording_lookup)
        corpus = build_corpus(spec_profile("swim"), scale=SCALE)
        Experiment.paper(options).run(corpus)
        n = len(corpus.loops)
        assert corpus.loops[0].name == "171.swim.loop000"
        # One lookup per loop and pass: profile, profile again with the
        # calibrated weights, then schedule on the selected point.
        assert len(keys) == 3 * n
        return keys[0], keys[n], keys[2 * n]

    def test_first_swim_loop_keys(self, monkeypatch):
        assert self._first_swim_loop_keys(monkeypatch, ExperimentOptions()) == (
            "profile_loop-66b084901d9c890c1e29576c",
            "profile_loop-201a22061a582cd35ee32130",
            "schedule_loop-d17809a306ef0b63dd8730b6",
        )

    def test_first_swim_loop_keys_two_buses(self, monkeypatch):
        # The machine's shape is part of every key: a 2-bus run must not
        # be served the 1-bus artifacts.
        options = ExperimentOptions(n_buses=2)
        assert self._first_swim_loop_keys(monkeypatch, options) == (
            "profile_loop-45f201aa081c08d53360e6fb",
            "profile_loop-c7b3572541338cf17a1b5a33",
            "schedule_loop-407c145115ea9d7bcd165027",
        )


class TestPinnedJobKeys:
    """Campaign job keys, spelled out.

    A job key hashes the canonical JSON of the job and its options, so
    it names the job's result in every campaign store, service and
    warehouse.  A change to how any option serializes turns those
    results cold; this makes such a change fail a test instead.
    """

    @staticmethod
    def _stress_deep():
        from repro.scenarios import find_pack

        return {w.name: w for w in find_pack("stress").workloads}["stress.deep"]

    def test_pinned_keys(self):
        from repro.campaign.job import ExperimentJob
        from repro.scenarios import bundled_pack_paths
        from test_serialization import _variant_options

        wide_issue = str(bundled_pack_paths()["wide-issue"])
        jobs = {
            "default": ExperimentJob("171.swim", SCALE),
            "two buses": ExperimentJob(
                "171.swim", SCALE, ExperimentOptions(n_buses=2)
            ),
            "variant": ExperimentJob("171.swim", SCALE, _variant_options()),
            "wide-issue": ExperimentJob(
                "171.swim", SCALE, ExperimentOptions(machine_file=wide_issue)
            ),
            "stress": ExperimentJob(
                "stress.deep", SCALE, workload=self._stress_deep()
            ),
        }
        assert {name: job.key() for name, job in jobs.items()} == {
            "default": "524d79bf69f082fb",
            "two buses": "3c95f85674a8143e",
            "variant": "03eca2de0cfa82fa",
            "wide-issue": "0548bd1c3c4387fa",
            "stress": "b5bb02666595c4cd",
        }
