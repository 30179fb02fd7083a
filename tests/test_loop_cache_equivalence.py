"""The cache-equivalence harness: warm loop-cache runs are bit-identical.

Two halves:

* warm-vs-cold: for every benchmark x a spread of bundled machine
  packs, an ``evaluate_suite`` served from the per-loop cache must be
  byte-identical (canonical JSON) to the same suite computed cold, with
  the hit counters proving zero loops were re-scheduled warm.
* fingerprint stability: the content fingerprints the loop cache keys
  on (loop bodies, ISA table, cluster shape) are deterministic across
  *processes* (no accidental ``id()``/hash-seed dependence) and
  insensitive to dict insertion order (hypothesis-driven).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import machine_facets
from repro.machine.isa import InstructionTable
from repro.pipeline import evaluate_suite
from repro.pipeline.cache import LOOP_CACHE, clear_loop_cache
from repro.pipeline.experiment import ExperimentOptions
from repro.pipeline.serialization import canonical_json
from repro.scenarios import bundled_pack_paths, load_pack
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

SCALE = 0.02

#: A machine spread: the paper baseline, the two-bus variant, and the
#: low-power pack (reduced clusters, ISA overrides, its own palette).
PACKS = ("paper-1bus", "paper-2bus", "low-power")


def _suite_options(pack_name: str) -> ExperimentOptions:
    path = bundled_pack_paths()[pack_name]
    return ExperimentOptions(machine_file=str(path), simulate=False)


def _fresh_caches() -> None:
    LOOP_CACHE.detach_store()
    clear_loop_cache(reset_stats=True)


class TestWarmEqualsCold:
    @pytest.mark.parametrize("pack_name", PACKS)
    def test_suite_bit_identical_over_all_benchmarks(self, pack_name):
        corpora = [
            build_corpus(spec_profile(name), scale=SCALE)
            for name in SPEC2000_PROFILES
        ]
        options = _suite_options(pack_name)

        _fresh_caches()
        cold = canonical_json(evaluate_suite(corpora, options).to_dict())
        cold_stats = LOOP_CACHE.stats()
        assert cold_stats["misses"] > 0
        assert cold_stats["hits"] == 0

        # Warm: the per-loop cache stays.
        warm = canonical_json(evaluate_suite(corpora, options).to_dict())
        warm_stats = LOOP_CACHE.stats()

        assert warm == cold
        # The counters prove it: zero loops re-scheduled, every cold
        # artifact served warm.
        assert warm_stats["misses"] == cold_stats["misses"]
        assert warm_stats["hits"] == cold_stats["misses"]

    def test_disk_round_trip_is_bit_identical(self, tmp_path):
        # A fresh-process equivalent: both memory caches dropped, every
        # artifact re-read through the JSON disk layer.
        corpora = [build_corpus(spec_profile("swim"), scale=SCALE)]
        options = _suite_options("paper-1bus")

        _fresh_caches()
        LOOP_CACHE.attach_store(tmp_path / "loops")
        try:
            cold = canonical_json(evaluate_suite(corpora, options).to_dict())
            clear_loop_cache(reset_stats=True)
            warm = canonical_json(evaluate_suite(corpora, options).to_dict())
            stats = LOOP_CACHE.stats()
            assert warm == cold
            assert stats["disk_hits"] > 0
            assert stats["misses"] == 0
        finally:
            LOOP_CACHE.detach_store()
            clear_loop_cache(reset_stats=True)


# ----------------------------------------------------------------------
# fingerprint stability
# ----------------------------------------------------------------------
_SUBPROCESS_SCRIPT = """
import json, sys
from repro.machine import machine_facets
from repro.scenarios import bundled_pack_paths, load_pack
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

out = {"facets": {}, "loops": {}}
for name, path in sorted(bundled_pack_paths().items()):
    pack = load_pack(path)
    if pack.machine is not None:
        out["facets"][name] = list(machine_facets(pack.machine))
for name in SPEC2000_PROFILES:
    corpus = build_corpus(spec_profile(name), scale=__SCALE__)
    out["loops"][name] = [loop.fingerprint() for loop in corpus.loops]
print(json.dumps(out, sort_keys=True))
"""


def _fingerprints_here() -> dict:
    out = {"facets": {}, "loops": {}}
    for name, path in sorted(bundled_pack_paths().items()):
        pack = load_pack(path)
        if pack.machine is not None:
            out["facets"][name] = list(machine_facets(pack.machine))
    for name in SPEC2000_PROFILES:
        corpus = build_corpus(spec_profile(name), scale=SCALE)
        out["loops"][name] = [loop.fingerprint() for loop in corpus.loops]
    return out


class TestFingerprintStability:
    def test_identical_across_processes(self):
        # A different interpreter process has a different hash seed and
        # different object ids; content fingerprints must not care.
        script = _SUBPROCESS_SCRIPT.replace("__SCALE__", repr(SCALE))
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": src,
                "PYTHONHASHSEED": "random",
            },
        )
        assert result.returncode == 0, result.stderr
        theirs = json.loads(result.stdout)
        ours = json.loads(json.dumps(_fingerprints_here(), sort_keys=True))
        assert ours == theirs

    def test_repeated_calls_are_stable(self):
        first = _fingerprints_here()
        assert _fingerprints_here() == first

    @given(seed=st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_isa_fingerprint_ignores_dict_insertion_order(self, seed):
        from repro.machine.fingerprint import isa_fingerprint

        reference = InstructionTable.paper_defaults()
        items = list(reference._entries.items())
        shuffled = items[:]
        seed.shuffle(shuffled)
        permuted = InstructionTable(dict(shuffled))
        assert isa_fingerprint(permuted) == isa_fingerprint(reference)

    @given(seed=st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_machine_facets_ignore_isa_dict_order(self, seed):
        from dataclasses import replace

        pack = load_pack(bundled_pack_paths()["paper-1bus"])
        machine = pack.machine
        items = list(machine.isa._entries.items())
        shuffled = items[:]
        seed.shuffle(shuffled)
        permuted = replace(machine, isa=InstructionTable(dict(shuffled)))
        assert machine_facets(permuted) == machine_facets(machine)
