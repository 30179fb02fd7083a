"""Shared infrastructure for the reproduction benches.

Every bench regenerates one of the paper's evaluation artefacts (a table
or a figure), prints it, and writes it to ``benchmarks/results/`` — the
human-readable text plus, when the bench passes structured ``data``, a
machine-readable JSON twin so perf/result trajectories can be consumed
by tooling.  Corpus sizes scale with the ``REPRO_CORPUS_SCALE``
environment variable (default 0.15, i.e. ~60 loops per benchmark; the
paper's full population is ~400 per benchmark at 1.0).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.pipeline import BenchmarkEvaluation, ExperimentOptions, evaluate_corpus
from repro.workloads import SPEC2000_PROFILES, build_corpus, default_scale, spec_profile

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmarks used by the sensitivity benches (Figures 7-9 sweep several
#: configurations each, so they run on a representative subset: the
#: biggest winner, a mid-field recurrence-bound code and a resource-bound
#: one).
SENSITIVITY_BENCHMARKS = ("200.sixtrack", "187.facerec", "171.swim")


def corpus_scale() -> float:
    """Corpus scale for benches (REPRO_CORPUS_SCALE, default 0.15)."""
    return default_scale()


def evaluate_benchmark(
    name: str,
    options: Optional[ExperimentOptions] = None,
    scale: Optional[float] = None,
) -> BenchmarkEvaluation:
    """Build the corpus for ``name`` and run the full pipeline."""
    corpus = build_corpus(
        spec_profile(name), scale=scale if scale is not None else corpus_scale()
    )
    return evaluate_corpus(corpus, options)


def evaluate_all(
    options: Optional[ExperimentOptions] = None,
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[float] = None,
) -> Dict[str, BenchmarkEvaluation]:
    """Evaluate several benchmarks, keyed by name."""
    names = list(SPEC2000_PROFILES) if benchmarks is None else list(benchmarks)
    return {name: evaluate_benchmark(name, options, scale) for name in names}


def mean_ed2(evaluations: Dict[str, BenchmarkEvaluation]) -> float:
    """Arithmetic mean of the ED^2 ratios (the paper's 'mean' bar)."""
    values = [e.ed2_ratio for e in evaluations.values()]
    return sum(values) / len(values)


def publish(name: str, text: str, data: Optional[dict] = None) -> None:
    """Print an artefact and persist it under benchmarks/results/.

    ``data`` (when given) lands next to the text as ``{name}.json`` —
    the machine-readable form downstream tooling and perf trajectories
    consume.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
