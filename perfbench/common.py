"""Inputs, correctness checks and statistics shared by every workload.

A *point* is one corpus x one option set: the unit every workload
evaluates and every latency sample times.  Each point's evaluation has
a canonical-JSON digest recorded in ``expected.json`` (regenerate with
``record_expected.py``); a point evaluated in any workload, in process
or over HTTP, must reproduce that digest byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
#: Per-run scratch space (service cache directories); git-ignored and
#: removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"

#: In-process corpus scale: 20 loops per benchmark, so one cold
#: evaluation is dominated by scheduling 60 loop instances.
INPROCESS_SCALE = 0.05
#: Service corpus scale: 8 loops per benchmark, so a new point computes
#: in about 0.2 s and a run holds enough of them for a stable median.
SERVICE_SCALE = 0.02
#: The frequency palettes the warm sweep (and ``repro.perf``) cycles.
PALETTES = ("any", "uniform2", "uniform3")


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class Point:
    """One evaluation input: a benchmark corpus and an option set."""

    benchmark: str
    scale: float
    buses: int = 1
    palette: str = "any"

    @property
    def id(self) -> str:
        return f"{self.benchmark}@{self.scale:g}/b{self.buses}/{self.palette}"

    @property
    def figure6(self) -> bool:
        """True for the paper's Figure 6 setting: 1 bus, any frequency."""
        return self.buses == 1 and self.palette == "any"

    def options(self):
        """The ``ExperimentOptions`` of this point (defaults elsewhere)."""
        from repro.machine.clocking import FrequencyPalette
        from repro.pipeline import ExperimentOptions
        from repro.scheduler import SchedulerOptions

        if self.palette == "any":
            return ExperimentOptions(n_buses=self.buses)
        count = int(self.palette[len("uniform"):])
        return ExperimentOptions(
            n_buses=self.buses,
            scheduler=SchedulerOptions(
                palette=FrequencyPalette.per_domain_uniform(count)
            ),
        )

    def corpus(self):
        """A freshly built corpus object for this point."""
        from repro.workloads import build_corpus, spec_profile

        return build_corpus(spec_profile(self.benchmark), scale=self.scale)


def benchmarks(quick: bool) -> List[str]:
    """The SPEC2000 profiles a run covers (two in the self-test)."""
    use_source_tree()
    from repro.workloads import SPEC2000_PROFILES

    names = list(SPEC2000_PROFILES)
    return names[:2] if quick else names


def cold_points(names: Sequence[str]) -> List[Point]:
    return [
        Point(name, INPROCESS_SCALE, buses) for buses in (1, 2) for name in names
    ]


def warm_points(names: Sequence[str]) -> List[Point]:
    return [
        Point(name, INPROCESS_SCALE, 1, palette)
        for palette in PALETTES
        for name in names
    ]


def service_points(names: Sequence[str]) -> List[Point]:
    return [
        Point(name, SERVICE_SCALE, buses, palette)
        for palette in PALETTES
        for buses in (1, 2)
        for name in names
    ]


def all_points() -> List[Point]:
    """Every point any workload evaluates, each once."""
    names = benchmarks(quick=False)
    unique: Dict[str, Point] = {}
    for point in cold_points(names) + warm_points(names) + service_points(names):
        unique.setdefault(point.id, point)
    return list(unique.values())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def digest(evaluation: dict) -> str:
    """sha256 of an evaluation's canonical JSON (a ``to_dict()`` form)."""
    from repro.pipeline.serialization import canonical_json

    return hashlib.sha256(canonical_json(evaluation).encode()).hexdigest()


def load_expected() -> Dict[str, str]:
    return json.loads(EXPECTED_FILE.read_text())["digests"]


class Checker:
    """Counts evaluations and failures, and keeps each point's ED² ratio."""

    def __init__(self) -> None:
        self.expected = load_expected()
        self.attempted = 0
        self.failed = 0
        self.ed2: Dict[str, float] = {}
        self.points: Dict[str, Point] = {}
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        """Record a failed evaluation (one that raised or was refused)."""
        self.attempted += 1
        self.failed += 1
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, point: Point, evaluation: dict, extra: str = "") -> bool:
        """Count one evaluation; True when it matches its recorded digest.

        ``extra`` is a failed side condition (e.g. a cache expectation)
        that makes this evaluation count as failed even if it is right.
        """
        from repro.pipeline.serialization import evaluation_ratios

        self.attempted += 1
        ok = digest(evaluation) == self.expected.get(point.id)
        if not ok:
            self._note(f"{point.id}: evaluation differs from expected.json")
        if extra:
            self._note(f"{point.id}: {extra}")
        if ok and not extra:
            self.ed2[point.id] = evaluation_ratios(evaluation)[0]
            self.points[point.id] = point
            return True
        self.failed += 1
        return False

    def quality(self) -> Dict[str, float]:
        """``ed2_ratio_mean`` and ``fig6_gap_mean`` over correct points."""
        from repro.reporting.paper import PAPER_FIGURE6_ED2

        ratios = list(self.ed2.values())
        gaps = [
            abs(self.ed2[pid] - PAPER_FIGURE6_ED2[point.benchmark])
            for pid, point in self.points.items()
            if point.figure6
        ]
        return {
            "ed2_ratio_mean": sum(ratios) / len(ratios) if ratios else float("nan"),
            "fig6_gap_mean": sum(gaps) / len(gaps) if gaps else float("nan"),
        }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with ten samples
    beyond it.  Runs with fewer than eleven samples report their maximum
    (percentile 100) so that every metric is always present."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), 100.0, 0
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prometheus_samples(text: str, family: str) -> Dict[str, float]:
    """``{label text: value}`` of one family in a Prometheus exposition."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith(family):
            continue
        rest = line[len(family):]
        if rest.startswith("{"):
            labels, _, value = rest[1:].partition("} ")
        elif rest.startswith(" "):
            labels, value = "", rest[1:]
        else:
            continue  # another family sharing the prefix
        samples[labels] = samples.get(labels, 0.0) + float(value.split()[0])
    return samples


def counter_delta(
    before: str, after: str, family: str, having: Tuple[str, ...] = ()
) -> float:
    """Increase of a family's samples whose labels contain every ``having``."""

    def total(text: str) -> float:
        return sum(
            value
            for labels, value in prometheus_samples(text, family).items()
            if all(part in labels for part in having)
        )

    return total(after) - total(before)


def latency_metrics(samples_s: Sequence[float], label: str) -> Dict[str, float]:
    """``eval_p50_ms`` / ``eval_tail_ms`` from per-evaluation seconds."""
    value, percentile, n = tail(samples_s)
    print(
        f"{label}: p50 {median(samples_s) * 1e3:.1f} ms, "
        f"p{percentile:.1f} {value * 1e3:.1f} ms over {n} evaluations",
        file=sys.stderr,
    )
    return {
        "eval_p50_ms": median(samples_s) * 1e3,
        "eval_tail_ms": value * 1e3,
    }
