#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

From the repository root::

    python3 perfbench/run.py --workload cold_eval --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with per-layer timing and prints
the per-layer metrics instead.  Progress and a short report go to
stderr; the last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
where ``failed / attempted`` is the run's error rate (evaluations that
raised, were refused, or failed their correctness check).

``--quick`` shrinks every workload to two benchmarks for the
self-test (``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_eval", "warm_sweep", "service_mixed")


def _workload(name: str):
    if name == "service_mixed":
        from perfbench.served import service_mixed

        return service_mixed
    from perfbench import inprocess

    return getattr(inprocess, name)


def build_result(checker, values, declared, trace: bool) -> dict:
    """The result object: every declared metric, with its declared unit.

    Traced runs report 0 for a layer the workload never entered; an
    untraced run must measure every end-to-end metric itself.
    """
    units = {metric["name"]: metric["unit"] for metric in declared}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(values))
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    correct = checker.failed == 0 and checker.attempted > 0
    metrics = {}
    for name, unit in units.items():
        value = float(values.get(name, 0.0))
        if not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.common import use_source_tree

    use_source_tree()
    try:
        import repro
    except ImportError as error:
        print(f"cannot import repro from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]

    checker, values = _workload(args.workload)(
        args.seed, args.seconds, bool(args.trace), args.quick
    )
    result = build_result(checker, values, section, bool(args.trace))
    error_rate = checker.failed / checker.attempted if checker.attempted else 1.0
    print(
        f"{args.workload}: {checker.attempted} evaluations, "
        f"{checker.failed} failed (error rate {error_rate:.3f})",
        file=sys.stderr,
    )
    for problem in checker.problems:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
