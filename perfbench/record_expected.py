#!/usr/bin/env python3
"""Record ``expected.json``: the evaluation digest of every benchmark point.

Each point is evaluated once in process through the plain public path,
``Experiment.paper(options).run(corpus)``, and its canonical-JSON digest
stored.  Every workload then checks its evaluations — in process, from
the loop cache, or over HTTP — against these digests, so a change that
alters any evaluation by one bit shows up as ``failed`` evaluations.

Run from the repository root (takes about a minute)::

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    EXPECTED_FILE,
    ROOT,
    all_points,
    digest,
    use_source_tree,
)


def main() -> int:
    use_source_tree()
    from repro.pipeline import Experiment

    digests = {}
    for point in all_points():
        evaluation = Experiment.paper(point.options()).run(point.corpus())
        digests[point.id] = digest(evaluation.to_dict())
        print(f"{point.id} {digests[point.id][:12]}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    ).stdout.strip()
    EXPECTED_FILE.write_text(
        json.dumps({"commit": commit, "digests": digests}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(digests)} digests to {EXPECTED_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
