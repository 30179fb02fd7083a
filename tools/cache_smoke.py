#!/usr/bin/env python3
"""CI smoke test of the per-loop cache across real processes.

Runs the full suite twice at scale 0.05 against one shared cache
directory: a *cold* process that populates the on-disk loop cache, and
a fresh *warm* process that must answer every per-loop profile and
schedule artifact from disk.  Fails unless

* the warm suite JSON is byte-identical to the cold one,
* the warm loop-cache hit ratio meets the threshold (every artifact
  served from cache, zero re-scheduled loops),
* nothing was counted corrupt,
* every ``profile_loop-*`` artifact left in the cache decodes through
  the pipeline's codec and re-encodes to exactly its stored ``data``.

Exercising two separate interpreter processes is the point: it proves
the fingerprints the cache keys on carry no process-local state
(object ids, hash seeds) and that the disk envelope round-trips.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.05
HIT_RATIO_THRESHOLD = 1.0  # warm must serve *every* loop from cache

_RUN_SNIPPET = """
import json, sys, time
from repro.pipeline import evaluate_suite
from repro.pipeline.cache import LOOP_CACHE
from repro.pipeline.serialization import canonical_json
from repro.workloads import SPEC2000_PROFILES, build_corpus, spec_profile

loop_dir, scale = sys.argv[1], float(sys.argv[2])
LOOP_CACHE.attach_store(loop_dir)
corpora = [
    build_corpus(spec_profile(name), scale=scale)
    for name in SPEC2000_PROFILES
]
started = time.perf_counter()
suite = evaluate_suite(corpora)
elapsed = time.perf_counter() - started
print(json.dumps({
    "doc": canonical_json(suite.to_dict()),
    "elapsed_s": elapsed,
    "loop_cache": LOOP_CACHE.stats(),
}))
"""


def _run(snippet: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        raise SystemExit("cache smoke: child process failed")
    return result.stdout


def run_pass(loop_dir: Path) -> dict:
    return json.loads(_run(_RUN_SNIPPET, str(loop_dir), str(SCALE)))


_CODEC_SNIPPET = """
import json, sys
from pathlib import Path
from repro.pipeline.serialization import from_data, to_data
from repro.pipeline.stages import ScheduleSummary
from repro.power.profile import LoopProfile

checked, mismatched = 0, []
for path in sorted(Path(sys.argv[1]).glob("profile_loop-*.json")):
    data = json.loads(path.read_text())["data"]
    again = {
        "profile": to_data(from_data(LoopProfile, data["profile"])),
        "schedule": to_data(from_data(ScheduleSummary, data["schedule"])),
    }
    checked += 1
    if again != data:
        mismatched.append(path.name)
print(json.dumps({"checked": checked, "mismatched": mismatched}))
"""


def check_codec(loop_dir: Path) -> dict:
    """Decode and re-encode every stored profile artifact."""
    return json.loads(_run(_CODEC_SNIPPET, str(loop_dir)))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        loop_dir = Path(tmp) / "loops"
        started = time.perf_counter()
        cold = run_pass(loop_dir)
        warm = run_pass(loop_dir)
        wall = time.perf_counter() - started
        codec = check_codec(loop_dir)

    failures = []
    if codec["checked"] == 0:
        failures.append("no profile_loop artifacts to decode")
    for name in codec["mismatched"]:
        failures.append(f"{name} does not re-encode to its stored data")
    if warm["doc"] != cold["doc"]:
        failures.append("warm suite JSON differs from cold suite JSON")
    cold_stats, warm_stats = cold["loop_cache"], warm["loop_cache"]
    if cold_stats["misses"] == 0:
        failures.append("cold pass recorded no loop-cache misses")
    served = warm_stats["disk_hits"] + warm_stats["hits"]
    total = served + warm_stats["misses"]
    ratio = served / total if total else 0.0
    if ratio < HIT_RATIO_THRESHOLD:
        failures.append(
            f"warm hit ratio {ratio:.3f} below {HIT_RATIO_THRESHOLD} "
            f"({warm_stats['misses']} loop(s) re-scheduled)"
        )
    for stats, label in ((cold_stats, "cold"), (warm_stats, "warm")):
        if stats["corrupt"]:
            failures.append(f"{label} pass counted {stats['corrupt']} corrupt")

    print(
        f"cache smoke: cold {cold['elapsed_s']:.2f}s "
        f"({cold_stats['misses']} loops computed) -> warm "
        f"{warm['elapsed_s']:.2f}s ({served} served from cache, "
        f"hit ratio {ratio:.3f}), byte-identical="
        f"{warm['doc'] == cold['doc']}, wall {wall:.2f}s; "
        f"{codec['checked']} profile artifacts re-encoded, "
        f"{len(codec['mismatched'])} mismatched"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
