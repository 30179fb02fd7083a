#!/usr/bin/env python3
"""CI smoke test of overload behavior under real load and light chaos.

Starts ``python -m repro serve`` as a real subprocess with a
low-probability chaos plan installed via ``REPRO_CHAOS`` (injected
HTTP 503s and SQLite busy retries), then drives it with
``python -m repro loadgen --check``: open-loop Poisson arrivals, mixed
traffic, SLO gate on latency/healthz/error-rate.  The run asserts the
service stays responsive and completes every admitted job even while
faults fire — and leaves loadgen's JSON report at the path given as the
first argument (default ``BENCH_load_smoke.json``; CI uploads it as an
artifact).

Exits non-zero on any failure, dumping the server log and the flight
recorder's event ring (chaos injections, shed requests, internal
errors, all trace-correlated) to stderr for post-hoc debugging.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_common import dump_flight_recorder, free_port, wait_healthy

ROOT = Path(__file__).resolve().parent.parent

#: Gentle chaos: enough injections to prove the retry/shedding paths
#: run, low enough that the SLO gate stays meaningful.
CHAOS_PLAN = "http_error_p=0.02,sqlite_busy_p=0.10,seed=2024"

#: The offered load. ~45s of wall clock including drain.
RATE = 40.0
DURATION = 8.0


def main() -> int:
    output = sys.argv[1] if len(sys.argv) > 1 else "BENCH_load_smoke.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}" + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_CHAOS"] = CHAOS_PLAN
    port = free_port()
    with tempfile.TemporaryDirectory() as cache_dir:
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                str(port),
                "--cache-dir",
                cache_dir,
                "--jobs",
                "4",
                "--max-interactive",
                "64",
                "--max-batch",
                "8",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        client = None
        try:
            sys.path.insert(0, str(ROOT / "src"))
            from repro.service import ServiceClient

            client = ServiceClient(port=port, timeout=30)
            wait_healthy(client, server)

            # The generator runs without chaos in its own env: faults
            # belong to the server process, the harness must see them
            # as responses, not cause them.
            loadgen_env = dict(env)
            loadgen_env.pop("REPRO_CHAOS", None)
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "loadgen",
                    "--connect",
                    f"127.0.0.1:{port}",
                    "--rate",
                    str(RATE),
                    "--duration",
                    str(DURATION),
                    "--profile",
                    "mixed",
                    "--scale",
                    "0.02",
                    "--seed",
                    "1",
                    "--drain-timeout",
                    "180",
                    "--output",
                    output,
                    "--check",
                    "--slo-p99-ms",
                    "5000",
                    "--slo-healthz-p99-ms",
                    "250",
                    "--slo-error-max",
                    "0.02",
                ],
                env=loadgen_env,
                timeout=600,
            )
            if result.returncode != 0:
                raise RuntimeError(
                    f"loadgen --check failed (exit {result.returncode})"
                )
            print(f"load smoke passed; report in {output}")
        except Exception:
            dump_flight_recorder(client)
            server.terminate()
            output_text, _ = server.communicate(timeout=30)
            print(
                "--- server log ---\n" + (output_text or ""),
                file=sys.stderr,
            )
            raise
        else:
            server.terminate()
            server.communicate(timeout=30)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
