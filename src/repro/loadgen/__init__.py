"""Open-loop load generation against the evaluation service.

``python -m repro loadgen --connect URL`` drives a running service with
Poisson arrivals over a mixed evaluate/suite/campaign/query traffic
profile, measures sustained latency percentiles, goodput and rejection
rate, and can gate on SLO thresholds (``--check``) the way
``repro bench --check`` gates the offline pipeline.  To isolate the
service layer from pipeline compute, point it at ``repro serve --jobs
0`` with ``repro worker --bench-sleep S`` workers attached.
"""

from repro.loadgen.harness import LoadgenError, check_slos, run_load

__all__ = ["LoadgenError", "check_slos", "run_load"]
