"""The repository benchmark: three workloads, end to end and layer by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` names the
workloads and every metric.  See ``perfbench/README.md``.
"""
