"""End-to-end and per-layer benchmark of the replicast CLI.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``run.py`` documents the
workloads and metrics.
"""
