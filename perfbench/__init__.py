"""Benchmark of the qinfo toolkit: four workloads, oracles and a traced split.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see README.md in this directory.
"""
