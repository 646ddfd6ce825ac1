"""Benchmark for balancebench: two workloads, end-to-end and per-layer metrics.

Run one workload with::

    python3 perfbench/run.py --workload rep_full_n250 --seed 1 --seconds 30 --trace 0

The metric and workload names are declared in ``BENCHMARK.json`` at the root
of the repository; ``perfbench/README.md`` says what each one measures.
"""
