"""The repository's benchmark: ``python3 perfbench/run.py --workload NAME``.

See ``perfbench/README.md`` for the workloads and metrics.
"""
