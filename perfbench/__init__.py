"""The repository's end-to-end benchmark: four workloads, a traced per-layer run.

Entry points: ``python3 perfbench/run.py`` (one run of one workload) and
``python3 perfbench/steady.py`` (repeated interleaved runs with a spread
report).  ``catalog.json`` records each workload's op, inputs and layers
and the per-layer → end-to-end mapping.
"""
