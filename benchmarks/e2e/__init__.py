"""End-to-end benchmark of the reproduction: five workloads, one ruler.

``python3 benchmarks/e2e/run.py`` (or ``PYTHONPATH=src python -m
benchmarks.e2e``) runs every workload of ``BENCHMARK.json`` in a fresh
subprocess and prints each end-to-end and per-layer metric by name; see
``README.md`` in this directory.  Nothing under ``src/`` knows about this
package: the layers are timed from outside.
"""
