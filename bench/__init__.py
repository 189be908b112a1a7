"""Study benchmark for vfmlab: workloads, layer tracing and a correctness gate.

Run ``python3 bench/run.py --help`` from the repository root.
"""
