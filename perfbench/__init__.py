"""Benchmark of the ratapprox pipeline; run it with ``python3 perfbench/run.py``."""
