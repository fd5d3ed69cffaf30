"""Benchmark of the feature-construction engine: one command, several
workloads, end-to-end metrics from untraced runs and per-layer metrics
from a traced run. See perfbench/README.md."""
