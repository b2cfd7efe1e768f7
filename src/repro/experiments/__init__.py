"""Experiment harness: one module per paper table/figure (DESIGN.md §3).

Each module exposes ``run(pipeline) -> rows`` (structured results) and
``report(pipeline) -> str`` (paper-vs-measured text table plus shape
checks).  ``run_all`` regenerates everything.
"""

from .common import Pipeline, Workload

__all__ = ["Pipeline", "Workload"]
