"""Sweep-matrix subsystem: paper-scale scenario grids, declaratively.

The paper's evaluation is a matrix — ClassBench acl1/fw1/ipc1 families
at Table-4 sizes against OC-48/192/768 line rates — and this package
turns that shape into infrastructure: a :class:`SweepSpec` names the
grid axes once, :func:`run_sweep` executes every cell through the real
:class:`~repro.serve.Engine` serving path with deterministic per-cell
seeding, and the result lands as a ``BENCH_sweeps.json`` artifact plus
a rendered markdown matrix (:func:`render_matrix`) for the CI step
summary.  ``benchmarks/compare_baseline.py``, the comparator the engine
bench uses, diffs the artifact against the committed
``benchmarks/sweeps_baseline.json`` with the same gated-regression and
monotone-axis rules.

::

    from repro.sweeps import SweepSpec, default_spec, run_sweep

    result = run_sweep(default_spec("quick"))
    result.save("BENCH_sweeps.json")

See ``docs/sweeps.md`` for the spec schema and the CI tiers.
"""

from .matrix import render_matrix
from .runner import ARTIFACT_VERSION, CellResult, SweepResult, run_sweep
from .spec import (
    TIERS,
    SweepCell,
    SweepSpec,
    default_spec,
    match_filters,
    parse_filters,
)

__all__ = [
    "ARTIFACT_VERSION",
    "TIERS",
    "CellResult",
    "SweepCell",
    "SweepSpec",
    "SweepResult",
    "default_spec",
    "match_filters",
    "parse_filters",
    "render_matrix",
    "run_sweep",
]
