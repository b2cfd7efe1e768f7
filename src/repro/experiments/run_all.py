"""Regenerate every table and figure in one run
(``python -m repro.cli tables [--quick] [-o FILE]``).

One :class:`~repro.experiments.common.Pipeline` is shared so each
workload is generated/built exactly once across tables.
"""

from __future__ import annotations

import time

from . import (
    ablations,
    claims,
    figures,
    section53,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from .common import Pipeline

SECTIONS = (
    ("Figures 1-3 and 5", figures.report),
    ("Table 2", table2.report),
    ("Table 3", table3.report),
    ("Table 4", table4.report),
    ("Table 5", table5.report),
    ("Table 6", table6.report),
    ("Table 7", table7.report),
    ("Table 8", table8.report),
    ("Section 5.3", section53.report),
    ("Ablations", ablations.report),
    ("Headline claims", claims.report),
)


def run_all(quick: bool = False, seed: int = 7) -> str:
    pipe = Pipeline(seed=seed, quick=quick)
    parts = []
    for name, fn in SECTIONS:
        t0 = time.time()
        body = fn(pipe)
        parts.append(f"## {name}  (took {time.time() - t0:.1f}s)\n\n```\n{body}\n```")
    return "\n\n".join(parts)
