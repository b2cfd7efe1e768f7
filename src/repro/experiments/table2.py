"""Table 2 — memory needed for the search structure and ruleset (bytes).

Software columns: the modelled in-memory footprint of the original
HiCuts/HyperCuts structures (node headers + child pointers + rule
pointers + the ruleset; ``DecisionTree.software_memory_bytes`` states
the conventions).  Hardware columns:
used 4800-bit words × 600 bytes, exactly the paper's metric.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.metrics import fmt_int
from .common import Pipeline, render_table
from .paper_values import ACL1_SIZES, TABLE2_BYTES


@dataclass
class Table2Row:
    size: int
    sw_hicuts: int
    sw_hypercuts: int
    hw_hicuts: int
    hw_hypercuts: int


def run(pipeline: Pipeline | None = None) -> list[Table2Row]:
    pipe = pipeline or Pipeline()
    rows = []
    for size in pipe.acl1_sizes():
        wl = pipe.workload("acl1", size)
        rows.append(
            Table2Row(
                size=size,
                sw_hicuts=wl.sw["hicuts"].tree.software_memory_bytes(),
                sw_hypercuts=wl.sw["hypercuts"].tree.software_memory_bytes(),
                hw_hicuts=wl.hw["hicuts"].image.bytes_used,
                hw_hypercuts=wl.hw["hypercuts"].image.bytes_used,
            )
        )
    return rows


def report(pipeline: Pipeline | None = None) -> str:
    rows = run(pipeline)
    paper = {
        size: {k: v[i] for k, v in TABLE2_BYTES.items()}
        for i, size in enumerate(ACL1_SIZES)
    }
    body = []
    for r in rows:
        p = paper.get(r.size, {})
        body.append(
            [
                r.size,
                fmt_int(r.sw_hicuts),
                fmt_int(p.get("sw_hicuts", 0)),
                fmt_int(r.sw_hypercuts),
                fmt_int(p.get("sw_hypercuts", 0)),
                fmt_int(r.hw_hicuts),
                fmt_int(p.get("hw_hicuts", 0)),
                fmt_int(r.hw_hypercuts),
                fmt_int(p.get("hw_hypercuts", 0)),
            ]
        )
    return render_table(
        "Table 2: search structure + ruleset memory (bytes), spfac=4, speed=1",
        ["rules", "swHC", "(paper)", "swHyC", "(paper)",
         "hwHC", "(paper)", "hwHyC", "(paper)"],
        body,
    )


if __name__ == "__main__":  # pragma: no cover
    print(report())
