"""Table 8 — worst-case number of memory accesses.

Software: static worst path through the original trees under the
software model's access conventions (2 reads per internal node, 1 + one
read per rule at the leaf).  Hardware: the memory-image worst case (internal
fetches after the register-resident root + worst full-leaf scan + the
root-index cycle, which the paper counts since "this result also
represents the worst case number of clock cycles").

The guarantee the paper highlights: the hardware bound is a single-digit
number that certifies minimum bandwidth under worst-case traffic, while
software bounds are an order of magnitude larger and grow faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import Pipeline, render_table, shape_check
from .paper_values import ACL1_SIZES, TABLE8_ACCESSES


@dataclass
class Table8Row:
    size: int
    sw_hicuts: int
    sw_hypercuts: int
    hw_hicuts: int
    hw_hypercuts: int


def run(pipeline: Pipeline | None = None) -> list[Table8Row]:
    pipe = pipeline or Pipeline()
    rows = []
    for size in pipe.acl1_sizes():
        wl = pipe.workload("acl1", size)
        rows.append(
            Table8Row(
                size=size,
                sw_hicuts=wl.sw["hicuts"].tree.stats().worst_case_sw_accesses,
                sw_hypercuts=wl.sw["hypercuts"].tree.stats().worst_case_sw_accesses,
                hw_hicuts=wl.hw["hicuts"].image.worst_case_cycles(),
                hw_hypercuts=wl.hw["hypercuts"].image.worst_case_cycles(),
            )
        )
    return rows


def report(pipeline: Pipeline | None = None) -> str:
    rows = run(pipeline)
    paper = {
        size: {k: v[i] for k, v in TABLE8_ACCESSES.items()}
        for i, size in enumerate(ACL1_SIZES)
    }
    body = []
    for r in rows:
        p = paper.get(r.size, {})
        body.append(
            [
                r.size,
                r.sw_hicuts, p.get("sw_hicuts", "-"),
                r.sw_hypercuts, p.get("sw_hypercuts", "-"),
                r.hw_hicuts, p.get("hw_hicuts", "-"),
                r.hw_hypercuts, p.get("hw_hypercuts", "-"),
            ]
        )
    table = render_table(
        "Table 8: worst-case memory accesses, spfac=4, speed=1",
        ["rules", "swHC", "(paper)", "swHyC", "(paper)",
         "hwHC", "(paper)", "hwHyC", "(paper)"],
        body,
    )
    checks = [
        shape_check(
            "hardware worst case stays single-digit",
            all(r.hw_hicuts <= 9 and r.hw_hypercuts <= 9 for r in rows),
        ),
        shape_check(
            "software worst case exceeds hardware at every size",
            all(
                r.sw_hicuts > r.hw_hicuts and r.sw_hypercuts > r.hw_hypercuts
                for r in rows
            ),
        ),
    ]
    return table + "\n" + "\n".join(checks)


if __name__ == "__main__":  # pragma: no cover
    print(report())
