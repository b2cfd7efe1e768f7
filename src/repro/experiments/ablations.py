"""Ablations of the paper's design choices (X1-X3 below).

* **X1 speed 0 vs 1** — eq (5) vs eq (7): contiguous leaf packing saves
  words but costs cycles whenever a leaf straddles a word boundary.
* **X2 cut floor/cap** — the Section 3 modification itself: starting the
  doubling ladder at 32 and capping at 256 vs the original 2/unbounded,
  measured in build operations (energy) and structure quality.
* **X3 binth / spfac sensitivity** — the paper's speed-vs-memory dials.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algorithms import OpCounter, build_hicuts
from ..classbench import generate_ruleset, generate_trace
from ..energy import Sa1100Model
from ..hw import Accelerator, build_memory_image
from .common import MEASUREMENT_CAPACITY_WORDS, Pipeline, render_table, shape_check


@dataclass
class SpeedRow:
    speed: int
    bytes_used: int
    mean_occupancy: float
    worst_cycles: int


def speed_ablation(
    family: str = "acl1", size: int = 2191, seed: int = 7,
    trace_packets: int = 20000,
) -> list[SpeedRow]:
    """X1: the same tree laid out with speed=0 and speed=1."""
    rs = generate_ruleset(family, size, seed=seed)
    trace = generate_trace(rs, trace_packets, seed=seed + 1)
    tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
    rows = []
    for speed in (0, 1):
        image = build_memory_image(
            tree, speed=speed, capacity_words=MEASUREMENT_CAPACITY_WORDS
        )
        run = Accelerator(image).run_trace(trace)
        rows.append(
            SpeedRow(
                speed=speed,
                bytes_used=image.bytes_used,
                mean_occupancy=run.mean_occupancy(),
                worst_cycles=image.worst_case_cycles(),
            )
        )
    return rows


@dataclass
class CutRow:
    label: str
    start: int
    cap: int
    build_energy_j: float
    bytes_used: int
    worst_cycles: int


def cut_ladder_ablation(
    family: str = "acl1", size: int = 2191, seed: int = 7
) -> list[CutRow]:
    """X2: the 32..256 ladder vs the original 2..unbounded, in hw mode."""
    rs = generate_ruleset(family, size, seed=seed)
    model = Sa1100Model()
    rows = []
    for label, start, cap in (
        ("paper (32..256)", 32, 256),
        ("original (2..256)", 2, 256),
        ("wide (2..4096... grid max 256)", 2, 256 * 1),
        ("floor only (32..32)", 32, 32),
    ):
        ops = OpCounter()
        tree = build_hicuts(
            rs, binth=30, spfac=4, hw_mode=True,
            start_cuts=start, max_cuts=cap, ops=ops,
        )
        image = build_memory_image(
            tree, speed=1, capacity_words=MEASUREMENT_CAPACITY_WORDS
        )
        rows.append(
            CutRow(
                label=label,
                start=start,
                cap=cap,
                build_energy_j=model.build_energy_j(ops),
                bytes_used=image.bytes_used,
                worst_cycles=image.worst_case_cycles(),
            )
        )
    return rows


@dataclass
class ParamRow:
    binth: int
    spfac: float
    bytes_used: int
    mean_occupancy: float
    worst_cycles: int


def binth_spfac_ablation(
    family: str = "acl1", size: int = 2191, seed: int = 7,
    trace_packets: int = 20000,
) -> list[ParamRow]:
    """X3: the speed/memory dials the paper exposes."""
    rs = generate_ruleset(family, size, seed=seed)
    trace = generate_trace(rs, trace_packets, seed=seed + 1)
    rows = []
    for binth in (8, 16, 30, 60):
        for spfac in (1, 2, 4):
            tree = build_hicuts(rs, binth=binth, spfac=spfac, hw_mode=True)
            image = build_memory_image(
                tree, speed=1, capacity_words=MEASUREMENT_CAPACITY_WORDS
            )
            run = Accelerator(image).run_trace(trace)
            rows.append(
                ParamRow(
                    binth=binth,
                    spfac=spfac,
                    bytes_used=image.bytes_used,
                    mean_occupancy=run.mean_occupancy(),
                    worst_cycles=image.worst_case_cycles(),
                )
            )
    return rows


@dataclass
class HeuristicRow:
    heuristic: str
    bytes_used: int
    mean_occupancy: float
    worst_cycles: int
    build_energy_j: float


def dim_heuristic_ablation(
    family: str = "acl1", size: int = 2191, seed: int = 7,
    trace_packets: int = 20000,
) -> list[HeuristicRow]:
    """X4: HiCuts dimension-choice heuristics (Gupta & McKeown list
    several; the paper uses min-max-rules)."""
    from ..algorithms.hicuts import DIM_HEURISTICS

    rs = generate_ruleset(family, size, seed=seed)
    trace = generate_trace(rs, trace_packets, seed=seed + 1)
    model = Sa1100Model()
    rows = []
    for heuristic in DIM_HEURISTICS:
        ops = OpCounter()
        tree = build_hicuts(
            rs, binth=30, spfac=4, hw_mode=True, dim_heuristic=heuristic,
            ops=ops,
        )
        image = build_memory_image(
            tree, speed=1, capacity_words=MEASUREMENT_CAPACITY_WORDS
        )
        run = Accelerator(image).run_trace(trace)
        rows.append(
            HeuristicRow(
                heuristic=heuristic,
                bytes_used=image.bytes_used,
                mean_occupancy=run.mean_occupancy(),
                worst_cycles=image.worst_case_cycles(),
                build_energy_j=model.build_energy_j(ops),
            )
        )
    return rows


def report(pipeline: Pipeline | None = None) -> str:
    quick = bool(pipeline and pipeline.quick)
    size = 1000 if quick else 2191
    packets = 5000 if quick else 20000

    s_rows = speed_ablation(size=size, trace_packets=packets)
    s_table = render_table(
        "X1: speed parameter (eq 5 vs eq 7)",
        ["speed", "bytes", "mean occupancy", "worst cycles"],
        [[r.speed, r.bytes_used, f"{r.mean_occupancy:.3f}", r.worst_cycles]
         for r in s_rows],
    )
    c_rows = cut_ladder_ablation(size=size)
    c_table = render_table(
        "X2: cut ladder (Section 3 modification)",
        ["config", "build J", "bytes", "worst cycles"],
        [[r.label, f"{r.build_energy_j:.3E}", r.bytes_used, r.worst_cycles]
         for r in c_rows],
    )
    p_rows = binth_spfac_ablation(size=size, trace_packets=packets)
    p_table = render_table(
        "X3: binth / spfac sensitivity (HiCuts hw, speed=1)",
        ["binth", "spfac", "bytes", "mean occupancy", "worst cycles"],
        [[r.binth, r.spfac, r.bytes_used, f"{r.mean_occupancy:.3f}",
          r.worst_cycles] for r in p_rows],
    )
    h_rows = dim_heuristic_ablation(size=size, trace_packets=packets)
    h_table = render_table(
        "X4: HiCuts dimension-choice heuristics (hw mode)",
        ["heuristic", "bytes", "mean occupancy", "worst cycles", "build J"],
        [[r.heuristic, r.bytes_used, f"{r.mean_occupancy:.3f}",
          r.worst_cycles, f"{r.build_energy_j:.3E}"] for r in h_rows],
    )
    checks = [
        shape_check(
            "speed=0 never uses more memory than speed=1",
            s_rows[0].bytes_used <= s_rows[1].bytes_used,
        ),
        shape_check(
            "speed=1 mean occupancy <= speed=0 (eq 7 <= eq 5)",
            s_rows[1].mean_occupancy <= s_rows[0].mean_occupancy + 1e-9,
        ),
        shape_check(
            "32-cut floor builds with less energy than the 2-cut ladder",
            c_rows[0].build_energy_j < c_rows[1].build_energy_j,
        ),
    ]
    return "\n\n".join([s_table, c_table, p_table, h_table, "\n".join(checks)])


if __name__ == "__main__":  # pragma: no cover
    print(report())
