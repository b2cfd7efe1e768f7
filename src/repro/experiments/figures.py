"""Figures 1-3 (the Table 1 example) and Figure 5 (the FSM execution).

Figure 1: HiCuts cuts the Table 1 ruleset's root into 4 on field 0 and
one child into 2 on field 4 (binth 3).  Figure 2 is the geometric view of
those cuts.  Figure 3: HyperCuts performs a single 2x2 cut on fields 0
and 4.  The builders reproduce the exact shapes with spfac=2 (the paper's
illustration omits spfac; 2 is the value under which eq (1)/(2) produce
the drawn cuts).

Figure 5's FSM is rendered as an execution trace of the cycle-accurate
simulator on a small workload.
"""

from __future__ import annotations


from ..algorithms import DecisionTree, build_hicuts, build_hypercuts
from ..classbench import generate_ruleset, generate_trace
from ..core.rules import DEMO_SCHEMA, make_demo_ruleset
from ..core.ruleset import RuleSet
from ..hw import build_memory_image, figure5_trace
from .common import shape_check

#: Parameters of the paper's illustration (Figures 1-3).
DEMO_BINTH = 3
DEMO_SPFAC = 2


def demo_ruleset() -> RuleSet:
    """Table 1, verbatim."""
    return RuleSet(make_demo_ruleset(), DEMO_SCHEMA, "table1")


def figure1_tree() -> DecisionTree:
    """The HiCuts decision tree of Figure 1."""
    return build_hicuts(
        demo_ruleset(), binth=DEMO_BINTH, spfac=DEMO_SPFAC,
        redundancy_elimination=False,
    )


def figure3_tree() -> DecisionTree:
    """The HyperCuts decision tree of Figure 3 (heuristics off, as the
    illustration cuts the full region)."""
    return build_hypercuts(
        demo_ruleset(), binth=DEMO_BINTH, spfac=DEMO_SPFAC,
        redundancy_elimination=False, region_compaction=False,
        push_common=False,
    )


def render_tree(tree: DecisionTree, title: str) -> str:
    """ASCII rendering of a decision tree (ellipse = internal node with
    its cut spec, rectangle = leaf with its rules, as in the figures)."""
    lines = [title]

    def walk(nid: int, prefix: str) -> None:
        node = tree.nodes[nid]
        if node.is_leaf:
            rules = ", ".join(f"R{int(r)}" for r in node.rule_ids)
            lines.append(f"{prefix}[{rules}]")
            return
        cuts = " x ".join(
            f"{c} cuts on Field {d}" for d, c in zip(node.cut_dims, node.cut_counts)
        )
        lines.append(f"{prefix}({cuts})")
        seen: set[int] = set()
        for child in node.children:
            c = int(child)
            if c < 0 or c in seen:
                continue
            seen.add(c)
            walk(c, prefix + "  ")

    walk(0, "")
    return "\n".join(lines)


def figure2_grid(tree: DecisionTree, field_x: int = 0, field_y: int = 4) -> str:
    """ASCII version of Figure 2: the (field0, field4) plane with rule
    extents and the cut lines of the root node."""
    rs = tree.ruleset
    width = 64
    rows = [f"Figure 2: cuts on the Field {field_x} / Field {field_y} plane"]
    root = tree.root
    cut_positions = []
    for d, c in zip(root.cut_dims, root.cut_counts):
        if d == field_x:
            span = 256 // c
            cut_positions = [k * span for k in range(1, c)]
    axis = [" "] * width
    for cut in cut_positions:
        axis[min(cut * width // 256, width - 1)] = "|"
    rows.append("cuts: " + "".join(axis))
    for rule in rs.rules:
        lo, hi = rule.ranges[field_x]
        a = lo * width // 256
        b = max(hi * width // 256, a)
        line = [" "] * width
        for i in range(a, min(b + 1, width)):
            line[i] = "="
        rows.append(f"R{rule.priority:<3d}: " + "".join(line))
    return "\n".join(rows)


def figure1_matches_paper(tree: DecisionTree | None = None) -> list[str]:
    """Assertions that the built tree has the published Figure 1 shape."""
    t = tree or figure1_tree()
    root = t.root
    checks = [
        shape_check("root cut 4 ways on Field 0",
                    root.cut_dims == (0,) and root.cut_counts == (4,)),
    ]
    # Exactly one child is internal; it cuts Field 4 in 2.
    kids = [t.nodes[int(c)] for c in set(map(int, root.children)) if int(c) >= 0]
    internals = [k for k in kids if not k.is_leaf]
    checks.append(shape_check("exactly one child exceeds binth", len(internals) == 1))
    if internals:
        sub = internals[0]
        checks.append(
            shape_check("that child is cut 2 ways on Field 4",
                        sub.cut_dims == (4,) and sub.cut_counts == (2,))
        )
        grandkids = [t.nodes[int(c)] for c in set(map(int, sub.children)) if int(c) >= 0]
        checks.append(
            shape_check(
                "both grandchildren hold exactly binth rules",
                all(g.is_leaf and g.rule_ids.size == DEMO_BINTH for g in grandkids),
            )
        )
    checks.append(
        shape_check(
            "every leaf holds at most binth rules",
            all(n.rule_ids.size <= DEMO_BINTH for n in t.nodes if n.is_leaf),
        )
    )
    return checks


def figure3_matches_paper(tree: DecisionTree | None = None) -> list[str]:
    """Assertions that the built tree has the published Figure 3 shape."""
    t = tree or figure3_tree()
    root = t.root
    leaf_sets = sorted(
        tuple(int(r) for r in t.nodes[int(c)].rule_ids)
        for c in set(map(int, root.children)) if int(c) >= 0
    )
    return [
        shape_check("root cut 2x2 on Fields 0 and 4",
                    root.cut_dims == (0, 4) and root.cut_counts == (2, 2)),
        shape_check("all four children are leaves",
                    all(t.nodes[int(c)].is_leaf for c in root.children)),
        shape_check(
            "leaf contents match Figure 3",
            leaf_sets == [(0, 2, 5), (0, 4, 6), (1, 3), (7, 8, 9)],
        ),
    ]


def figure5_report(n_packets: int = 6) -> str:
    """The Figure 5 flow as an execution trace of the FSM."""
    rs = generate_ruleset("acl1", 120, seed=3)
    tree = build_hicuts(rs, binth=30, spfac=4, hw_mode=True)
    image = build_memory_image(tree, speed=1)
    trace = generate_trace(rs, n_packets, seed=4)
    events = figure5_trace(image, trace)
    lines = ["Figure 5: FSM execution trace (cycle-accurate simulator)"]
    for e in events:
        lines.append(f"  cycle {e.cycle:>4d}  {e.state:<10s} {e.detail}")
    return "\n".join(lines)


def report(pipeline=None) -> str:
    t1 = figure1_tree()
    t3 = figure3_tree()
    parts = [
        render_tree(t1, "Figure 1: HiCuts decision tree (binth 3)"),
        "",
        "\n".join(figure1_matches_paper(t1)),
        "",
        figure2_grid(t1),
        "",
        render_tree(t3, "Figure 3: HyperCuts decision tree (binth 3)"),
        "",
        "\n".join(figure3_matches_paper(t3)),
        "",
        figure5_report(),
    ]
    return "\n".join(parts)


if __name__ == "__main__":  # pragma: no cover
    print(report())
