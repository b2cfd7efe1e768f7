"""Render a ``BENCH_sweeps.json`` artifact as a markdown matrix.

The CI sweep jobs append this to ``$GITHUB_STEP_SUMMARY``: one table
per ClassBench family (rows = Table-4 ruleset sizes, columns = the
engine configurations the grid crossed them with), followed by a
line-rate feasibility roll-up against OC-48/192/768.  Column labels
only name the axes that actually vary in the artifact, so a quick grid
renders compact while the nightly grid stays unambiguous.
"""

from __future__ import annotations


def _column_key(m: dict) -> tuple:
    return (
        m["backend"],
        m["cache_entries"],
        m["skew"],
        m["shards"],
        m["shard_mode"],
        m["packet_bytes"],
        m["churn"],
    )


def _column_label(key: tuple, varying: dict[str, bool]) -> str:
    backend, entries, skew, shards, mode, pkt, churn = key
    parts = [backend]
    if varying["cache_entries"]:
        parts.append("bare" if not entries else f"e{entries}")
    if varying["skew"]:
        parts.append(f"z{skew:g}")
    if varying["shards"] or varying["shard_mode"]:
        parts.append(f"s{shards}" + (f"-{mode}" if varying["shard_mode"] else ""))
    if varying["packet_bytes"]:
        parts.append(f"p{pkt}")
    if varying["churn"]:
        parts.append(f"u{churn}")
    return " ".join(parts)


def _fmt_cell(m: dict) -> str:
    text = f"{m['throughput_pps']:,} pps"
    hit = m.get("hit_rate")
    if hit is not None:
        text += f"<br>hit {100 * hit:.1f}%"
    p95 = m.get("update_latency_p95_ms")
    if p95 is not None:
        text += f"<br>upd p95 {p95:.2f} ms"
    return text


def render_matrix(artifact: dict) -> str:
    """Markdown for one sweep artifact (``SweepResult.to_dict()`` or a
    loaded ``BENCH_sweeps.json``)."""
    spec = artifact.get("spec", {})
    cells: dict[str, dict] = artifact.get("cells", {})
    lines = [
        f"## Sweep matrix — `{spec.get('name', 'sweep')}`",
        "",
        f"{len(cells)} cells, {artifact.get('elapsed_s', 0):.1f}s wall clock, "
        f"seed {spec.get('seed')}.",
    ]
    if not cells:
        lines += ["", "*(no cells — empty sweep or over-narrow filter)*"]
        return "\n".join(lines)
    metrics = list(cells.values())
    varying = {
        axis: len({m[axis] for m in metrics}) > 1
        for axis in (
            "cache_entries", "skew", "shards", "shard_mode",
            "packet_bytes", "churn",
        )
    }
    families = sorted({m["family"] for m in metrics})
    for family in families:
        fam = [m for m in metrics if m["family"] == family]
        sizes = sorted({m["size"] for m in fam})
        columns = sorted({_column_key(m) for m in fam})
        by_coord = {(_column_key(m), m["size"]): m for m in fam}
        lines += ["", f"### {family}", ""]
        header = [f"{family} rules"] + [
            _column_label(c, varying) for c in columns
        ]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + " ---: |" * len(header))
        for size in sizes:
            row = [f"{size:,}"]
            for col in columns:
                m = by_coord.get((col, size))
                row.append(_fmt_cell(m) if m is not None else "—")
            lines.append("| " + " | ".join(row) + " |")
    # Line-rate feasibility roll-up.
    rates: dict[str, list[bool]] = {}
    for m in metrics:
        for rate, entry in m.get("line_rates", {}).items():
            rates.setdefault(rate, []).append(bool(entry["sustained"]))
    if rates:
        lines += ["", "### Line-rate feasibility (wall-clock pps)", ""]
        for rate in sorted(rates):
            flags = rates[rate]
            lines.append(
                f"- **{rate}**: {sum(flags)}/{len(flags)} cells sustain "
                f"worst-case back-to-back packets"
            )
    return "\n".join(lines)
