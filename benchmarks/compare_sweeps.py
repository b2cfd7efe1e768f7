"""Compare a fresh ``BENCH_sweeps.json`` against the committed baseline.

The sweep analogue of ``compare_baseline.py``: cell-level metrics are
diffed against ``benchmarks/sweeps_baseline.json`` with the same two
enforcement tiers plus the same monotone-axis check, and the same exit
semantics (non-zero on any gated regression):

* **gated per-cell metrics** (:data:`GATED_CELL_METRICS`) are the
  *deterministic* ones — flow-cache ``hit_rate``, the cache-effective
  ``memory_accesses_per_lookup``, the modelled ``energy_per_packet_j``
  and ``matched_fraction``.  Given the spec's per-cell seeding these
  are bit-stable across runs and runners, so a >25% drift (default
  ``--fail-threshold 0.75``) is a real behaviour change, never noise.
  A gated metric (or a whole baseline cell) vanishing from the current
  run also fails — grid coverage must not silently shrink.
* **informational metrics** (``throughput_pps``, ``elapsed_s``,
  line-rate headroom) are wall-clock and runner-sensitive: warn-only.
* **monotone axes**: within every group of cells that differ *only* in
  ``cache_entries``, the cached cells' ``hit_rate`` must be
  non-decreasing as the cache grows (up to ``--monotone-tolerance``).
  A bigger cache serving a colder hit rate is the inverted-scaling
  shape no per-cell baseline ratio can see.  A run with *no* such
  group (one non-zero cache size) checks nothing, and fails for it.

Usage::

    python benchmarks/compare_sweeps.py BENCH_sweeps.json \
        benchmarks/sweeps_baseline.json [--allow-missing]

``--allow-missing`` downgrades baseline cells absent from the current
run (and an empty monotone axis) to warnings — for local
``--filter``\\ ed sweeps; CI runs without it, so the quick grid must
stay a superset of the baseline.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: Per-cell metric leaves enforced as hard gates (deterministic given
#: the spec's seeded workloads).
GATED_CELL_METRICS = frozenset({
    "hit_rate",
    "memory_accesses_per_lookup",
    "energy_per_packet_j",
    "matched_fraction",
})

#: Per-cell metric leaves that improve downward.
_LOWER_IS_BETTER = frozenset({
    "memory_accesses_per_lookup",
    "energy_per_packet_j",
    "elapsed_s",
})


def _cells(artifact: dict) -> dict[str, dict]:
    cells = artifact.get("cells")
    if not isinstance(cells, dict):
        raise ValueError("artifact has no 'cells' mapping")
    return cells


def _ratio(key: str, base: float, cur: float) -> float:
    if base == 0 or cur == 0:
        # Both zero is a exact match; one-sided zero is a collapse.
        return 1.0 if base == cur else float("nan")
    return base / cur if key in _LOWER_IS_BETTER else cur / base


def _cache_group_key(cell_id: str) -> str | None:
    """The cell's coordinates with the cache-entries field blanked —
    cells sharing a key differ only in cache size."""
    blanked, n = re.subn(r"/e\d+w", "/e*w", cell_id)
    return blanked if n == 1 else None


def check_monotone_cache_axis(
    current: dict, tolerance: float, require_groups: bool = False
) -> tuple[list[str], list[str]]:
    """``hit_rate`` must be non-decreasing along the cache_entries axis
    inside every otherwise-identical cell group; with ``require_groups``
    a grid without a single such group is itself a failure (a gate
    that checked nothing did not hold)."""
    groups: dict[str, list[tuple[int, float]]] = {}
    for cell_id, metrics in _cells(current).items():
        hit = metrics.get("hit_rate")
        entries = metrics.get("cache_entries")
        if hit is None or not entries:
            continue
        key = _cache_group_key(cell_id)
        if key is not None:
            groups.setdefault(key, []).append((int(entries), float(hit)))
    lines: list[str] = []
    failures: list[str] = []
    checked = 0
    for key in sorted(groups):
        series = sorted(groups[key])
        if len(series) < 2:
            continue
        checked += 1
        broken = [
            f"e{prev_e} (hit {prev:.3f}) -> e{e} (hit {val:.3f})"
            for (prev_e, prev), (e, val) in zip(series, series[1:])
            if val < tolerance * prev
        ]
        if broken:
            failures.append(f"monotone:{key}")
            lines.append(
                f"- :x: `{key}` hit rate must not fall as the cache "
                f"grows (tolerance {tolerance:.0%}): {'; '.join(broken)}"
            )
    header = [
        "",
        "### Monotone cache axis (current run)",
        "",
        f"- {checked} cell groups checked: hit rate non-decreasing "
        f"along cache_entries"
        + (f", {len(failures)} inverted" if failures else ", all held"),
    ]
    if not checked and require_groups:
        failures.append("monotone:no-cell-groups")
        lines.append(
            "- :x: no group of cells differs only in a non-zero "
            "`cache_entries`: the axis was not checked at all"
        )
    return header + lines, failures


def compare(
    current: dict,
    baseline: dict,
    threshold: float,
    fail_threshold: float,
    monotone_tolerance: float = 0.9,
    allow_missing: bool = False,
    require_groups: bool = False,
) -> tuple[str, list[str]]:
    """Markdown report plus the list of failed gated cell metrics."""
    cur_cells, base_cells = _cells(current), _cells(baseline)
    shared = sorted(set(cur_cells) & set(base_cells))
    lines = [
        "## Sweep grid vs committed baseline",
        "",
        f"{len(cur_cells)} current cells, {len(base_cells)} baseline "
        f"cells, {len(shared)} shared.",
        "",
        "| cell | metric | baseline | current | ratio (>1 = better) | |",
        "| --- | --- | ---: | ---: | ---: | --- |",
    ]
    flagged = 0
    failures: list[str] = []
    shown_ok = 0
    for cell_id in shared:
        base_m, cur_m = base_cells[cell_id], cur_cells[cell_id]
        keys = sorted(
            k
            for k, v in base_m.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        )
        for key in keys:
            b = float(base_m[key])
            gated = key in GATED_CELL_METRICS
            if key not in cur_m:
                if gated:
                    failures.append(f"{cell_id}:{key}")
                    lines.append(
                        f"| `{cell_id}` | `{key}` | {b:g} | *missing* "
                        f"| — | :x: gated |"
                    )
                continue
            c = float(cur_m[key])
            ratio = _ratio(key, b, c)
            mark = ""
            if gated and (ratio != ratio or ratio < fail_threshold):
                mark = ":x: gated"
                failures.append(f"{cell_id}:{key}")
            elif gated and ratio < threshold:
                mark = "gated"
            elif not gated and ratio == ratio and ratio < threshold:
                mark = ":warning:"
                flagged += 1
            if mark:
                lines.append(
                    f"| `{cell_id}` | `{key}` | {b:g} | {c:g} "
                    f"| {ratio:.2f} | {mark} |"
                )
            else:
                shown_ok += 1
    lines.append(
        f"| *({shown_ok} unremarkable cell metrics elided)* | | | | | |"
    )
    missing = sorted(set(base_cells) - set(cur_cells))
    if missing:
        label = ":warning:" if allow_missing else ":x: gated"
        lines += ["", f"Baseline cells missing from this run ({label}):"]
        lines += [f"- `{cell_id}`" for cell_id in missing]
        if not allow_missing:
            failures.extend(f"{cell_id}:missing" for cell_id in missing)
    new = sorted(set(cur_cells) - set(base_cells))
    if new:
        lines += [
            "",
            f"{len(new)} new cells (no baseline yet): "
            + ", ".join(f"`{c}`" for c in new[:8])
            + (" ..." if len(new) > 8 else ""),
        ]
    mono_lines, mono_failures = check_monotone_cache_axis(
        current, monotone_tolerance, require_groups
    )
    lines += mono_lines
    failures.extend(mono_failures)
    lines += [
        "",
        f"{flagged} informational cell metrics below the "
        f"{threshold:.0%} warn threshold.",
    ]
    if failures:
        lines += [
            "",
            f"**FAIL**: gated sweep metric(s) regressed more than "
            f"{1 - fail_threshold:.0%}, vanished, or inverted: "
            + ", ".join(f"`{k}`" for k in sorted(set(failures))[:12])
            + (" ..." if len(set(failures)) > 12 else ""),
        ]
    return "\n".join(lines), sorted(set(failures))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh BENCH_sweeps.json")
    parser.add_argument(
        "baseline", help="committed benchmarks/sweeps_baseline.json"
    )
    parser.add_argument("--threshold", type=float, default=0.8,
                        help="ratio below which a row is flagged (warn)")
    parser.add_argument("--fail-threshold", type=float, default=0.75,
                        help="ratio below which a GATED cell metric fails")
    parser.add_argument("--monotone-tolerance", type=float, default=0.9,
                        help="noise allowance for the cache-axis hit-rate "
                             "monotone check")
    parser.add_argument("--allow-missing", action="store_true",
                        help="warn (instead of fail) on baseline cells "
                             "absent from the current run and on an "
                             "empty monotone axis — for local "
                             "--filter'ed sweeps")
    args = parser.parse_args(argv)
    try:
        with open(args.current, encoding="utf-8") as fh:
            current = json.load(fh)
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"sweep comparison skipped: {exc}", file=sys.stderr)
        return 0  # missing inputs stay non-fatal (fresh checkouts)
    try:
        report, failures = compare(
            current,
            baseline,
            args.threshold,
            args.fail_threshold,
            monotone_tolerance=args.monotone_tolerance,
            allow_missing=args.allow_missing,
            require_groups=not args.allow_missing,
        )
    except ValueError as exc:
        print(f"sweep comparison failed: {exc}", file=sys.stderr)
        return 1
    print(report)
    if failures:
        print(
            f"gated sweep regression(s): {', '.join(failures[:12])}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
