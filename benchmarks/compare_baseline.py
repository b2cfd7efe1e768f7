"""Compare a fresh ``BENCH_engine.json`` against the committed baseline.

Emits a GitHub-flavoured markdown table of current-vs-baseline ratios
for every numeric metric the two files share, so the bench CI job can
append it to ``$GITHUB_STEP_SUMMARY``.

Two enforcement tiers:

* **informational metrics** (ungated ratios, counts, modelled numbers)
  are warn-only — flagged below ``--threshold`` but never fail the
  run;
* **gated metrics** (:data:`GATED_METRICS` — the speedup and
  throughput ratios the acceptance gates assert) FAIL the run (exit 1)
  when they regress below ``--fail-threshold`` (default 0.75, i.e. a >25%
  regression) or disappear from the current results entirely.  Ratios
  of ratios are far less runner-sensitive than absolute pps, which is
  what makes a hard gate tenable here.

A third check kind, **monotone** (:data:`MONOTONE_AXES`), looks only at
the *current* results: a metric family recorded along an axis (e.g.
``*_pipeline_pps`` along ``shards_1 -> shards_2 -> shards_4``) must be
non-decreasing along that axis, up to ``--monotone-tolerance`` (default
0.9 — each step may dip at most 10% below its predecessor before the
run fails).  This is the "sharding must not make serving slower" gate:
it catches the inverted-scaling shape no per-metric baseline ratio can
see, because every point can individually beat its baseline while the
axis still slopes downward.

**The ledger owns wall-clock.**  The committed ``baseline.json`` holds
no pps / seconds row: only same-run ratios (the gated ones pinned at
the floor their bench test asserts), counts and modelled numbers, which
mean the same on every host.  Absolute throughput and latency are
tracked by ``benchmarks/ledger/`` (``run.py`` / ``compare.py``), which
measures parent and change on one host, back to back.

**Host fingerprint.**  ``BENCH_engine.json`` carries the ledger's
``fingerprint`` block (CPU count and model, Python, NumPy, platform)
plus the FlatTree ``kernel`` that served (``native`` / ``portable``).
When two full ``BENCH_engine.json`` files are compared, wall-clock
metrics (``*pps*``, ``*_s``, ``*_ms``, ``*_ms_per_run``) are only
diffed when both carry the *same* host fields (:data:`HOST_FIELDS`);
otherwise their rows read ``refused`` — a pps measured on another
machine, or on one nobody recorded, is not a baseline.  Same-run
ratios, counts and modelled numbers are diffed on any host, and every
gate still applies.

Usage::

    python benchmarks/compare_baseline.py BENCH_engine.json \
        benchmarks/baseline.json [--threshold 0.8] [--fail-threshold 0.75]

Metrics whose key marks them as costs (``*_s``, ``*_ms``,
``*_ms_per_run``, ``*_j``, ``*_accesses_per_lookup``) improve downward;
everything else (pps, speedups, rates) improves upward.  Ratios are
always oriented so > 1.0 means "better than baseline".
"""

from __future__ import annotations

import argparse
import json
import sys

#: Flattened metric keys enforced as hard gates: a >25% regression (or
#: the metric vanishing) fails the comparison instead of warning.
GATED_METRICS = frozenset({
    # These are pinned in baseline.json at the floor the bench test
    # asserts (5.0, 0.8, 5.0, 3.0, 0.9), not at one host's measured value.
    "flat_kernel_gate.speedup",
    "flat_kernel_scaling.large_over_small",
    # Pinned at its floor (5.0): the native walk over the portable one,
    # same tree, same run.  The bench test is skipped where the library
    # cannot be built, so there the metric is missing and this fails:
    # a host that lost its compiler should not read as green.
    "native_kernel.speedup",
    # Pinned at its floor (0.85): the accelerator's batch_stats (matches
    # plus occupancy counted in the C loop) over the bare native walk,
    # same tree, same run.  Skipped, so missing, where the library
    # cannot be built, like native_kernel.speedup.
    "accelerator_occupancy.ratio",
    "update_patch.speedup",
    "update_cache_retention.retention",
    "flowcache.effective_lookup_speedup",
    # Pinned at its floor (1.5): one coalesced dispatch against
    # 2048-packet dispatches on the same miss path, same run.
    "dispatch_coalescing.speedup",
    "fault_recovery.retried_throughput_ratio",
    "multi_tenant.aggregate_ratio",
    # The graph's own added cost against the same run's uncached engine
    # (pinned at its floor, 3.0).  ``stage_graph.overhead_ratio`` is
    # reported but not gated: with the cached classify as denominator it
    # fell whenever that got faster.
    "stage_graph.uncached_over_added",
    # Pinned in baseline.json at its floor (1.0, "a cache never serves
    # slower than no cache"), not at one host's measured value; the
    # bench test asserts the floor itself.
    "flowcache_spill.cached_vs_bare_ratio",
    # Pinned at its floor (0.8): in-process shards serve within 20% of
    # one inline shard on the same chunk grid, same run.
    "inprocess_shards.over_inline",
    # Pinned at its floor (0.85): a streamed session keeps 85% of the
    # bare ``iter_trace_file`` + ``pipeline.run`` loop it wraps, same
    # run, same parser on both sides.
    "stream_session.over_direct_loop",
})

#: Fingerprint fields that make two hosts' wall-clock numbers
#: incomparable (the ledger's ``compare.py`` refuses on the first five;
#: ``kernel`` is ``native.status()``'s — a pps served by the C walk is
#: no baseline for one served by the NumPy walk, same machine or not).
HOST_FIELDS = ("nproc", "cpu", "python", "numpy", "platform", "kernel")

#: Metric families that must be non-decreasing along an ordered axis of
#: the CURRENT results: (family key, ordered point keys, tolerance
#: floor).  Points absent from the results are skipped (a reduced bench
#: run is not a failure); an inversion beyond the tolerance is.  The
#: per-family floor tightens the CLI ``--monotone-tolerance`` — the
#: effective tolerance is whichever of the two is stricter, so the
#: shards families never regress past 5% step-to-step regardless of the
#: flag.
MONOTONE_AXES = (
    ("flowcache_pipeline_pps", ("shards_1", "shards_2", "shards_4"), 0.95),
    ("auto_pipeline_pps", ("shards_1", "shards_2", "shards_4"), 0.95),
)


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in sorted(obj.items()):
            if not prefix and key == "fingerprint":
                continue  # the host, not a metric
            _flatten(f"{prefix}.{key}" if prefix else key, value, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def _host_of(results: dict) -> tuple | None:
    """The host fields of a results file; ``None`` when it has none."""
    fingerprint = results.get("fingerprint")
    if not isinstance(fingerprint, dict):
        return None
    return tuple(fingerprint.get(field) for field in HOST_FIELDS)


def _is_wall_clock(key: str) -> bool:
    # ``flat_pps.hicuts``: the unit can sit in the family name.
    leaf = key.rsplit(".", 1)[-1]
    return "pps" in key or leaf.endswith(("_s", "_ms", "_ms_per_run"))


def _lower_is_better(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return leaf.endswith(
        ("_s", "_ms", "_ms_per_run", "_j", "_accesses_per_lookup")
    )


def check_monotone(
    current: dict, tolerance: float
) -> tuple[list[str], list[str]]:
    """Evaluate :data:`MONOTONE_AXES` against the current results.

    Returns ``(report_lines, failures)``.  Each axis row shows the
    recorded points in order; a step falling below ``tolerance`` times
    its predecessor fails as ``monotone:<family>``.
    """
    cur: dict = {}
    _flatten("", current, cur)
    lines: list[str] = []
    failures: list[str] = []
    for family, points, floor in MONOTONE_AXES:
        eff = max(tolerance, floor)
        series = [
            (p, cur[f"{family}.{p}"])
            for p in points
            if f"{family}.{p}" in cur
        ]
        if len(series) < 2:
            continue
        broken = [
            f"{prev_key} -> {key}"
            for (prev_key, prev), (key, val) in zip(series, series[1:])
            if val < eff * prev
        ]
        shown = ", ".join(f"{key}={val:,.0f}" for key, val in series)
        if broken:
            failures.append(f"monotone:{family}")
            lines.append(
                f"- :x: `{family}` must be non-decreasing along shards "
                f"(tolerance {eff:.0%}): {shown} — inverted at "
                f"{'; '.join(broken)}"
            )
        else:
            lines.append(
                f"- `{family}` non-decreasing along shards: {shown}"
            )
    if lines:
        lines = ["", "### Monotone axes (current run)", ""] + lines
    return lines, failures


def compare(
    current: dict,
    baseline: dict,
    threshold: float,
    fail_threshold: float,
    monotone_tolerance: float = 0.9,
) -> tuple[str, list[str]]:
    """Markdown report plus the list of failed gated metrics."""
    cur, base = {}, {}
    _flatten("", current, cur)
    _flatten("", baseline, base)
    shared = sorted(set(cur) & set(base))
    lines = [
        "## Bench vs committed baseline",
        "",
        "| metric | baseline | current | ratio (>1 = better) | |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    flagged = refused = 0
    failures: list[str] = []
    host = _host_of(current)
    same_host = host is not None and host == _host_of(baseline)
    for key in shared:
        b, c = base[key], cur[key]
        if not same_host and key not in GATED_METRICS and _is_wall_clock(key):
            refused += 1
            lines.append(f"| `{key}` | {b:g} | {c:g} | — | refused |")
            continue
        if b == 0 or c == 0:
            ratio = float("nan")
        elif _lower_is_better(key):
            ratio = b / c
        else:
            ratio = c / b
        mark = ""
        gated = key in GATED_METRICS
        if gated and (ratio != ratio or ratio < fail_threshold):
            # A gated metric collapsing to 0 (NaN ratio) is the most
            # extreme regression, not a pass.
            mark = ":x: gated"
            failures.append(key)
        elif gated:
            mark = "gated"
        elif ratio == ratio and ratio < threshold:  # NaN-safe warn
            mark = ":warning:"
            flagged += 1
        lines.append(
            f"| `{key}` | {b:g} | {c:g} | {ratio:.2f} | {mark} |"
        )
    missing_gated = sorted(GATED_METRICS & set(base) - set(cur))
    failures.extend(missing_gated)
    only_cur = sorted(set(cur) - set(base))
    if only_cur:
        lines += ["", f"New metrics (no baseline yet): "
                      f"{', '.join(f'`{k}`' for k in only_cur)}"]
    only_base = sorted(set(base) - set(cur))
    if only_base:
        lines += ["", f"Baseline metrics missing from this run: "
                      f"{', '.join(f'`{k}`' for k in only_base)}"]
    mono_lines, mono_failures = check_monotone(current, monotone_tolerance)
    lines += mono_lines
    failures.extend(mono_failures)
    lines += [
        "",
        f"{len(shared)} shared metrics, {flagged} below the "
        f"{threshold:.0%} warn threshold (informational only).",
    ]
    if refused:
        lines += [
            "",
            f"{refused} wall-clock metrics refused: the two files do not "
            f"carry the same host fingerprint "
            f"({', '.join(HOST_FIELDS)}).",
        ]
    if failures:
        lines += [
            "",
            f"**FAIL**: gated metric(s) regressed more than "
            f"{1 - fail_threshold:.0%} (or vanished): "
            f"{', '.join(f'`{k}`' for k in sorted(set(failures)))}",
        ]
    return "\n".join(lines), sorted(set(failures))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh BENCH_engine.json")
    parser.add_argument("baseline", help="committed benchmarks/baseline.json")
    parser.add_argument("--threshold", type=float, default=0.8,
                        help="ratio below which a row is flagged (warn)")
    parser.add_argument("--fail-threshold", type=float, default=0.75,
                        help="ratio below which a GATED metric fails the "
                             "comparison")
    parser.add_argument("--monotone-tolerance", type=float, default=0.9,
                        help="noise allowance for the monotone shards "
                             "axes: each step may fall to this fraction "
                             "of its predecessor before failing")
    args = parser.parse_args(argv)
    try:
        with open(args.current, encoding="utf-8") as fh:
            current = json.load(fh)
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"baseline comparison skipped: {exc}", file=sys.stderr)
        return 0  # missing inputs stay non-fatal (fresh checkouts)
    report, failures = compare(
        current, baseline, args.threshold, args.fail_threshold,
        monotone_tolerance=args.monotone_tolerance,
    )
    print(report)
    if failures:
        print(
            f"gated regression(s): {', '.join(failures)}", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
