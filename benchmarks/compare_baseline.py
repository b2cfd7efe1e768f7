"""Compare a fresh bench or sweep artifact against its committed baseline.

One code path for both artifacts CI gates: ``BENCH_engine.json``
(``pytest -m bench benchmarks/``) against ``benchmarks/baseline.json``,
and ``BENCH_sweeps.json`` (``repro.cli sweep``) against
``benchmarks/sweeps_baseline.json``; an artifact with a ``cells``
mapping is a sweep.  Both are flattened into dotted keys
(``dispatch_coalescing.speedup``, ``cells.<cell id>.hit_rate``), and
each numeric key the two share gets a ratio, > 1.0 meaning better: keys
ending ``_s``, ``_ms``, ``_ms_per_run``, ``_j`` or
``_accesses_per_lookup`` are costs.  Both sides zero is a match, one
side zero a collapse.

* **Gated** keys (:data:`GATED_METRICS`, :data:`GATED_CELL_METRICS` in
  every sweep cell) fail the run below :data:`FAIL_RATIO`, on a
  collapse, or when the baseline holds them and the run does not (a
  vanished sweep cell is its gated keys vanishing).  Other keys only
  warn, below :data:`WARN_RATIO`.
* **Wall-clock** keys (``*pps*``, the time suffixes, line-rate
  ``headroom``) are diffed only between files with the same
  :data:`HOST_FIELDS` fingerprint, else they read ``refused``.  The
  committed baselines hold none: wall-clock is ``benchmarks/ledger/``'s,
  parent and change on one host, back to back.
* **Monotone axes** (:data:`MONOTONE_AXES`) look at the current run: no
  step of a series may fall below its tolerance times the step before,
  the inverted-scaling shape no per-key ratio can see.  An axis of the
  artifact's kind that finds no series fails: it checked nothing.

``--allow-missing`` turns the two "nothing there" failures (a gated key
absent, an empty axis) into warnings, for a ``--filter``\\ ed sweep or a
reduced bench run.  A missing, unreadable or wrong-shape input fails.

Usage::

    python benchmarks/compare_baseline.py CURRENT BASELINE [--allow-missing]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: A ratio below this flags its row (warn-only unless the key is gated).
WARN_RATIO = 0.8
#: A gated ratio below this (a >25% regression) fails the run.
FAIL_RATIO = 0.75

#: Flattened engine-bench keys enforced as hard gates.
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

#: Leaves gated in every cell of a sweep artifact.  Given the spec's
#: per-cell seeding they are bit-stable across runs and runners, so a
#: drift is a behaviour change, never noise.
GATED_CELL_METRICS = frozenset({
    "hit_rate",
    "memory_accesses_per_lookup",
    "energy_per_packet_j",
    "matched_fraction",
})

#: Fingerprint fields that make two hosts' wall-clock numbers
#: incomparable (the ledger's ``compare.py`` refuses on the first five;
#: ``kernel`` is ``native.status()``'s — a pps served by the C walk is
#: no baseline for one served by the NumPy walk, same machine or not).
HOST_FIELDS = ("nproc", "cpu", "python", "numpy", "platform", "kernel")

#: ``(artifact kind, key pattern, tolerance)``.  The pattern's one group
#: captures the axis value; keys equal but for it form one series,
#: ordered by that value, and no step may fall below ``tolerance`` times
#: the step before.
MONOTONE_AXES = (
    # Sharding must not make serving slower (5% step-to-step noise).
    ("engine", r"flowcache_pipeline_pps\.shards_(\d+)", 0.95),
    ("engine", r"auto_pipeline_pps\.shards_(\d+)", 0.95),
    # Among cells that differ only in a non-zero cache_entries, a bigger
    # cache must not serve a colder hit rate.
    ("sweep", r"cells\..*/e([1-9]\d*)w.*\.hit_rate", 0.9),
)

#: Key suffixes of costs (lower is better); the first three are times.
_COSTS = ("_s", "_ms", "_ms_per_run", "_j", "_accesses_per_lookup")
#: Key lists longer than this are cut in the report.
_SHOWN = 12


def _kind(artifact: dict) -> str:
    return "sweep" if "cells" in artifact else "engine"


def load(path: str) -> dict:
    """The artifact at ``path``; ``ValueError`` when it cannot be one."""
    try:
        with open(path, encoding="utf-8") as fh:
            artifact = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not artifact or not isinstance(artifact, dict) or not isinstance(
        artifact.get("cells", {}), dict
    ):
        raise ValueError(f"{path}: neither a bench nor a sweep artifact")
    return artifact


def flatten(obj, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of ``obj`` under its dotted key; the top-level
    ``fingerprint`` is the host, not a metric."""
    if isinstance(obj, dict):
        out: dict[str, float] = {}
        for key, value in obj.items():
            if prefix or key != "fingerprint":
                out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
        return out
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix: float(obj)}
    return {}


def _host_of(artifact: dict) -> tuple | None:
    """The host fields of an artifact; ``None`` when it has none."""
    fingerprint = artifact.get("fingerprint")
    if not isinstance(fingerprint, dict):
        return None
    return tuple(fingerprint.get(field) for field in HOST_FIELDS)


def is_gated(key: str) -> bool:
    head, _, leaf = key.rpartition(".")
    return key in GATED_METRICS or (
        head.startswith("cells.") and leaf in GATED_CELL_METRICS
    )


def is_wall_clock(key: str) -> bool:
    # ``flat_pps.hicuts``: the unit can sit in the family name.
    return "pps" in key or key.endswith((*_COSTS[:3], ".headroom"))


def _ratio(key: str, base: float, cur: float) -> float:
    """> 1.0 is better; both zero is a match, one-sided zero a collapse."""
    if base == 0 or cur == 0:
        return 1.0 if base == cur else float("nan")
    return base / cur if key.endswith(_COSTS) else cur / base


def _listed(keys: list[str]) -> str:
    shown = ", ".join(f"`{key}`" for key in keys[:_SHOWN])
    extra = len(keys) - _SHOWN
    return shown + (f" ... ({extra} more)" if extra > 0 else "")


def check_monotone(
    current: dict, allow_missing: bool = False
) -> tuple[list[str], list[str]]:
    """Evaluate the :data:`MONOTONE_AXES` of the artifact's kind on the
    current run.  Returns ``(report_lines, failures)``; an inverted
    series fails as ``monotone:<series>``, an axis with no series to
    check as ``monotone:<pattern>``."""
    flat = flatten(current)
    lines = ["", "### Monotone axes (current run)", ""]
    failures: list[str] = []
    for kind, pattern, tolerance in MONOTONE_AXES:
        if kind != _kind(current):
            continue
        series: dict[str, list[tuple[int, float]]] = {}
        for key, value in flat.items():
            if match := re.fullmatch(pattern, key):
                label = f"{key[:match.start(1)]}*{key[match.end(1):]}"
                series.setdefault(label, []).append((int(match[1]), value))
        checked = [(label, sorted(p)) for label, p in series.items() if len(p) > 1]
        if not checked:
            lines.append(f"- {':warning:' if allow_missing else ':x:'} "
                         f"`{pattern}`: no series of two points, the axis "
                         f"checked nothing")
            failures += [] if allow_missing else [f"monotone:{pattern}"]
            continue
        lines.append(f"- `{pattern}`: {len(checked)} series checked at "
                     f"tolerance {tolerance:.0%}")
        for label, points in sorted(checked):
            broken = [
                f"{a}: {va:g} -> {b}: {vb:g}"
                for (a, va), (b, vb) in zip(points, points[1:])
                if vb < tolerance * va
            ]
            if broken:
                failures.append(f"monotone:{label}")
                lines.append(f"  - :x: `{label}` fell below {tolerance:.0%} "
                             f"of the step before: {'; '.join(broken)}")
    return lines, failures


def compare(
    current: dict, baseline: dict, allow_missing: bool = False
) -> tuple[str, list[str]]:
    """Markdown report plus the sorted list of failed checks."""
    kind = _kind(current)
    if kind != _kind(baseline):
        raise ValueError(f"the current run is of kind {kind!r}, the "
                         f"baseline of kind {_kind(baseline)!r}")
    cur, base = flatten(current), flatten(baseline)
    shared = sorted(cur.keys() & base.keys())
    host = _host_of(current)
    same_host = host is not None and host == _host_of(baseline)
    lines = [
        f"## {kind.capitalize()} artifact vs committed baseline",
        "",
        "| metric | baseline | current | ratio (>1 = better) | |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    failures: list[str] = []
    flagged = refused = elided = 0
    for key in shared:
        b, c = base[key], cur[key]
        gated = is_gated(key)
        if not same_host and not gated and is_wall_clock(key):
            refused += 1
            lines.append(f"| `{key}` | {b:g} | {c:g} | — | refused |")
            continue
        ratio = _ratio(key, b, c)
        if gated and not ratio >= FAIL_RATIO:  # a collapse (NaN) fails too
            mark = ":x: gated"
            failures.append(key)
        elif ratio < WARN_RATIO:
            mark = "gated" if gated else ":warning:"
            flagged += not gated
        else:
            elided += 1
            continue
        lines.append(f"| `{key}` | {b:g} | {c:g} | {ratio:.2f} | {mark} |")
    lines.append(f"| *{elided} rows within bounds elided* | | | | |")
    missing = sorted(k for k in base.keys() - cur.keys() if is_gated(k))
    if missing and not allow_missing:
        failures += missing
    for label, keys in (
        (f"Gated baseline metrics missing from this run "
         f"({':warning:' if allow_missing else ':x: gated'})", missing),
        ("Ungated baseline metrics missing from this run",
         sorted(base.keys() - cur.keys() - set(missing))),
        ("New metrics (no baseline yet)", sorted(cur.keys() - base.keys())),
    ):
        if keys:
            lines += ["", f"{label}, {len(keys)}: {_listed(keys)}"]
    mono_lines, mono_failures = check_monotone(current, allow_missing)
    lines += mono_lines
    failures = sorted(set(failures + mono_failures))
    lines += ["", f"{len(shared)} shared metrics, {flagged} below the "
                  f"{WARN_RATIO:.0%} warn threshold (informational only)."]
    if refused:
        lines += ["", f"{refused} wall-clock metrics refused: the two files "
                      f"do not carry the same host fingerprint "
                      f"({', '.join(HOST_FIELDS)})."]
    if failures:
        lines += ["", f"**FAIL**: gated metric(s) regressed more than "
                      f"{1 - FAIL_RATIO:.0%}, collapsed, vanished or "
                      f"inverted: {_listed(failures)}"]
    return "\n".join(lines), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("current", help="fresh BENCH_engine.json or "
                                        "BENCH_sweeps.json")
    parser.add_argument("baseline", help="its committed baseline")
    parser.add_argument("--allow-missing", action="store_true",
                        help="warn instead of failing on gated baseline "
                             "metrics absent from the run and on monotone "
                             "axes with no series")
    args = parser.parse_args(argv)
    try:
        report, failures = compare(
            load(args.current), load(args.baseline), args.allow_missing
        )
    except ValueError as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        return 1
    print(report)
    if failures:
        print(f"gated regression(s): {_listed(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
