"""Diff two sets of ledger results, one row per workload x end-to-end metric.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py A1.json A2.json --vs B1.json B2.json

Each file is a ``run.py -o`` result.  A side's value is the median of
its runs' medians; its quartiles are those of the runs' medians (of the
one run's reps when the side has a single file).  Verdicts:

``same``        B's median is within the metric's bound of A's
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  a side's quartile spread is wider than the bound and the
                two sides' ranges overlap: the runs cannot tell
``refused``     host-time metric, and the files come from different
                hosts (the simulated ``model_*`` metrics are still diffed)

Exits 1 on any ``worse`` row or any failed packet, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

#: Fingerprint fields that make two hosts' wall-clock numbers incomparable.
HOST_FIELDS = ("nproc", "cpu", "python", "numpy", "platform")


def host_of(result: dict) -> tuple:
    return tuple(result["fingerprint"].get(field) for field in HOST_FIELDS)


class Side:
    """One workload x metric across one side's runs."""

    def __init__(self, rows: list[dict]) -> None:
        values = [row["value"] for row in rows]
        self.n = len(values)
        self.median = statistics.median(values)
        if self.n >= 2:
            self.q1, _, self.q3 = statistics.quantiles(values, n=4)
            self.lo, self.hi = min(values), max(values)
        else:  # one run: fall back on the spread of its reps
            self.q1 = rows[0].get("q1", self.median)
            self.q3 = rows[0].get("q3", self.median)
            self.lo, self.hi = self.q1, self.q3

    @property
    def spread(self) -> float:
        return (self.q3 - self.q1) / abs(self.median) if self.median else 0.0

    def __str__(self) -> str:
        return f"{self.median:>12.6g} [{self.q1:.6g} .. {self.q3:.6g}] n={self.n}"


def verdict(a: Side, b: Side, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, share by which B is worse than A)``."""
    worse_by = (b.median - a.median) / abs(a.median) if a.median else 0.0
    if better == "higher":
        worse_by = -worse_by
    overlap = a.lo <= b.hi and b.lo <= a.hi
    if max(a.spread, b.spread) > bound and overlap:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        with open(path, encoding="ascii") as fh:
            results.append(json.load(fh))
    return results


def compare(base: list[dict], new: list[dict], out=sys.stdout) -> int:
    same_host = len({host_of(r) for r in base + new}) == 1
    if not same_host:
        print("# different host fingerprints: host-time metrics are refused, "
              "only model_* are diffed", file=out)
    bad = 0
    for result in base + new:
        for name, row in result["workloads"].items():
            if row["packets_failed"]:
                print(f"# {name}: {row['packets_failed']} of "
                      f"{row['packets_attempted']} packets FAILED", file=out)
                bad += 1
    for name in base[0]["workloads"]:
        metrics = base[0]["workloads"][name]["end_to_end"]
        for metric, declared in metrics.items():
            sides = []
            for results in (base, new):
                rows = [
                    r["workloads"][name]["end_to_end"][metric]
                    for r in results
                    if metric in r["workloads"].get(name, {}).get("end_to_end", {})
                ]
                sides.append(Side(rows) if rows else None)
            a, b = sides
            if a is None or b is None:
                print(f"{name:<14} {metric:<27} missing on one side", file=out)
                continue
            bound = declared["bound"]
            if metric.startswith("model_") or same_host:
                word, worse_by = verdict(a, b, declared["better"], bound)
            else:
                word, worse_by = "refused", float("nan")
            bad += word == "worse"
            print(
                f"{name:<14} {metric:<27} {declared['unit']:<7} A {a}  B {b}  "
                f"worse by {worse_by * 100:+7.2f}% (bound {bound * 100:g}%)  {word}",
                file=out,
            )
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="+", help="side A: run.py -o results")
    parser.add_argument("--vs", nargs="+", help="side B (default: with exactly "
                        "two files, the second one)")
    args = parser.parse_args(argv)
    base, new = args.base, args.vs
    if new is None:
        if len(base) != 2:
            parser.error("give exactly two files, or split the sets with --vs")
        base, new = base[:1], base[1:]
    return compare(load(base), load(new))


if __name__ == "__main__":
    sys.exit(main())
