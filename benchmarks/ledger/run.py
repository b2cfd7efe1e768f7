"""Driver of the ledger benchmark.

    python3 benchmarks/ledger/run.py --seed 11 -o BENCH_ledger.json
    python3 benchmarks/ledger/run.py --workload cache_spill --seed 3 \
        --seconds 8 --trace 0

Closed loop, one caller.  Phases: A generate inputs from ``--seed``;
B per workload, ``setup_reps`` fresh opens up to the first result, then
one untimed warm-up rep on the session that stays open; C timed rounds,
round-robin over the workloads, tracing off; D correctness of every rep
against the linear oracle; E (``--trace``) traced rounds and the
per-layer ledger.
Prints every metric by name with its unit; the last line of stdout is
one JSON object ``{correct, attempted, failed, metrics}``.  Exits 1 on
any wrong or missing packet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import zlib
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

try:
    from repro.serve import EngineReport  # noqa: E402
except ImportError as exc:
    sys.exit(f"run.py: the package under test is not at {ROOT}/src: {exc}")

from layers import Ledger  # noqa: E402
from spans import Tracer, self_time_by_name  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    EVERY_WORKLOAD,
    FULL,
    SHARDED_MODEL_BOUND,
    SMOKE,
    Inputs,
    build_workloads,
    reference_seconds,
    run_rep,
    speed_scale,
)

DEFAULT_ROUNDS = 15
#: ``--seconds`` never cuts the timed rounds below this (quartiles need it).
MIN_ROUNDS = 5


def fingerprint() -> dict:
    """The host and the code a number was measured on; compare.py will
    not diff host-time metrics across different hosts."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": head_commit(),
    }


def head_commit() -> str:
    """The checked-out commit, read from ``.git`` (no ``git`` process: a
    one-workload run of a single-process workload starts none at all)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head  # detached
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def summary(values, unit: str) -> dict:
    """Median, quartiles and sample count of one metric's reps."""
    out = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class TimedRep(NamedTuple):
    """One untraced rep as the clocks read it, and the factors that
    scale its wall and CPU time to the host's nominal speed."""

    wall: float
    cpu: float
    intervals: list
    wall_scale: float
    cpu_scale: float


class WorkloadRun:
    """One workload's session and everything measured on it."""

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.packets = workload.n_packets(inputs)
        self.session = None
        #: ``(seconds, wall factor)`` of every fresh open.
        self.setups: list[tuple[float, float]] = []
        self.reps: list[TimedRep] = []
        self.traced_wall: list[float] = []  # at nominal speed
        self.reference_s: list[float] = []
        self.rss_delta_mb = 0.0
        self.cycles: list[float] = []
        self.energy_nj: list[float] = []
        self.retries = 0
        self.degradations = 0
        self.attempted = 0
        self.failed = 0
        #: CRC32 of the first good rep's full match array, and the
        #: leading matches phase D holds against the oracle.
        self.crc: int | None = None
        self.prefix: np.ndarray | None = None
        self.good_reps = 0

    def at_host_speed(self, call):
        """``call()`` between two samples of the reference kernel:
        ``(result, (wall factor, CPU factor))``; a factor scales a
        duration inside the call, read on that clock, to the host's
        nominal speed."""
        work = self.inputs.sizes.reference_work
        before = reference_seconds(work)
        out = call()
        after = reference_seconds(work)
        self.reference_s += [before[0] / work, after[0] / work]
        return out, tuple(speed_scale(b, a, work) for b, a in zip(before, after))

    # -- phase B ---------------------------------------------------------
    def set_up(self, tracer) -> None:
        sizes = self.inputs.sizes
        rss0 = rss_mb()

        def open_and_serve():
            t0 = time.perf_counter()
            self.session = self.workload.open(self.inputs)
            self.workload.drive(
                self.session, self.inputs, tracer,
                limit=min(sizes.setup_packets, self.packets),
            )
            return time.perf_counter() - t0

        for _ in range(sizes.setup_reps):
            if self.session is not None:
                self.session.close()
            seconds, (wall_scale, _) = self.at_host_speed(open_and_serve)
            self.setups.append((seconds, wall_scale))
        run_rep(self.workload, self.session, self.inputs, tracer)  # warm-up
        self.rss_delta_mb = rss_mb() - rss0

    # -- phases C and E --------------------------------------------------
    def rep(self, tracer) -> None:
        """One rep; a rep that raises, or returns fewer packets, or
        whose matches differ from the other reps', fails all of its
        packets."""
        self.attempted += self.packets
        try:
            with tracer.span("rep"):
                (rep, wall, cpu), (wall_scale, cpu_scale) = self.at_host_speed(
                    lambda: run_rep(
                        self.workload, self.session, self.inputs, tracer
                    )
                )
            match = rep.match
        except Exception as exc:  # the run goes on; the rep is counted
            print(f"# {self.workload.name}: rep failed: {exc!r}", flush=True)
            self.failed += self.packets
            return
        crc = zlib.crc32(np.ascontiguousarray(match).data)
        if self.crc is None and len(match) == self.packets:
            self.crc = crc
            self.prefix = match[: self.inputs.sizes.check_packets].copy()
        if len(match) != self.packets or crc != self.crc:
            self.failed += self.packets
            return
        self.good_reps += 1
        if tracer.enabled:
            self.traced_wall.append(wall * wall_scale)
            return
        self.reps.append(TimedRep(wall, cpu, rep.intervals, wall_scale, cpu_scale))
        report = rep.report
        if report is None:
            report = EngineReport.merge(rep.results, wall, energy_model="asic")
        if report.mean_occupancy() is not None:
            self.cycles.append(report.mean_occupancy())
            self.energy_nj.append(report.energy_per_packet_j * 1e9)
        if report.fault is not None:
            self.retries += report.fault.retries
            self.degradations += len(report.fault.degradations)

    # -- phase D ---------------------------------------------------------
    def check(self) -> None:
        """Hold the leading matches against the linear oracle; every
        good rep returned the same array, so each wrong packet is wrong
        in all of them."""
        if self.prefix is None:
            return
        oracle = self.workload.oracle(self.inputs, len(self.prefix))
        wrong = int((self.prefix != oracle).sum())
        self.failed += wrong * self.good_reps

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    # -- results ---------------------------------------------------------
    def host_time(self, scaled: bool) -> dict:
        """The four host-time metrics' samples, at the host's nominal
        speed (``scaled``) or as the clock read them."""
        n = self.packets

        def at(seconds, scale):
            return seconds * scale if scaled else seconds

        return {
            "setup_s": [at(s, k) for s, k in self.setups],
            "throughput_pps": [n / at(r.wall, r.wall_scale) for r in self.reps],
            "cpu_ns_per_packet": [
                at(r.cpu, r.cpu_scale) / n * 1e9 for r in self.reps
            ],
            # Pooled over all reps, not a median of medians.
            "segment_latency_p50_ms": [
                at(i, r.wall_scale) * 1e3 for r in self.reps for i in r.intervals
            ],
        }

    def end_to_end(self) -> dict:
        values = {
            **self.host_time(scaled=True),
            "model_cycles_per_packet": self.cycles,
            "model_energy_per_packet_nj": self.energy_nj,
        }
        raw = self.host_time(scaled=False)
        out = {}
        for metric, (unit, better, bound) in END_TO_END.items():
            if not values[metric]:
                continue  # does not apply here (or no rep succeeded)
            sharded = self.workload.config.get("shards", 1) > 1
            if metric.startswith("model_") and sharded:
                bound = SHARDED_MODEL_BOUND
            out[metric] = {
                **summary(values[metric], unit), "better": better, "bound": bound,
            }
            if metric in raw:
                out[metric]["raw"] = statistics.median(raw[metric])
        return out

    def per_layer(self) -> dict:
        """The per-layer numbers that belong to a workload, not a probe."""
        out = {
            "host.reference_ms": {
                "value": statistics.median(self.reference_s) * 1e3, "unit": "ms",
            },
            "serve.session.rss_delta_mb": {
                "value": self.rss_delta_mb, "unit": "MB",
            },
            "engine.supervision.retries": {
                "value": self.retries, "unit": "count",
            },
            "engine.supervision.degradations": {
                "value": self.degradations, "unit": "count",
            },
        }
        if self.traced_wall and self.reps:
            untraced = statistics.median(r.wall * r.wall_scale for r in self.reps)
            out["trace_overhead_pct"] = {
                "value": (statistics.median(self.traced_wall) - untraced)
                / untraced * 100.0,
                "unit": "%",
            }
        return out


def timed_rounds(runs, tracer, rounds: int | None, seconds: float | None) -> int:
    """Round-robin: round r runs one rep of each workload in turn, so
    slow drift of the shared host lands on every workload alike instead
    of on whichever one had its block of reps at the time."""
    deadline = None if seconds is None else time.perf_counter() + seconds
    done = 0
    while True:
        tracer.round = done
        for run in runs:
            tracer.workload = run.workload.name
            run.rep(tracer)
        done += 1
        if rounds is not None and done >= rounds:
            break
        if deadline is not None and done >= MIN_ROUNDS:
            if time.perf_counter() >= deadline:
                break
    return done


def print_rows(title: str, rows: dict) -> None:
    for name, row in rows.items():
        extra = ""
        if "q1" in row:
            extra = f"  [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}]"
        if "raw" in row:
            extra += f"  (uncorrected {row['raw']:.6g})"
        print(f"{title:<14} {name:<52} {row['value']:>14.6g} {row['unit']}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the timed rounds, per workload")
    parser.add_argument("--rounds", type=int, help="timed rounds (default "
                        f"{DEFAULT_ROUNDS} without --seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the traced pass and the ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the plumbing, measures nothing")
    parser.add_argument("-o", "--output", help="write the full result here "
                        "(and the spans beside it as *_trace.json)")
    args = parser.parse_args(argv)

    sizes = SMOKE if args.smoke else FULL
    workloads = build_workloads(sizes)
    by_name = {w.name: w for w in workloads}
    if args.workload:
        unknown = [name for name in args.workload if name not in by_name]
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; have {list(by_name)}")
        workloads = [by_name[name] for name in args.workload]
    rounds = args.rounds
    if rounds is None and args.seconds is None:
        rounds = 2 if args.smoke else DEFAULT_ROUNDS
    seconds = None if args.seconds is None else args.seconds * len(workloads)

    off, tracer = Tracer(enabled=False), Tracer(enabled=bool(args.trace))
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp_", dir=ROOT) as workdir:
        inputs = Inputs(args.seed, sizes, workdir)
        for workload in workloads:  # phase A
            workload.prepare(inputs)
        runs = [WorkloadRun(w, inputs) for w in workloads]
        ledger = {}
        try:
            for run in runs:  # phase B
                run.set_up(off)
            done = timed_rounds(runs, off, rounds, seconds)  # phase C
            if args.trace:  # phase E, traced rounds
                timed_rounds(runs, tracer, sizes.traced_reps, None)
            for run in runs:  # phase D, over the traced reps as well
                run.check()
        finally:
            for run in runs:
                run.close()
        if args.trace:
            ledger = Ledger(inputs, by_name, tracer).measure()

    result = {
        "fingerprint": fingerprint(),
        "protocol": {
            "seed": args.seed, "rounds": done, "seconds": args.seconds,
            "smoke": args.smoke, "trace": args.trace,
            "elapsed_s": time.perf_counter() - started,
        },
        "workloads": {
            run.workload.name: {
                "why": run.workload.why,
                "packets_per_rep": run.packets,
                "packets_attempted": run.attempted,
                "packets_failed": run.failed,
                "end_to_end": run.end_to_end(),
                "per_layer": run.per_layer(),
            }
            for run in runs
        },
        "ledger": ledger,
    }
    if args.trace:
        result["self_time_s"] = {
            f"{workload}/{name}": seconds
            for (workload, name), seconds in sorted(
                self_time_by_name(tracer.spans).items(), key=lambda kv: -kv[1]
            )
        }

    for name, row in result["workloads"].items():
        print_rows(name, row["end_to_end"])
        print_rows(name, row["per_layer"])
        print(f"{name:<14} packets_failed / packets_attempted: "
              f"{row['packets_failed']} / {row['packets_attempted']}")
    print_rows("ledger", ledger)

    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=1)
        if args.trace:
            stem, ext = os.path.splitext(args.output)
            tracer.dump(f"{stem}_trace{ext}", fingerprint=result["fingerprint"],
                        protocol=result["protocol"])

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": last_line_metrics(result, bool(args.trace)),
    }))
    return 0 if failed == 0 else 1


def last_line_metrics(result: dict, traced: bool) -> dict:
    """The flat ``name -> {value, unit}`` map of the closing JSON line:
    untraced, the end-to-end metrics every workload has; traced, the
    per-layer ones.  With several workloads in one run the per-workload
    names carry a ``.<workload>`` suffix."""
    rows = result["workloads"]
    flat = {} if not traced else dict(result["ledger"])
    for name, row in rows.items():
        suffix = "" if len(rows) == 1 else f".{name}"
        if traced:
            picked = row["per_layer"]
        else:
            picked = {m: row["end_to_end"][m] for m in EVERY_WORKLOAD}
        for metric, record in picked.items():
            flat[metric + suffix] = {"value": record["value"], "unit": record["unit"]}
    return flat


def descendants() -> list[int]:
    """Pids of every live process below this one, leaves first."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue  # gone meanwhile
        if state != "Z" or int(ppid) == os.getpid():
            children.setdefault(int(ppid), []).append(int(entry))
    found, frontier = [], [os.getpid()]
    while frontier:
        frontier = [pid for parent in frontier for pid in children.get(parent, [])]
        found += frontier
    return found[::-1]


def stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has
    ended, so none outlives the run.

    The engine's persistent pools keep their arena in shared memory,
    which starts multiprocessing's resource tracker; that one runs until
    its parent's end of a pipe closes, i.e. it would end *after* this
    process, unreaped.  It is stopped the way multiprocessing's own
    tests do it; whatever else is left (nothing, when every session was
    closed) is terminated, then killed.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # joins the finished ones
        child.terminate()
        child.join(grace_s)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in descendants():
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:  # reap our own; the others' parents (or init) reap theirs
                while os.waitpid(-1, os.WNOHANG)[0]:
                    pass
            except ChildProcessError:
                pass
            if not descendants():
                return
            time.sleep(0.01)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
