"""Tier-1 smoke test of the ledger benchmark: tiny sizes, every workload
and the whole ledger, so a change that breaks a public call the
benchmark depends on fails here and not in the perf pipeline."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a session of its own and hold it to leaving no
    process behind there, not even an unreaped one (the persistent
    pools' shared memory starts multiprocessing's resource tracker,
    which used to end after its parent)."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=120)
    left = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == proc.pid:  # session id
            left.append((int(entry), fields[0]))
    assert not left, f"{script} left processes behind: {left}"
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def names(rows: list[dict]) -> set[str]:
    return {row["name"] for row in rows}


def test_full_run_emits_what_is_declared(declared, tmp_path):
    out = tmp_path / "BENCH_ledger.json"
    proc = run("run.py", "--smoke", "--trace", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert all(NAME.fullmatch(name) for name in last["metrics"])

    result = json.loads(out.read_text())
    assert list(result["workloads"]) == [w["name"] for w in declared["workloads"]]
    units = {row["name"]: row["unit"] for key in ("end_to_end", "per_layer")
             for row in declared[key]}
    on_every_workload = None
    for name, row in result["workloads"].items():
        assert row["packets_failed"] == 0 < row["packets_attempted"], name
        emitted = set(row["end_to_end"])
        on_every_workload = (
            emitted if on_every_workload is None else on_every_workload & emitted
        )
        per_layer = {**row["per_layer"], **result["ledger"]}
        assert set(per_layer) == names(declared["per_layer"]), name
        for metric, record in {**row["end_to_end"], **per_layer}.items():
            assert NAME.fullmatch(metric), metric
            assert units.get(metric, record["unit"]) == record["unit"], metric
    # BENCHMARK.json declares exactly the metrics every workload has.
    assert on_every_workload == names(declared["end_to_end"])
    assert json.loads((tmp_path / "BENCH_ledger_trace.json").read_text())["spans"]

    # A result agrees with itself.
    same = run("compare.py", str(out), str(out))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "worse" not in same.stdout.replace("worse by", "")


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_one_workload_invocation(declared, trace, key):
    """The command BENCHMARK.json declares, as its driver calls it."""
    proc = run(
        "run.py", "--smoke", "--workload", "rule_churn", "--seed", "5",
        "--seconds", "0.2", "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 < last["attempted"]
    assert set(last["metrics"]) == names(declared[key])
    for row in declared[key]:
        assert last["metrics"][row["name"]]["unit"] == row["unit"]
