"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.ruleset import RuleSet


#: Every subcommand's flags: option strings -> (dest, default).  The
#: workload, engine and shared flags are generated from their one
#: declaration each; this pins what every subcommand exposes.
_WORKLOAD = {
    "--family": ("family", "acl1"),
    "--rules": ("rules", 1000),
    "--seed": ("seed", 7),
}
_BUILD = {
    "--ruleset-file": ("ruleset_file", None),
    "--algorithm": ("backend", None),
    "--binth": ("binth", None),
    "--spfac": ("spfac", None),
    "--speed": ("speed", None),
    "--software": ("software", None),
}
_SKEW = {"--zipf": ("zipf", None), "--flows": ("flows", 1024)}
_CACHE = {
    "--cache-entries": ("cache_entries", None),
    "--cache-ways": ("cache_ways", None),
}
_SERVING = {
    "--energy-model": ("energy_model", None),
    "--fault-policy": ("fault_policy", None),
    "--max-retries": ("max_retries", None),
    "--chunk-timeout": ("chunk_timeout_s", None),
    "--on-malformed": ("on_malformed", None),
}
FLAG_TABLE = {
    "generate": {
        **_WORKLOAD,
        "--output": ("output", None),
        "--trace": ("trace", None),
        "--packets": ("packets", 10000),
    },
    "build": {**_WORKLOAD, **_BUILD, "--packets": ("packets", 10000)},
    "classify": {
        **_WORKLOAD, **_BUILD, **_CACHE, **_SKEW, **_SERVING,
        "--packets": ("packets", 100000),
        "--trace-file": ("trace_file", None),
    },
    "bench": {
        **_WORKLOAD, **_BUILD, **_CACHE, **_SKEW, **_SERVING,
        "--packets": ("packets", 100000),
        "--trace-file": ("trace_file", None),
        "--shards": ("shards", None),
        "--chunk-size": ("chunk_size", None),
        "--shard-mode": ("shard_mode", None),
        "--min-chunk-packets": ("min_chunk_packets", None),
        "--persistent": ("persistent", None),
        "--updatable": ("updatable", None),
        "--repeats": ("repeats", 1),
        "--stream": ("stream", 0),
        "--updates": ("updates", 0),
        "--update-mix": ("update_mix", "50:50"),
        "--update-batch": ("update_batch", 8),
        "--faults": ("faults", None),
    },
    "serve": {
        "--config": ("config", None),
        "--tenants": ("tenants", None),
        "--segment-packets": ("segment_packets", 65536),
        "--quantum": ("quantum", None),
        "-o/--output": ("output", None),
    },
    "sweep": {
        "--spec": ("spec", None),
        "--tier": ("tier", "quick"),
        "--quick": ("quick", False),
        "--filter": ("filter", []),
        "-o/--output": ("output", "BENCH_sweeps.json"),
        "--matrix": ("matrix", None),
        "-v/--verbose": ("verbose", False),
    },
    "linecard": {
        **_WORKLOAD, **_SKEW,
        "--graph": ("graph", None),
        "--emit-graph": ("emit_graph", None),
        "--ruleset-file": ("ruleset_file", None),
        "--algorithm": ("algorithm", "hypercuts"),
        "--packets": ("packets", 100000),
        "--trace-file": ("trace_file", None),
        "--cache-entries": ("cache_entries", 4096),
        "--cache-ways": ("cache_ways", 4),
        "--segment-packets": ("segment_packets", 65536),
        "--faults": ("faults", None),
        "-o/--output": ("output", None),
    },
    "tables": {
        "--quick": ("quick", False),
        "--seed": ("seed", 7),
        "-o/--output": ("output", None),
    },
    "fsm": {**_WORKLOAD, **_BUILD, "--packets": ("packets", 5)},
}


class TestFlagTable:
    def test_every_subcommand_flag(self):
        """Each subcommand's option strings, ``dest`` and default."""
        import argparse

        from repro.cli import build_parser

        (sub,) = (
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == set(FLAG_TABLE)
        for command, parser in sub.choices.items():
            got = {
                "/".join(a.option_strings): (a.dest, a.default)
                for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
            }
            assert got == FLAG_TABLE[command], command


class TestGenerate:
    def test_generate_writes_files(self, tmp_path, capsys):
        rules_path = str(tmp_path / "rules.txt")
        trace_path = str(tmp_path / "trace.txt")
        rc = main([
            "generate", "--family", "acl1", "--rules", "80",
            "--seed", "3", "--output", rules_path,
            "--trace", trace_path, "--packets", "50",
        ])
        assert rc == 0
        rs = RuleSet.load(rules_path)
        assert len(rs) == 80
        out = capsys.readouterr().out
        assert "80 rules" in out and "50 packets" in out


class TestBuild:
    def test_build_hw(self, capsys):
        rc = main([
            "build", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--algorithm", "hicuts",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory image" in out
        assert "worst-case cycles" in out

    def test_build_software(self, capsys):
        rc = main([
            "build", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--software",
        ])
        assert rc == 0
        assert "software memory model" in capsys.readouterr().out

    def test_build_from_file(self, tmp_path, capsys):
        rules_path = str(tmp_path / "r.txt")
        main(["generate", "--rules", "60", "--output", rules_path])
        rc = main(["build", "--ruleset-file", rules_path])
        assert rc == 0


class TestClassify:
    def test_classify_hw(self, capsys):
        rc = main([
            "classify", "--family", "acl1", "--rules", "120",
            "--packets", "500", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Mpps" in out
        assert "mean occupancy" in out

    def test_classify_energy_model_selects_device(self, capsys):
        common = [
            "classify", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "500", "--algorithm", "hypercuts",
        ]
        assert main([*common, "--energy-model", "fpga"]) == 0
        out = capsys.readouterr().out
        assert "FPGA" in out and "ASIC" not in out
        assert main([*common, "--energy-model", "none"]) == 0
        out = capsys.readouterr().out
        assert "FPGA" not in out and "ASIC" not in out
        assert "mean occupancy" in out and "worst-case latency" in out

    def test_classify_cached_accelerator_reports_occupancy(self, capsys):
        rc = main([
            "classify", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "500", "--cache-entries", "256",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow cache: 256 entries" in out
        assert "mean occupancy" in out and "ASIC 226MHz" in out

    def test_classify_software(self, capsys):
        rc = main([
            "classify", "--family", "acl1", "--rules", "120",
            "--packets", "300", "--software",
        ])
        assert rc == 0
        assert "classified 300 packets" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["classify", "bench"])
    def test_on_malformed_quarantine_reads_the_trace_file(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "bad.trace"
        path.write_text(
            "16909060\t84281096\t80\t443\t6\t-1\n"
            "1.2.3.4 dotted quad is malformed\n"
            "16909060\t84281096\t80\t443\t17\t-1\n"
        )
        rc = main([
            command, "--rules", "60", "--algorithm", "linear",
            "--trace-file", str(path), "--on-malformed", "quarantine",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "classified 2 packets" in out
        assert "quarantined: 1 malformed trace lines" in out


class TestBench:
    def test_bench_with_flow_cache_zipf(self, capsys):
        rc = main([
            "bench", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "2000", "--algorithm", "tss",
            "--cache-entries", "512", "--cache-ways", "4",
            "--zipf", "1.0", "--flows", "64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow cache: 512 entries x 4-way" in out
        assert "hit rate" in out
        assert "effective accesses/lookup" in out
        assert "J/packet" in out

    def test_bench_without_cache_has_no_cache_report(self, capsys):
        rc = main([
            "bench", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "1000", "--algorithm", "tss",
        ])
        assert rc == 0
        assert "flow cache" not in capsys.readouterr().out

    def test_classify_with_cache(self, capsys):
        rc = main([
            "classify", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "1000", "--algorithm", "linear",
            "--cache-entries", "256",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flow cache: 256 entries" in out

    def test_bench_stream_mode(self, capsys):
        rc = main([
            "bench", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "4000", "--algorithm", "tss", "--stream", "1000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunks: 4  segments: 4" in out
        assert "classified 4000 packets" in out

    @pytest.mark.parametrize(
        ("mode", "stream", "reason"),
        [
            # One coalesced dispatch: auto declined the fork, and says
            # why.
            ("auto", 16384, "16384 packets < 2 workers x 65536"),
            ("auto", 100_000, "100000 packets < 2 workers x 65536"),
            ("auto", 262144, None),
            # The 904-packet tail merges into the one 4096-packet chunk,
            # which collapses the fork.
            ("processes", 5000, "(one chunk)"),
        ],
    )
    def test_bench_stream_warns_when_segments_cannot_fork(
        self, mode, stream, reason, capsys, monkeypatch
    ):
        """The warning asks the plan a segment's run serves: under the
        engine defaults two workers fork from 2 x 65536 packets, and a
        segment the grid leaves one chunk serves on one shard in every
        mode."""
        from repro.algorithms import native

        monkeypatch.setattr(native, "host_cpus", lambda: 2)
        rc = main([
            "bench", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "1000", "--algorithm", "tss", "--shards", "2",
            "--shard-mode", mode, "--stream", str(stream),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert ("segments serve on one shard" in err) == (reason is not None)
        if reason is not None:
            assert reason in err

    def test_bench_energy_model_selects_device(self, capsys):
        common = [
            "bench", "--family", "acl1", "--rules", "120", "--seed", "3",
            "--packets", "1000", "--algorithm", "hypercuts",
        ]
        assert main([*common, "--energy-model", "fpga"]) == 0
        out = capsys.readouterr().out
        assert "FPGA" in out and "ASIC" not in out
        assert main([*common, "--energy-model", "none"]) == 0
        out = capsys.readouterr().out
        assert "FPGA" not in out and "ASIC" not in out

    def test_bad_cache_geometry_is_clean_error(self, capsys):
        rc = main([
            "bench", "--family", "acl1", "--rules", "60", "--seed", "3",
            "--packets", "500", "--algorithm", "linear",
            "--cache-entries", "10", "--cache-ways", "4",
        ])
        assert rc == 2
        assert "multiple" in capsys.readouterr().err

    def test_missing_fault_plan_is_clean_error(self, tmp_path, capsys):
        rc = main([
            "bench", "--rules", "60", "--packets", "500", "--algorithm",
            "linear", "--faults", str(tmp_path / "missing.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load fault plan")
        assert err.count("\n") == 1

    def test_retried_fault_is_reported(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"specs": [{"kind": "error", "chunk": 1}]}))
        rc = main([
            "bench", "--rules", "60", "--packets", "2000", "--chunk-size",
            "500", "--algorithm", "linear", "--faults", str(plan),
            "--fault-policy", "retry", "--min-chunk-packets", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chunks: 4" in out
        assert "fault recovery: 1 retries, 1 chunk replays" in out


class TestWorkloadDeclaration:
    @pytest.mark.parametrize("knobs", [
        {"family": "fw1", "rules": 80, "seed": 5, "packets": 300},
        {"family": "ipc1", "rules": 60, "seed": 11, "packets": 400,
         "zipf": 1.1, "flows": 16},
    ])
    def test_a_tenant_entry_and_bench_flags_build_one_workload(
        self, tmp_path, knobs
    ):
        """A tenants-file entry and the same knobs as ``bench`` flags
        generate the same ruleset and the same trace."""
        from repro.cli import _load_tenants_file, _ruleset, _trace, build_parser
        from repro.serve import EngineConfig

        path = tmp_path / "tenants.json"
        path.write_text(json.dumps([{"name": "t", **knobs}]))
        ((_, tenant_rules),), workloads = _load_tenants_file(
            str(path), EngineConfig()
        )
        argv = ["bench"]
        for key, value in knobs.items():
            argv += [f"--{key}", str(value)]
        args = build_parser().parse_args(argv)
        rules = _ruleset(args)
        trace, quarantined = _trace(args, rules, "raise")
        assert rules.rules == tenant_rules.rules
        assert np.array_equal(trace.headers, workloads["t"].headers)
        assert quarantined == 0


class TestBenchUpdatesNote:
    """``bench --updates`` asks the plan an update run serves and names
    its reason when it engages fewer owners than ``--shards``."""

    def _bench(self, *extra):
        return main([
            "bench", "--rules", "60", "--packets", "2000", "--chunk-size",
            "500", "--algorithm", "linear", "--shards", "2",
            "--updates", "4", *extra,
        ])

    def test_an_update_run_names_the_plans_reason(self, capsys):
        assert self._bench() == 0
        err = capsys.readouterr().err
        assert "serves on 1 of 2 shards (update runs serve in-process)" in err

    def test_in_process_shards_print_no_note(self, capsys):
        assert self._bench("--shard-mode", "threads") == 0
        assert "note:" not in capsys.readouterr().err


class TestSweep:
    def test_quick_shrinks_a_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "tiny", "families": ["acl1"], "sizes": [60, 5000],
            "backends": ["linear"], "shards": [1, 2], "cache_entries": [0],
            "skews": [1.1], "churn_rates": [0, 8], "packets": 30000,
            "flows": 32,
        }))
        artifact = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--spec", str(spec), "--quick", "-o", str(artifact),
            "--matrix", str(tmp_path / "matrix.md"),
        ])
        assert rc == 0
        assert "sweep 'tiny-quick': 1 cells" in capsys.readouterr().out
        ran = json.loads(artifact.read_text())
        assert ran["spec"]["sizes"] == [60]
        assert ran["spec"]["shards"] == [1]
        assert ran["spec"]["churn_rates"] == [0]
        assert ran["spec"]["packets"] == 20000
        (cell,) = ran["cells"].values()
        assert cell["n_packets"] == 20000


class TestServeInputs:
    """Wrong-typed serve input files exit 2 with one ``error:`` line."""

    def _serve(self, tmp_path, tenants, config=None):
        tenants_json = tmp_path / "tenants.json"
        tenants_json.write_text(json.dumps(tenants))
        argv = ["serve", "--tenants", str(tenants_json)]
        if config is not None:
            config_json = tmp_path / "engine.json"
            config_json.write_text(json.dumps(config))
            argv += ["--config", str(config_json)]
        return main(argv)

    def test_wrong_typed_tenant_field_is_named(self, tmp_path, capsys):
        rc = self._serve(tmp_path, [{"name": "a", "rules": "x"}])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "tenant #0: rules must be an int" in err

    def test_wrong_typed_engine_config_is_named(self, tmp_path, capsys):
        rc = self._serve(tmp_path, [{"name": "a"}], config={"shards": "2"})
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: shards must be an int, got '2'\n"


class TestFsm:
    def test_fsm_trace(self, capsys):
        rc = main([
            "fsm", "--family", "acl1", "--rules", "80", "--packets", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LOAD_ROOT" in out
        assert "COMPARE" in out


class TestArgErrors:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["build", "--family", "nope"])

    @pytest.mark.parametrize("argv", [
        ["bench", "--profile"],
        ["bench", "--cache-max-age", "5"],
        ["linecard", "--trace-lines", "x"],
    ])
    def test_removed_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestLinecard:
    def test_default_run_prints_stage_table(self, capsys):
        rc = main([
            "linecard", "--family", "acl1", "--rules", "120",
            "--packets", "500", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "8 stages" in out
        for name in ("parse", "tcam_prefilter", "flow_cache",
                     "classify", "queue_select"):
            assert name in out
        assert "flow cache: 4096 entries x 4-way, hit rate" in out

    def test_emit_graph_round_trips(self, tmp_path, capsys):
        from repro.stages import StageGraphSpec

        path = str(tmp_path / "graph.json")
        rc = main(["linecard", "--emit-graph", path,
                   "--algorithm", "hicuts", "--cache-entries", "1024"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        spec = StageGraphSpec.load(path)
        kinds = [s.kind for s in spec.stages]
        assert kinds.count("classify") == 1
        assert "flow_cache" in kinds
        classify = next(s for s in spec.stages if s.kind == "classify")
        assert classify.params["engine"]["backend"] == "hicuts"

    def test_graph_flag_runs_saved_spec(self, tmp_path, capsys):
        path = str(tmp_path / "graph.json")
        main(["linecard", "--emit-graph", path])
        rc = main([
            "linecard", "--graph", path, "--family", "acl1",
            "--rules", "120", "--packets", "500", "--seed", "3",
        ])
        assert rc == 0
        assert "packets" in capsys.readouterr().out

    def test_trace_file_reports_quarantine(self, tmp_path, capsys):
        lines = tmp_path / "trace.txt"
        lines.write_text(
            "# comment\n"
            "1 2 3 4 5\n"
            "oops not numbers\n"
            "6 7 8 9 10\n"
        )
        rc = main([
            "linecard", "--family", "acl1", "--rules", "80",
            "--seed", "3", "--trace-file", str(lines),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quarantined: 1 malformed trace lines" in out

    def test_output_json_carries_stage_telemetry(self, tmp_path):
        import json

        out_path = tmp_path / "report.json"
        rc = main([
            "linecard", "--family", "acl1", "--rules", "120",
            "--packets", "500", "--seed", "3", "-o", str(out_path),
        ])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert "stages" in doc
        assert [s["kind"] for s in doc["stages"]].count("classify") == 1
        assert all("energy_j" in s for s in doc["stages"])
