"""Tests for the command-line interface."""

import io
import os

import numpy as np
import pytest

from repro.cli import load_circuit, main, save_circuit
from repro.network.builder import comparator
from repro.network.blif import write_blif
from repro.network.netlist import Netlist
from repro.sat import are_equivalent


@pytest.fixture
def circuit_file(tmp_path):
    net = Netlist("cmp")
    a = [net.add_pi(f"a[{i}]") for i in range(4)]
    b = [net.add_pi(f"b[{i}]") for i in range(4)]
    net.add_po("lt", comparator(net, "<", a, b))
    path = tmp_path / "cmp.blif"
    with open(path, "w") as handle:
        write_blif(net, handle)
    return str(path), net


class TestIo:
    def test_load_save_blif(self, circuit_file, tmp_path):
        path, net = circuit_file
        loaded = load_circuit(path)
        assert are_equivalent(net, loaded) is True
        out = str(tmp_path / "copy.blif")
        save_circuit(loaded, out)
        assert are_equivalent(net, load_circuit(out)) is True

    def test_save_load_aag(self, circuit_file, tmp_path):
        path, net = circuit_file
        out = str(tmp_path / "c.aag")
        save_circuit(load_circuit(path), out)
        assert are_equivalent(net, load_circuit(out)) is True

    def test_save_verilog(self, circuit_file, tmp_path):
        path, _ = circuit_file
        out = str(tmp_path / "c.v")
        save_circuit(load_circuit(path), out)
        assert open(out).read().startswith("module")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            load_circuit(str(tmp_path / "x.json"))


class TestCommands:
    def test_stats(self, circuit_file, capsys):
        path, _ = circuit_file
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "inputs  : 8" in out
        assert "outputs : 1" in out

    def test_learn_and_check(self, circuit_file, tmp_path, capsys):
        path, net = circuit_file
        learned = str(tmp_path / "learned.blif")
        code = main(["learn", path, "--out", learned,
                     "--time-limit", "15", "--patterns", "4000"])
        assert code == 0
        assert main(["check", path, learned]) == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out

    def test_learn_with_faults_and_checkpoint(self, circuit_file,
                                              tmp_path, capsys):
        path, _ = circuit_file
        ckpt = str(tmp_path / "run.ckpt")
        learned = str(tmp_path / "learned.blif")
        code = main(["learn", path, "--out", learned,
                     "--time-limit", "15", "--patterns", "2000",
                     "--inject-faults", "0.05", "--max-retries", "3",
                     "--checkpoint", ckpt, "--no-accuracy-gate"])
        assert code == 0
        assert os.path.exists(ckpt)
        assert load_circuit(learned).num_pos == 1
        capsys.readouterr()
        # Resume from the finished checkpoint: completed outputs skip.
        code = main(["learn", path, "--out", learned,
                     "--time-limit", "15", "--patterns", "2000",
                     "--checkpoint", ckpt, "--resume",
                     "--no-accuracy-gate"])
        assert code == 0

    def test_learn_writes_obs_artifacts(self, circuit_file, tmp_path,
                                        capsys):
        import json

        from repro.obs.report import REPORT_SCHEMA, validate

        path, _ = circuit_file
        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.json")
        report = str(tmp_path / "r.json")
        code = main(["learn", path, "--time-limit", "15",
                     "--patterns", "2000", "--no-accuracy-gate",
                     "--trace-out", trace, "--metrics-out", metrics,
                     "--report-out", report])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        # JSONL trace: one JSON object per line.
        records = [json.loads(line)
                   for line in open(trace).read().splitlines()]
        assert any(r["type"] == "span" and r["name"] == "run"
                   for r in records)
        # Perfetto sibling is valid Chrome trace JSON.
        chrome = json.load(open(str(tmp_path / "t.trace.json")))
        assert chrome["traceEvents"]
        assert all({"ph", "ts", "name", "pid", "tid"} <= set(ev)
                   for ev in chrome["traceEvents"])
        # Metrics dump carries the billed-row counter.
        dump = json.load(open(metrics))
        assert "oracle.rows_billed" in dump["counters"]
        # Report validates and its stage table sums to the total.
        rep = json.load(open(report))
        assert validate(rep, REPORT_SCHEMA) == []
        assert sum(s["billed_rows"] for s in rep["stages"]) == \
            rep["totals"]["billed_rows"]
        assert rep["totals"]["accuracy"] is not None

    def test_learn_resume_requires_checkpoint(self, circuit_file):
        path, _ = circuit_file
        with pytest.raises(SystemExit):
            main(["learn", path, "--resume"])

    def test_learn_with_audit_and_verify(self, circuit_file, tmp_path,
                                         capsys):
        path, _ = circuit_file
        learned = str(tmp_path / "learned.blif")
        code = main(["learn", path, "--out", learned,
                     "--time-limit", "15", "--patterns", "2000",
                     "--audit-rate", "0.1", "--no-accuracy-gate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification:" in out

    def test_chaos_subset(self, tmp_path, capsys):
        import json

        report = str(tmp_path / "chaos.json")
        code = main(["chaos", "--scenarios", "clean", "--seed", "2019",
                     "--out", report])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        dumped = json.load(open(report))
        assert dumped["passed"] is True
        assert [s["name"] for s in dumped["scenarios"]] == ["clean"]

    def test_chaos_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--scenarios", "does-not-exist"])

    def test_check_detects_difference(self, circuit_file, tmp_path,
                                      capsys):
        path, net = circuit_file
        other = Netlist("other")
        a = [other.add_pi(f"a[{i}]") for i in range(4)]
        b = [other.add_pi(f"b[{i}]") for i in range(4)]
        other.add_po("lt", comparator(other, "<=", a, b))
        other_path = str(tmp_path / "other.blif")
        with open(other_path, "w") as handle:
            write_blif(other, handle)
        assert main(["check", path, other_path]) == 1
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    def test_optimize(self, circuit_file, tmp_path, capsys):
        path, net = circuit_file
        out_path = str(tmp_path / "opt.blif")
        assert main(["optimize", path, "--out", out_path,
                     "--time-limit", "10"]) == 0
        optimized = load_circuit(out_path)
        assert are_equivalent(net, optimized) is True
        assert optimized.gate_count() <= net.gate_count()


class TestLearnFlagValidation:
    @pytest.mark.parametrize("flags", [
        ["--jobs", "0"],
        ["--max-retries", "-1"],
        ["--audit-rate", "1.5"],
        ["--audit-rate", "-0.1"],
        ["--inject-faults", "1.0"],
        ["--time-limit", "0"],
        ["--patterns", "0"],
        ["--resume"],  # nonsensical without --checkpoint
    ])
    def test_bad_flags_exit_with_usage_error(self, circuit_file, flags,
                                             capsys):
        path, _ = circuit_file
        with pytest.raises(SystemExit) as excinfo:
            main(["learn", path, *flags])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "error:" in err

    def test_error_message_names_the_flag(self, circuit_file, capsys):
        path, _ = circuit_file
        with pytest.raises(SystemExit):
            main(["learn", path, "--audit-rate", "7"])
        assert "--audit-rate" in capsys.readouterr().err


class TestServiceCommands:
    def test_submit_drain_status_roundtrip(self, circuit_file, tmp_path,
                                           capsys):
        import json

        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        assert main(["submit", "--spool", spool, path,
                     "--job-id", "cli-1", "--profile", "fast",
                     "--time-limit", "15", "--seed", "7"]) == 0
        assert capsys.readouterr().out.strip() == "cli-1"

        assert main(["serve", "--spool", spool, "--drain", "--inline",
                     "--timeout", "120", "--poll", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "[dispatch] cli-1" in out
        assert "drained:" in out

        assert main(["status", "--spool", spool, "cli-1",
                     "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["status"] in ("verified", "repaired")
        assert info["billed_rows"] > 0
        assert [row["attempt"] for row in info["billing"]] == [0]

        assert main(["status", "--spool", spool]) == 0
        assert "cli-1:" in capsys.readouterr().out

    def test_cancel_then_drain_marks_cancelled(self, circuit_file,
                                               tmp_path, capsys):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        main(["submit", "--spool", spool, path, "--job-id", "cli-c",
              "--profile", "fast", "--time-limit", "15"])
        assert main(["cancel", "--spool", spool, "cli-c"]) == 0
        capsys.readouterr()
        assert main(["serve", "--spool", spool, "--drain", "--inline",
                     "--timeout", "60", "--poll", "0.01"]) == 0
        assert main(["status", "--spool", spool, "cli-c"]) == 0
        assert "cancelled" in capsys.readouterr().out

    def test_submit_rejects_invalid_spec(self, circuit_file, tmp_path):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        with pytest.raises(SystemExit):
            main(["submit", "--spool", spool, path,
                  "--job-id", "bad", "--audit-rate", "2.0"])

    def test_submit_duplicate_id_rejected(self, circuit_file, tmp_path,
                                          capsys):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        main(["submit", "--spool", spool, path, "--job-id", "dup"])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["submit", "--spool", spool, path, "--job-id", "dup"])

    def test_status_unknown_job_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["status", "--spool", str(tmp_path / "spool"),
                  "ghost"])

    def test_cancel_unknown_job_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cancel", "--spool", str(tmp_path / "spool"),
                  "ghost"])

    def test_serve_rejects_invalid_policy(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--spool", str(tmp_path / "spool"),
                  "--max-active", "0", "--drain"])


class TestProfilerCli:
    def _learn_profiled(self, path, tmp_path, extra=()):
        profile = str(tmp_path / "profile.json")
        report = str(tmp_path / "report.json")
        code = main(["learn", path, "--time-limit", "15",
                     "--patterns", "2000", "--no-accuracy-gate",
                     "--profile-out", profile, "--report-out", report,
                     *extra])
        assert code == 0
        return profile, report

    def test_profile_out_writes_block_and_table(self, circuit_file,
                                                tmp_path, capsys):
        import json

        path, _ = circuit_file
        profile_path, report_path = self._learn_profiled(path, tmp_path)
        out = capsys.readouterr().out
        assert f"profile written to {profile_path}" in out
        assert "cost counters (deterministic):" in out
        profile = json.load(open(profile_path))
        assert set(profile) == {"counters", "self_time", "memory"}
        assert profile["counters"]
        # The run report embeds the identical block (schema v6).
        report = json.load(open(report_path))
        assert report["schema_version"] == 8
        assert report["profile"] == profile

    def test_profile_mem_adds_watermarks(self, circuit_file, tmp_path):
        import json

        path, _ = circuit_file
        profile_path, _ = self._learn_profiled(path, tmp_path,
                                               ["--profile-mem"])
        profile = json.load(open(profile_path))
        assert profile["memory"]
        assert all(peak > 0 for peak in profile["memory"].values())

    def test_prof_renders_report(self, circuit_file, tmp_path, capsys):
        path, _ = circuit_file
        _, report_path = self._learn_profiled(path, tmp_path)
        capsys.readouterr()
        assert main(["prof", report_path]) == 0
        out = capsys.readouterr().out
        assert "cost counters (deterministic):" in out
        assert "wall ms" in out

    def test_prof_errors_without_profile_block(self, circuit_file,
                                               tmp_path, capsys):
        path, _ = circuit_file
        report = str(tmp_path / "report.json")
        assert main(["learn", path, "--time-limit", "15",
                     "--patterns", "2000", "--no-accuracy-gate",
                     "--report-out", report]) == 0
        with pytest.raises(SystemExit, match="no profile block"):
            main(["prof", report])

    def test_bare_profile_flag_on_learn_is_ambiguous(self,
                                                     circuit_file,
                                                     capsys):
        # `learn --profile` could mean --profile-out or --profile-mem;
        # argparse must refuse rather than guess (and must never be
        # confused with submit's job-config --profile).
        path, _ = circuit_file
        with pytest.raises(SystemExit) as excinfo:
            main(["learn", path, "--profile", "x.json"])
        assert excinfo.value.code == 2
        assert "ambiguous" in capsys.readouterr().err


class TestSubmitProfileDisambiguation:
    def test_config_profile_alias_accepted(self, circuit_file,
                                           tmp_path, capsys):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        assert main(["submit", "--spool", spool, path,
                     "--job-id", "alias-1",
                     "--config-profile", "fast"]) == 0
        assert capsys.readouterr().out.strip() == "alias-1"

    def test_conflicting_values_rejected(self, circuit_file, tmp_path,
                                         capsys):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "--spool", spool, path,
                  "--job-id", "clash", "--profile", "fast",
                  "--config-profile", "default"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--config-profile" in err and "--profile" in err

    def test_agreeing_values_accepted(self, circuit_file, tmp_path,
                                      capsys):
        path, _ = circuit_file
        spool = str(tmp_path / "spool")
        assert main(["submit", "--spool", spool, path,
                     "--job-id", "agree", "--profile", "fast",
                     "--config-profile", "fast"]) == 0
        assert capsys.readouterr().out.strip() == "agree"
