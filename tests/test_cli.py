"""Tests for the command-line interface.

Every subcommand gets two smoke tests: ``--help`` must parse, and a
tiny-budget invocation must run to completion (exit code 0). This is
the cheap guard against a driver refactor breaking the CLI wiring.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

#: Every registered subcommand.
COMMANDS = (
    "workloads",
    "quickstart",
    "compare",
    "weights",
    "sensitivity",
    "scalability",
    "overhead",
    "obs",
    "resilience",
    "cluster",
    "broker",
    "warmstart",
    "chaos",
    "qos",
    "serve",
    "loadgen",
    "report",
    "figure",
)

#: Server/client commands: no experiment to run, so no common options.
SERVE_COMMANDS = ("serve", "loadgen")

#: Common options with a sample value each.
COMMON_OPTIONS = {
    "--duration": ["2"],
    "--units": ["4"],
    "--suite": ["ecp"],
    "--mix": ["1"],
    "--seed": ["7"],
    "--workers": ["2"],
    "--cache-dir": ["cache"],
    "--no-cache": [],
}

#: (command, common option) pairs the command never reads.
UNREAD_OPTIONS = (
    [("qos", option) for option in ("--seed", "--suite", "--mix")]
    + [(command, option) for command in ("figure", "scalability")
       for option in ("--suite", "--mix")]
    + [(command, "--mix") for command in ("cluster", "broker", "warmstart", "chaos")]
    + [("figure", "--seed")]
    + [("report", option) for option in ("--suite", "--mix", "--seed")]
    + [(command, option) for command in ("figure", "report")
       for option in ("--duration", "--units")]
    + [(command, option) for command in ("quickstart", "weights", "overhead", "obs")
       for option in ("--workers", "--cache-dir", "--no-cache")]
)

#: Tiny-budget invocation per subcommand (fast enough for tier-1).
TINY_INVOCATIONS = {
    "workloads": ["workloads"],
    "quickstart": ["quickstart", "--duration", "2", "--units", "4", "--suite", "ecp"],
    "compare": ["compare", "--duration", "2", "--units", "4", "--suite", "ecp", "--mix", "1"],
    "weights": ["weights", "--duration", "3", "--units", "4", "--suite", "ecp"],
    "sensitivity": ["sensitivity", "--duration", "2", "--units", "4", "--suite", "ecp"],
    "scalability": ["scalability", "--duration", "2", "--units", "4", "--degrees", "3"],
    "overhead": ["overhead", "--duration", "2", "--units", "4", "--suite", "ecp"],
    "obs": ["obs", "--duration", "2", "--units", "4", "--suite", "ecp"],
    "resilience": ["resilience", "--duration", "3", "--units", "4", "--suite", "ecp",
                   "--intensities", "0.5"],
    "cluster": ["cluster", "--nodes", "2", "--epochs", "2", "--duration", "1",
                "--units", "4", "--suite", "ecp",
                "--policies", "EqualPartition", "--placements", "round_robin"],
    "broker": ["broker", "--nodes", "2", "--epochs", "2", "--duration", "1",
               "--units", "4", "--suite", "ecp", "--policy", "EqualPartition",
               "--brokers", "static", "harvest"],
    "warmstart": ["warmstart", "--duration", "3", "--units", "4", "--suite", "ecp",
                  "--mixes", "2", "--nodes", "2", "--epochs", "4"],
    "chaos": ["chaos", "--nodes", "2", "--epochs", "4", "--duration", "1",
              "--units", "4", "--suite", "ecp", "--policy", "EqualPartition",
              "--crash-node", "0", "--crash-epoch", "1", "--outage", "2"],
    "qos": ["qos", "--nodes", "2", "--epochs", "2", "--duration", "1",
            "--units", "4", "--shapes", "flash_crowd",
            "--policies", "SATORI", "BoPF", "--trace-seeds", "0"],
    "serve": ["serve", "--port", "0", "--exit-after", "0.2"],
    "loadgen": ["loadgen", "--self-host", "--suite", "ecp", "--units", "4",
                "--policy", "EqualPartition", "--epochs", "3",
                "--epoch-s", "0.02", "--connections", "4"],
    "report": ["report"],  # on the stand-in figure registry below
    "figure": ["figure", "--list"],
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_command_is_covered(self):
        # Keep COMMANDS/TINY_INVOCATIONS in sync with the parser: a new
        # subcommand must add its tiny invocation here.
        parser = build_parser()
        registered = set(parser._subparsers._group_actions[0].choices)
        assert registered == set(COMMANDS) == set(TINY_INVOCATIONS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_parses(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_known_commands_accept_common_options(self):
        parser = build_parser()
        for command in COMMANDS:
            if command in ("workloads", "figure", "report") + SERVE_COMMANDS:
                continue
            args = parser.parse_args([command, "--duration", "2"])
            assert args.command == command

    def test_every_command_accepts_trace_dir(self):
        # --trace-dir is a common option: every experiment subcommand
        # except workloads must parse it (the PR 5 carry-over audit).
        # serve/loadgen are excluded: the server exports through
        # /metrics, not a one-shot trace dump.
        parser = build_parser()
        for command in COMMANDS:
            if command == "workloads" or command in SERVE_COMMANDS:
                continue
            args = parser.parse_args([command, "--trace-dir", "/tmp/t"])
            assert args.trace_dir == "/tmp/t"

    @pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
    def test_unread_common_option_rejected(self, command, option, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, option, *COMMON_OPTIONS[option]])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_read_common_options_accepted(self):
        parser = build_parser()
        for command in COMMANDS:
            if command == "workloads" or command in SERVE_COMMANDS:
                continue
            for option, value in COMMON_OPTIONS.items():
                if (command, option) not in UNREAD_OPTIONS:
                    parser.parse_args([command, option, *value])


class TestStartup:
    def test_import_loads_no_scipy_module(self):
        """Importing scipy.stats costs every process over a second and
        tens of MB, and scipy.special alone about 18 MB and 0.2 s. The
        acquisition carries its own normal cdf; only a confidence
        interval imports scipy.special, when it is computed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert loaded.stdout.strip() == "[]"


class TestTinyInvocations:
    @pytest.fixture(autouse=True)
    def cheap_figures(self, monkeypatch):
        """report runs every figure at its definition: keep one cheap id."""
        from repro.experiments import figures

        monkeypatch.setattr(figures, "FIGURES", {"fig2": figures.FIGURES["fig2"]})

    @pytest.mark.parametrize("command", COMMANDS)
    def test_runs_clean(self, command, capsys):
        assert main(TINY_INVOCATIONS[command]) == 0
        capsys.readouterr()  # drain

    def test_workloads_output(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out and "xsbench" in out

    def test_quickstart_output(self, capsys):
        assert main(TINY_INVOCATIONS["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "SATORI" in out and "Balanced Oracle" in out

    def test_compare_output(self, capsys):
        assert main(TINY_INVOCATIONS["compare"]) == 0
        assert "PARTIES" in capsys.readouterr().out

    def test_weights_output(self, capsys):
        assert main(TINY_INVOCATIONS["weights"]) == 0
        assert "W_T" in capsys.readouterr().out

    def test_overhead_output(self, capsys):
        assert main(TINY_INVOCATIONS["overhead"]) == 0
        assert "decision time" in capsys.readouterr().out

    def test_obs_output(self, capsys):
        assert main(TINY_INVOCATIONS["obs"]) == 0
        out = capsys.readouterr().out
        assert "decision-latency budget" in out
        assert "gp_fit" in out and "acquisition" in out and "actuation" in out
        assert "span coverage" in out

    def test_obs_json_round_trips_through_serialize(self, capsys):
        import json

        from repro.experiments.obs import ObsReport

        assert main(TINY_INVOCATIONS["obs"] + ["--json"]) == 0
        report = ObsReport.from_dict(json.loads(capsys.readouterr().out))
        assert report.budget.n_intervals > 0
        assert ObsReport.from_dict(report.to_dict()) == report

    def test_obs_json_stdout_stays_json_with_trace_dir(self, capsys, tmp_path):
        import json

        from repro.experiments.obs import ObsReport
        from repro.obs.export import read_jsonl

        trace_dir = tmp_path / "trace"
        assert main(TINY_INVOCATIONS["obs"]
                    + ["--json", "-", "--trace-dir", str(trace_dir)]) == 0
        report = ObsReport.from_dict(json.loads(capsys.readouterr().out))
        events = read_jsonl(trace_dir / "trace.jsonl")
        assert any(e.name == "gp_fit" and e.kind == "span" for e in events)
        # The report summarizes the same collector the trace came from.
        assert report.n_events == len(events)

    def test_obs_trace_artifacts(self, capsys, tmp_path):
        import json

        from repro.obs.export import read_jsonl

        trace_dir = tmp_path / "trace"
        json_path = tmp_path / "report.json"
        assert main(TINY_INVOCATIONS["obs"]
                    + ["--trace-dir", str(trace_dir), "--json", str(json_path)]) == 0
        capsys.readouterr()  # drain
        events = read_jsonl(trace_dir / "trace.jsonl")
        assert any(e.name == "gp_fit" for e in events)
        chrome = json.loads((trace_dir / "trace.chrome.json").read_text())
        assert chrome["traceEvents"][0]["ph"] == "M"
        assert any(entry.get("ph") == "X" for entry in chrome["traceEvents"])
        assert "gp_chol" in (trace_dir / "metrics.prom").read_text()
        assert json.loads(json_path.read_text())["mix_label"]

    def test_cluster_output(self, capsys):
        assert main(TINY_INVOCATIONS["cluster"]) == 0
        out = capsys.readouterr().out
        assert "cluster-wide" in out
        assert "per-node [round_robin / EqualPartition]" in out
        assert "fairness" in out

    def test_warmstart_output(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "warmstart.json"
        assert main(TINY_INVOCATIONS["warmstart"] + ["--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "recovery gain" in out
        assert "warm-started node-epochs" in out
        report = json.loads(out_path.read_text())
        assert len(report["adaptation"]) == 2
        assert "job_speedup_delta" in report["cluster"]

    def test_warmstart_rejects_a_single_mix(self):
        # The recovery-gain confidence interval needs two mixes.
        with pytest.raises(SystemExit, match="--mixes must be at least 2"):
            main(["warmstart", "--duration", "2", "--units", "4", "--mixes", "1",
                  "--nodes", "2", "--epochs", "3"])

    def test_cluster_warm_start_flag(self, capsys):
        assert main(TINY_INVOCATIONS["cluster"] + ["--warm-start"]) == 0
        capsys.readouterr()  # drain

    def test_broker_without_static_control(self, capsys):
        # A harvest-only sweep still compares placements; with no static
        # cell to pair against, the deltas section is left out.
        argv = ["broker", "--nodes", "2", "--epochs", "2", "--duration", "1",
                "--units", "4", "--suite", "ecp", "--policy", "EqualPartition",
                "--brokers", "harvest"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cluster-wide by broker scheme:" in out
        assert "paired deltas vs the static control" not in out

    def test_chaos_output_and_json(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        assert main(
            TINY_INVOCATIONS["chaos"]
            + ["--json", str(out_path), "--assert-recovery"]
        ) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "no_recovery" in out
        assert "chaos assertions passed" in out
        report = json.loads(out_path.read_text())
        assert set(report["arms"]) == {"recovery", "no_recovery"}
        assert report["arms"]["recovery"]["jobs_lost"] == 0
        assert report["arms"]["recovery"]["pool_conserved"] is True

    def test_common_trace_dir_exports_artifacts(self, capsys, tmp_path):
        # A command *without* its own collector still exports trace
        # artifacts through the shared --trace-dir path in main().
        trace_dir = tmp_path / "trace"
        assert main(
            TINY_INVOCATIONS["quickstart"] + ["--trace-dir", str(trace_dir)]
        ) == 0
        capsys.readouterr()  # drain
        assert (trace_dir / "trace.jsonl").exists()
        assert (trace_dir / "trace.chrome.json").exists()
        assert (trace_dir / "metrics.prom").exists()

    def test_cluster_rejects_unknown_placement(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="unknown placement"):
            main(["cluster", "--nodes", "2", "--epochs", "1", "--duration", "1",
                  "--units", "4", "--policies", "EqualPartition",
                  "--placements", "nope"])
