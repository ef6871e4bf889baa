"""Tests for the figure registry, the report and their CLI commands.

The benchmark gates read their inputs from ``FIGURES``; the literals
below are those inputs, so an edit that changes what a gate checks
fails here first. Only the cheap claims (Figs. 1, 2, 3 and 14(a))
run at their definitions; the report is tested on a stand-in registry
of them.
"""

import dataclasses

import pytest

from repro.engine import ExecutionEngine
from repro.errors import ExperimentError
from repro.experiments import figures
from repro.experiments.figures import FIGURES, figure_names, run_figure
from repro.experiments.report import generate_report

FIG17_MIX = ("blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster")


def sweep(suite, n_mixes):
    return dict(suite=suite, mixes=tuple(range(n_mixes)), seeds=(0,), duration_s=20.0,
                units=8, args={})


#: Each figure id's claims, as (suite, mixes, seeds, run length, units,
#: driver arguments): the values its gate ran before the registry held them.
PINNED = {
    "fig1": [dict(suite="parsec", mixes=(17,), seeds=(), duration_s=20.0, units=8,
                  args={"step_s": 0.5})],
    "fig2": [dict(suite="parsec", mixes=(0,), seeds=(), duration_s=None, units=8,
                  args={"times_s": (0.0, 4.0, 8.0)})],
    "fig3": [dict(suite="parsec", mixes=(0,), seeds=(7,), duration_s=None, units=8,
                  args={"n_samples": 120})],
    "fig7": [sweep("parsec", 21)],
    "fig8": [sweep("parsec", 21)],
    "fig9": [sweep("parsec", 21)],
    "fig10": [sweep("cloudsuite", 10)],
    "fig11": [sweep("ecp", 10)],
    "fig12": [sweep("cloudsuite", 10)],
    "fig13": [sweep("ecp", 10)],
    "fig14": [
        dict(suite="parsec", mixes=(17,), seeds=(3,), duration_s=20.0, units=8, args={}),
        dict(suite="parsec", mixes=(3, 10, 17), seeds=(3, 10, 17), duration_s=20.0,
             units=8, args={}),
    ],
    "fig15": [dict(suite="parsec", mixes=(17,), seeds=(2,), duration_s=20.0, units=8,
                   args={})],
    "fig16": [dict(suite="parsec", mixes=(17,), seeds=(4,), duration_s=15.0, units=8,
                   args={"prioritization_sweep": (0.5, 1.0, 2.0, 5.0),
                         "equalization_sweep": (5.0, 10.0, 20.0, 30.0)})],
    "fig17": [dict(suite="parsec", mixes=(FIG17_MIX,), seeds=(5,), duration_s=20.0,
                   units=8, args={})],
    "fig18": [dict(suite="parsec", mixes=(FIG17_MIX,), seeds=(6,), duration_s=20.0,
                   units=8, args={})],
    "fig19": [dict(suite="parsec", mixes=(5, 17), seeds=(5, 17), duration_s=20.0,
                   units=8, args={})],
    "scalability": [dict(suite="parsec", mixes=(), seeds=(0,), duration_s=20.0, units=8,
                         args={"degrees": (3, 4, 5, 6, 7), "mixes_per_degree": 2})],
    "overhead": [dict(suite="parsec", mixes=(0,), seeds=(0,), duration_s=15.0, units=8,
                      args={"idle_detection": True})],
    "ablation": [dict(suite="parsec", mixes=(5, 17), seeds=(5, 17), duration_s=20.0,
                      units=8, args={})],
    "cluster": [dict(suite="ecp", mixes=(), seeds=(0,), duration_s=15.0, units=8,
                     args={"n_nodes": 2, "n_epochs": 3,
                           "placements": ("round_robin", "contention_aware"),
                           "policies": ("SATORI",)})],
}


def inputs(claim):
    return {f.name: getattr(claim, f.name) for f in dataclasses.fields(claim)
            if f.name not in ("driver", "show")}


@pytest.fixture
def stand_in_figures(monkeypatch):
    """A registry of the cheap claims only, one id holding two."""
    registry = {"fig2": FIGURES["fig2"], "pair": FIGURES["fig1"] + FIGURES["fig3"]}
    monkeypatch.setattr(figures, "FIGURES", registry)
    return registry


class TestDefinitions:
    def test_every_id_pinned(self):
        assert set(FIGURES) == set(PINNED)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_inputs_are_the_gates(self, name):
        assert [inputs(claim) for claim in FIGURES[name]] == PINNED[name]

    def test_mixes_resolve_by_index_or_names(self):
        (fig17,) = FIGURES["fig17"]
        assert fig17.job_mixes()[0].names == FIG17_MIX
        (fig15,) = FIGURES["fig15"]
        assert fig15.job_mixes()[0].label == "canneal+fluidanimate+freqmine+swaptions+vips"


class TestRegistry:
    def test_names_sorted_and_nonempty(self):
        names = figure_names()
        assert names and list(names) == sorted(names)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            run_figure("fig99")

    @pytest.mark.parametrize("name, title", [
        ("fig1", "Fig. 1 — throughput-optimal configuration over time"),
        ("fig2", "Fig. 2 — goal conflict over three instants"),
        ("fig3", "Fig. 3 — re-balancing opportunity"),
    ])
    def test_cheap_figures_print_their_gate_block(self, name, title):
        (claim,) = FIGURES[name]
        text = run_figure(name)
        assert text == claim.render(claim.run())
        assert text.startswith(title)

    def test_fig14a_runs_at_its_definition(self):
        claim = FIGURES["fig14"][0]
        trace, result = claim.run()
        assert len(result.telemetry) == 200  # 20 s of 0.1 s intervals
        text = claim.render((trace, result))
        assert text.startswith("Fig. 14(a) — weight decomposition trace")
        assert "long-term mean weights: W_T=" in text

    def test_an_engine_changes_nothing(self):
        (claim,) = FIGURES["fig2"]
        assert claim.render(claim.run(ExecutionEngine())) == claim.render(claim.run())

    def test_claims_of_one_id_print_in_order(self, stand_in_figures):
        first, second = stand_in_figures["pair"]
        assert run_figure("pair") == (
            first.render(first.run()) + "\n\n" + second.render(second.run())
        )


class TestReport:
    def test_every_id_rendered(self, stand_in_figures):
        report = generate_report()
        assert report.startswith("# SATORI reproduction report")
        for name in stand_in_figures:
            assert f"## {name}\n\n`python -m repro figure {name}`\n\n```\n" in report
            assert run_figure(name) in report
        assert report.index("## fig2") < report.index("## pair")
        assert "engine: " in report.splitlines()[-1]

    def test_cli_report_to_file(self, stand_in_figures, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out)]) == 0
        assert f"report written to {out}" in capsys.readouterr().out
        assert run_figure("pair") in out.read_text()


class TestFigureCli:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["figure", "--list"]) == 0
        assert capsys.readouterr().out.split() == list(figure_names())

    def test_run_one(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig2"]) == 0
        assert capsys.readouterr().out == run_figure("fig2") + "\n"

    def test_missing_name_errors(self):
        from repro.cli import main

        assert main(["figure"]) == 2

    @pytest.mark.parametrize("command", [["figure", "fig2"], ["report"]])
    @pytest.mark.parametrize("option", [["--units", "4"], ["--duration", "2"],
                                        ["--mixes", "1"], ["--seed", "1"]])
    def test_scale_options_removed(self, command, option, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + option)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
