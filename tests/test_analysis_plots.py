"""Tests for the terminal plot renderers."""

import pytest

from repro.analysis.plots import cluster_node_dashboard, sparkline
from repro.cluster.budget import ResourceBudget
from repro.cluster.simulator import ClusterResult, NodeEpochRecord
from repro.errors import ExperimentError


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline(range(8))
        assert list(line) == sorted(line, key="▁▂▃▄▅▆▇█".index)

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1

    def test_nan_rendered_as_space(self):
        assert sparkline([1.0, float("nan"), 2.0])[1] == " "

    def test_custom_bounds(self):
        clipped = sparkline([5.0], lo=0.0, hi=10.0)
        assert clipped == "▄" or clipped == "▅"

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sparkline([])


def cluster_result(trends, placement="round_robin", broker="none", budgets=None):
    """A hand-built run: ``trends`` maps node id to per-epoch scores;
    ``budgets`` maps node id to a per-epoch uniform unit count."""
    records = []
    for node_id, values in trends.items():
        for epoch, value in enumerate(values):
            units = (budgets or {}).get(node_id)
            records.append(NodeEpochRecord(
                epoch=epoch, node_id=node_id, job_ids=(0, 1), synthesized=False,
                throughput=value, fairness=value,
                budget=None if units is None else ResourceBudget((("cores", units),)),
            ))
    return ClusterResult(
        n_nodes=len(trends), policy="SATORI", placement=placement,
        n_epochs=max(len(v) for v in trends.values()),
        records=tuple(sorted(records, key=lambda r: (r.epoch, r.node_id))),
        broker=broker,
    )


class TestClusterNodeDashboard:
    TRENDS = {0: (0.5, 0.7, 0.9), 1: (0.9, 0.7, 0.5)}

    def test_one_block_per_cell_one_row_per_node(self):
        out = cluster_node_dashboard([
            cluster_result(self.TRENDS, placement="round_robin"),
            cluster_result(self.TRENDS, placement="least_loaded"),
        ])
        assert "[round_robin / SATORI]" in out and "(3 epochs)" in out
        # Blocks sort by label, whatever order the runs come in.
        assert out.index("[least_loaded / SATORI]") < out.index("[round_robin / SATORI]")
        lines = out.splitlines()
        assert sum(1 for line in lines if line.strip().startswith(("0 ", "1 "))) == 4

    def test_sparklines_share_scale_within_cell(self):
        out = cluster_node_dashboard([cluster_result(self.TRENDS)])
        # Opposite trends on a shared scale: node 0 rises, node 1 falls.
        node0 = next(l for l in out.splitlines() if l.strip().startswith("0"))
        node1 = next(l for l in out.splitlines() if l.strip().startswith("1"))
        assert "▁" in node0 and "█" in node0
        assert "▁" in node1 and "█" in node1

    def test_broker_joins_the_label(self):
        out = cluster_node_dashboard([
            cluster_result(self.TRENDS, broker="harvest"),
            cluster_result(self.TRENDS),
        ])
        assert "[round_robin / SATORI@harvest]" in out
        assert "[round_robin / SATORI]" in out

    def test_no_cluster_series_rejected(self):
        with pytest.raises(ExperimentError, match="no cluster"):
            cluster_node_dashboard([])
        empty = ClusterResult(n_nodes=2, policy="SATORI", placement="rr",
                              n_epochs=0, records=())
        with pytest.raises(ExperimentError, match="no cluster"):
            cluster_node_dashboard([empty])

    def test_missing_metric_column_rendered_as_dash(self):
        out = cluster_node_dashboard([
            cluster_result({0: (1.0,), 1: (1.0,)}, budgets={1: 4})
        ])
        assert "budget_units" in out
        node0 = next(l for l in out.splitlines() if l.strip().startswith("0"))
        node1 = next(l for l in out.splitlines() if l.strip().startswith("1"))
        assert node0.rstrip().endswith("-")
        assert node1.rstrip().endswith("4.00")

