"""Dependency-free terminal plots for examples, the CLI, and reports.

Matplotlib is not assumed (and not installed in offline reproduction
environments); these renderers cover compact sparklines for time
series in tables and a per-node sparkline dashboard for cluster runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError

if TYPE_CHECKING:
    from repro.cluster.simulator import ClusterResult

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Dashboard columns, left to right, each read off one node-epoch
#: record; ``None`` (no budget, no qos job hosted) adds no point.
_NODE_METRICS = {
    "throughput": lambda r: r.throughput,
    "fairness": lambda r: r.fairness,
    "occupancy": lambda r: r.n_jobs,
    "budget_units": lambda r: None if r.budget is None else r.budget.total_units,
    "slo_attainment": lambda r: (
        np.mean([value for _, value in r.slo_attained]) if r.slo_attained else None
    ),
}


def sparkline(values: Sequence[float], lo: Optional[float] = None, hi: Optional[float] = None) -> str:
    """One-line unicode sparkline of a numeric series."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise ExperimentError("cannot sparkline an empty series")
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return " " * values.size
    lo = float(finite.min()) if lo is None else lo
    hi = float(finite.max()) if hi is None else hi
    span = hi - lo
    chars = []
    for v in values:
        if not np.isfinite(v):
            chars.append(" ")
            continue
        if span <= 0:
            chars.append(_SPARK_LEVELS[len(_SPARK_LEVELS) // 2])
            continue
        level = int((v - lo) / span * (len(_SPARK_LEVELS) - 1) + 0.5)
        chars.append(_SPARK_LEVELS[min(max(level, 0), len(_SPARK_LEVELS) - 1)])
    return "".join(chars)


def cluster_node_dashboard(results: Iterable["ClusterResult"]) -> str:
    """Per-node sparkline dashboard over cluster runs.

    One block per run, labelled ``placement / policy`` (plus
    ``@broker`` when a broker ran) and sorted by label; one row per
    node; one sparkline per metric over the node's records in epoch
    order (throughput, fairness, occupancy, budget units, mean qos
    attainment). Within a block each metric shares its scale across
    nodes, so an unfair placement shows up as visibly divergent rows.
    A column no record of a node carries is drawn as ``-``.

    Raises:
        ExperimentError: if no run has a node-epoch record.
    """
    cells = []
    for result in results:
        nodes: Dict[int, Dict[str, List[float]]] = {}
        for node_id in sorted({r.node_id for r in result.records}):
            per_node = nodes[node_id] = {}
            for record in result.node_records(node_id):
                for metric_name, read in _NODE_METRICS.items():
                    value = read(record)
                    if value is not None:
                        per_node.setdefault(metric_name, []).append(float(value))
        if nodes:
            policy = result.policy
            if result.broker != "none":
                policy += f"@{result.broker}"
            cells.append(((result.placement, policy), nodes))
    if not cells:
        raise ExperimentError("no cluster node-epoch records to chart")

    seen_metrics = {m for _, nodes in cells for per_node in nodes.values() for m in per_node}
    columns = [m for m in _NODE_METRICS if m in seen_metrics]
    blocks = []
    for (placement, policy), nodes in sorted(cells, key=lambda cell: cell[0]):
        # Shared per-metric scale across the cell's nodes.
        scales = {}
        for metric_name in columns:
            pooled = [v for per_node in nodes.values()
                      for v in per_node.get(metric_name, ())]
            if pooled:
                scales[metric_name] = (min(pooled), max(pooled))
        n_epochs = max(len(v) for per_node in nodes.values() for v in per_node.values())
        col_width = max(n_epochs + 7, max(len(m) for m in columns) + 1)
        header = "  node  " + "".join(m.ljust(col_width) for m in columns)
        lines = [f"[{placement} / {policy}]  ({n_epochs} epochs)", header]
        for node, per_node in sorted(nodes.items()):
            row = f"  {node:4d}  "
            for metric_name in columns:
                values = per_node.get(metric_name)
                if values is None:
                    row += "-".ljust(col_width)
                    continue
                lo, hi = scales[metric_name]
                cell_text = f"{sparkline(values, lo, hi)} {values[-1]:.2f}"
                row += cell_text.ljust(col_width)
            lines.append(row.rstrip())
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)

