"""Telemetry export: turn runs into plain data for external analysis.

Downstream users typically want run telemetry as flat records (CSV) or
structured summaries (JSON-compatible dicts) to feed their own
plotting pipelines; this module provides both without adding any
dependency beyond the standard library.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List

from repro.engine import ExecutionEngine
from repro.experiments.runner import RunResult
from repro.system.telemetry import TelemetryLog


def telemetry_rows(telemetry: TelemetryLog) -> List[Dict[str, Any]]:
    """One flat dict per control interval.

    Columns: time, throughput, fairness, per-job ips/speedup, weights
    (when present), plus every policy-diagnostic key found in the
    records' ``extra`` dicts.
    """
    rows = []
    for record in telemetry:
        row: Dict[str, Any] = {
            "time_s": float(record.time_s),
            "throughput": float(record.throughput),
            "fairness": float(record.fairness),
        }
        for j, (ips, iso) in enumerate(zip(record.ips, record.isolation_ips)):
            row[f"ips_job{j}"] = float(ips)
            row[f"speedup_job{j}"] = float(ips) / float(iso)
        if record.weights is not None:
            row["weight_throughput"] = float(record.weights[0])
            row["weight_fairness"] = float(record.weights[1])
        for key, value in record.extra.items():
            row[key] = float(value) if isinstance(value, (int, float)) else value
        rows.append(row)
    return rows


def telemetry_to_csv(telemetry: TelemetryLog) -> str:
    """Render a telemetry log as CSV text (header from the union of keys)."""
    rows = telemetry_rows(telemetry)
    if not rows:
        return ""
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def run_summary(result: RunResult) -> Dict[str, Any]:
    """JSON-compatible summary of one policy run."""
    scored = result.scored
    return {
        "policy": result.policy_name,
        "mix": result.mix_label,
        "duration_s": result.run_config.duration_s,
        "interval_s": result.run_config.interval_s,
        "intervals": len(result.telemetry),
        "throughput": float(result.throughput),
        "fairness": float(result.fairness),
        "worst_job_speedup": float(result.worst_job_speedup),
        "mean_job_speedups": [float(s) for s in scored.mean_job_speedups()],
    }


def run_summary_json(result: RunResult) -> str:
    """The run summary rendered as an indented JSON string."""
    return json.dumps(run_summary(result), indent=2)


def engine_summary(engine: ExecutionEngine) -> Dict[str, Any]:
    """JSON-compatible snapshot of an engine's counters and cache state."""
    summary: Dict[str, Any] = {"workers": engine.workers, **engine.stats.to_dict()}
    if engine.cache is not None:
        summary["cache"] = {"root": str(engine.cache.root), **engine.cache.stats()}
    return summary


def engine_summary_json(engine: ExecutionEngine) -> str:
    """The engine summary rendered as an indented JSON string."""
    return json.dumps(engine_summary(engine), indent=2)
