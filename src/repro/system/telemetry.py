"""Telemetry recording for experiment runs.

A :class:`TelemetryLog` accumulates one record per control interval —
time, active configuration, measured IPS, and the derived goal scores
— and provides the aggregations the paper reports: time-averaged
throughput/fairness, per-job mean speedups, worst-job performance
(Fig. 9), and extraction of time series for the trace figures
(Figs. 14, 15(b), 17, 18).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExperimentError
from repro.metrics.goals import GoalScores, GoalSet
from repro.metrics.throughput import speedups
from repro.resources.allocation import Configuration


@dataclass(frozen=True)
class TelemetryRecord:
    """One control interval's worth of measurements and scores."""

    time_s: float
    config: Optional[Configuration]
    ips: Tuple[float, ...]
    isolation_ips: Tuple[float, ...]
    throughput: float
    fairness: float
    weights: Optional[Tuple[float, float]] = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def speedups(self) -> Tuple[float, ...]:
        return speedups(self.ips, self.isolation_ips)

    @property
    def scores(self) -> GoalScores:
        return GoalScores(self.throughput, self.fairness)

    def to_dict(self) -> Dict:
        """JSON-compatible representation (exact float round-trip)."""
        return {
            "time_s": self.time_s,
            "config": self.config.to_dict() if self.config is not None else None,
            "ips": list(self.ips),
            "isolation_ips": list(self.isolation_ips),
            "throughput": self.throughput,
            "fairness": self.fairness,
            "weights": list(self.weights) if self.weights is not None else None,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TelemetryRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Stored goal scores are restored verbatim rather than recomputed
        so a round-trip is bit-identical even if metric code changes.
        """
        weights = data.get("weights")
        config = data.get("config")
        return cls(
            time_s=float(data["time_s"]),
            config=Configuration.from_dict(config) if config is not None else None,
            ips=tuple(float(v) for v in data["ips"]),
            isolation_ips=tuple(float(v) for v in data["isolation_ips"]),
            throughput=float(data["throughput"]),
            fairness=float(data["fairness"]),
            weights=tuple(float(w) for w in weights) if weights is not None else None,
            extra={k: float(v) for k, v in data.get("extra", {}).items()},
        )


class TelemetryLog:
    """Accumulates per-interval records for one policy run."""

    def __init__(self, goals: Optional[GoalSet] = None):
        self._goals = goals or GoalSet()
        self._records: List[TelemetryRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]

    @property
    def goals(self) -> GoalSet:
        return self._goals

    @property
    def records(self) -> List[TelemetryRecord]:
        return list(self._records)

    def record(
        self,
        time_s: float,
        config: Optional[Configuration],
        ips: Sequence[float],
        isolation_ips: Sequence[float],
        weights: Optional[Tuple[float, float]] = None,
        extra: Optional[Dict[str, float]] = None,
    ) -> TelemetryRecord:
        """Score one interval's measurements and append the record.

        Non-finite IPS entries (dropped/corrupted monitoring samples
        under fault injection) are imputed with the job's last recorded
        value — a NaN would otherwise propagate through every mean the
        log reports — and the number of imputed samples is noted in the
        record's ``extra`` under ``"imputed_samples"``.
        """
        ips = list(ips)
        imputed = 0
        for j, value in enumerate(ips):
            if not math.isfinite(value):
                ips[j] = self._last_finite_ips(j)
                imputed += 1
        if imputed:
            extra = dict(extra or {})
            extra["imputed_samples"] = float(imputed)
        try:
            scores = self._goals.scores(ips, isolation_ips)
        except ExperimentError:
            # A fully-starved interval (every job crashed/hung to zero
            # IPS) has no defined CoV; score it worst-case instead of
            # aborting the run.
            scores = GoalScores(0.0, 0.0)
            extra = dict(extra or {})
            extra["degenerate_interval"] = 1.0
        # Coerce to plain Python floats: diagnostics frequently hand us
        # numpy scalars, which json.dumps rejects (np.bool_) or which
        # break strict round-trip equality checks.
        rec = TelemetryRecord(
            time_s=float(time_s),
            config=config,
            ips=tuple(float(v) for v in ips),
            isolation_ips=tuple(float(v) for v in isolation_ips),
            throughput=float(scores.throughput),
            fairness=float(scores.fairness),
            weights=(float(weights[0]), float(weights[1])) if weights is not None else None,
            extra={key: float(value) for key, value in (extra or {}).items()},
        )
        self._records.append(rec)
        return rec

    def _last_finite_ips(self, job: int) -> float:
        """Most recent finite IPS recorded for ``job`` (0.0 if none)."""
        for rec in reversed(self._records):
            if job < len(rec.ips) and math.isfinite(rec.ips[job]):
                return float(rec.ips[job])
        return 0.0

    # -- aggregations ---------------------------------------------------

    def _require_records(self) -> None:
        if not self._records:
            raise ExperimentError("telemetry log is empty")

    def mean_throughput(self) -> float:
        """Time-averaged throughput score over the run."""
        self._require_records()
        return float(np.mean([r.throughput for r in self._records]))

    def mean_fairness(self) -> float:
        """Time-averaged fairness score over the run."""
        self._require_records()
        return float(np.mean([r.fairness for r in self._records]))

    def mean_job_speedups(self) -> np.ndarray:
        """Per-job speedups averaged over the run."""
        self._require_records()
        return np.mean([r.speedups for r in self._records], axis=0)

    def worst_job_speedup(self) -> float:
        """Run-average speedup of the worst-performing job (Fig. 9)."""
        return float(np.min(self.mean_job_speedups()))

    def series(self, what: str) -> np.ndarray:
        """Extract a named time series.

        ``what`` is ``"time"``, ``"throughput"``, ``"fairness"``,
        ``"weight_throughput"``, ``"weight_fairness"``, or any key
        present in the records' ``extra`` dicts.
        """
        self._require_records()
        if what == "time":
            return np.array([r.time_s for r in self._records])
        if what == "throughput":
            return np.array([r.throughput for r in self._records])
        if what == "fairness":
            return np.array([r.fairness for r in self._records])
        if what in ("weight_throughput", "weight_fairness"):
            index = 0 if what == "weight_throughput" else 1
            values = [r.weights[index] if r.weights else np.nan for r in self._records]
            return np.array(values)
        if any(what in r.extra for r in self._records):
            return np.array([r.extra.get(what, np.nan) for r in self._records])
        raise ExperimentError(f"unknown telemetry series {what!r}")

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-compatible representation of the whole log."""
        return {
            "goals": {
                "throughput_metric": self._goals.throughput_metric,
                "fairness_metric": self._goals.fairness_metric,
            },
            "records": [r.to_dict() for r in self._records],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TelemetryLog":
        """Rebuild a log (records restored verbatim) from :meth:`to_dict`."""
        goals = data.get("goals") or {}
        log = cls(
            GoalSet(
                goals.get("throughput_metric", "sum_ips"),
                goals.get("fairness_metric", "jain"),
            )
        )
        log._records = [TelemetryRecord.from_dict(r) for r in data.get("records", [])]
        return log

    def tail(self, fraction: float) -> "TelemetryLog":
        """A log holding only the last ``fraction`` of records.

        Used to score the converged portion of a run, discarding the
        initial exploration transient.
        """
        if not 0 < fraction <= 1:
            raise ExperimentError(f"fraction must be in (0, 1], got {fraction}")
        self._require_records()
        keep = max(1, int(round(len(self._records) * fraction)))
        out = TelemetryLog(self._goals)
        out._records = self._records[-keep:]
        return out
