"""SATORI's multi-goal objective with per-goal records (Sec. III-B).

Traditional BO keeps one scalar observation per sampled point. When
the goal weights change, those scalars become stale and the point
would have to be *re-run* on the machine to re-score it — prohibitive
online. SATORI's enhancement is to record the **goal-specific**
outcomes (throughput score and fairness score) of every sample
separately, and reconstruct a fresh scalar objective

    f(x) = W_T * T(x) + W_F * F(x)          (Eq. 2)

in software at every iteration from the current weights. This module
is that record book. It is goal-count agnostic: the experiments use
(throughput, fairness), but any K goal scores per sample work, which
is the paper's extensibility claim (e.g. adding energy efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.resources.allocation import Configuration
from repro.state import STATE_VERSION, check_version


@dataclass(frozen=True)
class GoalSample:
    """One evaluated configuration with its per-goal scores.

    ``ips``/``isolation_ips`` optionally retain the raw per-job
    measurements the scores were computed from. They make the sample
    *rescorable*: just as recording per-goal scores lets the scalar
    objective be rebuilt when the goal weights change, recording the
    raw telemetry lets the goal scores themselves be rebuilt when the
    scoring context changes (e.g. a QoS guarantee tilts a job's
    baseline — see :class:`~repro.policies.bopf.BoPFPolicy`)."""

    config: Configuration
    encoded: Tuple[float, ...]
    scores: Tuple[float, ...]
    ips: Optional[Tuple[float, ...]] = None
    isolation_ips: Optional[Tuple[float, ...]] = None


class GoalRecords:
    """Separate per-goal performance records of all evaluated configs.

    Args:
        goal_names: names of the goals in score order, e.g.
            ``("throughput", "fairness")``.
        max_samples: cap on retained samples; the oldest samples are
            dropped beyond it. This both bounds the GP's cubic fit
            cost and ages out observations taken under old program
            phases — at the 0.1 s sampling interval the default keeps
            roughly one phase-length of history, mirroring the paper's
            periodic baseline resets.
    """

    def __init__(self, goal_names: Sequence[str] = ("throughput", "fairness"), max_samples: int = 64):
        if len(goal_names) < 1:
            raise ModelError("need at least one goal")
        if max_samples < 2:
            raise ModelError(f"max_samples must be >= 2, got {max_samples}")
        self._goal_names = tuple(goal_names)
        self._max_samples = max_samples
        self._samples: List[GoalSample] = []
        # The samples' encodings and goal scores, row i for sample i, in
        # the leading rows of (capacity, d) and (capacity, k) arrays
        # updated in place, so that each interval's readers do not
        # rebuild them. Allocated at the first add, when d is known.
        self._inputs: Optional[np.ndarray] = None
        self._scores: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def goal_names(self) -> Tuple[str, ...]:
        return self._goal_names

    @property
    def n_goals(self) -> int:
        return len(self._goal_names)

    @property
    def samples(self) -> List[GoalSample]:
        return list(self._samples)

    def add(
        self,
        config: Configuration,
        encoded: Sequence[float],
        scores: Sequence[float],
        ips: Optional[Sequence[float]] = None,
        isolation_ips: Optional[Sequence[float]] = None,
    ) -> None:
        """Record one evaluation; scores are in goal order.

        Re-evaluations of an already-sampled configuration are added
        as new samples (the paper keeps re-evaluations so the model
        tracks phase changes, Sec. III-C). Pass the raw ``ips`` and
        ``isolation_ips`` the scores were derived from to make the
        sample rescorable (see :meth:`rescore`).
        """
        if len(scores) != self.n_goals:
            raise ModelError(f"expected {self.n_goals} goal scores, got {len(scores)}")
        sample = GoalSample(
            config=config,
            encoded=tuple(float(v) for v in encoded),
            scores=tuple(float(s) for s in scores),
            ips=None if ips is None else tuple(float(v) for v in ips),
            isolation_ips=(
                None if isolation_ips is None else tuple(float(v) for v in isolation_ips)
            ),
        )
        if self._inputs is None:
            self._allocate(len(sample.encoded))
        self._samples.append(sample)
        n = len(self._samples)
        if n > self._max_samples:
            del self._samples[0]
            n -= 1
            self._inputs[: n - 1] = self._inputs[1:n]
            self._scores[: n - 1] = self._scores[1:n]
        self._inputs[n - 1] = sample.encoded
        self._scores[n - 1] = sample.scores

    def _allocate(self, dimensions: int) -> None:
        capacity = max(self._max_samples, len(self._samples))
        self._inputs = np.empty((capacity, dimensions))
        self._scores = np.empty((capacity, self.n_goals))

    def rescore(self, scorer) -> int:
        """Recompute stored goal scores in place; returns samples changed.

        ``scorer`` maps a :class:`GoalSample` to fresh goal scores (in
        goal order) or ``None`` to leave that sample untouched — e.g.
        samples recorded without raw telemetry cannot be rescored.
        This is the software-based proxy reconstruction of Sec. III-B
        taken one level deeper: where :meth:`objective_values` rebuilds
        the *scalar* objective from per-goal scores under fresh
        weights, ``rescore`` rebuilds the per-goal *scores* from raw
        telemetry under a fresh scoring context, so the whole sample
        book shifts consistently when that context changes.
        """
        changed = 0
        for index, sample in enumerate(self._samples):
            fresh = scorer(sample)
            if fresh is None:
                continue
            fresh = tuple(float(s) for s in fresh)
            if len(fresh) != self.n_goals:
                raise ModelError(f"expected {self.n_goals} goal scores, got {len(fresh)}")
            if fresh != sample.scores:
                self._samples[index] = replace(sample, scores=fresh)
                self._scores[index] = fresh
                changed += 1
        return changed

    def snapshot(self) -> dict:
        """The sample book as a versioned JSON dict :meth:`restore` reads.

        Each sample is ``{"config": ..., "encoded": [...], "scores":
        [...]}`` plus ``"ips"``/``"isolation_ips"`` when the sample
        kept its raw telemetry (absent, not null, otherwise).
        """
        return {
            "goal_names": list(self._goal_names),
            "max_samples": self._max_samples,
            "samples": [
                {
                    "config": s.config.to_dict(),
                    "encoded": list(s.encoded),
                    "scores": list(s.scores),
                    **({"ips": list(s.ips)} if s.ips is not None else {}),
                    **(
                        {"isolation_ips": list(s.isolation_ips)}
                        if s.isolation_ips is not None
                        else {}
                    ),
                }
                for s in self._samples
            ],
            "version": STATE_VERSION,
        }

    def restore(self, state: dict) -> "GoalRecords":
        """Replace the sample book with a :meth:`snapshot`'s contents.

        Only reads ``state``: its data is shared with the snapshot.
        """
        check_version("goal records state", state.get("version", STATE_VERSION))
        goal_names = tuple(str(name) for name in state["goal_names"])
        if goal_names != self._goal_names:
            raise ModelError(
                f"goal mismatch: records track {self._goal_names}, state has {goal_names}"
            )
        self._max_samples = int(state["max_samples"])
        self._samples = [
            GoalSample(
                config=Configuration.from_dict(sample["config"]),
                encoded=tuple(float(v) for v in sample["encoded"]),
                scores=tuple(float(v) for v in sample["scores"]),
                ips=(
                    None
                    if sample.get("ips") is None
                    else tuple(float(v) for v in sample["ips"])
                ),
                isolation_ips=(
                    None
                    if sample.get("isolation_ips") is None
                    else tuple(float(v) for v in sample["isolation_ips"])
                ),
            )
            for sample in state.get("samples", ())
        ]
        self._inputs = self._scores = None
        if self._samples:
            self._allocate(len(self._samples[0].encoded))
            n = len(self._samples)
            self._inputs[:n] = [s.encoded for s in self._samples]
            self._scores[:n] = [s.scores for s in self._samples]
        return self

    def inputs(self) -> np.ndarray:
        """All encoded inputs as an ``(n, d)`` matrix the caller owns.

        A copy: the records update their rows in place, and the GP
        keeps the matrix it was fitted on to compare with the next
        fit's prefix.
        """
        if not self._samples:
            raise ModelError("no samples recorded yet")
        return self._inputs[: len(self._samples)].copy()

    def goal_values(self, goal: str) -> np.ndarray:
        """All recorded values of one goal."""
        index = self._goal_index(goal)
        return np.asarray([s.scores[index] for s in self._samples], dtype=float)

    def objective_values(self, weights: Sequence[float]) -> np.ndarray:
        """Reconstruct Eq. 2 objective values under fresh weights.

        This is the "software-based reconstruction of the proxy model"
        (Sec. III-B): no configuration is re-run; the stored per-goal
        records are re-combined with the current weights.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_goals,):
            raise ModelError(f"expected {self.n_goals} weights, got shape {weights.shape}")
        if not self._samples:
            raise ModelError("no samples recorded yet")
        return self._scores[: len(self._samples)] @ weights

    def best(self, weights: Sequence[float]) -> Tuple[Configuration, float]:
        """Best recorded configuration under the given weights."""
        values = self.objective_values(weights)
        index = int(np.argmax(values))
        return self._samples[index].config, float(values[index])

    def latest(self) -> GoalSample:
        """The most recently recorded sample."""
        if not self._samples:
            raise ModelError("no samples recorded yet")
        return self._samples[-1]

    def goal_trace(self) -> Dict[str, np.ndarray]:
        """Each goal's recorded values in sample order (for analysis)."""
        return {name: self.goal_values(name) for name in self._goal_names}

    def _goal_index(self, goal: str) -> int:
        try:
            return self._goal_names.index(goal)
        except ValueError:
            raise ModelError(f"unknown goal {goal!r}; goals: {self._goal_names}") from None
