"""Dynamic prioritization of goals (Sec. III-C, Eqs. 3-6).

SATORI temporarily prioritizes one goal over the other to exploit the
re-balancing opportunity of Observation 3, while guaranteeing that
over every *equalization period* ``T_E`` both goals average an equal
weight of 0.5. Each goal's weight has two components:

* the **prioritization weight** (Eq. 4), recomputed at every
  *prioritization period* ``T_P`` boundary from the percentage
  improvements of the goals during the previous period — the goal
  that improved *less* gets the larger weight next (prioritize the
  weaker goal; the paper found favoring the stronger goal instead
  underperforms by ~5%);
* the **equalization weight** (Eq. 3), the accumulated imbalance of
  the weights handed out so far in the current equalization period.

They are combined with a linearly growing emphasis on equalization as
the period end approaches (Eqs. 5-6). Following Sec. III-B/III-C, the
final weights are bounded to [0.25, 0.75] — "so as to not allow
weights to be 0 and 1" — and the pair is kept summing to 1.

Note on Eq. 3/5-6 as printed: the equalization terms are accumulated
imbalances whose magnitude is unbounded and whose raw combination
does not keep ``W_T + W_F = 1``; the paper's own bounding rule
(clamp to [0.25, 0.75]) is what restores well-formed weights, so the
implementation applies the equations verbatim and then that rule
(see DESIGN.md, "Faithfulness notes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import PolicyError
from repro.state import STATE_VERSION, check_version

#: Paper bounds on the weight factors (Sec. III-B).
WEIGHT_LOWER_BOUND = 0.25
WEIGHT_UPPER_BOUND = 0.75

#: Paper defaults (Sec. IV): prioritization 1 s, equalization 10 s.
DEFAULT_PRIORITIZATION_PERIOD_S = 1.0
DEFAULT_EQUALIZATION_PERIOD_S = 10.0


@dataclass(frozen=True)
class WeightState:
    """The scheduler's outputs for one iteration (Fig. 14(a) data).

    ``w_throughput``/``w_fairness`` are the final bounded weights;
    the equalization/prioritization components are exposed for the
    weight-decomposition trace of Fig. 14(a).
    """

    w_throughput: float
    w_fairness: float
    equalization_throughput: float
    equalization_fairness: float
    prioritization_throughput: float
    prioritization_fairness: float
    equalization_fraction: float
    period_reset: bool

    @property
    def pair(self) -> Tuple[float, float]:
        return (self.w_throughput, self.w_fairness)


class StaticWeights:
    """Fixed goal weights: plain Eq. 2 without dynamic prioritization.

    Used by Throughput SATORI (1, 0), Fairness SATORI (0, 1), and the
    "SATORI without dynamic prioritization" variant (0.5, 0.5) that
    Figs. 14(b), 17 and 18 compare against.
    """

    def __init__(self, w_throughput: float = 0.5, w_fairness: float = 0.5):
        if w_throughput < 0 or w_fairness < 0:
            raise PolicyError("weights must be non-negative")
        total = w_throughput + w_fairness
        if total <= 0:
            raise PolicyError("at least one weight must be positive")
        self._w_t = w_throughput / total
        self._w_f = w_fairness / total

    def check_interval(self, interval_s: float) -> None:
        """Any interval: fixed weights count no periods."""

    def update(self, throughput: float, fairness: float, interval_s: float) -> WeightState:
        """Return the fixed weights (inputs ignored; kept for protocol)."""
        return WeightState(
            w_throughput=self._w_t,
            w_fairness=self._w_f,
            equalization_throughput=0.0,
            equalization_fairness=0.0,
            prioritization_throughput=self._w_t,
            prioritization_fairness=self._w_f,
            equalization_fraction=0.0,
            period_reset=False,
        )

    def snapshot(self) -> None:
        """Stateless: nothing to carry across runs."""
        return None

    def restore(self, state: Optional[dict]) -> None:
        """Stateless: nothing to restore (protocol parity)."""


class DynamicWeightScheduler:
    """The paper's dynamic re-prioritization of throughput and fairness.

    Call :meth:`update` once per control interval with the goal scores
    measured in that interval and the interval's length; it returns the
    weights to use for the *next* objective-function reconstruction.
    The periods are counted in intervals of that length.

    Args:
        prioritization_period_s: ``T_P`` (1 s default).
        equalization_period_s: ``T_E`` (10 s default).
        favor_weaker_goal: the paper's chosen design — prioritize the
            goal that improved *less* last period. ``False`` switches
            to favoring the stronger goal (the alternative the paper
            measured to underperform by ~5%), used in ablations.
    """

    def __init__(
        self,
        prioritization_period_s: float = DEFAULT_PRIORITIZATION_PERIOD_S,
        equalization_period_s: float = DEFAULT_EQUALIZATION_PERIOD_S,
        favor_weaker_goal: bool = True,
    ):
        if equalization_period_s < prioritization_period_s:
            raise PolicyError("equalization period must cover the prioritization period")
        self._t_p = prioritization_period_s
        self._t_e = equalization_period_s
        self._favor_weaker = favor_weaker_goal
        # A fresh equalization period.
        self._step_in_te = 0
        self._sum_w_t = 0.0
        self._sum_w_f = 0.0
        self._w_tp = 0.5
        self._w_fp = 0.5
        self._period_scores: list = []

    def snapshot(self) -> dict:
        """The scheduler's position inside the current equalization period.

        A versioned JSON dict :meth:`restore` reads: the step counter,
        the accumulated weight sums (Eq. 3's imbalance terms), the
        incumbent prioritization weights (Eq. 4), and the score window
        the next prioritization boundary will difference.
        """
        return {
            "step_in_te": self._step_in_te,
            "sum_w_t": self._sum_w_t,
            "sum_w_f": self._sum_w_f,
            "w_tp": self._w_tp,
            "w_fp": self._w_fp,
            "period_scores": [[float(t), float(f)] for t, f in self._period_scores],
            "version": STATE_VERSION,
        }

    def restore(self, state: Optional[dict]) -> None:
        """Resume mid-period from a :meth:`snapshot`; ``None`` is a no-op."""
        if state is None:
            return
        check_version("weight scheduler state", state.get("version", STATE_VERSION))
        self._step_in_te = int(state["step_in_te"])
        self._sum_w_t = float(state["sum_w_t"])
        self._sum_w_f = float(state["sum_w_f"])
        self._w_tp = float(state["w_tp"])
        self._w_fp = float(state["w_fp"])
        self._period_scores = [(float(t), float(f)) for t, f in state.get("period_scores", ())]

    def check_interval(self, interval_s: float) -> None:
        """Reject an interval the periods cannot be counted in.

        Raises:
            PolicyError: if ``interval_s`` is not positive or is longer
                than ``T_P``.
        """
        if not 0 < interval_s <= self._t_p:
            raise PolicyError(
                f"prioritization period must cover at least one interval "
                f"({self._t_p} s against {interval_s} s)"
            )

    def update(self, throughput: float, fairness: float, interval_s: float) -> WeightState:
        """Advance one interval and produce the next weights.

        Args:
            throughput: normalized throughput score this interval.
            fairness: normalized fairness score this interval.
            interval_s: the interval's length; ``T_P`` and ``T_E``
                count ``max(1, round(period / interval_s))`` intervals.

        Raises:
            PolicyError: from :meth:`check_interval`, before any state
                changes.
        """
        self.check_interval(interval_s)
        steps_per_tp = max(1, round(self._t_p / interval_s))
        steps_per_te = max(1, round(self._t_e / interval_s))
        self._period_scores.append((throughput, fairness))

        # Prioritization-period boundary: recompute Eq. 4 from the
        # percent improvements over the period just ended.
        if self._step_in_te and self._step_in_te % steps_per_tp == 0:
            self._w_tp, self._w_fp = self._prioritization_weights()
            self._period_scores = self._period_scores[-1:]

        self._step_in_te += 1
        t_e = self._step_in_te  # elapsed iterations in the equalization period

        # Eq. 3: equalization weights from the accumulated imbalance.
        w_te = 0.5 * t_e - self._sum_w_t
        w_fe = 0.5 * t_e - self._sum_w_f

        # Eqs. 5-6: linear cross-fade toward equalization.
        fraction = t_e / steps_per_te
        w_t_raw = fraction * w_te + (1.0 - fraction) * self._w_tp
        w_f_raw = fraction * w_fe + (1.0 - fraction) * self._w_fp

        w_t, w_f = _bound_and_normalize(w_t_raw, w_f_raw)
        self._sum_w_t += w_t
        self._sum_w_f += w_f

        period_reset = self._step_in_te >= steps_per_te
        state = WeightState(
            w_throughput=w_t,
            w_fairness=w_f,
            equalization_throughput=fraction * w_te,
            equalization_fairness=fraction * w_fe,
            prioritization_throughput=(1.0 - fraction) * self._w_tp,
            prioritization_fairness=(1.0 - fraction) * self._w_fp,
            equalization_fraction=fraction,
            period_reset=period_reset,
        )
        if period_reset:
            # A new equalization period starts; prioritization history
            # carries over through _tp_start/_tp_last.
            self._step_in_te = 0
            self._sum_w_t = 0.0
            self._sum_w_f = 0.0
        return state

    def _prioritization_weights(self) -> Tuple[float, float]:
        """Eq. 4 from the percent improvements over the last period.

        The period's start and end levels are measured as short-window
        means (a quarter of the period each) rather than single
        samples, so pqos measurement noise does not masquerade as
        improvement and randomize the prioritization.
        """
        scores = self._period_scores
        k = max(1, len(scores) // 4)
        start_t = sum(s[0] for s in scores[:k]) / k
        start_f = sum(s[1] for s in scores[:k]) / k
        end_t = sum(s[0] for s in scores[-k:]) / k
        end_f = sum(s[1] for s in scores[-k:]) / k
        delta_t = max(_percent_change(start_t, end_t), 0.0)
        delta_f = max(_percent_change(start_f, end_f), 0.0)
        total = delta_t + delta_f
        if total <= 0:
            return 0.5, 0.5
        if self._favor_weaker:
            # Eq. 4: the goal whose counterpart improved more gets more
            # weight, i.e. the weaker goal is prioritized next.
            w_tp = 0.25 + 0.5 * (delta_f / total)
        else:
            # Ablation: favor the goal that just improved more.
            w_tp = 0.25 + 0.5 * (delta_t / total)
        return w_tp, 1.0 - w_tp


def _percent_change(start: float, end: float) -> float:
    if start <= 0:
        return 0.0
    return (end - start) / start * 100.0


def _bound_and_normalize(w_t: float, w_f: float) -> Tuple[float, float]:
    """Apply the paper's [0.25, 0.75] bounds and keep the pair summing to 1."""
    w_t = min(max(w_t, WEIGHT_LOWER_BOUND), WEIGHT_UPPER_BOUND)
    w_f = min(max(w_f, WEIGHT_LOWER_BOUND), WEIGHT_UPPER_BOUND)
    total = w_t + w_f
    w_t /= total
    w_f /= total
    # Renormalization can push one weight slightly past a bound when
    # the other sat at the opposite bound; a final clamp on one weight
    # (its complement derived) keeps both invariants exact.
    w_t = min(max(w_t, WEIGHT_LOWER_BOUND), WEIGHT_UPPER_BOUND)
    return w_t, 1.0 - w_t
