"""The deterministic broker schemes: ``static``, ``harvest``, ``trade``.

All three are pure functions of the observed views plus a small amount
of carried state (trade cooldowns); none draws random numbers, so a
fixed trace yields a bit-identical budget trajectory — the property
the determinism tests pin.

* ``static``  — never moves anything: today's fixed-capacity fleet,
  kept as the paired control every broker study compares against.
* ``harvest`` — Spirit's global-enforcer move: each epoch, take units
  from the *best-off* node (highest observed per-job speedup — its
  jobs retain the most of their isolation performance, so it can
  afford the loss) and give them to the *worst-off* node. The
  short-term sacrifice of the donor is the long-term gain of the
  fleet: SATORI's core trade, applied across nodes instead of jobs.
* ``trade``   — pairwise *exchange*: the worst-off node receives one
  unit of its scarcest resource from the best-off node and pays with
  one unit of its most-abundant resource, so the resource *mix* of
  each node drifts toward its demand while each node's total changes
  by at most zero or one unit per epoch. A hysteresis guard (minimum
  observed-speedup gap) plus a cooldown on reversing a recent exchange
  keeps the scheme from ping-ponging units between near-tied nodes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.base import BrokerView, GlobalBroker, register_broker
from repro.cluster.budget import ResourceBudget

#: The trade scheme's guards: the minimum observed-speedup gap before a
#: trade happens (below it the fleet is considered level, so near-tied
#: nodes do not swap units back and forth every epoch), and the epochs
#: during which the exact reverse of an executed exchange is suppressed
#: (one noisy epoch cannot immediately undo a trade).
_TRADE_HYSTERESIS = 0.05
_TRADE_COOLDOWN = 2


@register_broker
class StaticBroker(GlobalBroker):
    """Budgets never move: the fixed-capacity control."""

    name = "static"

    def decide(self, epoch: int, views: Sequence[BrokerView]) -> Dict[int, ResourceBudget]:
        return self._unchanged(views)


@register_broker
class HarvestBroker(GlobalBroker):
    """Take from the best-off node, give to the worst-off node.

    Moves at most one unit of each resource per epoch, and only on a
    strict observed-speedup gap between donor and recipient: a
    perfectly level fleet is left alone.
    """

    name = "harvest"

    def __init__(self) -> None:
        self._moved_units = 0

    @property
    def moved_units(self) -> int:
        """Total units moved so far (all resources)."""
        return self._moved_units

    def decide(self, epoch: int, views: Sequence[BrokerView]) -> Dict[int, ResourceBudget]:
        budgets = self._unchanged(views)
        ranked = self._by_need(views)
        recipient = ranked[0]
        # The donor is the best-off node that actually has slack to
        # give; a maxed-out-but-thriving node is skipped rather than
        # raided below its floor.
        donor: Optional[BrokerView] = None
        for view in reversed(ranked):
            if view.node_id != recipient.node_id and view.total_slack > 0:
                donor = view
                break
        if donor is None:
            return budgets
        if donor.mean_speedup - recipient.mean_speedup <= 0.0:
            return budgets
        moved = False
        donor_budget = budgets[donor.node_id]
        recipient_budget = budgets[recipient.node_id]
        for resource in donor.budget.names:
            if donor.slack(resource) < 1:
                continue
            donor_budget = donor_budget.transfer(resource, -1)
            recipient_budget = recipient_budget.transfer(resource, 1)
            self._moved_units += 1
            moved = True
        if moved:
            budgets[donor.node_id] = donor_budget
            budgets[recipient.node_id] = recipient_budget
        return budgets


@register_broker
class TradeBroker(GlobalBroker):
    """Pairwise resource exchange between the worst- and best-off nodes."""

    name = "trade"

    def __init__(self) -> None:
        #: Executed exchanges as (epoch, source, target, resource) — one
        #: entry per direction, pruned to the cooldown window.
        self._recent: List[Tuple[int, int, int, str]] = []

    def decide(self, epoch: int, views: Sequence[BrokerView]) -> Dict[int, ResourceBudget]:
        self._recent = [
            move for move in self._recent if epoch - move[0] <= _TRADE_COOLDOWN
        ]
        budgets = self._unchanged(views)
        ranked = self._by_need(views)
        worst, best = ranked[0], ranked[-1]
        if worst.node_id == best.node_id:
            return budgets
        if best.mean_speedup - worst.mean_speedup <= _TRADE_HYSTERESIS:
            return budgets
        want = self._scarcest(worst, giver=best)
        if want is None:
            return budgets
        give = self._most_abundant(worst, exclude=want)
        if self._on_cooldown(epoch, best.node_id, worst.node_id, want):
            return budgets
        if give is not None and self._on_cooldown(
            epoch, worst.node_id, best.node_id, give
        ):
            give = None
        budgets[best.node_id] = budgets[best.node_id].transfer(want, -1)
        budgets[worst.node_id] = budgets[worst.node_id].transfer(want, 1)
        self._recent.append((epoch, best.node_id, worst.node_id, want))
        if give is not None:
            budgets[worst.node_id] = budgets[worst.node_id].transfer(give, -1)
            budgets[best.node_id] = budgets[best.node_id].transfer(give, 1)
            self._recent.append((epoch, worst.node_id, best.node_id, give))
        return budgets

    def _on_cooldown(self, epoch: int, source: int, target: int, resource: str) -> bool:
        """Would (source -> target, resource) reverse a recent exchange?"""
        return any(
            move_source == target and move_target == source and move_resource == resource
            for _, move_source, move_target, move_resource in self._recent
        )

    @staticmethod
    def _scarcest(view: BrokerView, giver: BrokerView) -> Optional[str]:
        """The receiving node's tightest resource the giver can spare."""
        candidates = [
            name for name in view.budget.names if giver.slack(name) >= 1
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda name: (view.slack(name), name))

    @staticmethod
    def _most_abundant(view: BrokerView, exclude: str) -> Optional[str]:
        """What the receiving node pays with: its loosest other resource.

        ``None`` when it has nothing to spare — the exchange then
        degrades to a one-way grant, which conservation still permits.
        """
        candidates = [
            name
            for name in view.budget.names
            if name != exclude and view.slack(name) >= 1
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda name: (view.slack(name), name))
