"""Throughput and fairness metrics, and the GoalSet evaluator."""

from repro.metrics.fairness import jain_index
from repro.metrics.goals import FAIRNESS_CHOICES, THROUGHPUT_CHOICES, GoalScores, GoalSet
from repro.metrics.throughput import speedups

__all__ = [
    "FAIRNESS_CHOICES",
    "GoalScores",
    "GoalSet",
    "THROUGHPUT_CHOICES",
    "jain_index",
    "speedups",
]
