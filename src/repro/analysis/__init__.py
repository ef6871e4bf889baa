"""Analysis utilities: replication statistics and terminal plots."""

from repro.analysis.stats import (
    PairedDelta,
    ReplicatedScore,
    confidence_interval,
    paired_deltas,
)

__all__ = [
    "PairedDelta",
    "ReplicatedScore",
    "confidence_interval",
    "paired_deltas",
]
