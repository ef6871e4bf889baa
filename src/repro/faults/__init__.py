"""Deterministic, seeded fault injection for the simulated testbed.

SATORI is an online controller: the paper's claim that it "requires no
further initialization" and adapts through phase changes (Sec. III-C)
only matters if the control loop survives a real deployment's failure
modes — failed MSR writes, dropped or garbage ``pqos`` samples, and
jobs that crash mid-interval. This package provides the *substrate*
for exercising those failure modes reproducibly:

* :class:`~repro.faults.plan.FaultPlan` — a frozen, hashable,
  JSON-round-trippable description of fault *rates* (the experiment
  knob; it composes with :class:`~repro.engine.RunSpec` digests);
* :class:`~repro.faults.schedule.FaultSchedule` — the concrete,
  deterministic realization of a plan: a tuple of
  :class:`~repro.faults.schedule.FaultEvent` windows drawn from RNG
  streams derived from an explicit seed, so identical (plan, seed)
  pairs produce bit-identical fault timelines in every process;
* :class:`~repro.faults.msr.FaultyMsrFile` — an
  :class:`~repro.hardware.msr.MsrFile` whose writes can be armed to
  fail, which is where injected actuation faults surface (the CAT/MBA
  actuators raise exactly as they would on a real ``#GP``).

The *hardening* that survives these faults lives with the components
it protects: retry/fallback actuation in
:class:`~repro.system.simulation.CoLocationSimulator`, sample
validation and the watchdog in
:class:`~repro.core.controller.SatoriController`, and partial batches
(``on_error="record"``) in :class:`~repro.engine.ExecutionEngine`.
The experiment that measures the difference is
:mod:`repro.experiments.resilience`.
"""

from repro.faults.msr import FaultyMsrFile
from repro.faults.nodes import (
    NODE_DOWN,
    NODE_FLAKY,
    NODE_STRAGGLER,
    NodeFaultEvent,
    NodeFaultPlan,
    NodeFaultSchedule,
)
from repro.faults.plan import FaultPlan
from repro.faults.schedule import (
    ACTUATION,
    CRASH,
    DROP,
    HANG,
    NAN,
    OUTAGE_ATTEMPTS,
    OUTLIER,
    STUCK,
    FaultEvent,
    FaultSchedule,
)

__all__ = [
    "ACTUATION",
    "CRASH",
    "DROP",
    "FaultEvent",
    "FaultPlan",
    "FaultSchedule",
    "FaultyMsrFile",
    "HANG",
    "NAN",
    "NODE_DOWN",
    "NODE_FLAKY",
    "NODE_STRAGGLER",
    "NodeFaultEvent",
    "NodeFaultPlan",
    "NodeFaultSchedule",
    "OUTAGE_ATTEMPTS",
    "OUTLIER",
    "STUCK",
]
