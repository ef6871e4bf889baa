"""One-shot reproduction report: every figure id's block, as markdown.

``generate_report`` runs every claim of
:data:`repro.experiments.figures.FIGURES` on one engine and renders,
under one heading per figure id, the block that id's benchmark gates
print. Driven by ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.engine import ExecutionEngine
from repro.experiments import figures


def generate_report(engine: Optional[ExecutionEngine] = None) -> str:
    """Run every figure id on ``engine`` and return the markdown report."""
    engine = engine or ExecutionEngine()
    started = time.perf_counter()
    parts: List[str] = ["# SATORI reproduction report", ""]
    for name in figures.FIGURES:
        parts += [
            f"## {name}",
            "",
            f"`python -m repro figure {name}`",
            "",
            "```",
            figures.run_figure(name, engine),
            "```",
            "",
        ]
    elapsed = time.perf_counter() - started
    parts.append(
        f"---\n*generated in {elapsed:.1f} s of wall time; "
        f"engine: {engine.stats.summary()} ({engine.workers} worker(s))*"
    )
    return "\n".join(parts)
