"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fleet-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the same work untraced and then traced, checks that
both produce identical ``sim_*`` values, and prints the per-layer
metrics. The last line of standard output is the result object; a run
record and diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HarnessError, prepare_environment, run_record  # noqa: E402

WORKLOADS = ("fleet-dense", "fleet-chaos", "serve-satori")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the harness self-test)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _result_line(summary, metrics) -> str:
    for name, (value, _) in metrics.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise HarnessError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps({
        "correct": bool(summary["correct"]),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv=None) -> int:
    args = _parse(argv)
    prepare_environment()
    if args.workload.startswith("fleet"):
        import fleet

        scale = fleet.TINY if args.tiny else fleet.FULL
        if args.probe_setup:
            fleet.probe_setup(args.workload, args.seed, scale)
            return 0
        if args.trace:
            summary, metrics = fleet.run_traced(args.workload, args.seed, scale)
        else:
            summary, metrics = fleet.run_untraced(
                args.workload, args.seed, args.seconds, scale, args.tiny)
    else:
        import serve

        scale = serve.TINY if args.tiny else serve.FULL
        if args.trace:
            summary, metrics = serve.run_traced(args.seed, args.seconds, scale)
        else:
            summary, metrics = serve.run_untraced(args.seed, args.seconds, scale)
    record = run_record(args.workload, args.seed, args.seconds, bool(args.trace))
    record.update({k: v for k, v in summary.items() if k not in ("correct",)})
    print(json.dumps({"run_record": record}), file=sys.stderr)
    for problem in summary.get("problems", ()):
        print(f"check failed: {problem}", file=sys.stderr)
    print(_result_line(summary, metrics), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
