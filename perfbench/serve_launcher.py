"""Launch the control-plane server with the benchmark's layer spans.

    python3 perfbench/serve_launcher.py --out SPANS.json

Installs the layer wrappers before ``ControlPlaneServer.start()`` (the
server's own collector is the ambient one, so the spans land there),
prints the same ``listening on HOST:PORT`` line as ``repro serve``, and
serves until SIGINT or SIGTERM. At shutdown it writes the benchmark
spans and the count of program events the collector retained.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import prepare_environment  # noqa: E402


async def _serve(out: str) -> None:
    import layers
    from repro.serve import ControlPlaneServer

    layers.install()
    server = ControlPlaneServer(host="127.0.0.1", port=0)
    await server.start()
    host, port = server.address
    print(f"control plane listening on {host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    await server.stop()
    events = server.collector.events
    rows, instants = layers.span_rows(events)
    with open(out, "w") as handle:
        json.dump({
            "spans": rows,
            "instants": instants,
            "events_retained": sum(1 for e in events if e.category != layers.CATEGORY),
            "counts": dict(layers.COUNTS),
            "counters": server.collector.metrics.counters(),
        }, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    prepare_environment()
    asyncio.run(_serve(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
