"""Run ``repro-overlay serve`` with the benchmark's span wrappers installed.

    python3 benchmarks/e2e/serve.py --spans FILE serve --port 0 --workers 2

The traced service-mixed run starts the server through this launcher.  On
top of the toolchain layers of :func:`spans.install` it wraps the service's
framing (``service.decode``, ``service.frame``), its request body
(``service.handle``, one operation per request) and records the time each
request waits for a worker thread (``service.queue``: from
``handle_async`` entry to ``handle`` start).  The spans are written to FILE
when the server stops on SIGTERM or SIGINT.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E.parents[1] / "src"))

import spans  # noqa: E402  (needs the source tree on sys.path first)


def instrument_service(tracer: spans.Tracer) -> None:
    from repro.service import server

    tracer.patch(server, "decode_line", "service.decode")
    tracer.patch(server, "decode_request", "service.decode")
    tracer.patch(server, "encode_line", "service.frame")
    tracer.patch(server.OverlayService, "handle", "service.handle", new_op=True)

    async def handle_async(self, payload):
        entered = time.perf_counter()

        def queued():
            tracer.record("service.queue", entered, time.perf_counter())
            return self.handle(payload)

        return await asyncio.get_running_loop().run_in_executor(self._executor, queued)

    server.OverlayService.handle_async = handle_async


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    # serve_forever shuts down cleanly on KeyboardInterrupt; SIGTERM gets the
    # same path so the spans are written whichever signal stops the server.
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)
    tracer = spans.Tracer()
    spans.install(tracer)
    instrument_service(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[1], "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
