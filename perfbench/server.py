"""Serve a saved annotation service over HTTP for the live_stream workload.

    python3 perfbench/server.py --model MODEL.json --scenario NAME [--trace-out SPANS.json]

Prints ``port <n>`` once it listens on an ephemeral localhost port; SIGTERM
drains it and exits.  With ``--trace-out`` the annotator's stages, the
stream sessions and the store's publishes are spans (see ``layers.py``),
written to that file on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

import common


async def serve(server) -> None:
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(f"port {server.port}", flush=True)
    await stop.wait()
    await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve a saved annotation service.")
    parser.add_argument("--model", required=True, help="AnnotationService.save file")
    parser.add_argument("--scenario", required=True, help="scenario of the venue")
    parser.add_argument("--trace-out", help="write spans to this file on exit")
    args = parser.parse_args(argv)
    common.import_program()
    from repro.net.server import AnnotationHTTPServer
    from repro.scenarios import get_scenario
    from repro.service.service import AnnotationService

    space = get_scenario(args.scenario).venue.build()
    service = AnnotationService.load(args.model, space)
    tracer = None
    if args.trace_out:
        import layers
        import tracing

        tracer = tracing.Tracer()
        service = layers.TracedService(service.annotator, tracer, window=service.window)
    asyncio.run(serve(AnnotationHTTPServer(service)))
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
