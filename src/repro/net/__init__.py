"""The network layer: the HTTP front door of the annotation service.

Everything before this package speaks Python; this package puts the
:class:`repro.service.AnnotationService` behind a real TCP socket:

* :mod:`repro.net.server` — a stdlib-only asyncio HTTP/1.1 server exposing
  batch annotation, the streaming session lifecycle, the TkPRQ/TkFRPQ query
  endpoints, ``/healthz`` and ``/metrics``, with request-size limits,
  structured JSON errors and graceful session-draining shutdown;
* :mod:`repro.net.wire` — the JSON wire format, byte-compatible with the
  persistence serialisers so HTTP answers compare bitwise against
  in-process calls;
* ``python -m repro.net --serve`` — the CLI entry point.

Serving performance is measured by the repository benchmark
(``perfbench/``, see ``perfbench/METHOD.md``), which drives this server in
its own process.  See the "The network layer" section of
``docs/ARCHITECTURE.md`` for the endpoint table.
"""

from repro.net.server import AnnotationHTTPServer, HttpError, Metrics, ServerThread
from repro.net.wire import WireError

__all__ = [
    "AnnotationHTTPServer",
    "HttpError",
    "Metrics",
    "ServerThread",
    "WireError",
]
