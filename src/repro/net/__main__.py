"""CLI: ``python -m repro.net --serve``.

``--serve`` trains a fast C2MN on the named catalogue scenario's training
half and serves it over HTTP until interrupted (Ctrl-C drains open sessions
before exiting).
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional, Sequence, Tuple

from repro.net.server import DEFAULT_MAX_BODY, AnnotationHTTPServer
from repro.scenarios import materialize, scenario_names
from repro.service.service import AnnotationService

#: The scaled-down fit shared with ``replay_scenario`` and the query suite.
_FIT_CONFIG = dict(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4)


def build_service(
    scenario_name: str,
    *,
    seed: Optional[int] = None,
    window: int = AnnotationService.DEFAULT_WINDOW,
    indexed: bool = False,
) -> Tuple[AnnotationService, object]:
    """Materialise a scenario, fit a fast C2MN on its training half, wrap it.

    Returns ``(service, scenario)``; the held-out half is never training
    data, so it is what clients should send.
    """
    from repro.core.annotator import C2MNAnnotator
    from repro.core.config import C2MNConfig
    from repro.mobility.dataset import train_test_split

    scenario = materialize(scenario_name, seed)
    train, _ = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
    annotator = C2MNAnnotator(
        scenario.space, config=C2MNConfig.fast(**_FIT_CONFIG)
    )
    annotator.fit(train.sequences)
    service = AnnotationService(annotator, window=window, indexed=indexed)
    return service, scenario


async def _serve(server: AnnotationHTTPServer) -> None:
    await server.start()
    print(f"serving on {server.address} (Ctrl-C to drain and exit)", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
    await stop.wait()
    flushed = await server.stop()
    print(f"drained: {len(flushed)} m-semantics flushed from open sessions")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="HTTP front door for the annotation service.",
    )
    parser.add_argument("--serve", action="store_true", required=True,
                        help="train on the scenario and serve HTTP until Ctrl-C")
    parser.add_argument(
        "--scenario",
        default="mall-tiny",
        choices=sorted(scenario_names()),
        help="catalogue scenario supplying the model (default: mall-tiny)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8073,
        help="listen port (default: %(default)s; 0 picks an ephemeral port)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario materialisation seed (default: registered)")
    parser.add_argument("--window", type=int,
                        default=AnnotationService.DEFAULT_WINDOW,
                        help="streaming window (default: %(default)s)")
    parser.add_argument("--indexed", action="store_true",
                        help="attach the live semantic-region index")
    parser.add_argument("--max-body", type=int, default=DEFAULT_MAX_BODY,
                        help="request-body byte limit (default: %(default)s)")
    args = parser.parse_args(argv)

    print(f"materialising {args.scenario} and fitting the annotator ...")
    service, _ = build_service(
        args.scenario, seed=args.seed, window=args.window, indexed=args.indexed
    )
    server = AnnotationHTTPServer(
        service, host=args.host, port=args.port, max_body=args.max_body
    )
    asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    sys.exit(main())
