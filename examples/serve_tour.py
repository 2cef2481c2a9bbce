"""A tour of the HTTP front door.

Run with::

    python examples/serve_tour.py

The script walks the network layer end to end:

1. fit a fast C2MN on a catalogue scenario's training half, wrap it in an
   `AnnotationService` and host it on a background `ServerThread`;
2. batch-annotate a held-out p-sequence over HTTP and verify the JSON
   answer is bitwise-identical to the in-process call;
3. stream another object through the session endpoints in chunks, with
   live TkPRQ answers over HTTP while the session is still open;
4. read the `/metrics` counters the server accumulated.

Serving performance is measured by the repository benchmark; see
`perfbench/METHOD.md`.
"""

from __future__ import annotations

import json
from urllib.parse import quote
from urllib.request import Request, urlopen

from repro.core.annotator import C2MNAnnotator
from repro.core.config import C2MNConfig
from repro.mobility.dataset import train_test_split
from repro.net import ServerThread
from repro.net.wire import record_to_wire, sequence_to_wire
from repro.persistence.serializers import semantics_to_dicts
from repro.scenarios import materialize
from repro.service import AnnotationService


def _call(server, method, path, body=None):
    request = Request(
        f"{server.address}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method=method,
    )
    with urlopen(request) as response:
        return json.loads(response.read())


def main() -> None:
    print("== 1. Train on a catalogue scenario and open the front door ==")
    scenario = materialize("mall-tiny")
    train, test = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
    annotator = C2MNAnnotator(
        scenario.space,
        config=C2MNConfig.fast(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4),
    )
    annotator.fit(train.sequences)
    service = AnnotationService(annotator)

    with ServerThread(service) as server:
        print(f"  serving {scenario.name} on {server.address}")
        health = _call(server, "GET", "/healthz")
        print(f"  /healthz: {health}")

        print("\n== 2. HTTP annotate == in-process annotate, bitwise ==")
        sequence = test.sequences[0].sequence
        reply = _call(
            server, "POST", "/v1/annotate",
            {"sequences": [sequence_to_wire(sequence)]},
        )
        expected = semantics_to_dicts(annotator.annotate(sequence))
        assert reply["semantics"] == [json.loads(json.dumps(expected))]
        print(f"  {sequence.object_id}: {len(reply['semantics'][0])} m-semantics, "
              "identical over the wire")

        print("\n== 3. Streaming a live object through the session endpoints ==")
        streamed = test.sequences[1].sequence
        # Object ids may contain "/", so they are URL-encoded in the path.
        target = quote(f"{streamed.object_id}/live", safe="")
        _call(server, "POST", "/v1/sessions",
              {"object_id": f"{streamed.object_id}/live"})
        records = [record_to_wire(record) for record in streamed]
        finalized = 0
        for offset in range(0, len(records), 32):
            chunk = _call(server, "POST", f"/v1/sessions/{target}/records",
                          {"records": records[offset:offset + 32]})
            finalized += len(chunk["finalized"])
        top = _call(server, "GET", "/v1/queries/popular-regions?k=3")
        print(f"  mid-stream TkPRQ(3): {top['results']}")
        flushed = _call(server, "POST", f"/v1/sessions/{target}/finish")
        print(f"  {finalized} m-semantics finalized in flight, "
              f"{len(flushed['flushed'])} flushed at finish")

        print("\n== 4. What the server measured about itself ==")
        metrics = _call(server, "GET", "/metrics")
        for endpoint, counters in sorted(metrics["requests"].items()):
            latency = metrics["latency_ms"][endpoint]["sum"]
            print(f"  {endpoint:24s} {counters['count']:4d} requests  "
                  f"{counters['errors']} errors  {latency:8.1f} ms total")

    print("\nserver drained and stopped")


if __name__ == "__main__":
    main()
