"""The HTTP front door: equivalence with the in-process service + robustness.

The core contract: every byte a client gets over ``/v1/...`` is exactly what
the same call would have produced in-process (through the shared wire
helpers), and malformed or oversized traffic gets a structured JSON error
without taking the server down.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import quote

import pytest

from repro.net.__main__ import main as net_main
from repro.net.server import ServerThread
from repro.net.wire import (
    pairs_to_wire,
    record_to_wire,
    regions_to_wire,
    semantics_to_wire,
    sequence_to_wire,
)
from repro.service.service import AnnotationService


def _request(server, method, path, body=None, raw: bytes = None):
    """One JSON request against a ServerThread; returns (status, payload)."""
    data = raw if raw is not None else (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = urllib.request.Request(
        f"{server.address}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        payload = error.read()
        return error.code, json.loads(payload) if payload else {}


@pytest.fixture(scope="module")
def served(fitted_annotator):
    """A running server plus its service, shared by the module's tests."""
    service = AnnotationService(fitted_annotator)
    with ServerThread(service) as server:
        yield server, service


def test_healthz_reports_liveness(served):
    server, service = served
    status, payload = _request(server, "GET", "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["live_sessions"] == len(service.live_sessions())
    assert payload["uptime_seconds"] >= 0


def test_annotate_matches_inprocess_bitwise(served, fitted_annotator, small_split):
    server, _ = served
    _, test = small_split
    body = {
        "sequences": [
            {**sequence_to_wire(labeled.sequence),
             "object_id": f"{labeled.object_id}/eq-batch"}
            for labeled in test.sequences
        ]
    }
    status, payload = _request(server, "POST", "/v1/annotate", body)
    assert status == 200

    # The in-process reference: a *separate* service around the same
    # annotator, serialised through the same persistence shapes.
    reference = AnnotationService(fitted_annotator)
    sequences = [labeled.sequence for labeled in test.sequences]
    expected = [
        semantics_to_wire(entries)
        for entries in reference.annotate_batch(sequences)
    ]
    # JSON round-trip on our side too, so float representation is identical.
    assert payload["semantics"] == json.loads(json.dumps(expected))


def test_stream_lifecycle_matches_inprocess(served, fitted_annotator, small_split):
    server, service = served
    _, test = small_split
    labeled = test.sequences[0]
    object_id = f"{labeled.object_id}/eq-stream"

    status, payload = _request(
        server, "POST", "/v1/sessions", {"object_id": object_id}
    )
    assert status == 201
    assert payload["object_id"] == object_id
    assert payload["window"] == AnnotationService.DEFAULT_WINDOW

    records = [record_to_wire(record) for record in labeled.sequence]
    finalized = []
    chunk = 16
    for start in range(0, len(records), chunk):
        status, payload = _request(
            server,
            "POST",
            f"/v1/sessions/{quote(object_id, safe='')}/records",
            {"records": records[start:start + chunk]},
        )
        assert status == 200
        finalized.extend(payload["finalized"])
    status, payload = _request(
        server, "POST", f"/v1/sessions/{quote(object_id, safe='')}/finish", {}
    )
    assert status == 200
    finalized.extend(payload["flushed"])
    assert payload["record_count"] == len(records)

    # In-process reference stream over a separate service.
    reference = AnnotationService(fitted_annotator)
    session = reference.session(labeled.object_id)
    expected = list(session.extend(list(labeled.sequence)))
    expected.extend(session.finish())
    assert finalized == json.loads(json.dumps(semantics_to_wire(expected)))

    # The published store content matches too, and the session evicted.
    assert service.store.semantics_for(object_id) == (
        reference.store.semantics_for(labeled.object_id)
    )
    assert service.get_session(object_id) is None


def test_concurrent_streams_match_inprocess(served, fitted_annotator, small_split):
    """Clients streaming at once each get their own serial in-process answer.

    Three sessions interleave their record batches, each followed by a
    query, on one server: no request may fail, and no session's
    m-semantics may depend on the others' traffic.
    """
    server, service = served
    _, test = small_split
    streams = [labeled.sequence[:40] for labeled in test.sequences[:3]]
    object_ids = [
        f"{labeled.object_id}/concurrent" for labeled in test.sequences[:3]
    ]

    def stream(object_id, sequence):
        path = f"/v1/sessions/{quote(object_id, safe='')}"
        assert _request(server, "POST", "/v1/sessions", {"object_id": object_id})[0] == 201
        records = [record_to_wire(record) for record in sequence]
        finalized = []
        for start in range(0, len(records), 5):
            status, payload = _request(
                server, "POST", f"{path}/records", {"records": records[start:start + 5]}
            )
            assert status == 200
            finalized.extend(payload["finalized"])
            assert _request(server, "GET", "/v1/queries/popular-regions?k=3")[0] == 200
        status, payload = _request(server, "POST", f"{path}/finish", {})
        assert status == 200
        return finalized + payload["flushed"]

    with ThreadPoolExecutor(max_workers=len(streams)) as pool:
        answers = list(pool.map(stream, object_ids, streams))

    for object_id, sequence, answer in zip(object_ids, streams, answers):
        reference = AnnotationService(fitted_annotator)
        session = reference.session(object_id)
        expected = list(session.extend(list(sequence)))
        expected.extend(session.finish())
        assert answer == json.loads(json.dumps(semantics_to_wire(expected)))
        assert service.store.semantics_for(object_id) == (
            reference.store.semantics_for(object_id)
        )


def test_query_endpoints_match_inprocess(served):
    server, service = served
    for kind, evaluate, encode in (
        ("popular-regions", service.query_popular_regions, regions_to_wire),
        ("frequent-pairs", service.query_frequent_pairs, pairs_to_wire),
    ):
        status, payload = _request(server, "GET", f"/v1/queries/{kind}?k=5")
        assert status == 200
        assert payload["k"] == 5
        assert payload["results"] == encode(evaluate(5))


def test_query_with_bounds_and_regions(served):
    server, service = served
    status, payload = _request(
        server, "GET",
        "/v1/queries/popular-regions?k=3&start=0&end=1e9&regions=1,2,3",
    )
    assert status == 200
    expected = service.query_popular_regions(
        3, query_regions={1, 2, 3}, start=0.0, end=1e9
    )
    assert payload["results"] == regions_to_wire(expected)


@pytest.mark.parametrize(
    "path",
    [
        "/v1/queries/popular-regions",  # k missing
        "/v1/queries/popular-regions?k=0",
        "/v1/queries/popular-regions?k=five",
        "/v1/queries/frequent-pairs?k=2&start=noon",
        "/v1/queries/frequent-pairs?k=2&regions=",
    ],
)
def test_bad_query_params_get_structured_400(served, path):
    server, _ = served
    status, payload = _request(server, "GET", path)
    assert status == 400
    assert payload["error"]["code"] == "bad_query"
    assert payload["error"]["status"] == 400


def test_unknown_session_is_404(served):
    server, _ = served
    status, payload = _request(
        server, "POST", "/v1/sessions/nobody/records",
        {"records": [{"x": 1.0, "y": 1.0, "floor": 0, "t": 1.0}]},
    )
    assert status == 404
    assert payload["error"]["code"] == "unknown_session"


def test_duplicate_session_is_409(served):
    server, _ = served
    body = {"object_id": "dup-session"}
    assert _request(server, "POST", "/v1/sessions", body)[0] == 201
    status, payload = _request(server, "POST", "/v1/sessions", body)
    assert status == 409
    assert payload["error"]["code"] == "session_exists"


def test_out_of_order_records_are_409_and_session_survives(served):
    server, _ = served
    assert _request(
        server, "POST", "/v1/sessions", {"object_id": "ooo-session"}
    )[0] == 201
    ok = {"records": [{"x": 1.0, "y": 1.0, "floor": 0, "t": 100.0}]}
    assert _request(
        server, "POST", "/v1/sessions/ooo-session/records", ok
    )[0] == 200
    stale = {"records": [{"x": 1.0, "y": 1.0, "floor": 0, "t": 1.0}]}
    status, payload = _request(
        server, "POST", "/v1/sessions/ooo-session/records", stale
    )
    assert status == 409
    assert payload["error"]["code"] == "bad_stream"
    # The session is still live and accepts in-order records.
    later = {"records": [{"x": 2.0, "y": 1.0, "floor": 0, "t": 101.0}]}
    assert _request(
        server, "POST", "/v1/sessions/ooo-session/records", later
    )[0] == 200


def test_malformed_json_is_400(served):
    server, _ = served
    status, payload = _request(
        server, "POST", "/v1/annotate", raw=b"{not json"
    )
    assert status == 400
    assert payload["error"]["code"] == "bad_json"


@pytest.mark.parametrize(
    "body,code",
    [
        ({}, "bad_annotate"),
        ({"sequences": []}, "bad_annotate"),
        ({"sequences": [{"records": []}]}, "bad_type"),
        ({"sequences": [{"records": [{"x": 1.0, "y": 2.0}]}]}, "missing_field"),
        ({"sequences": [{"records": [
            {"x": "a", "y": 2.0, "floor": 0, "t": 1.0}]}]}, "bad_type"),
    ],
)
def test_bad_annotate_payloads_get_structured_400(served, body, code):
    server, _ = served
    status, payload = _request(server, "POST", "/v1/annotate", body)
    assert status == 400
    assert payload["error"]["code"] == code


def test_unknown_endpoint_is_404_and_wrong_method_is_405(served):
    server, _ = served
    assert _request(server, "GET", "/v1/nope")[0] == 404
    status, payload = _request(server, "GET", "/v1/annotate")
    assert status == 405
    assert payload["error"]["code"] == "method_not_allowed"
    assert _request(server, "POST", "/healthz", {})[0] == 405


def test_oversized_body_is_413_and_server_survives(fitted_annotator):
    service = AnnotationService(fitted_annotator)
    with ServerThread(service, max_body=2048) as server:
        status, payload = _request(
            server, "POST", "/v1/annotate", raw=b"x" * 4096
        )
        assert status == 413
        assert payload["error"]["code"] == "payload_too_large"
        assert _request(server, "GET", "/healthz")[0] == 200


def test_garbage_request_line_does_not_kill_server(served):
    server, _ = served
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(b"\x00\xff garbage\r\n\r\n")
        sock.settimeout(10)
        response = sock.recv(4096)
    assert b"400" in response.split(b"\r\n", 1)[0]
    assert _request(server, "GET", "/healthz")[0] == 200


def test_metrics_counts_and_histograms(served):
    server, _ = served
    before = _request(server, "GET", "/metrics")[1]
    _request(server, "GET", "/v1/queries/popular-regions?k=1")
    _request(server, "GET", "/v1/queries/popular-regions?k=0")  # an error
    status, after = _request(server, "GET", "/metrics")
    assert status == 200
    assert after["buckets_ms"] == list(server.server.metrics.BUCKETS_MS)
    counters = after["requests"]["queries.popular-regions"]
    previous = before["requests"].get(
        "queries.popular-regions", {"count": 0, "errors": 0}
    )
    assert counters["count"] == previous["count"] + 2
    assert counters["errors"] == previous["errors"] + 1
    histogram = after["latency_ms"]["queries.popular-regions"]
    assert sum(histogram["counts"]) == counters["count"]
    assert "live_sessions" in after and "published_objects" in after


def _read_one_response(sock) -> bytes:
    """Read exactly one content-length-framed response from a socket."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection before the headers ended"
        buffer += chunk
    head, body = buffer.split(b"\r\n\r\n", 1)
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "server closed the connection mid-body"
        body += chunk
    return head + b"\r\n\r\n" + body


def test_keep_alive_serves_multiple_requests_per_connection(served):
    server, _ = served
    probe = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.settimeout(10)
        for _ in range(2):
            sock.sendall(probe)
            response = _read_one_response(sock)
            assert response.startswith(b"HTTP/1.1 200")


def test_graceful_shutdown_drains_open_sessions(fitted_annotator, small_split):
    _, test = small_split
    labeled = test.sequences[0]
    service = AnnotationService(fitted_annotator)
    server = ServerThread(service).start()
    try:
        assert _request(
            server, "POST", "/v1/sessions", {"object_id": "drain-me"}
        )[0] == 201
        records = [record_to_wire(record) for record in labeled.sequence]
        assert _request(
            server, "POST", "/v1/sessions/drain-me/records",
            {"records": records},
        )[0] == 200
    finally:
        server.stop()
    # The drain finished the session and published its tail.
    assert service.live_sessions() == []
    reference = AnnotationService(fitted_annotator)
    session = reference.session(labeled.object_id)
    session.extend(list(labeled.sequence))
    session.finish()
    assert service.store.semantics_for("drain-me") == (
        reference.store.semantics_for(labeled.object_id)
    )


@pytest.mark.parametrize(
    "argv",
    [
        [],  # --serve is the only mode
        ["--serve", "--rate", "5"],  # the load generator's flags are retired
        ["--serve", "--mix", "stream=1"],
    ],
)
def test_cli_rejects_anything_but_serve(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        net_main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()
