"""The live phase: positioning records posted one by one over HTTP.

The server runs in its own process (``server.py``) over the venue's
fitted C2MN.  Held-out sequences of the venue's scenario, drawn at other
seeds, play through a fixed number of concurrent sessions: a session opens
with its object's first record and finishes after its last, and the slot
then plays its next sequence.  The records of all slots are interleaved by
timestamp and offered open-loop at a constant rate, one record per
``POST /v1/sessions/{id}/records``; after every record comes a live TkPRQ
or TkFRPQ ``GET``, due shortly before the next record.  The generator
(``httpload.py``) holds at most ``nproc`` keep-alive connections and keeps
each object's records in order, and samples the speed probe
(``speed.py``) between records.

Latency runs from each request's scheduled time.  Before timing starts,
each initial session gets all but one record of a decode window in one
untimed push, and the initial sessions start at staggered points of their
sequences, so short-window decodes make up their steady-state share from
the first timed record on.

Correctness: every pushed batch's ``finalized`` list and every
``flushed`` list must equal what in-process stream sessions return for
the same feed (``reference.py``, run after timing in ``nproc`` processes).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import httpload
import speed
import tracing

#: Sessions open at any time.
SESSIONS = 8
#: Offered records per second: well under what the server sustains even
#: when the machine runs slow, so latency measures the program rather than
#: a queue at the edge of saturation.
RECORD_RATE = 20.0
#: The live query that follows every record (half of all arrivals, so a
#: 14 s phase times 280 of each) is due this many seconds before the next
#: record, after the record ahead of it has normally been decoded: it
#: meets a decode on the GIL only when decoding runs late, so its latency
#: is not bimodal.
QUERY_LEAD = 0.004
#: A speed probe (``speed.py``) is due in the generator this many seconds
#: after each record: after the server has normally decoded it and before
#: the next query.  It runs only when no request is out, so probe and
#: server never contend for a core.
PROBE_AFTER = 0.040
QUERY_KS = (1, 5, 10)
#: The bounded query window, inside the scenario's 1500 s of traffic.
BOUNDED = (300.0, 900.0)
#: Virtual pause between two sequences played by one slot.
SEQUENCE_GAP = 5.0
#: Held-out sequences drawn per slot; a run plays far fewer records.
SEQUENCES_PER_SLOT = 3


# ------------------------------------------------------------------- plan
@dataclass
class Arrival:
    """One scheduled event: a record push, a live query or a speed probe."""

    at: float
    object_id: str = ""
    record: Optional[dict] = None
    opens: bool = False
    finishes: bool = False
    query: str = ""
    probe: bool = False


@dataclass
class Plan:
    """The untimed prefill pushes and the timed arrivals of one phase."""

    prefill: List[Tuple[str, List[dict]]]
    arrivals: List[Arrival]


def query_path(index: int) -> str:
    """The ``index``-th live query: alternating kinds, cycling k and window."""
    kind = "popular-regions" if index % 2 == 0 else "frequent-pairs"
    k = QUERY_KS[(index // 2) % len(QUERY_KS)]
    path = f"/v1/queries/{kind}?k={k}"
    if (index // 6) % 2:
        path += f"&start={BOUNDED[0]}&end={BOUNDED[1]}"
    return path


def build_plan(sequences, seconds: float, window: int) -> Plan:
    """Lay out one phase: prefill pushes, then ``seconds`` of arrivals."""
    from repro.net.wire import record_to_wire

    prefill: List[Tuple[str, List[dict]]] = []
    timeline = []
    for slot in range(SESSIONS):
        clock = 0.0
        for position, sequence in enumerate(sequences[slot::SESSIONS]):
            records = list(sequence.records)
            opens = position > 0
            if position == 0:
                # Start slot k a k/SESSIONS share into its first sequence, so
                # session ends spread evenly, and fill its decode window.
                cut = max(0, min(len(records) * slot // SESSIONS, len(records) - window))
                records = records[cut:]
                prefill.append(
                    (sequence.object_id, [record_to_wire(r) for r in records[: window - 1]])
                )
                records = records[window - 1 :]
            base = records[0].timestamp
            for index, record in enumerate(records):
                timeline.append(
                    (
                        clock + record.timestamp - base,
                        slot,
                        sequence.object_id,
                        record_to_wire(record),
                        opens and index == 0,
                        index == len(records) - 1,
                    )
                )
            clock += records[-1].timestamp - base + SEQUENCE_GAP
    timeline.sort(key=lambda item: (item[0], item[1]))

    count = int(seconds * RECORD_RATE)
    if count > len(timeline):
        raise RuntimeError("the traffic pool is too small for the run")
    arrivals: List[Arrival] = []
    for position, (_, _, object_id, record, opens, finishes) in enumerate(timeline[:count]):
        at = position / RECORD_RATE
        arrivals.append(Arrival(at, object_id, record, opens, finishes))
        arrivals.append(Arrival(at + PROBE_AFTER, probe=True))
        due = at + 1.0 / RECORD_RATE - QUERY_LEAD
        arrivals.append(Arrival(due, query=query_path(position)))
    return Plan(prefill, arrivals)


# ----------------------------------------------------------------- server
class ServerProcess:
    """``server.py`` in its own process, on an ephemeral localhost port.

    The process starts at once; :meth:`wait_ready` waits until it listens.
    """

    def __init__(self, model, scenario: str, trace_out=None):
        command = [
            sys.executable, str(common.HERE / "server.py"),
            "--model", str(model), "--scenario", scenario,
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            env=common.child_env(), cwd=common.ROOT,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        line = self.process.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"the server did not start (exit {self.process.returncode})")
        self.port = int(line.split()[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def traffic(scenario, seed: int) -> list:
    """Held-out sequences the phase plays, all longer than one decode window."""
    from repro.service.service import AnnotationService

    return common.held_out_sequences(
        scenario, seed, SESSIONS * SEQUENCES_PER_SLOT,
        min_records=AnnotationService.DEFAULT_WINDOW + 1,
    )


@dataclass
class Live:
    """The saved model and the server started over it."""

    scenario: str
    model: Path
    server: ServerProcess


def model_path() -> Path:
    """This process's model file; every set-up overwrites it."""
    return common.OUT / f"live-model-{os.getpid()}.json"


def setup(annotator, scenario: str) -> Live:
    """Save the fitted service and start the server over it (without
    waiting for it to listen)."""
    from repro.service.service import AnnotationService

    model = model_path()
    model.parent.mkdir(parents=True, exist_ok=True)
    AnnotationService(annotator, window=AnnotationService.DEFAULT_WINDOW).save(model)
    return Live(scenario, model, ServerProcess(model, scenario))


# ------------------------------------------------------------------ drive
@dataclass
class Phase:
    """What one timed phase sent, got back and measured."""

    ingest_ms: List[float] = field(default_factory=list)
    query_ms: List[float] = field(default_factory=list)
    #: The scheduled times of the ``ingest_ms`` samples.
    ingest_at: List[float] = field(default_factory=list)
    speedometer: speed.Speedometer = field(default_factory=speed.Speedometer)
    send_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    #: Per object: the wire records of each push, and what each finalized.
    pushed: Dict[str, List[list]] = field(default_factory=lambda: defaultdict(list))
    finalized: Dict[str, List[Optional[list]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    flushed: Dict[str, Optional[list]] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    #: Monotonic bounds of the timed window.
    window: Tuple[float, float] = (0.0, 0.0)
    #: Server-side records-POST handler milliseconds and calls in the window.
    handler_ms: float = 0.0
    handler_calls: int = 0
    server_cpu_s: float = 0.0

    def scaled(self, at: List[float], ms: List[float]) -> List[float]:
        """Milliseconds timed from ``at`` at nominal speed (``speed.py``)."""
        factor = self.speedometer.factor
        return [value * factor(start, start + value / 1000.0) for start, value in zip(at, ms)]


#: The latency a failed request counts as: the client timeout, past every
#: latency limit.
FAILURE_MS = httpload.REQUEST_TIMEOUT * 1000.0


async def drive(plan: Plan, server: ServerProcess) -> Phase:
    """Prefill, run the timed arrivals open-loop, then finish open sessions."""
    phase = Phase()
    pool = httpload.ConnectionPool("127.0.0.1", server.port, common.cores())
    loop = asyncio.get_running_loop()
    tails: Dict[str, asyncio.Future] = {}
    open_objects = set()

    in_flight = 0

    async def call(method, path, body=None, expect=200):
        nonlocal in_flight
        phase.attempted += 1
        in_flight += 1
        try:
            status, payload, seconds = await pool.request(method, path, body)
        except httpload.REQUEST_ERRORS:
            phase.errors += 1
            return None, 0.0
        finally:
            in_flight -= 1
        if status != expect:
            phase.errors += 1
            return None, seconds
        return payload, seconds

    async def push(object_id, records):
        phase.pushed[object_id].append(records)
        payload, seconds = await call(
            "POST", f"/v1/sessions/{object_id}/records", {"records": records}
        )
        phase.finalized[object_id].append(None if payload is None else payload["finalized"])
        return payload is not None, seconds

    async def open_session(object_id):
        open_objects.add(object_id)
        await call("POST", "/v1/sessions", {"object_id": object_id}, expect=201)

    async def finish(object_id):
        open_objects.discard(object_id)
        payload, _ = await call("POST", f"/v1/sessions/{object_id}/finish", {})
        phase.flushed[object_id] = None if payload is None else payload["flushed"]

    async def record_op(arrival, scheduled, previous, done):
        try:
            if previous is not None:
                await previous
            if arrival.opens:
                await open_session(arrival.object_id)
            ok, seconds = await push(arrival.object_id, [arrival.record])
            finished = time.monotonic()
            phase.ingest_at.append(scheduled)
            phase.ingest_ms.append((finished - scheduled) * 1000.0 if ok else FAILURE_MS)
            if ok:
                phase.send_ms.append(seconds * 1000.0)
            if arrival.finishes:
                await finish(arrival.object_id)
        finally:
            done.set_result(None)

    async def query_op(arrival, scheduled):
        payload, _ = await call("GET", arrival.query)
        finished = time.monotonic()
        phase.query_ms.append(
            (finished - scheduled) * 1000.0 if payload is not None else FAILURE_MS
        )

    async def nothing():
        pass

    def fire(arrival, scheduled):
        if arrival.probe:
            if not in_flight:
                phase.speedometer.sample()
            return nothing()
        if arrival.query:
            return query_op(arrival, scheduled)
        # Chained here, in schedule order: each object's pushes stay ordered.
        previous = tails.get(arrival.object_id)
        done = tails[arrival.object_id] = loop.create_future()
        return record_op(arrival, scheduled, previous, done)

    async def records_handler():
        _, payload, _ = await pool.request("GET", "/metrics")
        count = payload["requests"].get("sessions.records", {}).get("count", 0)
        total = payload["latency_ms"].get("sessions.records", {}).get("sum", 0.0)
        return total, count

    try:
        for object_id, records in plan.prefill:
            await open_session(object_id)
            await push(object_id, records)
        handler_before, calls_before = await records_handler()
        cpu_before = common.proc_cpu_seconds(server.pid)
        start = time.monotonic() + 0.05
        lateness = await httpload.run_open_loop(plan.arrivals, fire, start=start)
        end = time.monotonic()
        phase.server_cpu_s = common.proc_cpu_seconds(server.pid) - cpu_before
        handler_after, calls_after = await records_handler()
        phase.window = (start, end)
        phase.handler_ms = handler_after - handler_before
        phase.handler_calls = calls_after - calls_before
        phase.lateness_ms = [seconds * 1000.0 for seconds in lateness]
        for object_id in sorted(open_objects):
            await finish(object_id)
    finally:
        pool.close()
    return phase


# ------------------------------------------------------------------ check
def replay_reference(model, scenario: str, pushed: Dict[str, List[list]]) -> Dict[str, dict]:
    """Replay every object's pushes in-process, split over ``nproc`` workers."""
    groups: List[Dict[str, List[list]]] = [{} for _ in range(common.cores())]
    loads = [0] * len(groups)
    by_size = sorted(pushed.items(), key=lambda item: -sum(map(len, item[1])))
    for object_id, batches in by_size:
        target = loads.index(min(loads))
        groups[target][object_id] = batches
        loads[target] += sum(map(len, batches))
    workers = []
    try:
        for group in filter(None, groups):
            process = subprocess.Popen(
                [sys.executable, str(common.HERE / "reference.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=common.child_env(), cwd=common.ROOT,
            )
            workers.append(process)
            request = {"model": str(model), "scenario": scenario, "feeds": group}
            process.stdin.write(json.dumps(request))
            process.stdin.close()
        answers: Dict[str, dict] = {}
        for process in workers:
            output = process.stdout.read()
            if process.wait() != 0:
                raise RuntimeError("the reference replay failed")
            answers.update(json.loads(output))
        return answers
    finally:
        for process in workers:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


def as_expected(phase: Phase) -> Dict[str, dict]:
    """A phase's answers in the shape :func:`replay_reference` returns."""
    return {
        object_id: {"batches": batches, "flushed": phase.flushed.get(object_id)}
        for object_id, batches in phase.finalized.items()
    }


def count_mismatches(phase: Phase, expected: Dict[str, dict]) -> int:
    """Answered pushes and finishes whose m-semantics differ from ``expected``."""
    wrong = 0
    for object_id, batches in phase.finalized.items():
        want = expected[object_id]
        for got, reference in zip(batches, want["batches"]):
            wrong += got is not None and got != reference
        got = phase.flushed.get(object_id)
        wrong += got is not None and got != want["flushed"]
    return wrong


# ------------------------------------------------------------------ phase
def measure(live: Live, sequences, seconds: float, *, trace: bool, seed: int) -> common.Outcome:
    """Play ``sequences`` for ``seconds`` (half untraced, half traced with
    ``trace``), stop the server and check every answer.

    Untraced metrics are the end-to-end ones (``peak_rss_mb`` is the
    server's); traced metrics are the phase's per-layer ones.
    """
    from repro.service.service import AnnotationService

    spans_path = common.OUT / f"live-seed{seed}-spans-{os.getpid()}.json"
    plan = build_plan(
        sequences, seconds / 2 if trace else seconds,
        AnnotationService.DEFAULT_WINDOW,
    )
    try:
        untraced = asyncio.run(drive(plan, live.server))
        peak_rss_mb = common.proc_peak_rss_mb(live.server.pid)
    finally:
        live.server.stop()
    traced = None
    if trace:
        server = ServerProcess(live.model, live.scenario, trace_out=spans_path)
        try:
            server.wait_ready()
            traced = asyncio.run(drive(plan, server))
        finally:
            server.stop()
    reference = replay_reference(live.model, live.scenario, untraced.pushed)

    failed = untraced.errors + count_mismatches(untraced, reference)
    attempted = untraced.attempted
    if traced is not None:
        # The traced run must answer bitwise what the untraced run did.
        failed += traced.errors + count_mismatches(traced, as_expected(untraced))
        attempted += traced.attempted
    provenance = {
        "objects_played": len(untraced.pushed),
        "concurrent_sessions": SESSIONS,
        "decode_window": AnnotationService.DEFAULT_WINDOW,
        "offered_records_per_s": RECORD_RATE,
        "query_share": 0.5,
        "connections": common.cores(),
        "timed_records": len(untraced.ingest_ms),
        "timed_queries": len(untraced.query_ms),
        "generator_late_p95_ms": common.percentile(untraced.lateness_ms, 95),
        "speed": untraced.speedometer.summary(),
    }
    if traced is None:
        ingest = untraced.scaled(untraced.ingest_at, untraced.ingest_ms)
        # Unscaled: a live query is about 2 ms, mostly waiting on sockets and
        # event loops, and slows far less than the probe; scaled, its
        # ten-seed spread was twice the unscaled one.
        queries = untraced.query_ms
        metrics = {
            "peak_rss_mb": peak_rss_mb,
            "ingest_p50_ms": common.percentile(ingest, 50),
            "ingest_p95_ms": common.tail_percentile(ingest, 95),
            "live_query_p50_ms": common.percentile(queries, 50),
            "live_query_p95_ms": common.tail_percentile(queries, 95),
        }
    else:
        metrics = layer_metrics(untraced, traced, tracing.load_spans(spans_path))
        provenance["spans"] = str(spans_path.relative_to(common.ROOT))
    return common.Outcome(attempted, failed, metrics, provenance)


def layer_metrics(untraced: Phase, traced: Phase, spans) -> Dict[str, float]:
    """Per-layer numbers: spans from the traced phase, ``net`` from the untraced."""
    summary = tracing.summarize(spans, *traced.window)
    session = tracing.layer(summary, "service.session")
    records = session["counts"]["records"]
    publish = tracing.layer(summary, "service.store.publish")
    icm = tracing.layer(summary, "crf.icm")

    def ms_per_record(name):
        return tracing.layer(summary, name)["self_s"] * 1000.0 / records

    server_ms = untraced.handler_ms / untraced.handler_calls
    return {
        "live.service.session.records_decoded_per_record":
            tracing.layer(summary, "crf.prepare")["counts"]["records"] / records,
        "live.service.session.self_ms_per_record": ms_per_record("service.session"),
        "live.crf.prepare.ms_per_record": ms_per_record("crf.prepare"),
        "live.crf.tables.ms_per_record": ms_per_record("crf.tables"),
        "live.crf.icm.ms_per_record": ms_per_record("crf.icm"),
        "live.crf.icm.best_label_calls_per_record":
            icm["counts"]["best_label_calls"] / records,
        "live.service.store.publish_calls": publish["calls"],
        "live.service.store.publish_ms_per_call":
            publish["total_s"] * 1000.0 / max(publish["calls"], 1),
        "live.net.server_ms_mean": server_ms,
        "live.net.overhead_ms_mean": statistics.fmean(untraced.send_ms) - server_ms,
        "live.net.server_busy_share":
            untraced.server_cpu_s / (untraced.window[1] - untraced.window[0]),
        "live.loadgen.late_p95_ms": common.percentile(untraced.lateness_ms, 95),
        "live.trace.coverage_share": session["total_s"] * 1000.0 / traced.handler_ms,
        "live.trace.overhead_share":
            common.percentile(traced.ingest_ms, 50)
            / common.percentile(untraced.ingest_ms, 50),
    }
