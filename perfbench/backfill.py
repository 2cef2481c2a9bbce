"""The backfill phase: ``annotate_many`` over distinct held-out sequences.

Closed loop, in process: one ``annotate_many`` call over the venue's pool
after another, under the library's default execution policy, with the
venue's fitted annotator.  The pool holds full-length sequences of the
venue's scenario drawn at other seeds than the training seed.  No sequence
repeats (the duplicate rate is measured and reported), so duplicate
coalescing has nothing to share and the time is decode time.

Correctness: every call's m-semantics must equal a per-sequence
``annotate`` of the same sequence, computed once before timing (which also
lets the venue-level caches fill).

The traced run times the same sequences through the public stages one
sequence at a time (``layers.traced_annotate``), then splits ``prepare``
by timing ``STDBSCAN.density_labels`` and the candidate-region lookups on
the same inputs in isolation.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import List

import common
import speed
import tracing

#: Distinct held-out sequences decoded by every call.
POOL = 3
#: Speed probes taken between two calls.
PROBES = 5


@dataclass
class Venue:
    """The venue's fitted annotator, its pool and the pool's expected answers."""

    annotator: object
    pool: list
    expected: List[list] = field(default_factory=list)

    @property
    def records(self) -> int:
        return sum(len(sequence) for sequence in self.pool)


def timed_calls(venue: Venue, seconds: float, speedometer=None):
    """One ``annotate_many`` over the pool after another until ``seconds`` pass.

    Returns ``(calls, sequences, wrong)``: ``(start, seconds)`` of each call
    on the monotonic clock, the sequences annotated, and those whose
    m-semantics differ from ``venue.expected``.  A ``speedometer`` samples
    before every call and after the last.
    """
    calls = []
    sequences = wrong = 0
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        if speedometer is not None:
            speedometer.sample(PROBES)
        at = time.monotonic()
        started = time.perf_counter()
        semantics = venue.annotator.annotate_many(venue.pool)
        calls.append((at, time.perf_counter() - started))
        sequences += len(venue.pool)
        wrong += sum(got != want for got, want in zip(semantics, venue.expected))
    if speedometer is not None:
        speedometer.sample(PROBES)
    return calls, sequences, wrong


def traced_passes(venue: Venue, seconds: float, tracer):
    """Whole traced passes over the pool until ``seconds`` pass.

    Returns ``(records, wall seconds, sequences, wrong)``.
    """
    import layers

    records = sequences = wrong = 0
    started = time.perf_counter()
    while not records or time.perf_counter() - started < seconds:
        for sequence, want in zip(venue.pool, venue.expected):
            wrong += layers.traced_annotate(venue.annotator, sequence, tracer) != want
            records += len(sequence)
            sequences += 1
    return records, time.perf_counter() - started, sequences, wrong


def prepare_split(venue: Venue):
    """Milliseconds per record of ST-DBSCAN and of the candidate lookups,
    each timed alone on the pool sequences with the annotator's settings."""
    from repro.clustering import STDBSCAN

    config, space = venue.annotator.config, venue.annotator.space
    clusterer = STDBSCAN(
        eps_spatial=config.eps_spatial,
        eps_temporal=config.eps_temporal,
        min_points=config.min_points,
    )
    clustering_s = candidates_s = 0.0
    for sequence in venue.pool:
        started = time.perf_counter()
        clusterer.density_labels(sequence)
        clustering_s += time.perf_counter() - started
        started = time.perf_counter()
        for record in sequence:
            space.candidate_regions(
                record.location,
                radius=config.candidate_radius,
                max_candidates=config.max_candidates,
            )
            space.nearest_region(record.location)
        candidates_s += time.perf_counter() - started
    return clustering_s * 1000.0 / venue.records, candidates_s * 1000.0 / venue.records


def batch_shape(venue: Venue):
    """Unique share and bucket count of one call, as the default policy
    would coalesce and bucket it."""
    from repro.crf.batch import bucket_indices
    from repro.runtime import ExecutionPolicy, sequence_fingerprint

    pool = venue.pool
    unique = len({sequence_fingerprint(s) for s in pool}) / len(pool)
    size = ExecutionPolicy().effective_bucket_size(len(pool))
    return unique, len(bucket_indices([len(s) for s in pool], size))


def measure(venue: Venue, seconds: float, *, trace: bool, seed: int) -> common.Outcome:
    """Time the phase for ``seconds`` (half untraced, half traced with
    ``trace``) and check every call's answers."""
    from repro.runtime import ExecutionPolicy

    venue.expected = [venue.annotator.annotate(sequence) for sequence in venue.pool]
    speedometer = speed.Speedometer()
    calls, attempted, failed = timed_calls(
        venue, seconds / 2 if trace else seconds, speedometer
    )
    # Each call at nominal speed; the median call resists a burst of
    # machine noise better than the pooled rate.
    untraced_s_per_record = statistics.median(
        took * speedometer.factor(at, at + took) for at, took in calls
    ) / venue.records
    provenance = {
        "speed": speedometer.summary(),
        "pool": common.length_stats(venue.pool),
        "duplicate_rate": common.duplicate_rate(venue.pool),
        "policy": ExecutionPolicy().to_dict(),
        "timed_calls": len(calls),
    }
    if not trace:
        metrics = {"backfill_records_per_s": 1.0 / untraced_s_per_record}
        return common.Outcome(attempted, failed, metrics, provenance)

    tracer = tracing.Tracer()
    records, wall, traced_sequences, wrong = traced_passes(venue, seconds / 2, tracer)
    spans_path = common.OUT / f"backfill-seed{seed}-spans-{os.getpid()}.json"
    tracer.dump(spans_path)
    provenance["spans"] = str(spans_path.relative_to(common.ROOT))
    summary = tracing.summarize(tracer.spans)
    stages = ("crf.prepare", "crf.tables", "crf.icm", "core.merge")

    def ms_per_record(name):
        return tracing.layer(summary, name)["self_s"] * 1000.0 / records

    sweeps = [
        span["counts"]["best_label_calls"] / (2 * span["counts"]["nodes"])
        for span in tracer.spans
        if span["name"] == "crf.icm" and span["counts"]["nodes"]
    ]
    clustering_ms, candidates_ms = prepare_split(venue)
    unique_share, buckets = batch_shape(venue)
    metrics = {
        "backfill.crf.prepare.ms_per_record": ms_per_record("crf.prepare"),
        "backfill.clustering.stdbscan.ms_per_record": clustering_ms,
        "backfill.geometry.candidates.ms_per_record": candidates_ms,
        "backfill.crf.tables.ms_per_record": ms_per_record("crf.tables"),
        "backfill.crf.icm.ms_per_record": ms_per_record("crf.icm"),
        "backfill.crf.icm.best_label_calls_per_record":
            tracing.layer(summary, "crf.icm")["counts"]["best_label_calls"] / records,
        "backfill.crf.icm.sweeps_mean": statistics.fmean(sweeps),
        "backfill.core.merge.ms_per_record": ms_per_record("core.merge"),
        "backfill.runtime.unique_share": unique_share,
        "backfill.runtime.buckets": buckets,
        "backfill.trace.coverage_share":
            sum(tracing.layer(summary, name)["self_s"] for name in stages) / wall,
        "backfill.trace.overhead_share":
            (wall / records) / (statistics.median(took for _, took in calls) / venue.records),
    }
    return common.Outcome(attempted + traced_sequences, failed + wrong, metrics, provenance)
