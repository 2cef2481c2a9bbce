"""Entry point of the repo benchmark.

    python3 perfbench/run.py --workload mall --seed 1 --seconds 24 --trace 0

A workload is one venue.  A run sets the venue up three times (fit its
C2MN, draw held-out traffic, save the model and start the HTTP server,
preload the query store) and reports the median as ``setup_s``.  On the
last set-up it then measures three phases back to back, each for a fixed
share of ``--seconds``: ``live`` (records posted over HTTP beside live
queries, ``live_stream.py``), ``backfill`` (``annotate_many`` in process,
``backfill.py``) and ``query`` (TkPRQ/TkFRPQ beside publishes in process,
``query_mix.py``).  Every phase checks the program's answers.

The run prints one ``provenance`` line and, as the last line, the result
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics of untraced phases;
``--trace 1`` gives each phase half its time untraced and half traced
around the benchmark's calls into each layer, and reports per-layer
metrics.  ``METHOD.md`` describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from dataclasses import dataclass

import backfill
import common
import live_stream
import query_mix

#: Workload name -> the catalogue scenario of its venue.
WORKLOADS = {"mall": "mall-weekday", "transit": "transit-morning-peak"}
#: The share of ``--seconds`` each phase measures.
SHARES = {"live": 7 / 12, "backfill": 1 / 6, "query": 1 / 4}


@dataclass
class Setup:
    scenario: object
    sequences: list
    live: live_stream.Live
    venue: backfill.Venue
    mix: query_mix.Mix


def setup(scenario_name: str, seed: int) -> Setup:
    """Fit the venue's C2MN, start the server, draw the traffic and preload
    the store while the server starts."""
    annotator, scenario = common.fit_annotator(scenario_name)
    live = live_stream.setup(annotator, scenario_name)
    try:
        sequences = live_stream.traffic(scenario, seed)
        mix = query_mix.setup(scenario.space, seed)
        live.server.wait_ready()
    except BaseException:
        live.server.stop()
        raise
    venue = backfill.Venue(annotator, sequences[: backfill.POOL])
    return Setup(scenario, sequences, live, venue, mix)


def run(workload: str, seed: int, seconds: float, *, trace: bool,
        setup_repeats: int = common.SETUP_REPEATS) -> common.Outcome:
    """Set the workload's venue up, then measure and check its three phases."""
    scenario_name = WORKLOADS[workload]
    (state,), setup_s = common.timed_setup(
        lambda: setup(scenario_name, seed),
        discard=lambda s: s.live.server.stop(),
        repeats=setup_repeats,
    )
    # Every phase starts from a collected heap.
    gc.collect()
    try:
        live = live_stream.measure(
            state.live, state.sequences, seconds * SHARES["live"], trace=trace, seed=seed
        )
    finally:
        state.live.server.stop()
        state.live.model.unlink(missing_ok=True)
    gc.collect()
    fill = backfill.measure(
        state.venue, seconds * SHARES["backfill"], trace=trace, seed=seed
    )
    gc.collect()
    query = query_mix.measure(
        state.mix, seconds * SHARES["query"], trace=trace, seed=seed,
        rebuild=lambda: query_mix.setup(state.scenario.space, seed),
    )
    phases = {"live": live, "backfill": fill, "query": query}

    metrics = {}
    for outcome in phases.values():
        metrics.update(outcome.metrics)
    if not trace:
        metrics["setup_s"] = setup_s
        # The larger of the server's peak and this process's, which hosts
        # the in-process phases.
        metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], common.self_peak_rss_mb())
    provenance = {
        "scenarios": [scenario_name],
        "training_seed": state.scenario.seed,
        "traffic": common.length_stats(state.sequences),
        "duplicate_rate": common.duplicate_rate(state.sequences),
        "phase_seconds": {name: seconds * share for name, share in SHARES.items()},
    }
    provenance.update({name: outcome.provenance for name, outcome in phases.items()})
    return common.Outcome(
        sum(outcome.attempted for outcome in phases.values()),
        sum(outcome.failed for outcome in phases.values()),
        metrics,
        provenance,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, required=True, help="measured seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        common.import_program()
    except (common.ProgramMissing, ImportError) as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    provenance = common.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    provenance.update(outcome.provenance)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": common.with_units(outcome.metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
