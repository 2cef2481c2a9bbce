"""Replay live_stream feeds through in-process stream sessions.

Reads ``{"model", "scenario", "feeds": {object_id: [[record, ...], ...]}}``
as JSON on stdin and writes ``{object_id: {"batches": [...], "flushed":
[...]}}`` as JSON on stdout: in wire form, the m-semantics each pushed
batch finalized and those finishing the session flushed.  This is the
answer the HTTP responses of the same feed must equal.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

import common


def replay(model: str, scenario: str, feeds: Dict[str, List[list]]) -> Dict[str, dict]:
    from repro.net.wire import record_from_wire, semantics_to_wire
    from repro.scenarios import get_scenario
    from repro.service.service import AnnotationService

    service = AnnotationService.load(model, get_scenario(scenario).venue.build())
    answers = {}
    for object_id, batches in feeds.items():
        session = service.session(object_id)
        finalized = [
            semantics_to_wire(session.extend([record_from_wire(r) for r in batch]))
            for batch in batches
        ]
        answers[object_id] = {
            "batches": finalized,
            "flushed": semantics_to_wire(session.finish()),
        }
    return answers


def main() -> int:
    common.import_program()
    request = json.load(sys.stdin)
    json.dump(replay(request["model"], request["scenario"], request["feeds"]), sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
