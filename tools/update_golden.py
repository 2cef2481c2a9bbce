#!/usr/bin/env python
"""Regenerate — or verify — the golden scenario fingerprint file.

The golden-trace suite (``tests/test_scenario_golden.py``) pins the content
fingerprint of every registered scenario.  After an *intentional* change to
the builders, the simulators, the error model or the preprocessing, run

    python tools/update_golden.py

to rewrite ``tests/data/golden_scenarios.json``, then review the diff:
entries that moved are exactly the scenarios your change affected.  Entries
that moved unexpectedly are a regression, not a reason to commit the new
file.

``--check`` verifies instead of writing: it rematerialises every scenario
and exits non-zero if the committed file is missing an entry, carries a
stale fingerprint, or lists a scenario that no longer exists.  The hygiene
tests run the comparison logic in-process so a forgotten regeneration fails
tier-1, and CI can run ``python tools/update_golden.py --check`` directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_scenarios.json"


def current_goldens() -> Dict[str, Dict[str, object]]:
    """Materialise every registered scenario and return its golden entry."""
    from repro.scenarios import scenario_specs

    goldens: Dict[str, Dict[str, object]] = {}
    for spec in scenario_specs():
        scenario = spec.materialize()
        goldens[spec.name] = {
            "seed": scenario.seed,
            "fingerprint": scenario.fingerprint,
            "sequences": len(scenario.dataset),
            "records": scenario.dataset.total_records,
        }
    return goldens


def compare(
    committed: Dict[str, Dict[str, object]],
    current: Dict[str, Dict[str, object]],
) -> List[str]:
    """Human-readable differences between the committed and current goldens."""
    problems: List[str] = []
    for name in sorted(set(committed) - set(current)):
        problems.append(f"{name}: committed but no longer registered")
    for name in sorted(set(current) - set(committed)):
        problems.append(f"{name}: registered but missing from the golden file")
    for name in sorted(set(current) & set(committed)):
        for key in ("seed", "fingerprint", "sequences", "records"):
            if committed[name].get(key) != current[name][key]:
                problems.append(
                    f"{name}: {key} drifted "
                    f"(committed {committed[name].get(key)!r}, "
                    f"current {current[name][key]!r})"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or verify tests/data/golden_scenarios.json."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed file instead of rewriting it",
    )
    parser.add_argument(
        "--path",
        type=Path,
        default=GOLDEN_PATH,
        help=f"golden file location (default: {GOLDEN_PATH})",
    )
    args = parser.parse_args(argv)

    current = current_goldens()
    if args.check:
        if not args.path.exists():
            print(f"error: {args.path} does not exist", file=sys.stderr)
            return 1
        committed = json.loads(args.path.read_text())
        problems = compare(committed, current)
        for problem in problems:
            print(f"STALE  {problem}")
        if problems:
            print(
                f"{args.path} is stale; regenerate with "
                "`python tools/update_golden.py` and review the diff",
                file=sys.stderr,
            )
            return 1
        print(f"{args.path} is up to date ({len(current)} scenarios)")
        return 0

    previous: Dict[str, Dict[str, object]] = (
        json.loads(args.path.read_text()) if args.path.exists() else {}
    )
    args.path.parent.mkdir(parents=True, exist_ok=True)
    args.path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
    changed = [p for p in compare(previous, current)]
    for line in changed:
        print(f"CHANGED  {line}")
    print(f"wrote {args.path} ({len(current)} scenarios, {len(changed)} changes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
