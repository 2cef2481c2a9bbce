#!/usr/bin/env python
"""Execute the ``python`` code blocks of markdown documentation.

Documentation code that does not run is worse than no documentation.  This
tool extracts every fenced ````` ```python ````` block from the given
markdown files and executes each file's blocks sequentially in one shared
namespace (so a quickstart can build on an earlier block).  Any exception
fails the check with the offending file and block number.

With ``--handbook`` it additionally cross-checks the benchmark handbook
(``docs/BENCHMARKS.md``) against the committed baselines: every schema
field path the handbook's tables document must exist in the corresponding
``benchmarks/baselines/BENCH_<suite>.json`` (and vice versa — an
undocumented field fails too).  The handbook cannot drift from the
artifacts it describes.

Used by ``make docs-check`` and the CI workflow.  ``src`` is put on
``sys.path`` automatically so an uninstalled checkout works.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BLOCK_PATTERN = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: First-cell tokens of handbook table rows: a backticked dotted path,
#: optionally with ``[]`` (list-of-objects) and a trailing ``.*`` wildcard
#: for sections whose keys are data-dependent (e.g. endpoint counters).
_PATH_TOKEN = re.compile(r"^\|\s*`([a-z_][a-z0-9_.\[\]*-]*)`\s*\|")

_HEADING = re.compile(r"^##\s+(.*)$")


def python_blocks(markdown: str) -> list:
    """Return the contents of every ```python fenced block, in order."""
    return [match.group(1) for match in BLOCK_PATTERN.finditer(markdown)]


def check_file(path: Path) -> int:
    """Execute all python blocks of one markdown file; return the count."""
    blocks = python_blocks(path.read_text(encoding="utf-8"))
    namespace: dict = {"__name__": f"docs_check_{path.stem}"}
    for number, block in enumerate(blocks, start=1):
        started = time.perf_counter()
        try:
            exec(compile(block, f"{path}#block{number}", "exec"), namespace)
        except Exception:
            print(f"FAIL {path} block {number}:\n{block}", file=sys.stderr)
            raise
        elapsed = time.perf_counter() - started
        print(f"ok   {path} block {number} ({elapsed:.1f}s)")
    return len(blocks)


# ------------------------------------------------------- handbook check
def handbook_sections(markdown: str) -> Dict[str, Set[str]]:
    """Field paths documented per ``##`` section of the handbook."""
    sections: Dict[str, Set[str]] = {}
    current = ""
    for line in markdown.splitlines():
        heading = _HEADING.match(line)
        if heading:
            current = heading.group(1).strip()
            continue
        token = _PATH_TOKEN.match(line.strip())
        if token and current:
            sections.setdefault(current, set()).add(token.group(1))
    return sections


def flatten_report(value: object, prefix: str = "") -> Set[str]:
    """Every leaf field path of one parsed report.

    Dict keys join with ``.``; a list of objects contributes ``path[]``
    per-element paths; a list of scalars (or an empty list) is itself a
    leaf.
    """
    paths: Set[str] = set()
    if isinstance(value, dict):
        for key, item in value.items():
            paths |= flatten_report(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list) and value and all(
        isinstance(item, dict) for item in value
    ):
        for item in value:
            paths |= flatten_report(item, prefix + "[]")
    else:
        paths.add(prefix)
    return paths


def _match_paths(
    documented: Set[str], actual: Set[str], where: str
) -> List[str]:
    """Two-way diff of documented vs actual paths (``.*`` = wildcard)."""
    problems = []
    exact = {path for path in documented if not path.endswith(".*")}
    wildcards = {path[:-1] for path in documented if path.endswith(".*")}
    for path in sorted(actual - exact):
        if not any(path.startswith(prefix) for prefix in wildcards):
            problems.append(f"{where}: field {path!r} is not documented")
    for path in sorted(exact - actual):
        problems.append(f"{where}: documents {path!r} which does not exist")
    for prefix in sorted(wildcards):
        if not any(path.startswith(prefix) for path in actual):
            problems.append(
                f"{where}: documents wildcard {prefix + '*'!r} matching nothing"
            )
    return problems


def check_handbook(handbook: Path, baselines: Path) -> List[str]:
    """Cross-check the handbook against the committed baselines."""
    if not handbook.exists():
        return [f"missing handbook: {handbook}"]
    sections = handbook_sections(handbook.read_text(encoding="utf-8"))

    def section_paths(marker: str) -> Set[str]:
        collected: Set[str] = set()
        for heading, paths in sections.items():
            if marker in heading:
                collected |= paths
        return collected

    problems: List[str] = []
    envelope = section_paths("envelope")
    if not envelope:
        problems.append(f"{handbook}: no 'envelope' section with field tables")

    baseline_files = sorted(baselines.glob("BENCH_*.json"))
    if not baseline_files:
        problems.append(f"no committed baselines under {baselines}")
    for path in baseline_files:
        report = json.loads(path.read_text(encoding="utf-8"))
        suite = report.get("suite", "")
        suite_paths = section_paths(f"BENCH_{suite}.json")
        if not suite_paths:
            problems.append(
                f"{handbook}: no section documenting `BENCH_{suite}.json`"
            )
            continue
        problems.extend(
            _match_paths(
                envelope | suite_paths,
                flatten_report(report),
                f"{handbook} vs {path.name}",
            )
        )
    return problems


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/check_docs.py",
        description="Execute markdown python blocks; optionally cross-check "
        "the benchmark handbook against committed baselines.",
    )
    parser.add_argument("files", nargs="*", type=Path, help="markdown files")
    parser.add_argument(
        "--handbook",
        nargs="?",
        type=Path,
        const=REPO_ROOT / "docs" / "BENCHMARKS.md",
        default=None,
        help="cross-check this handbook (default docs/BENCHMARKS.md) "
        "against --baselines",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="committed baseline directory (default benchmarks/baselines)",
    )
    args = parser.parse_args(argv)

    paths = list(args.files)
    if not paths and args.handbook is None:
        paths = [REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"]

    total = 0
    for path in paths:
        if not path.exists():
            print(f"FAIL missing documentation file: {path}", file=sys.stderr)
            return 1
        total += check_file(path)
    if paths and total == 0:
        print("FAIL no python code blocks found", file=sys.stderr)
        return 1

    if args.handbook is not None:
        problems = check_handbook(args.handbook, args.baselines)
        if problems:
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
            print(f"docs-check: {len(problems)} handbook problem(s)",
                  file=sys.stderr)
            return 1
        print(f"docs-check: handbook {args.handbook} matches the committed "
              "baselines")

    if paths:
        print(f"docs-check: {total} block(s) across {len(paths)} file(s) "
              "executed cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
