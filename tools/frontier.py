"""Time both character tables at frontier sizes and write BENCH_frontier.json.

Usage:
    python3 tools/frontier.py [--tree LABEL=PATH ...] [--cell M,N ...] [--out PATH]

Each ``--tree`` is a checkout of this repository (its ``src`` goes on
PYTHONPATH); the default is this checkout, labelled ``current``.  Give two,
for instance ``--tree before=../parent --tree after=.``, to compare them in
one session: every repeat runs each cell's Hecke and wreath table under each
tree in turn, so the trees share the host's slow and fast spells.

Each table runs in a fresh interpreter (``PYTHONHASHSEED=0``), which prints
the CPU time (``time.process_time``) of the table alone, after its imports.
A run that has not finished after ``CAP_S`` seconds of wall time is stopped
and its cell recorded as ``null``, with the cap.  Each value is the median
over ``REPEATS`` repeats, with the samples kept beside it; a cell is ``null``
if any of its repeats reached the cap.

The file also records each cell's class count ``|P_{m,n}|``, the Python
version, each tree's commit (and whether its working tree had uncommitted
changes), and the wall and CPU time of ``perfbench/reference.py``, a fixed
pure-Python computation in a fresh interpreter, run once before and once
after the cells, so that figures from different hosts or sessions can be
scaled against each other.  The script reads ``perfbench/`` and writes
nothing there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference.py"
CELLS = ((1, 8), (2, 6), (3, 4), (4, 3), (1, 10), (2, 7), (3, 5), (4, 4))
TABLES = {"hecke": "hecke_character_table", "wreath": "wreath_character_table"}
CAP_S = 60.0  # wall seconds per table run
# at the 30-50 ms cells one slow spell moves a median of 5 by more than the
# difference between two trees
REPEATS = 11

# the child: import first, then time the table alone
TIMED_TABLE = """
import sys, time
from superfrob import characters
table = getattr(characters, sys.argv[1])
m, n = int(sys.argv[2]), int(sys.argv[3])
start = time.process_time()
table(m, n)
print(time.process_time() - start)
"""


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "0"}


def time_table(tree: Path, table: str, m: int, n: int) -> float | None:
    """CPU seconds of one table in a fresh interpreter, or None at the cap."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", TIMED_TABLE, TABLES[table], str(m), str(n)],
            env=_env(tree),
            capture_output=True,
            text=True,
            timeout=CAP_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if done.returncode:
        raise RuntimeError(f"{table} ({m},{n}) under {tree} failed:\n{done.stderr}")
    return round(float(done.stdout), 4)


def time_reference() -> dict:
    """Wall and CPU seconds of one perfbench/reference.py run in a fresh interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    subprocess.run([sys.executable, str(REFERENCE)], check=True, capture_output=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return {"wall_s": round(wall, 4), "cpu_s": round(cpu, 4)}


def describe_tree(tree: Path) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(tree), *args], capture_output=True, text=True
        ).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def run(trees: dict[str, Path], cells) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from superfrob.combinat import multipartitions

    samples = {(cell, table, label): [] for cell in cells for table in TABLES for label in trees}
    references = [time_reference()]
    for _ in range(REPEATS):
        for cell in cells:
            for table in TABLES:
                for label, tree in trees.items():
                    samples[cell, table, label].append(time_table(tree, table, *cell))
    references.append(time_reference())

    def summary(values: list) -> dict:
        cpu = None if None in values else round(statistics.median(values), 4)
        return {"cpu_s": cpu, "samples": values}

    return {
        "python": platform.python_version(),
        "reference": {"script": "perfbench/reference.py", "runs": references},
        "trees": {label: describe_tree(tree) for label, tree in trees.items()},
        "repeats": REPEATS,
        "cells": [
            {
                "m": m,
                "n": n,
                "classes": len(multipartitions(m, n)),
                "cap_s": CAP_S,
                **{
                    table: {label: summary(samples[(m, n), table, label]) for label in trees}
                    for table in TABLES
                },
            }
            for m, n in cells
        ],
    }


def _tree(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, Path(path).resolve()


def _cell(text: str) -> tuple[int, int]:
    try:
        m, n = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected M,N, got {text!r}") from None
    return m, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", help="LABEL=PATH of a checkout")
    parser.add_argument("--cell", type=_cell, action="append", help="M,N (default: the grid)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_frontier.json")
    args = parser.parse_args(argv)
    trees = dict(args.tree or [("current", ROOT)])
    result = run(trees, args.cell or CELLS)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
