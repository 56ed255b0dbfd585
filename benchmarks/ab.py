#!/usr/bin/env python3
"""A/B comparison of the end-to-end benchmark: a base revision against
the working tree.

Run from the repository root (or through ``make bench-ab``)::

    python3 benchmarks/ab.py --base HEAD~1 --workload echo_chain3 \\
        --pairs 10 --seconds 30 --seed 1

The base revision is checked out into a temporary ``git worktree``.
Each pair runs ``perfbench/run.py`` once on each tree, with the same
workload, seed and run length; the side that runs first alternates from
pair to pair, so a drift in the host's speed does not favour one side.
For every end-to-end metric in ``BENCHMARK.json`` the report gives each
side's median and quartiles, how many pairs the change won (ties count
for neither side) and whether the gain rule holds: the change wins at
least nine tenths of the pairs and the medians differ by more than the
base's interquartile range.  Every run's value is printed too.  The
worktree is removed at the end, also when a run fails.

It takes ``2 * pairs * seconds`` of wall time plus set-up, so no CI job
runs it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` of at least one value (inclusive method, so
    a single value is its own quartiles)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(base: Sequence[float], change: Sequence[float],
              better: str) -> Dict[str, object]:
    """Compare paired runs of one metric; ``base[i]`` and ``change[i]``
    are pair ``i``.  ``better`` is ``"higher"`` or ``"lower"``."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    base_q = quartiles(base)
    change_q = quartiles(change)
    improvement = sign * (change_q[1] - base_q[1])
    return {
        "base": base_q,
        "change": change_q,
        "wins": wins,
        "pairs": len(base),
        "gain": (10 * wins >= 9 * len(base)
                 and improvement > base_q[2] - base_q[0]),
    }


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> Dict[str, float]:
    """One untraced run of the benchmark in ``tree``: metric -> value."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"incorrect run in {tree}: {proc.stdout}")
    return {name: spec["value"] for name, spec in result["metrics"].items()}


def compare(base_tree: Path, change_tree: Path, workload: str, pairs: int,
            seconds: float, seed: int) -> List[Dict[str, Dict[str, float]]]:
    """``pairs`` pairs of runs, alternating which tree runs first; one
    ``{"base": metrics, "change": metrics}`` per pair."""
    runs = []
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            tree = base_tree if side == "base" else change_tree
            pair[side] = run_once(tree, workload, seed, seconds)
        runs.append(pair)
        print(f"pair {i + 1}/{pairs} ({order[0]} first): "
              + ", ".join(f"{name} {pair['base'][name]:.6g} -> "
                          f"{pair['change'][name]:.6g}"
                          for name in sorted(pair["base"])),
              flush=True)
    return runs


def report(runs: List[Dict[str, Dict[str, float]]],
           end_to_end: List[dict]) -> None:
    """Print median [q1, q3] per side, wins and the gain verdict."""
    print(f"{'metric':<18} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32}  wins  gain")
    for spec in end_to_end:
        name = spec["name"]
        if name not in runs[0]["base"]:
            continue
        row = summarize([pair["base"][name] for pair in runs],
                        [pair["change"][name] for pair in runs],
                        spec["better"])

        def cell(q):
            return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

        print(f"{name:<18} {cell(row['base']):>32} {cell(row['change']):>32}"
              f"  {row['wins']:>2}/{row['pairs']:<2} "
              f"{'yes' if row['gain'] else 'no'}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as scratch:
        base_tree = Path(scratch) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree),
                        args.base], cwd=ROOT, check=True)
        try:
            runs = compare(base_tree, ROOT, args.workload, args.pairs,
                           args.seconds, args.seed)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=ROOT, check=True)
    print(f"bench-ab {args.workload}: base {args.base} vs working tree, "
          f"seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    report(runs, end_to_end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
