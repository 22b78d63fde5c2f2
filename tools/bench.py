"""Compare the benchmark of two checkouts over alternating pairs of runs.

    python3 tools/bench.py pairs PARENT CHANGE --workload W [-n 10]

PARENT and CHANGE are two checkouts of the repository. Pair s (s = 1..n)
runs each checkout's own `perfbench/run.py`, unchanged, at `--seed s` for
the `run_seconds` of `BENCHMARK.json` with `--trace 0`; the parent runs first in odd pairs and the change first in even ones, so
neither side always meets the host as the other left it. Each run's result
line (the last line `perfbench/run.py` prints) is printed as it finishes.
A run that exits non-zero or prints no result line does not stop the
others: its exit code and stderr tail are printed instead, its pair is left
out of every figure below, and the tool exits 1.

Then, for each end-to-end metric of the `BENCHMARK.json` next to this
directory, one line: the parent's median and quartiles, the change's
median, the change in %, and in how many pairs the change was better, in
the direction of the metric's `better`, followed by a line with the verdict
of the acceptance rule (`verdict` says how each is decided): `gain`,
`worse beyond bound`, `unresolved` or `within bound`. Every run with
`failed` above 0, and every run that exited non-zero or printed no result
line, is listed after them, the latter with the last lines of its stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
STDERR_LINES = 5  # of a failed run, listed in the summary


def parse_result(stdout: str) -> dict:
    """The result object on the last non-empty line of a run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"not a result line: {lines[-1][:200]!r}")
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's result object; for a run that exits non-zero or prints no
    result line, its exit code, the last lines of its stderr and, if it
    exited 0, why its output is no result."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    failure = {"exit": done.returncode, "stderr": done.stderr.splitlines()[-STDERR_LINES:]}
    if done.returncode:
        return failure
    try:
        return parse_result(done.stdout)
    except ValueError as exc:  # json's decode error is one too
        return failure | {"error": str(exc)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def paired(parent: list[float], change: list[float], better: str
           ) -> tuple[int, int, tuple[float, float, float]]:
    """The sign of the metric's direction (1 if higher is better, else -1),
    the pairs in which the change is better, and the parent's quartiles."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return sign, wins, quartiles(parent)


def verdict(parent: list[float], change: list[float], spec: dict, sign: int,
            wins: int, parent_quartiles: tuple[float, float, float]) -> str:
    """What the acceptance rule makes of one metric's pairs, given what
    `paired` returns for them, in this order:
    `gain` when the change is better in at least 9 of 10 pairs and the
    medians differ by more than the parent's IQR; `worse beyond bound` when
    the change's median is worse than the parent's by more than the metric's
    relative `bound`; `unresolved` when the parent's IQR is wider than the
    bound, unless every change run beats every parent run; else
    `within bound`."""
    q1, a, q3 = parent_quartiles
    gained = sign * (statistics.median(change) - a)
    bound = spec["bound"] * abs(a)
    if 10 * wins >= 9 * len(parent) and gained > q3 - q1:
        return "gain"
    if gained < -bound:
        return "worse beyond bound"
    if q3 - q1 > bound and not all(sign * (b - a) > 0 for a in parent for b in change):
        return "unresolved"
    return "within bound"


def summarize(workload: str, pairs: list[tuple[dict, dict]],
              end_to_end: list[dict]) -> list[str]:
    """One line per end-to-end metric that every run of a whole pair
    reports, over the whole pairs, then the runs that failed checks or
    failed outright, the latter followed by their last stderr lines;
    `pairs` holds (parent, change) objects of pairs 1, 2, ..., each a
    result object or a failed run as `run_once` returns it."""
    whole = [pair for pair in pairs if all("metrics" in result for result in pair)]
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        if not whole or not all(name in result["metrics"]
                                for pair in whole for result in pair):
            continue
        parent, change = ([result["metrics"][name]["value"] for result in side]
                          for side in zip(*whole))
        sign, wins, (q1, a, q3) = stats = paired(parent, change, spec["better"])
        b = statistics.median(change)
        pct = f"{100 * (b - a) / a:+.1f} %" if a else "n/a"
        lines.append(f"{workload}, {name}: {a:.6g} -> {b:.6g} {spec['unit']} ({pct}, "
                     f"{wins} of {len(whole)} better, {spec['better']} is better; "
                     f"parent quartiles {q1:.6g}-{q3:.6g}, IQR {q3 - q1:.3g})")
        lines.append(f"{workload}, {name} verdict: {verdict(parent, change, spec, *stats)}")
    failed, stderr = [], []
    for k, pair in enumerate(pairs, 1):
        for side, result in zip(SIDES, pair):
            if "metrics" not in result:
                why = f", {result['error']}" if "error" in result else ""
                failed.append(f"pair {k} {side}: seed {k} exited {result['exit']}{why}")
                stderr += [f"  pair {k} {side} stderr: {line}" for line in result["stderr"]]
            elif result["failed"] > 0:
                failed.append(f"pair {k} {side}: {result['failed']} of "
                              f"{result['attempted']} checks failed")
    lines.append("failed runs: " + ("none" if not failed else "; ".join(failed)))
    return lines + stderr


def run_pairs(args) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkouts = dict(zip(SIDES, (Path(args.parent), Path(args.change))))
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"bench: {side} checkout {checkout} has no perfbench/run.py",
                  file=sys.stderr)
            return 2
    results = []
    for seed in range(1, args.n + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
            print(f"pair {seed} {side} {json.dumps(pair[side])}", flush=True)
        results.append((pair["parent"], pair["change"]))
    for line in summarize(args.workload, results, benchmark["end_to_end"]):
        print(line)
    return int(any("metrics" not in result for pair in results for result in pair))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    paired = commands.add_parser("pairs", help="alternate two checkouts over seeds 1..n")
    paired.add_argument("parent", help="checkout of the parent commit")
    paired.add_argument("change", help="checkout of the change")
    paired.add_argument("--workload", required=True)
    paired.add_argument("-n", type=int, default=10, help="pairs, seeds 1..n (default 10)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    return run_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
