"""Compare the benchmark of two checkouts over alternating pairs of runs.

    python3 tools/bench.py pairs PARENT CHANGE --workload W [-n 10]

PARENT and CHANGE are two checkouts of the repository. Pair s (s = 1..n)
runs each checkout's own `perfbench/run.py`, unchanged, at `--seed s` for
the `run_seconds` of `BENCHMARK.json` with `--trace 0`; the parent runs first in odd pairs and the change first in even ones, so
neither side always meets the host as the other left it. Each run's result
line (the last line `perfbench/run.py` prints) is printed as it finishes.

Then, for each end-to-end metric of the `BENCHMARK.json` next to this
directory, one line: the parent's median and quartiles, the change's
median, the change in %, and in how many pairs the change was better, in
the direction of the metric's `better`, followed by a line with the verdict
of the acceptance rule (`verdict` says how each is decided): `gain`,
`worse beyond bound`, `unresolved` or `within bound`. Every run with
`failed` above 0 is listed after them.
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
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], spec: dict) -> str:
    """What the acceptance rule makes of one metric's pairs, in this order:
    `gain` when the change is better in at least 9 of 10 pairs and the
    medians differ by more than the parent's IQR; `worse beyond bound` when
    the change's median is worse than the parent's by more than the metric's
    relative `bound`; `unresolved` when the parent's IQR is wider than the
    bound, unless every change run beats every parent run; else
    `within bound`."""
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    q1, a, q3 = quartiles(parent)
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
    """One line per end-to-end metric that every run reports, then the runs
    that failed checks; `pairs` holds (parent, change) result objects."""
    lines = []
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in result["metrics"] for pair in pairs for result in pair):
            continue
        parent, change = ([result["metrics"][name]["value"] for result in side]
                          for side in zip(*pairs))
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
        q1, a, q3 = quartiles(parent)
        b = statistics.median(change)
        pct = f"{100 * (b - a) / a:+.1f} %" if a else "n/a"
        lines.append(f"{workload}, {name}: {a:.6g} -> {b:.6g} {spec['unit']} ({pct}, "
                     f"{wins} of {len(pairs)} better, {spec['better']} is better; "
                     f"parent quartiles {q1:.6g}-{q3:.6g}, IQR {q3 - q1:.3g})")
        lines.append(f"{workload}, {name} verdict: {verdict(parent, change, spec)}")
    failed = [f"pair {k} {side}: {result['failed']} of {result['attempted']} checks failed"
              for k, pair in enumerate(pairs, 1)
              for side, result in zip(SIDES, pair) if result["failed"] > 0]
    lines.append("failed runs: " + ("none" if not failed else "; ".join(failed)))
    return lines


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
    return 0


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
