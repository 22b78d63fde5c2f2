"""`tools/bench.py pairs`: the order of its runs and the summary it prints,
fed canned result lines instead of benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("tools_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "frames_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result_line(frames, run_s, failed=0):
    """The last lines of a run's output, as `perfbench/run.py` prints them."""
    return "\n".join([
        f"frames_per_s {frames} 1/s",
        f"error_rate {failed / 10} ({failed} of 10 checked operations failed)",
        json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                    "metrics": {"frames_per_s": {"value": frames, "unit": "1/s"},
                                "run_s": {"value": run_s, "unit": "s"}}}),
    ]) + "\n"


def test_summary_of_canned_results(bench):
    parent = [(100, 2.0), (110, 2.2), (90, 1.8), (120, 2.4), (105, 2.1)]
    change = [(120, 1.9), (130, 2.3), (95, 1.7), (119, 2.0), (125, 2.1)]
    pairs = [(bench.parse_result(result_line(*a)), bench.parse_result(result_line(*b)))
             for a, b in zip(parent, change)]
    pairs[2] = (pairs[2][0], bench.parse_result(result_line(95, 1.7, failed=2)))
    lines = bench.summarize("wl", pairs, END_TO_END)
    # setup_s is reported by no run, so it has no line
    assert lines == [
        "wl, frames_per_s: 105 -> 120 1/s (+14.3 %, 4 of 5 better, higher is better; "
        "parent quartiles 100-110, IQR 10)",
        "wl, frames_per_s verdict: within bound",
        # 2.1 against 2.1 is a tie, not a win
        "wl, run_s: 2.1 -> 2 s (-4.8 %, 3 of 5 better, lower is better; "
        "parent quartiles 2-2.2, IQR 0.2)",
        "wl, run_s verdict: within bound",
        "failed runs: pair 3 change: 2 of 10 checks failed",
    ]
    assert bench.summarize("wl", pairs[:1], END_TO_END)[-1] == "failed runs: none"


PARENT_FRAMES = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
WIDE_FRAMES = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]  # IQR 55 > 24 % of 100


@pytest.mark.parametrize("parent, change, want", [
    # 9 of 10 better, and the medians differ by 20 > IQR 4.5
    (PARENT_FRAMES, [99] + [121 + k for k in range(9)], "gain"),
    # 8 of 10 better is too few for a gain
    (PARENT_FRAMES, [99, 100] + [122 + k for k in range(8)], "within bound"),
    # -28.7 % against a bound of 24 %
    (PARENT_FRAMES, [70 + k for k in range(10)], "worse beyond bound"),
    (WIDE_FRAMES, [101 + k for k in range(10)], "unresolved"),
    # every change run beats every parent run, but by less than the IQR
    (WIDE_FRAMES, [151] * 10, "within bound"),
    (PARENT_FRAMES, PARENT_FRAMES[::-1], "within bound"),
])
def test_verdict_of_canned_results(bench, parent, change, want):
    pairs = [(bench.parse_result(result_line(a, 2.0)), bench.parse_result(result_line(b, 2.0)))
             for a, b in zip(parent, change)]
    lines = bench.summarize("wl", pairs, END_TO_END)
    assert lines[1] == f"wl, frames_per_s verdict: {want}"
    # equal run_s in every pair: no gain, no loss
    assert lines[3] == "wl, run_s verdict: within bound"


def test_parse_result_refuses_output_without_a_result(bench):
    for stdout in ("", "frames_per_s 1 1/s\n", '{"correct": true}\n'):
        with pytest.raises(ValueError):
            bench.parse_result(stdout)


def test_pairs_alternate_which_side_runs_first(bench, tmp_path, monkeypatch, capsys):
    for side in ("a", "b"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").touch()
    runs = []

    def run_once(checkout, workload, seed, seconds):
        assert seconds == json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())[
            "run_seconds"]
        runs.append((checkout.name, seed))
        return bench.parse_result(result_line(100 + seed, 2.0))

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["pairs", str(tmp_path / "a"), str(tmp_path / "b"),
                       "--workload", "wl", "-n", "3"]) == 0
    assert runs == [("a", 1), ("b", 1), ("b", 2), ("a", 2), ("a", 3), ("b", 3)]
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in out[:6]] == [
        ["1", "parent"], ["1", "change"], ["2", "change"], ["2", "parent"],
        ["3", "parent"], ["3", "change"]]
    # the metrics of the repository's BENCHMARK.json that the runs report
    assert [line.split(":")[0] for line in out[6:]] == [
        "wl, run_s", "wl, run_s verdict", "wl, frames_per_s", "wl, frames_per_s verdict",
        "failed runs"]
    assert out[8].startswith("wl, frames_per_s: 102 -> 102 1/s (+0.0 %, 0 of 3 better")


def test_pairs_needs_two_checkouts_with_the_benchmark(bench, tmp_path, capsys):
    assert bench.main(["pairs", str(tmp_path), str(tmp_path), "--workload", "wl"]) == 2
    assert "has no perfbench/run.py" in capsys.readouterr().err
