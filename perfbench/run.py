"""Run one egobatch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory and scratch files go to `.perfbench-work/` there, removed on exit.
The run sets up the workload several times (set-up includes a warm-up
repetition), then repeats the workload until at least S seconds have passed.
With `--trace 0` it reports the end-to-end metrics, measured with only a few
light probes installed and timed by `BestOfReps`. With `--trace 1` it wraps
every public function of every layer and reports per-layer metrics per cycle
(one set-up plus one repetition), alternating traced and untraced
repetitions to measure the tracing overhead. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # steadier and, on 2 cores, faster than the 2-thread default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

from posts import POSTS  # noqa: E402
from spans import Timeline, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CPUS = sorted(os.sched_getaffinity(0))
SETUPS = 5
PREDICTS = ("models.predict_baseline", "models.predict_sliding_sequence",
            "models.predict_piggyback_sequence")
STEP = ("nnet.backprop_window", "nnet.sgd_update")
PROBES = frozenset({*PREDICTS, "training.validate_model", *STEP})
MIN_TAIL_BEYOND = 10
BENCH_SPANS = ("bench.rep", "bench.main")  # the benchmark's own spans

# per-layer metrics: calls and self time, self time only, inclusive time,
# inclusive time and bytes; the rest are derived in per_layer()
COUNTED = ("nnet.LstmLayer.run", "nnet.LstmLayer.backward", "nnet.sgd_update",
           *(f"batching.{fn}" for fn in ("batch_rows", "piggyback_plan", "carry_mask",
                                         "apply_carry", "CarryStore.update")),
           "training.validate_model", *PREDICTS, "datamodel.Dataset.by_id")
SELF_ONLY = ("nnet.backprop_window", "nnet.run_window", "cli.dispatch")
INCLUSIVE = ("models.write_timelines_json", "models.read_timelines_json",
             "splitter.select_split", "evaluation.confusion_from_timelines",
             "evaluation.macro_report")
WITH_BYTES = ("nnet.write_checkpoint", "nnet.read_checkpoint",
              "datamodel.generate_synthetic", "datamodel.write_manifest",
              "datamodel.load_dataset")


def _blas_info(np) -> dict:
    import ctypes
    import glob

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                threads = getattr(lib, symbol)()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def environment(np) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "egobatch").glob("*.py")):
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": np.__version__, **_blas_info(np),
            "nproc": len(CPUS)}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_quantile(samples: int) -> float:
    """The highest whole percentile that leaves MIN_TAIL_BEYOND samples beyond it."""
    return (100 * (samples - MIN_TAIL_BEYOND) // samples) / 100


class BestOfReps:
    """Times a repetition as the sum of its segments' best times over the run.

    The probes' starts and ends cut each repetition's timeline into segments.
    Every repetition makes the same calls in the same order, so segment j is
    the same work in each, and its best time over the run is the one least
    slowed by the rest of the host: contention only ever adds time, which is
    why `timeit` reports the best of its repeats. On a shared host whose
    speed changes every few seconds this is far steadier than a median over
    whole repetitions. Any span of the repetition is timed as the sum of the
    best times of the segments inside it.
    """

    def __init__(self, tracer, checks):
        self.tracer = tracer
        self.checks = checks
        self.events = None
        self.best = None

    def add(self, timeline) -> None:
        gaps = np.diff(np.frombuffer(timeline.times, dtype=np.float64))
        if self.events is None:
            self.events, self.best = timeline.events, gaps
            return
        same = timeline.events == self.events
        self.checks.expect(same, "a repetition made other calls than the first")
        if same:
            np.minimum(self.best, gaps, out=self.best)

    def durations(self, name: str) -> np.ndarray:
        """Best-time durations of each call of span `name` in one repetition."""
        event = self.tracer.start_event(name)
        events = np.frombuffer(self.events, dtype=np.intc)
        ends = np.concatenate(([0.0], np.cumsum(self.best)))
        return ends[events == event + 1] - ends[events == event]

    def total(self, *names: str) -> float:
        return float(sum(self.durations(name).sum() for name in names))


def end_to_end(wl, setup_times, rep_times, table, best) -> dict:
    reps = len(rep_times)
    predicted = sum(table[name].counts["frames"] for name in PREDICTS if name in table)
    samples = wl.requests(best)
    q = tail_quantile(len(samples))
    print("set-up seconds " + " ".join(f"{t:.4f}" for t in setup_times))
    print("repetition seconds " + " ".join(f"{t:.4f}" for t in rep_times))
    # Printed, not reported: p99 of the training workload's SGD steps spread
    # 0.06-0.31 between runs on a shared 2-core host, too wide to gate on.
    print(f"timings are best-of-{reps} per segment; latency tail "
          f"p{round(q * 100)} of {len(samples)} requests: "
          f"{1e3 * percentile(samples, q):.4f} ms")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (best.total("bench.rep"), "s"),
        "frames_per_s": (wl.main_frames / reps / (
            best.total("bench.main") - best.total(*wl.main_excludes)), "1/s"),
        "predict_frames_per_s": (predicted / reps / best.total(*PREDICTS), "1/s"),
        "latency_ms_p50": (1e3 * float(np.median(samples)), "ms"),
        "test_accuracy": (statistics.median(wl.accuracies), "1"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }


def per_layer(wl, setup_table, traced_table, traced_times, untraced_times) -> dict:
    reps = len(traced_times)

    def cycle(span: str, field: str) -> float:
        value = 0.0
        for table, count in ((setup_table, SETUPS), (traced_table, reps)):
            rec = table.get(span)
            if rec is not None:
                raw = getattr(rec, field) if field in ("calls", "total", "self_s") \
                    else rec.counts.get(field, 0.0)
                value += raw / count
        return value

    wl.check_counts(cycle)
    metrics = {}
    for span in COUNTED:
        metrics[f"{span}.calls"] = (cycle(span, "calls"), "count")
        metrics[f"{span}.self_s"] = (cycle(span, "self_s"), "s")
    for span in SELF_ONLY:
        metrics[f"{span}.self_s"] = (cycle(span, "self_s"), "s")
    for span in INCLUSIVE + WITH_BYTES:
        metrics[f"{span}.s"] = (cycle(span, "total"), "s")
    for span in WITH_BYTES:
        metrics[f"{span}.bytes"] = (cycle(span, "bytes"), "B")
    lstm = ("nnet.LstmLayer.run", "nnet.LstmLayer.backward")
    flops = sum(cycle(span, "flops") for span in lstm)
    lstm_s = sum(cycle(span, "self_s") for span in lstm)
    metrics["nnet.lstm.flops"] = (flops, "flop")
    metrics["nnet.lstm.gflops_per_s"] = (flops / lstm_s / 1e9 if lstm_s else 0.0,
                                         "GFLOP/s")
    metrics["training.driver.self_s"] = (
        sum(cycle(f"training.train_{arch}", "self_s")
            for arch in ("baseline", "sliding", "piggyback")), "s")
    metrics["training.sgd_steps"] = (cycle("nnet.backprop_window", "train_steps"),
                                     "count")
    metrics["splitter.subsets_evaluated"] = (cycle("splitter.combinations", "items"),
                                             "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_times) - statistics.median(untraced_times), "s")
    metrics["trace.remainder_s"] = (
        sum(traced_table[span].self_s for span in BENCH_SPANS) / reps, "s")

    total_self = sum(rec.self_s for rec in traced_table.values())
    rep_total = traced_table["bench.rep"].total
    wl.checks.expect(abs(total_self - rep_total) <= 1e-9 * max(rep_total, 1.0),
                     f"self times add up to {total_self} s, traced repetitions "
                     f"took {rep_total} s")
    print(f"tracing overhead: traced run_s {statistics.median(traced_times):.4f} s, "
          f"untraced run_s {statistics.median(untraced_times):.4f} s")
    return metrics


def timed_setup(workload, args, work: Path, checks, tracer):
    """A workload set up in `work`, and the seconds its set-up took."""
    shutil.rmtree(work, ignore_errors=True)
    wl = workload(args.seed, work, checks, tracer)
    start = time.perf_counter()
    wl.setup()
    return wl, time.perf_counter() - start


def measure(workload, args, work_root: Path, checks, tracer) -> dict:
    """Set up SETUPS times, repeat the workload for args.seconds, check it."""
    probes = PROBES.__contains__
    tracer.install(None if args.trace else probes)
    setup_table = tracer.table = {}
    # Set-ups in a row all meet the host in the same state, so an untraced
    # run spreads them evenly over its timed part, outside the repetitions
    # and its clock. A traced run does them all first: its per-layer
    # metrics count the set-ups' spans.
    setup_times = []
    for _ in range(SETUPS if args.trace else 1):
        wl, seconds = timed_setup(workload, args, work_root / "main", checks, tracer)
        setup_times.append(seconds)
    wl.main_frames = 0

    # the traced run alternates untraced and traced repetitions
    tables = {False: {}, True: {}}
    times = {False: [], True: []}
    best = BestOfReps(tracer, checks)
    start = time.perf_counter()
    while True:
        due = len(setup_times) * args.seconds / SETUPS
        if len(setup_times) < SETUPS and time.perf_counter() - start >= due:
            paused = time.perf_counter()
            os.sched_setaffinity(0, CPUS)
            tracer.table = setup_table
            _, seconds = timed_setup(workload, args, work_root / "setup", checks, tracer)
            setup_times.append(seconds)
            shutil.rmtree(work_root / "setup")
            start += time.perf_counter() - paused

        traced = bool(args.trace) and len(times[False]) > len(times[True])
        # Each repetition runs on the next of the allowed CPUs in turn: on a
        # shared host one CPU can stay slow for half a minute while another
        # is not, and BestOfReps then keeps the faster one's times.
        os.sched_setaffinity(0, {CPUS[len(times[traced]) % len(CPUS)]})
        if args.trace:
            tracer.uninstall()
            tracer.install(None if traced else probes)
        tracer.table = tables[traced]
        tracer.timeline = None if args.trace else Timeline()
        with tracer.span("bench.rep"):
            wl.rep()
        times[traced].append(tracer.table["bench.rep"].samples[-1])
        if tracer.timeline is not None:
            best.add(tracer.timeline)
            tracer.timeline = None
        with tracer.paused():
            wl.verify()
        done = min(map(len, times.values())) if args.trace else len(times[False])
        if done >= (2 if args.trace else wl.min_reps) and len(setup_times) == SETUPS \
                and time.perf_counter() - start >= args.seconds:
            break
    os.sched_setaffinity(0, CPUS)
    with tracer.paused():
        wl.finish()
    if args.trace:
        return per_layer(wl, setup_table, tables[True], times[True], times[False])
    return end_to_end(wl, setup_times, times[False], tables[False], best)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import egobatch
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(egobatch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: egobatch was imported from {egobatch.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    print("env " + json.dumps(environment(np), sort_keys=True))

    work_root = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    checks = Checks()
    tracer = Tracer(POSTS, sampled=frozenset({"bench.rep"}))
    try:
        metrics = measure(WORKLOADS[args.workload], args, work_root, checks, tracer)
    finally:
        os.sched_setaffinity(0, CPUS)
        tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work_root.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    print(f"error_rate {len(checks.failures) / max(checks.attempted, 1):.6g} "
          f"({len(checks.failures)} of {checks.attempted} checked operations failed)")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
