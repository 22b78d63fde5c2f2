"""The two benchmark workloads and the checks on their outputs.

Each workload makes its inputs from the seed in `setup`, repeats one unit of
user-visible work in `rep`, and checks that repetition's outputs in
`verify`, outside the timed region. Every repetition of a run does identical
work on identical inputs, so per-repetition counts are exact and the trained
models and accuracies must repeat bit for bit.

Why these two: `train-piggyback-h32` uses tiny matrices, so per-call Python
overhead in `batching`, the window wrappers and the `training` driver
dominates, and training changes show there. `infer-pipeline-h256` trains
nothing: it runs the `split`, `predict` and `eval` subcommands on
wide-feature days of mixed lengths, so `.egoseq` I/O, the split search,
timeline JSON, `evaluation` and forward-only `nnet` kernels at hidden 256
carry the load, and training-only changes must leave it unchanged. A third
workload, sliding-window training at hidden 256, was dropped: on a shared
2-core host its timings spread too widely between runs to gate anything
within the run time three workloads would leave each.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# Layer functions are looked up on their modules at call time, so the calls
# this file makes go through the tracer's wrappers too.
from egobatch import cli, datamodel, models, nnet, splitter, training
from egobatch.training import TrainConfig

CARRY_TOLERANCE = 1e-12  # batched carried logits vs the frame-by-frame reference
# The seed makes the data; initialisation, shuffling and dropout use this
# fixed seed, which halved the seed-to-seed spread of the sliding accuracy.
MODEL_SEED = 0


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def carried_reference_logits(model, features: np.ndarray, n: int, m: int) -> np.ndarray:
    """Piggyback logits one frame at a time with `LstmLayer.step`.

    Batches of n frames start every n - m frames and the tail repeats the
    final frame. Each batch starts from a zero state; from the second batch
    on, its first m recurrent inputs are the previous batch's last m outputs.
    A frame keeps the head output of the batch in which it was new.
    """
    length = len(features)
    stride = n - m
    batches = 1 if length <= n else math.ceil((length - n) / stride) + 1
    logits = np.full((length, model.head.out_dim), np.nan)
    carried: list[np.ndarray] = []
    for k in range(batches):
        start = k * stride
        state = nnet.LstmState.zeros(model.lstm.hidden)
        outputs = []
        for p in range(n):
            frame = start + p
            if k > 0 and p < m:
                x = carried[p]
            else:
                x = model.embed.forward(features[min(frame, length - 1)])
            state = model.lstm.step(x, state)
            outputs.append(state.h)
            if frame < length and (k == 0 or p >= m):
                logits[frame] = model.head.forward(state.h)
        carried = outputs[-m:]
    return logits


def _same_tensors(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and np.ascontiguousarray(a[k]).tobytes() == np.ascontiguousarray(b[k]).tobytes()
        for k in a
    )


class Workload:
    """One workload: seed-made inputs, a repeated unit of work, its checks."""

    name = ""
    min_reps = 3
    # spans inside the main phase (the "bench.main" spans) that it excludes
    main_excludes: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, checks: Checks, tracer):
        self.seed = seed
        self.work = work
        self.checks = checks
        self.tracer = tracer
        self.main_frames = 0  # frames through the workload's main phase
        self.accuracies: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Run-level checks after the timed repetitions."""

    def requests(self, best) -> np.ndarray:
        """Latency of each request of one repetition, from `run.BestOfReps`."""
        raise NotImplementedError

    def check_counts(self, per_cycle) -> None:
        """Exact counts from a traced run; `per_cycle(span, field)`."""
        subsets = per_cycle("splitter.combinations", "items")
        b, t, v = self.bin_count, self.test_bins, self.val_bins
        expected = math.comb(b, t) + math.comb(b - t, v)
        self.checks.expect(subsets == expected,
                           f"splitter.subsets_evaluated {subsets} != {expected}")

    def record_accuracy(self, accuracy: float, floor: float) -> None:
        self.checks.expect(accuracy >= floor,
                           f"test accuracy {accuracy:.4f} below floor {floor}")
        if self.accuracies:
            self.checks.expect(accuracy == self.accuracies[0],
                               "repetitions disagree on test accuracy")
        self.accuracies.append(accuracy)


# ---------------------------------------------------------------------------
# Training workload
# ---------------------------------------------------------------------------

class PiggybackTraining(Workload):
    """Train a fresh piggyback model on the seed's synthetic split, phase 1
    then phase 2, then classify the test days from the checkpoint read back
    from disk."""

    name = "train-piggyback-h32"
    days, bins, test_bins, val_bins = 40, 8, 1, 1  # 30 train, 5 val, 5 test days
    hidden, n, m, epochs = 32, 10, 3, 1
    accuracy_floor = 0.9
    reference_days = 2
    main_excludes = ("training.validate_model",)

    def config(self, phase: int) -> TrainConfig:
        return TrainConfig("piggyback", timestep=self.n, overlap=self.m,
                           learning_rate=0.05, epochs=self.epochs, dropout=0.0,
                           seed=MODEL_SEED, phase=phase)

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        data = datamodel.generate_synthetic(
            datamodel.SynthConfig(seed=self.seed, num_sequences=self.days))
        manifest, labels = self.work / "manifest.json", self.work / "labels.txt"
        datamodel.write_labels_file(data.label_set, labels)
        datamodel.write_manifest(data, manifest, self.work / "sequences")
        dataset = datamodel.load_dataset(manifest, labels)
        split = splitter.select_split(dataset, self.bins, self.test_bins, self.val_bins)
        self.bin_count = len(split.bins)
        self.train, self.val, self.test = (
            [dataset.by_id(sid) for sid in split.sequence_ids(part)]
            for part in ("train", "val", "test"))
        self.feature_dim = dataset.feature_dim
        self.num_classes = dataset.label_set.size
        with self.tracer.paused():
            self._results, self._round_trips = [], []
            self._two_phases(self.train[:10], self.val[:2])

    def fit(self, model, cfg: TrainConfig, train_days, val_days):
        """One training call, timed as the main phase less its validation."""
        with self.tracer.span("bench.main"):
            result = training.train_piggyback(model, train_days, val_days, cfg)
        self.main_frames += sum(len(day) for day in train_days) * cfg.epochs
        self._results.append((result, cfg))
        return result

    def round_trip(self, params: dict, name: str):
        path = self.work / name
        nnet.write_checkpoint(params, path)
        back = nnet.read_checkpoint(path)
        # compared now: the restored model trains on in place
        self._round_trips.append(_same_tensors(params, back))
        return models.model_from_params(back)

    def _two_phases(self, train_days, val_days):
        model = models.build_piggyback(self.feature_dim, self.num_classes,
                                       hidden=self.hidden, seed=MODEL_SEED)
        result = self.fit(model, self.config(1), train_days, val_days)
        model = self.round_trip(result.best_params, "phase1.egomdl")
        result = self.fit(model, self.config(2), train_days, val_days)
        return self.round_trip(result.best_params, "phase2.egomdl")

    def rep(self) -> None:
        self._results, self._round_trips = [], []
        self.model = self._two_phases(self.train, self.val)
        self.timelines = [models.predict_piggyback_sequence(self.model, day, self.n, self.m)
                          for day in self.test]

    def verify(self) -> None:
        for result, cfg in self._results:
            report = result.report
            losses = [v for e in report.epochs for v in (e.train_loss, e.val_loss)]
            self.checks.expect(
                report.stop_reason != "numeric_failure"
                and len(report.epochs) == cfg.epochs
                and bool(np.isfinite(losses).all())
                and result.best_params is not None,
                f"phase {cfg.phase} training failed ({report.stop_reason})")
        for same in self._round_trips:
            self.checks.expect(same, "checkpoint read back differs from trained params")
        frames = correct = 0
        for day, timeline in zip(self.test, self.timelines):
            self.checks.expect(
                timeline.sequence_id == day.sequence_id and len(timeline) == len(day)
                and np.array_equal(timeline.true_labels, day.labels),
                f"timeline of {day.sequence_id} does not cover each frame once")
            frames += len(timeline)
            correct += int((timeline.pred_labels == timeline.true_labels).sum())
        self.record_accuracy(correct / frames, self.accuracy_floor)

    def requests(self, best) -> np.ndarray:
        """One SGD step: `backprop_window` of one window plus its `sgd_update`."""
        return best.durations("nnet.backprop_window") + best.durations("nnet.sgd_update")

    def check_counts(self, per_cycle) -> None:
        super().check_counts(per_cycle)
        # phase 1 takes one step per tile, phase 2 one per plan batch
        n, m = self.n, self.m
        tiles = sum(math.ceil(len(day) / n) for day in self.train)
        plans = sum(1 if len(day) <= n else math.ceil((len(day) - n) / (n - m)) + 1
                    for day in self.train)
        expected = (tiles + plans) * self.epochs
        steps = per_cycle("nnet.backprop_window", "train_steps")
        self.checks.expect(steps == expected,
                           f"training.sgd_steps {steps} != expected {expected}")
        calls = per_cycle("nnet.sgd_update", "calls")
        self.checks.expect(calls == expected,
                           f"nnet.sgd_update.calls {calls} != expected {expected}")

    def finish(self) -> None:
        for day in self.test[:self.reference_days]:
            got = models.piggyback_logits(self.model, day, self.n, self.m)
            want = carried_reference_logits(self.model, day.features, self.n, self.m)
            self.checks.expect(float(np.abs(got - want).max()) <= CARRY_TOLERANCE,
                               f"carried logits of {day.sequence_id} differ from "
                               f"the step reference")


# ---------------------------------------------------------------------------
# Inference pipeline
# ---------------------------------------------------------------------------

class InferencePipeline(Workload):
    name = "infer-pipeline-h256"
    # Every FFD bin holds one day of each length (1.1 x 500 capacity fits
    # 280+150+70 but no second day), so every test subset has the same frames.
    lengths = (280, 150, 70)
    bins, test_bins, val_bins = 12, 6, 2
    feature_dim, hidden, n, m = 2048, 256, 10, 3
    checkpoints = ("baseline", "sliding", "piggyback")
    accuracy_floor = 0.7

    def _args(self, command: str, *extra) -> list[str]:
        return [command, "--manifest", str(self.work / "manifest.json"),
                "--labels", str(self.work / "labels.txt"), *map(str, extra)]

    def _dispatch(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.dispatch(argv)

    def setup(self) -> None:
        self.work.mkdir(parents=True)
        root = np.random.SeedSequence(self.seed)
        sets = [
            datamodel.generate_synthetic(datamodel.SynthConfig(
                feature_dim=self.feature_dim, num_sequences=self.bins,
                frames_per_sequence=length,
                seed=int(child.generate_state(1)[0])))
            for length, child in zip(self.lengths, root.spawn(len(self.lengths)))
        ]
        days = []
        for group in zip(*(s.sequences for s in sets)):
            for day in group:
                day.sequence_id = f"len{len(day):03d}-{day.sequence_id}"
                days.append(day)
        data = datamodel.Dataset(sets[0].label_set, days)
        datamodel.write_labels_file(data.label_set, self.work / "labels.txt")
        datamodel.write_manifest(data, self.work / "manifest.json",
                                 self.work / "sequences")
        self.labels = {day.sequence_id: day.labels for day in days}
        num_classes = data.label_set.size
        del data, sets, days

        # nearest-class-mean frame classifier: W x + b = mu.x - |mu|^2 / 2
        means = datamodel.class_means(datamodel.SynthConfig(feature_dim=self.feature_dim))
        head = {"head.W": means, "head.b": -0.5 * (means ** 2).sum(axis=1)}
        nnet.write_checkpoint(head, self.work / "baseline.egomdl")
        for name, build in (("sliding", models.build_sliding),
                            ("piggyback", models.build_piggyback)):
            model = build(self.feature_dim, num_classes, self.hidden, seed=MODEL_SEED)
            nnet.write_checkpoint(model.params(), self.work / f"{name}.egomdl")
        with self.tracer.paused():
            self.run_pipeline("val", ("sliding", "piggyback"))

    def run_pipeline(self, subset: str, checkpoints) -> list[int]:
        out = self.work / "rep"
        shutil.rmtree(out, ignore_errors=True)
        split = out / "split"
        codes = [self._dispatch(self._args(
            "split", "--bins", self.bins, "--test-bins", self.test_bins,
            "--val-bins", self.val_bins, "--out-dir", split))]
        for model in checkpoints:
            with self.tracer.span("bench.main"):
                codes.append(self._dispatch(self._args(
                    "predict", "--model", self.work / f"{model}.egomdl",
                    "--split", split / "split.json", "--subset", subset,
                    "--timestep", self.n, "--overlap", self.m, "--out-dir", out / model)))
            codes.append(self._dispatch([
                "eval", "--timelines", str(out / model / "timelines.json"),
                "--labels", str(self.work / "labels.txt"),
                "--out-dir", str(out / model / "eval")]))
        return codes

    def rep(self) -> None:
        self.codes = self.run_pipeline("test", self.checkpoints)

    def requests(self, best) -> np.ndarray:
        """Predicting one day with one checkpoint."""
        return np.concatenate([best.durations(name) for name in (
            "models.predict_baseline", "models.predict_sliding_sequence",
            "models.predict_piggyback_sequence")])

    def verify(self) -> None:
        out = self.work / "rep"
        self.checks.expect(self.codes == [0] * len(self.codes),
                           f"pipeline exit codes {self.codes}")
        split = json.loads((out / "split" / "split.json").read_text())
        test_ids = split["test"]
        self.bin_count = len(split["bins"])
        frames = sum(len(self.labels[sid]) for sid in test_ids)
        self.main_frames += frames * len(self.checkpoints)
        self.timelines = {}
        for model in self.checkpoints:
            timelines = json.loads((out / model / "timelines.json").read_text())
            report = json.loads((out / model / "eval" / "report.json").read_text())
            self.timelines[model] = {t["sequence_id"]: t for t in timelines}
            covered = sorted(self.timelines[model]) == sorted(test_ids) and all(
                [f["index"] for f in t["frames"]] == list(range(len(self.labels[sid])))
                and [f["true"] for f in t["frames"]] == self.labels[sid].tolist()
                for sid, t in self.timelines[model].items())
            self.checks.expect(covered and len(timelines) == len(test_ids),
                               f"{model} timelines do not cover each test frame once")
            correct = sum(f["true"] == f["pred"] for t in timelines for f in t["frames"])
            self.checks.expect(abs(report["accuracy"] - correct / frames) <= 1e-12,
                               f"{model} eval accuracy differs from the recount")
            if model == "baseline":
                self.record_accuracy(report["accuracy"], self.accuracy_floor)

    def finish(self) -> None:
        model = models.model_from_params(
            nnet.read_checkpoint(self.work / "piggyback.egomdl"))
        dataset = datamodel.load_dataset(self.work / "manifest.json",
                                         self.work / "labels.txt")
        test = sorted(self.timelines["piggyback"], key=lambda sid: len(self.labels[sid]))
        for sid in (test[0], test[-1]):
            day = dataset.by_id(sid)
            got = models.piggyback_logits(model, day, self.n, self.m)
            want = carried_reference_logits(model, day.features, self.n, self.m)
            self.checks.expect(float(np.abs(got - want).max()) <= CARRY_TOLERANCE,
                               f"carried logits of {sid} differ from the step reference")
            pred = [f["pred"] for f in self.timelines["piggyback"][sid]["frames"]]
            self.checks.expect(pred == np.argmax(want, axis=1).tolist(),
                               f"pipeline labels of {sid} differ from the step reference")


WORKLOADS = {w.name: w for w in (PiggybackTraining, InferencePipeline)}
