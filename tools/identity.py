"""Print SHA-256 digests of trained parameters and predictions.

    python3 tools/identity.py

Trains every architecture on small synthetic days (one of them 3 frames
long) at three (feature dim, hidden) sizes, then prints one digest per line:
the freshly built baseline, sliding and piggyback parameters ("init"), so a
change to initialisation shows apart from a change to training; the last
and the best parameters and the training report (per-epoch train
and validation losses, validation accuracy, best epoch and stop reason)
after baseline, sliding (T = 8, dropout 0.5) and piggyback phase 1 and
phase 2 training (n = 10, m = 3), the outputs of `piggyback_logits` and
`predict_sliding_sequence`, the logits of all the size's days run together
through `piggyback_days_logits` by the trained phase-2 model at both
retentions ("lockstep"), and the one-day outputs of the trained sliding and
piggyback models after a round trip through `write_checkpoint`,
`read_checkpoint` and `model_from_params` ("reloaded"). The `split` line
digests `select_split` (2 test and 2 val bins) on the training and
validation days of the smallest size, packed several to a bin into 7 and
into 6 bins, with both stage-2 references: the bins, the chosen bin ids and
the `repr` of both objectives. The `cli` line
digests every file a command-line run writes: synth, split, train
(baseline, sliding, piggyback phases 1 and 2), predict with the baseline,
sliding and phase-2 models on the test split, eval of each prediction,
predict with the phase-2 model again with `--include-probs` (so both
timeline layouts are digested), and gradcheck. The `pb1` line digests,
apart from the `cli` line, the files of one more predict in that run: the
phase-1 checkpoint on the test split at `--overlap 0` (carry-free, as phase
1 validates it) with `--include-probs`. The `formats` line digests the
bytes that fixed inputs give from each file writer: `write_sequence_file` (a day with timestamps and one
without), `write_labels_file`, `write_manifest` and the `write_json` of
`SplitResult`, `TrainReport` and `MetricsReport`.
The `early-stop` line digests the report and the last and best parameters
of a sliding run (the smallest size, dropout 0.5, patience 2) that stops
early, and names its stop reason, epoch count and best epoch.
The package is imported from the `src/` next to this directory, so running
the script in two checkouts and diffing the output shows whether a change
keeps the trained bytes. The last line digests all the others.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from egobatch import (  # noqa: E402
    Bin,
    Dataset,
    DaySequence,
    LabelSet,
    SplitResult,
    SynthConfig,
    TrainConfig,
    TrainReport,
    build_baseline,
    build_piggyback,
    build_sliding,
    generate_synthetic,
    macro_report,
    model_from_params,
    predict_sliding_sequence,
    read_checkpoint,
    select_split,
    train_baseline,
    train_piggyback,
    train_sliding,
    write_checkpoint,
    write_labels_file,
    write_manifest,
    write_sequence_file,
)
from egobatch.cli import dispatch  # noqa: E402
from egobatch.models import RETENTIONS, piggyback_days_logits, piggyback_logits  # noqa: E402
from egobatch.training import EpochStats  # noqa: E402

SIZES = ((12, 24), (16, 32), (64, 256))
LENGTHS = (57, 41, 3, 66, 30, 23, 48)  # training days; the 3-frame day is <= m
VAL_DAYS = 3
T, N, M = 8, 10, 3


def digest_arrays(arrays) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        sha.update(str((arr.dtype.str, arr.shape)).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def digest_params(params) -> str:
    if params is None:
        return "none"
    sha = hashlib.sha256()
    for name in sorted(params):
        sha.update(name.encode())
        sha.update(digest_arrays([params[name]]).encode())
    return sha.hexdigest()


def digest_report(report) -> str:
    """Epoch losses and accuracies bit for bit, the best epoch and the stop reason."""
    stats = np.array([(e.train_loss, e.val_loss, e.val_accuracy) for e in report.epochs],
                     dtype=np.float64).reshape(-1, 3)
    sha = hashlib.sha256(f"{report.best_epoch} {report.stop_reason}".encode())
    sha.update(digest_arrays([stats]).encode())
    return sha.hexdigest()


def days(feature_dim: int):
    data = generate_synthetic(SynthConfig(feature_dim=feature_dim,
                                          num_sequences=len(LENGTHS) + VAL_DAYS,
                                          frames_per_sequence=70, seed=5))
    seqs = data.sequences
    train = [DaySequence(s.sequence_id, s.user_id, s.features[:length], s.labels[:length])
             for s, length in zip(seqs, LENGTHS)]
    return train, seqs[len(LENGTHS):], data.label_set.size


def config(arch: str, **kwargs) -> TrainConfig:
    return TrainConfig(arch, learning_rate=0.05, epochs=2, patience=5, seed=3, **kwargs)


def run_size(feature_dim: int, hidden: int):
    train, val, classes = days(feature_dim)
    everything = train + val
    tag = f"D{feature_dim}-H{hidden}"

    def report(what, result, model):
        yield f"{tag} {what} last {digest_params(model.params())}"
        yield f"{tag} {what} best {digest_params(result.best_params)}"
        yield f"{tag} {what} report {digest_report(result.report)}"

    model = build_baseline(feature_dim, classes, seed=0)
    sliding = build_sliding(feature_dim, classes, hidden=hidden, seed=0)
    piggyback = build_piggyback(feature_dim, classes, hidden=hidden, seed=0)
    fresh = " ".join(digest_params(m.params()) for m in (model, sliding, piggyback))
    yield f"{tag} init {hashlib.sha256(fresh.encode()).hexdigest()}"

    yield from report("baseline", train_baseline(model, train, val, config("baseline")),
                      model)

    def sliding_outputs(model):
        timelines = [predict_sliding_sequence(model, day, T) for day in everything]
        return [a for t in timelines for a in (t.probs, t.pred_labels)]

    def piggyback_outputs(model):
        return [piggyback_logits(model, day, N, M) for day in everything]

    result = train_sliding(sliding, train, val, config("sliding", timestep=T, dropout=0.5))
    yield from report("sliding", result, sliding)
    yield f"{tag} sliding predict {digest_arrays(sliding_outputs(sliding))}"

    for phase, dropout in ((1, 0.5), (2, 0.25)):
        result = train_piggyback(piggyback, train, val, config(
            "piggyback", timestep=N, overlap=M, dropout=dropout, phase=phase))
        yield from report(f"piggyback-phase{phase}", result, piggyback)
    yield f"{tag} piggyback logits {digest_arrays(piggyback_outputs(piggyback))}"
    lockstep = [logits for retention in RETENTIONS for _, logits in
                piggyback_days_logits(piggyback, everything, N, M, retention)]
    yield f"{tag} lockstep {digest_arrays(lockstep)}"

    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.egomdl"
        for model, predict in ((sliding, sliding_outputs), (piggyback, piggyback_outputs)):
            write_checkpoint(model.params(), path)
            outputs += predict(model_from_params(read_checkpoint(path)))
    yield f"{tag} reloaded {digest_arrays(outputs)}"


def early_stop_run() -> str:
    feature_dim, hidden = SIZES[0]
    train, val, classes = days(feature_dim)
    model = build_sliding(feature_dim, classes, hidden=hidden, seed=0)
    result = train_sliding(model, train, val, TrainConfig(
        "sliding", timestep=T, learning_rate=0.05, dropout=0.5, epochs=8, patience=2,
        seed=3))
    report = result.report
    sha = hashlib.sha256(" ".join((digest_report(report), digest_params(model.params()),
                                   digest_params(result.best_params))).encode())
    return (f"early-stop {report.stop_reason} epochs {len(report.epochs)} "
            f"best {report.best_epoch} {sha.hexdigest()}")


def split_run() -> str:
    train, val, classes = days(SIZES[0][0])
    dataset = Dataset(LabelSet(tuple(f"c{k}" for k in range(classes))), train + val)
    sha = hashlib.sha256()
    for capacity in (75, 100):  # 7 and 6 bins
        for reference in ("whole", "rest"):
            result = select_split(dataset, 6, 2, 2, capacity=capacity,
                                  stage2_reference=reference)
            sha.update(repr(([(b.sequence_ids, b.total_frames) for b in result.bins],
                             result.test_bin_ids, result.val_bin_ids,
                             result.train_bin_ids, repr(result.objective_test),
                             repr(result.objective_val))).encode())
    return f"split {sha.hexdigest()}"


# per model: its train flags, and its predict flags (None: not predicted)
CLI_MODELS = {
    "baseline": (["--arch", "baseline"], []),
    "sliding": (["--arch", "sliding", "--timestep", str(T), "--hidden", "24"],
                ["--timestep", str(T)]),
    "pb1": (["--arch", "piggyback", "--timestep", str(N), "--overlap", str(M),
             "--hidden", "24", "--phase", "1"], None),
    "pb2": (["--arch", "piggyback", "--timestep", str(N), "--overlap", str(M),
             "--phase", "2", "--init-from", "pb1/best.egomdl"],
            ["--timestep", str(N), "--overlap", str(M)]),
}


def run_commands(commands) -> None:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")


def cli_run() -> list[str]:
    """Digests of every file a command-line run writes, by relative path:
    the `cli` line, then the `pb1` line for the phase-1 predict."""
    data = ["--manifest", "data/manifest.json", "--labels", "data/labels.txt"]
    commands = [
        ["synth", "--out-dir", "data", "--sequences", "12", "--frames", "60",
         "--seed", "9"],
        ["split", *data, "--bins", "6", "--test-bins", "1", "--val-bins", "1",
         "--out-dir", "split"],
    ]
    for name, (train, predict) in CLI_MODELS.items():
        commands.append(["train", *train, *data, "--split", "split/split.json",
                         "--lr", "0.05", "--epochs", "2", "--dropout", "0.25",
                         "--seed", "3", "--out-dir", name])
        if predict is not None:
            commands.append(["predict", "--model", f"{name}/best.egomdl", *predict,
                             *data, "--split", "split/split.json", "--subset", "test",
                             "--out-dir", f"{name}/pred"])
            commands.append(["eval", "--timelines", f"{name}/pred/timelines.json",
                             "--labels", "data/labels.txt",
                             "--out-dir", f"{name}/eval"])
    commands.append(["predict", "--model", "pb2/best.egomdl", *CLI_MODELS["pb2"][1],
                     *data, "--split", "split/split.json", "--subset", "test",
                     "--include-probs", "--out-dir", "pb2/pred-probs"])
    commands.append(["gradcheck", "--seed", "0", "--out-dir", "gradcheck"])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths keep the temp dir out of config.json
        try:
            run_commands(commands)
            lines = ["cli %d files %s" % digest_files(Path("."))]
            run_commands([["predict", "--model", "pb1/best.egomdl", "--timestep", str(N),
                           "--overlap", "0", *data, "--split", "split/split.json",
                           "--subset", "test", "--include-probs", "--out-dir", "pb1-pred"]])
            lines.append("pb1 %d files %s" % digest_files(Path("pb1-pred")))
        finally:
            os.chdir(cwd)
    return lines


def digest_files(root: Path) -> tuple[int, str]:
    """File count and a digest of every file under `root`, by relative path."""
    sha = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        sha.update(f"{path.relative_to(root)} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
                   .encode())
    return len(files), sha.hexdigest()


def formats_run() -> str:
    """Digest of what each file writer makes of fixed inputs."""
    rng = np.random.default_rng(11)
    labels = LabelSet(("walking", "eating\u2028out", "caf\u00e9"))
    stamped = DaySequence("day-a", "u1", rng.normal(size=(5, 3)) * 1e3,
                          [0, 2, 2, 1, 0], timestamps=[0, 7, 7, 600, 2**32 - 1])
    plain = DaySequence("day-b", "u\u00e9", rng.normal(size=(4, 3)), [1, 1, 0, 2])
    split = SplitResult((1,), (0,), (2,), 0.1 + 0.2, 1e-300,
                        [Bin(["day-b"], 4), Bin(["day-a"], 5), Bin([], 0)])
    report = TrainReport([EpochStats(0.1 + 0.2, 1 / 3, 0.5), EpochStats(2.5, 1e-17, 1.0)],
                         best_epoch=1, stop_reason="patience")
    metrics = macro_report(np.array([[3, 1, 0], [0, 0, 0], [2, 0, 5]]))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_sequence_file(stamped, root / "stamped.egoseq")
        write_sequence_file(plain, root / "plain.egoseq")
        write_labels_file(labels, root / "labels.txt")
        write_manifest(Dataset(labels, [stamped, plain]), root / "manifest.json",
                       root / "sequences")
        split.write_json(root / "split.json")
        report.write_json(root / "train-report.json")
        metrics.write_json(root / "eval-report.json")
        count, digest = digest_files(root)
    return f"formats {count} files {digest}"


def main() -> int:
    lines = []
    for feature_dim, hidden in SIZES:
        for line in run_size(feature_dim, hidden):
            print(line, flush=True)
            lines.append(line)
    for line in (early_stop_run(), split_run(), *cli_run(), formats_run()):
        print(line, flush=True)
        lines.append(line)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
