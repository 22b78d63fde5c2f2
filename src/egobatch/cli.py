"""Command-line entry point: synth, split, train, predict, eval, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 data or format error,
3 numeric failure (non-finite loss, failed gradient check). Every subcommand
that writes files puts them under --out-dir and emits a config.json that
fully describes the run.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .datamodel import (
    Dataset,
    DayLabels,
    Manifest,
    SynthConfig,
    read_labels_file,
    read_manifest,
    synthetic_days,
    write_json,
    write_labels_file,
    write_manifest,
)
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    NumericError,
    PackingError,
    SequencingError,
    ShapeError,
)
from .evaluation import (
    confusion_from_timelines,
    macro_report,
    write_confusion_csv,
    write_confusion_normalized_csv,
)
from .models import (
    ARCHITECTURES,
    DEFAULT_HIDDEN,
    RETENTIONS,
    build_stack,
    model_from_params,
    predict_days,
    read_timelines_json,
    write_timelines_json,
)
from .nnet import grad_check, read_checkpoint, write_checkpoint
from .splitter import STAGE2_REFERENCES, SUBSETS, read_split_ids, select_split
from .training import (
    PHASES,
    TrainConfig,
    train_baseline,
    train_piggyback,
    train_sliding,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# The exit code of each error that parsing or a command may raise.
_EXIT_CODES = {
    ConfigError: EXIT_USAGE,
    FormatError: EXIT_DATA, DataError: EXIT_DATA, ShapeError: EXIT_DATA,
    PackingError: EXIT_DATA, SequencingError: EXIT_DATA, OSError: EXIT_DATA,
    UnicodeDecodeError: EXIT_DATA,
    NumericError: EXIT_NUMERIC,
}

# (architecture, timestep) -> (learning rate, epochs) defaults
_SCHEDULES = {
    ("sliding", 5): (2.5e-5, 5),
    ("sliding", 10): (1e-4, 4),
    ("sliding", 15): (1e-4, 2),
    ("piggyback", 5): (2.5e-5, 10),
    ("piggyback", 10): (1e-4, 10),
    ("piggyback", 15): (1e-4, 10),
}
_FALLBACK_SCHEDULE = (2.5e-5, 10)
_BASELINE_SCHEDULE = (1e-5, 10)


def default_schedule(architecture: str, timestep: int) -> tuple[float, int]:
    if architecture == "baseline":
        return _BASELINE_SCHEDULE
    return _SCHEDULES.get((architecture, timestep), _FALLBACK_SCHEDULE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise ConfigError(message)


def _parsed_flags(args) -> dict:
    """The command and its flags, without --out-dir, in parser order:
    argparse fills the namespace in the order the flags were added."""
    return {k: v for k, v in vars(args).items() if k not in ("out_dir", "handler")}


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        num_classes=args.classes,
        feature_dim=args.feature_dim,
        ambiguous_pair=(args.ambiguous[0], args.ambiguous[1]),
        context_map={args.ambiguous[0]: args.context[0],
                     args.ambiguous[1]: args.context[1]},
        self_transition_prob=args.self_transition,
        noise_sigma=args.noise_sigma,
        mean_scale=args.mean_scale,
        num_sequences=args.sequences,
        frames_per_sequence=args.frames,
        seed=args.seed,
    )
    out = _out_dir(args)
    write_labels_file(cfg.label_set, out / "labels.txt")
    # each day is written as it is drawn
    write_manifest(synthetic_days(cfg), out / "manifest.json", out / "sequences")
    write_json(out / "config.json", _parsed_flags(args))
    print(f"wrote {cfg.num_sequences} sequences under {out}")
    return EXIT_OK


def _checked_days(manifest: Manifest) -> Dataset:
    """Read and validate each day of `manifest` once, dropping it before the
    next, into a `Dataset` of `DayLabels`: one feature width, unique ids."""
    days = []
    for day in manifest:
        days.append(DayLabels(day.sequence_id, day.labels, day.feature_dim))
        del day
    return Dataset(manifest.label_set, days)


def _cmd_split(args) -> int:
    dataset = _checked_days(read_manifest(args.manifest, args.labels))
    result = select_split(dataset, args.bins, args.test_bins, args.val_bins,
                          capacity=args.capacity,
                          stage2_reference=args.stage2_reference)
    out = _out_dir(args)
    result.write_json(out / "split.json")
    write_json(out / "config.json", _parsed_flags(args))
    print(f"split objectives: test={result.objective_test:.6f} "
          f"val={result.objective_val:.6f}")
    return EXIT_OK


def _cmd_train(args) -> int:
    lr, epochs = default_schedule(args.architecture, args.timestep)
    given = {f.name: getattr(args, f.name) for f in fields(TrainConfig)}
    given["learning_rate"] = lr if args.learning_rate is None else args.learning_rate
    given["epochs"] = epochs if args.epochs is None else args.epochs
    cfg = TrainConfig(**given)
    if cfg.architecture == "piggyback" and cfg.phase == 2 and not args.init_from:
        raise SequencingError("phase 2 requires --init-from with a phase-1 checkpoint")

    split = read_split_ids(args.split)
    manifest = read_manifest(args.manifest, args.labels)
    train_seqs = manifest.subset(split["train"])
    val_seqs = manifest.subset(split["val"])
    if not train_seqs or not val_seqs:  # else an empty dataset has no feature dim
        raise ConfigError("training needs at least one train and one val sequence")
    num_classes = manifest.label_set.size

    model = None
    if args.init_from:  # checked before any day is read
        model = model_from_params(read_checkpoint(args.init_from))
        if model.architecture != cfg.architecture:
            raise ShapeError(f"checkpoint holds a {model.architecture!r} model, "
                             f"requested {cfg.architecture!r}")
        if model.head.out_dim != num_classes:
            raise ShapeError("checkpoint class count does not match the label set")
    # every train and val day is checked once before the first step
    feature_dim = _checked_days(manifest.subset(split["train"] + split["val"])).feature_dim
    if model is None:
        model = build_stack(cfg.architecture, feature_dim, num_classes,
                            hidden=args.hidden, seed=cfg.seed)
    elif model.input_dim != feature_dim:
        raise ShapeError("checkpoint input width does not match the dataset")

    trainers = {"baseline": train_baseline, "sliding": train_sliding,
                "piggyback": train_piggyback}
    result = trainers[cfg.architecture](model, train_seqs, val_seqs, cfg)

    out = _out_dir(args)
    write_json(out / "config.json", {
        "command": "train",
        "manifest": str(args.manifest),
        "labels": str(args.labels),
        "split": str(args.split),
        "hidden": None if model.lstm is None else model.lstm.hidden,
        "init_from": str(args.init_from) if args.init_from else None,
        **asdict(cfg),
    })
    result.report.write_json(out / "report.json")
    if result.best_params is not None:
        write_checkpoint(result.best_params, out / "best.egomdl")
    for idx, stats in enumerate(result.report.epochs):
        print(f"epoch {idx}: train_loss={stats.train_loss:.6f} "
              f"val_loss={stats.val_loss:.6f} val_acc={stats.val_accuracy:.4f}")
    print(f"stop reason: {result.report.stop_reason} "
          f"(best epoch {result.report.best_epoch})")
    if result.report.stop_reason == "numeric_failure":
        # a diverged last state may be non-finite, which checkpoints refuse
        raise NumericError("training stopped on a non-finite value; "
                           "last.egomdl not written")
    write_checkpoint(model.params(), out / "last.egomdl")
    return EXIT_OK


def _cmd_predict(args) -> int:
    if args.subset is not None and not args.split:
        raise ConfigError("--subset needs --split; without it every day is predicted")
    if args.timestep < 1:
        raise ConfigError(f"--timestep must be >= 1, got {args.timestep}")
    if args.overlap < 0:
        raise ConfigError(f"--overlap must be >= 0, got {args.overlap}")
    subset = args.subset or "test"
    days = read_manifest(args.manifest, args.labels)
    if args.split:
        days = days.subset(read_split_ids(args.split)[subset])
    model = model_from_params(read_checkpoint(args.model))
    if model.head.out_dim != days.label_set.size:
        raise ShapeError("model class count does not match the label set")
    if model.architecture == "piggyback" and args.overlap >= args.timestep:
        raise ConfigError(f"a piggyback model needs --overlap below --timestep, got "
                          f"--timestep {args.timestep} --overlap {args.overlap}")

    # the days are read in the split's order, and the timelines keep it
    timelines = predict_days(model, days, args.timestep, args.overlap,
                             retention=args.retention)

    out = _out_dir(args)
    write_timelines_json(timelines, out / "timelines.json",
                         include_probs=args.include_probs)
    write_json(out / "config.json", {
        "command": "predict",
        "model": str(args.model),
        "manifest": str(args.manifest),
        "labels": str(args.labels),
        "split": str(args.split) if args.split else None,
        "subset": subset if args.split else None,
        "architecture": model.architecture,
        "timestep": args.timestep,
        "overlap": args.overlap,
        "retention": args.retention,
        "include_probs": args.include_probs,
    })
    print(f"predicted {len(timelines)} sequences -> {out / 'timelines.json'}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    label_set = read_labels_file(args.labels)
    timelines = read_timelines_json(args.timelines, label_set.size)
    matrix = confusion_from_timelines(timelines, label_set.size)
    report = macro_report(matrix)
    out = _out_dir(args)
    report.write_json(out / "report.json")
    write_confusion_csv(matrix, label_set, out / "confusion.csv")
    write_confusion_normalized_csv(matrix, label_set,
                                   out / "confusion_normalized.csv")
    write_json(out / "config.json", _parsed_flags(args))
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if not 0.0 < args.tolerance < np.inf:  # also refuses NaN
        raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    root = np.random.SeedSequence(args.seed)
    feature_dim, hidden, num_classes, steps = 6, 5, 4, 8
    results = []
    worst = 0.0
    for name, seed_seq in zip(ARCHITECTURES, root.spawn(len(ARCHITECTURES))):
        data_rng = np.random.default_rng(seed_seq)
        model = build_stack(name, feature_dim, num_classes, hidden=hidden,
                            seed=int(data_rng.integers(2 ** 31)))
        # scale 2 keeps gradient magnitudes above the finite-difference
        # noise floor for most seeds (see README on near-zero coordinates)
        inputs = data_rng.normal(size=(steps, feature_dim)) * 2.0
        labels = data_rng.integers(num_classes, size=steps)
        report = grad_check(model, inputs, labels, epsilon=args.epsilon)
        worst = max(worst, report.max_rel_error)
        for tensor in report.tensors:
            print(f"{name:9s} {tensor.name:12s} max_rel_err={tensor.max_rel_error:.3e}")
        results.append({
            "architecture": name,
            "max_rel_error": report.max_rel_error,
            "tensors": [asdict(t) for t in report.tensors],
        })
    passed = worst < args.tolerance
    print(f"overall max_rel_err={worst:.3e} tolerance={args.tolerance:.1e} "
          f"-> {'PASS' if passed else 'FAIL'}")
    if args.out_dir:
        out = _out_dir(args)
        write_json(out / "gradcheck.json",
                   {"max_rel_error": worst, "tolerance": args.tolerance,
                    "passed": passed, "architectures": results})
        write_json(out / "config.json", _parsed_flags(args))
    if not passed:
        raise NumericError(f"gradient check failed: {worst:.3e} >= {args.tolerance:.1e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egobatch",
                     description="Batch-based recurrent activity classification "
                                 "over photo-stream day sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=int, default=SynthConfig.num_classes,
                   help="number of categories")
    p.add_argument("--feature-dim", type=int, default=SynthConfig.feature_dim)
    p.add_argument("--ambiguous", type=int, nargs=2, default=SynthConfig.ambiguous_pair,
                   metavar=("A", "B"), help="pair of classes sharing one emission mean")
    p.add_argument("--context", type=int, nargs=2, default=(0, 1),
                   metavar=("PRED_A", "PRED_B"),
                   help="sole predecessor class of each ambiguous class")
    p.add_argument("--self-transition", type=float,
                   default=SynthConfig.self_transition_prob)
    p.add_argument("--noise-sigma", type=float, default=SynthConfig.noise_sigma)
    p.add_argument("--mean-scale", type=float, default=SynthConfig.mean_scale)
    p.add_argument("--sequences", type=int, default=SynthConfig.num_sequences)
    p.add_argument("--frames", type=int, default=SynthConfig.frames_per_sequence,
                   help="frames per sequence")
    p.add_argument("--seed", type=int, default=SynthConfig.seed)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("split", help="select test/val/train day splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--bins", type=int, required=True,
                   help="requested bin count; sets only the packing capacity "
                        "(irrelevant with --capacity), and the packing decides "
                        "the actual count")
    p.add_argument("--test-bins", type=int, required=True)
    p.add_argument("--val-bins", type=int, required=True)
    p.add_argument("--capacity", type=int, default=None,
                   help="frame budget per bin (overrides the derived capacity)")
    p.add_argument("--stage2-reference", choices=STAGE2_REFERENCES,
                   default=STAGE2_REFERENCES[0],
                   help="reference distribution for the validation-split stage")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--arch", dest="architecture", required=True, choices=ARCHITECTURES)
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True, help="split manifest JSON")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--timestep", type=int, default=TrainConfig.timestep,
                   help="window length (sliding) or batch size n (piggyback)")
    p.add_argument("--overlap", type=int, default=TrainConfig.overlap,
                   help="overlap m (piggyback)")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                   help="default depends on architecture and timestep")
    p.add_argument("--momentum", type=float, default=TrainConfig.momentum)
    p.add_argument("--weight-decay", type=float, default=TrainConfig.weight_decay)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--dropout", type=float, default=TrainConfig.dropout)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN,
                   help="recurrent units (ignored with --init-from)")
    p.add_argument("--phase", type=int, default=TrainConfig.phase, choices=PHASES,
                   help="piggyback training phase")
    p.add_argument("--init-from", default=None, help="checkpoint to start from")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="emit per-frame prediction timelines")
    p.add_argument("--model", required=True, help=".egomdl checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--split", default=None, help="restrict to one split subset")
    p.add_argument("--subset", choices=SUBSETS, default=None,
                   help="the --split subset to predict (default: test)")
    p.add_argument("--timestep", type=int, default=5)
    p.add_argument("--overlap", type=int, default=2)
    p.add_argument("--retention", choices=RETENTIONS, default=RETENTIONS[0],
                   help="which batch's prediction overlapped frames keep")
    p.add_argument("--include-probs", action="store_true")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("eval", help="score prediction timelines")
    p.add_argument("--timelines", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of built-in small models")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process and shared by every
    `dispatch`: parsing leaves it unchanged, and its handlers are the module's
    `_cmd_*` functions, which nothing rebinds."""
    return build_parser()


def dispatch(argv: list[str]) -> int:
    """Parse and run one invocation, mapping errors to exit codes."""
    try:
        args = _shared_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
