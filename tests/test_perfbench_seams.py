"""The library names and calls the benchmark harness in `perfbench/` relies on.

`perfbench/workloads.py`, `perfbench/spans.py` and `perfbench/posts.py` are
loaded by path, and `perfbench/run.py` is only parsed: the names of the
spans its probes time are read from its source. A rename in the library then
fails here, not first in a benchmark run, and so does a refactor that moves
a probed call: the probes' tracer counts how often training and prediction
call each of them.
"""

import ast
import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import egobatch
from egobatch import (DaySequence, SynthConfig, TrainConfig, build_piggyback, build_stack,
                      cli, datamodel, generate_synthetic, models, nnet, training)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    """`perfbench/<name>.py` as a module of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


def resolve(dotted: str):
    """`egobatch.<dotted>`, attribute by attribute."""
    target = egobatch
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


def run_constant(name: str):
    """The literal value of a module-level constant of `perfbench/run.py`."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py defines no {name}")


def test_every_library_attribute_the_workloads_use_resolves(workloads):
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "egobatch"
                for alias in node.names}
    used = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported}
    assert {"nnet.LstmState", "datamodel.load_dataset", "cli.dispatch"} <= used
    for dotted in sorted(used):
        assert callable(resolve(dotted)), dotted


@pytest.mark.parametrize("dotted", [
    "datamodel.Dataset.by_id", "nnet.LstmLayer.step", "nnet.DenseLayer.forward",
    "nnet.LstmState.zeros",
    *run_constant("PREDICTS")])
def test_methods_and_timed_predictors_resolve(dotted):
    assert callable(resolve(dotted))


def test_carried_reference_matches_the_batched_pass(workloads):
    rng = np.random.default_rng(5)
    n, m, feature_dim, classes = 5, 2, 6, 4
    model = build_piggyback(feature_dim, classes, hidden=7, seed=3)
    for length in (3, n, n + 1, 23):  # the first two fit one batch
        day = DaySequence(f"len{length}", "u", rng.normal(size=(length, feature_dim)),
                          rng.integers(classes, size=length))
        got = models.piggyback_logits(model, day, n, m)
        want = workloads.carried_reference_logits(model, day.features, n, m)
        assert want.shape == (length, classes) and not np.isnan(want).any()
        assert np.abs(got - want).max() <= workloads.CARRY_TOLERANCE, length


def run_probes() -> frozenset:
    """The spans an untraced benchmark run probes, as `PROBES` of
    `perfbench/run.py` names them."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (node,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PROBES"]]
    assert ast.unparse(node) == "frozenset({*PREDICTS, 'training.validate_model', *STEP})"
    return frozenset({*run_constant("PREDICTS"), "training.validate_model",
                      *run_constant("STEP")})


@pytest.fixture()
def probed():
    """A tracer with the benchmark's probes installed, as an untraced run
    installs them; its table counts the calls of each probed span."""
    tracer = load("spans").Tracer(load("posts").POSTS)
    tracer.install(run_probes().__contains__)
    try:
        yield tracer.table
    finally:
        tracer.uninstall()


def synthetic_days(count: int, frames: int):
    return generate_synthetic(SynthConfig(num_sequences=count, frames_per_sequence=frames,
                                          seed=2)).sequences


def plan_steps(arch: str, length: int, size: int, overlap: int) -> int:
    """SGD steps on a day: one per stride-1 window (one padded window for a
    short day), or one per batch of n frames with stride n - m."""
    if arch != "piggyback":
        return max(length - size + 1, 1)
    return 1 if length <= size else -(-(length - size) // (size - overlap)) + 1


@pytest.mark.parametrize("arch, phase, timestep, overlap", [
    ("baseline", 1, 1, 0), ("sliding", 1, 4, 0), ("piggyback", 1, 5, 2),
    ("piggyback", 2, 5, 2)])
def test_one_step_span_pair_per_sgd_step(probed, arch, phase, timestep, overlap):
    # 23 frames pad the last batch; 3 frames are one padded window or batch
    days = [*synthetic_days(2, 23), *synthetic_days(1, 3)]
    model = build_stack(arch, 16, 6, hidden=4, seed=0)
    cfg = TrainConfig(arch, timestep=timestep, overlap=overlap, learning_rate=0.01,
                      epochs=2, dropout=0.2, seed=0, phase=phase)
    getattr(training, f"train_{arch}")(model, days, days[:1], cfg)
    m = overlap if phase == 2 else 0
    steps = cfg.epochs * sum(plan_steps(arch, len(day), timestep, m) for day in days)
    assert probed["nnet.backprop_window"].calls == steps
    assert probed["nnet.backprop_window"].counts["train_steps"] == steps
    assert probed["nnet.sgd_update"].calls == steps
    assert probed["training.validate_model"].calls == cfg.epochs


def test_sliding_predictor_once_per_carry_free_day(probed, tmp_path):
    data = generate_synthetic(SynthConfig(num_sequences=3, frames_per_sequence=23, seed=2))
    datamodel.write_labels_file(data.label_set, tmp_path / "labels.txt")
    datamodel.write_manifest(data, tmp_path / "manifest.json", tmp_path / "days")
    frames = sum(len(day) for day in data.sequences)
    for arch in ("sliding", "piggyback"):
        checkpoint = tmp_path / f"{arch}.egomdl"
        nnet.write_checkpoint(build_stack(arch, 16, 6, hidden=4, seed=0).params(), checkpoint)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.dispatch([
                "predict", "--model", str(checkpoint), "--manifest",
                str(tmp_path / "manifest.json"), "--labels", str(tmp_path / "labels.txt"),
                "--timestep", "5", "--overlap", "0", "--out-dir", str(tmp_path / arch)]) == 0
    # phase-1 validation predicts its days carry-free, as `predict` does
    model = build_piggyback(16, 6, hidden=4, seed=0)
    cfg = TrainConfig("piggyback", timestep=5, overlap=2, learning_rate=0.01, epochs=2,
                      dropout=0.0, seed=0, phase=1)
    training.train_piggyback(model, data.sequences[:1], data.sequences, cfg)
    record = probed["models.predict_sliding_sequence"]
    assert record.calls == (2 + cfg.epochs) * len(data.sequences)
    assert record.counts["frames"] == (2 + cfg.epochs) * frames
    assert "models.predict_piggyback_sequence" not in probed


def test_baseline_predictor_once_per_day(probed):
    days = synthetic_days(3, 23)
    models.predict_days(build_stack("baseline", 16, 6, seed=0), days, 5, 2)
    assert probed["models.predict_baseline"].calls == len(days)
    assert probed["models.predict_baseline"].counts["frames"] == 3 * 23


@pytest.mark.parametrize("arch, timestep", [("sliding", 4), ("piggyback", 5)])
def test_traced_lstm_posts_count_flops_on_every_call(arch, timestep):
    # a `--trace 1` run wraps every span with its post; these two posts read
    # `run(inputs, ...)` and the `cache.inputs` that `backward` leaves set
    seams = ["nnet.LstmLayer.run", "nnet.LstmLayer.backward"]
    days, hidden = synthetic_days(2, 23), 4
    model = build_stack(arch, 16, 6, hidden=hidden, seed=0)
    cfg = TrainConfig(arch, timestep=timestep, overlap=2, learning_rate=0.01, epochs=1,
                      dropout=0.2, seed=0, phase=1)
    tracer = load("spans").Tracer(load("posts").POSTS)
    assert sorted(tracer.install(set(seams).__contains__)) == sorted(seams)
    try:
        getattr(training, f"train_{arch}")(model, days, days[:1], cfg)
    finally:
        tracer.uninstall()
    steps = sum(plan_steps(arch, len(day), timestep, 0) for day in days)
    width = model.lstm.in_dim
    per_call = {"nnet.LstmLayer.run": 2 * timestep * 4 * hidden * (width + hidden),
                "nnet.LstmLayer.backward": 2 * timestep * 4 * hidden * (2 * width + 2 * hidden)}
    for name in seams:
        record = tracer.table[name]
        # validation predicts through `forward_batch`, so every call is a step's
        assert record.calls == steps, name
        assert record.counts["flops"] == steps * per_call[name] > 0, name
