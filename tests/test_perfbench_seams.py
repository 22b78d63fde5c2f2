"""The library names the benchmark harness in `perfbench/` relies on.

`perfbench/workloads.py` is loaded by path, and `perfbench/run.py` is only
parsed: the names of the predictors whose spans it times are read from its
source. A rename in the library then fails here, not first in a benchmark
run.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import egobatch
from egobatch import DaySequence, build_piggyback, models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
