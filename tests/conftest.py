import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import settings

from predfuse import LabelVector, PredictionMatrix, ProbSeries, combiner
from predfuse.io_files import save_label_file, save_prediction_file
from predfuse.optim import Adam
from predfuse.synth import SyntheticSpec, generate

# HYPOTHESIS_PROFILE=ci, set by the CI tier-1 step, gives each property test
# that sets no example count of its own, such as the reader's differential
# test, ten times hypothesis's default of 100.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Hypothesis imports this module to print a patch for a failing example.
# With libcst installed the import can warn (a deprecated mypy_extensions
# name), and under filterwarnings = error that warning would become an
# INTERNALERROR ending the whole run; imported once here, it stays quiet.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))


@pytest.fixture
def step_minima(monkeypatch) -> list[float]:
    """The lowest weight of every ADAM step the trainer takes in the test.

    The trainer's ``Adam`` is replaced by a subclass whose ``step`` records
    ``params[:, :-1].min()`` before updating.  Then ``params`` holds the
    start or the previous step's projected weights, so together with the
    returned weights every projected state is seen.
    """
    seen = []

    class WatchedAdam(Adam):
        def step(self, params, grad):
            seen.append(float(params[:, :-1].min()))
            return super().step(params, grad)

    monkeypatch.setattr(combiner, "Adam", WatchedAdam)
    return seen


def traced_peak(fn):
    """``fn()``'s result, the peak bytes ``tracemalloc`` traced while it
    ran, and the bytes still live when it returned."""
    tracemalloc.start()
    try:
        result = fn()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, live


def make_matrix(values, ids=None, names=None) -> PredictionMatrix:
    values = np.asarray(values, dtype=float)
    n, k = values.shape
    ids = tuple(f"s{i}" for i in range(n)) if ids is None else tuple(ids)
    names = tuple(f"M{j + 1}" for j in range(k)) if names is None else tuple(names)
    return PredictionMatrix(ids, names, values)


def make_labels(values, ids=None) -> LabelVector:
    values = np.asarray(values)
    ids = tuple(f"s{i}" for i in range(len(values))) if ids is None else tuple(ids)
    return LabelVector(ids, values)


def write_shuffled_suite(root) -> list[str]:
    """A K = 4, 20k-row synthetic suite written to ``root``, each prediction
    file and ``labels.csv`` in a row order of its own; the prediction files'
    paths."""
    labels, matrix = generate(SyntheticSpec(
        k=4, target_acc=(0.8, 0.82, 0.85, 0.9), n=20_000, seed=3))
    rng = np.random.default_rng(7)
    paths = [str(root / f"{name}.csv") for name in matrix.model_names]
    for j, path in enumerate(paths):
        rows = rng.permutation(matrix.n_samples)
        save_prediction_file(path, ProbSeries(
            [matrix.ids[i] for i in rows], matrix.values[rows, j]))
    save_label_file(root / "labels.csv", labels.restrict(
        [labels.ids[i] for i in rng.permutation(len(labels))]))
    return paths
