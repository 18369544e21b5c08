import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

from predfuse import LabelVector, PredictionMatrix

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
