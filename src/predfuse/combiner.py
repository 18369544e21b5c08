"""Trained linear combiner: non-negative weighted sum, shift, sigmoid.

The combined score of K model probabilities is sum(w_i * p_i) with every
w_i >= 0, so it lives in [0, sum(w)].  A trainable shift b re-centres it
before the sigmoid; the class comes from thresholding the sigmoid output.
Training minimizes mean binary cross-entropy plus an L2 penalty on the
weights (not the shift) with ADAM, projecting weights back to >= 0 after
every step and recording whether any projection actually clipped.

:func:`predict` is the forward kernel; the scalar helpers :func:`raw_score`
and :func:`forward` are one-row views of it.  :func:`gradient` and every
step of the package's one training loop, which also fits the toy text model,
share one private gradient kernel; :class:`TrainConfig` owns its settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (LabelVector, PredictionMatrix, ProbSeries, check_seed,
                   check_threshold, sigmoid)
from .errors import ConstraintError, ValidationError
from .optim import Adam

__all__ = ["CombinerWeights", "TrainConfig", "TrainResult", "raw_score",
           "forward", "predict", "loss", "gradient", "train"]

_LOG_EPS = 1e-12  # clamp inside the BCE logarithms only


@dataclass(frozen=True)
class CombinerWeights:
    """Trained combination state: per-model weights, shift, threshold."""

    model_names: tuple[str, ...]
    w: np.ndarray = field(repr=False)
    b: float
    t: float = 0.5

    def __post_init__(self):
        names = tuple(str(n) for n in self.model_names)
        if not names or len(set(names)) != len(names):
            raise ValidationError("model names must be non-empty and unique")
        object.__setattr__(self, "model_names", names)
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != len(names):
            raise ValidationError("need exactly one weight per model")
        if not np.isfinite(w).all():
            raise ValidationError("weights must be finite")
        if (w < 0).any():
            raise ConstraintError(f"negative combination weight {w[w < 0][0]}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        b = float(self.b)
        if not np.isfinite(b):
            raise ValidationError("shift b must be finite")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "t", check_threshold(self.t))

    @property
    def k(self) -> int:
        return len(self.model_names)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the minibatch-ADAM trainer."""

    learning_rate: float = 0.001
    epochs: int = 200
    batch_size: int = 32
    l2: float = 0.039
    seed: int = 0
    shuffle_each_epoch: bool = True

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValidationError("learning_rate must be positive and finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if not 0.0 <= self.l2 < math.inf:
            raise ValidationError("l2 must be non-negative and finite")
        check_seed(self.seed)


@dataclass(frozen=True)
class TrainResult:
    """Trained weights plus training provenance flags."""

    weights: CombinerWeights
    config: TrainConfig
    clipped_any: bool
    degenerate_labels: bool


def _row(weights: CombinerWeights, p) -> PredictionMatrix:
    """One sample's K probabilities as a one-row matrix."""
    return PredictionMatrix(("0",), weights.model_names, np.asarray(p)[None])


def raw_score(weights: CombinerWeights, p) -> float:
    """Weighted sum of model probabilities; non-negative by construction."""
    return float((_row(weights, p).values @ weights.w)[0])


def forward(weights: CombinerWeights, p) -> float:
    """Combined probability: sigmoid(raw_score - b)."""
    return float(predict(weights, _row(weights, p)).values[0])


def predict(weights: CombinerWeights, matrix: PredictionMatrix) -> ProbSeries:
    """Per-sample forward values, aligned to the matrix ids.

    Columns are matched by model name, so the matrix may carry extra models
    or list them in a different order.
    """
    sub = matrix.select(weights.model_names)
    return ProbSeries(sub.ids, sigmoid(sub.values @ weights.w - weights.b))


def _training_arrays(matrix: PredictionMatrix, labels: LabelVector
                     ) -> tuple[np.ndarray, np.ndarray]:
    # Canonical id ordering: shuffles then depend only on the seed, not on
    # the row order callers happened to use.
    order = sorted(range(len(matrix.ids)), key=lambda i: matrix.ids[i])
    ids = tuple(matrix.ids[i] for i in order)
    return matrix.values[np.asarray(order)], labels.align_to(ids)


def _bce(yhat: np.ndarray, u: np.ndarray) -> float:
    yc = np.clip(yhat, _LOG_EPS, 1.0 - _LOG_EPS)
    return float(-(u * np.log(yc) + (1.0 - u) * np.log(1.0 - yc)).mean())


def loss(weights: CombinerWeights, matrix: PredictionMatrix,
         labels: LabelVector, l2: float = TrainConfig.l2) -> float:
    """Mean binary cross-entropy of forward against labels, plus l2*sum(w^2)."""
    x, u = _training_arrays(matrix.select(weights.model_names), labels)
    yhat = sigmoid(x @ weights.w - weights.b)
    return _bce(yhat, u) + float(l2) * float(weights.w @ weights.w)


def gradient(weights: CombinerWeights, matrix: PredictionMatrix,
             labels: LabelVector, l2: float = TrainConfig.l2) -> np.ndarray:
    """Analytic gradient of :func:`loss`, length K+1: d/dw_1..K then d/db."""
    x, u = _training_arrays(matrix.select(weights.model_names), labels)
    return _gradient(weights.w, weights.b, x, u, float(l2))


def _gradient(w: np.ndarray, b: float, x: np.ndarray, u: np.ndarray,
              l2: float) -> np.ndarray:
    resid = sigmoid(x @ w - b) - u
    gw = x.T @ resid / len(u) + 2.0 * l2 * w
    return np.append(gw, -resid.mean())


def train(matrix: PredictionMatrix, labels: LabelVector,
          cfg: TrainConfig = TrainConfig(), t: float = 0.5,
          callback=None) -> TrainResult:
    """Fit combination weights by minibatch ADAM with non-negativity projection.

    Parameters
    ----------
    matrix, labels : aligned training predictions and ground truth.
    cfg : optimizer hyperparameters; the run is bit-deterministic given
        identical inputs and ``cfg.seed``.
    t : decision threshold stored on the result.
    callback : optional ``f(step, w, b)`` invoked after every projected
        update; used by the test suite to watch intermediate weights.

    Returns
    -------
    TrainResult with the final weights (all >= 0), whether any update was
    clipped back to zero, and whether the labels were single-class.
    """
    x, u = _training_arrays(matrix, labels)
    n, k = x.shape
    if n < k + 1:
        raise ValidationError(f"need at least K+1={k + 1} samples, got {n}")
    degenerate = bool((u == u[0]).all())
    # Start from the uninformative point: equal weights, shift at the centre
    # of the initial score range, so the initial forward is ~0.5.
    w, b, clipped = _fit(x, u, np.full(k, 1.0 / k), 0.5, cfg, 0.0, callback)
    weights = CombinerWeights(matrix.model_names, w, b, t)
    return TrainResult(weights=weights, config=cfg, clipped_any=clipped,
                       degenerate_labels=degenerate)


def _fit(x: np.ndarray, u: np.ndarray, w: np.ndarray, b: float,
         cfg: TrainConfig, floor: float, callback) -> tuple[np.ndarray, float, bool]:
    """Minibatch ADAM from (w, b) on the :func:`loss` objective; weights below
    ``floor`` are projected onto it after every step.  Returns (w, b, clipped)."""
    n, k = x.shape
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    opt = Adam(k + 1, lr=cfg.learning_rate)
    clipped = False
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle_each_epoch else np.arange(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad = _gradient(w, b, x[idx], u[idx], cfg.l2)
            params = opt.step(np.append(w, b), grad)
            w, b = params[:k], float(params[k])
            if (w < floor).any():
                clipped = True
                w = np.maximum(w, floor)
            if callback is not None:
                callback(opt.t, w, b)
    return w, b, clipped
