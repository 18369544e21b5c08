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

The loop advances R independent runs in lock step: their parameters form
one ``(R, K+1)`` array under one ADAM, each run draws its own minibatches
with its own seed, and every run keeps the bits it would have alone.
:func:`train` is the case R = 1; :func:`train_runs` fits many seeds and
folds at once, as cross-validation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (LabelVector, PredictionMatrix, ProbSeries, check_seed,
                   check_threshold, sigmoid)
from .errors import ConstraintError, ValidationError
from .optim import Adam

__all__ = ["CombinerWeights", "TrainConfig", "TrainResult", "raw_score",
           "forward", "predict", "loss", "gradient", "train", "train_runs"]

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
    return ProbSeries(sub.ids, _forward_rows(weights, sub.values))


def _forward_rows(weights: CombinerWeights, x: np.ndarray) -> np.ndarray:
    """Forward values of the rows of ``x``, columns in the weights' order."""
    return sigmoid(x @ weights.w - weights.b)


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
    return _bce(_forward_rows(weights, x), u) + float(l2) * float(weights.w @ weights.w)


def gradient(weights: CombinerWeights, matrix: PredictionMatrix,
             labels: LabelVector, l2: float = TrainConfig.l2) -> np.ndarray:
    """Analytic gradient of :func:`loss`, length K+1: d/dw_1..K then d/db."""
    x, u = _training_arrays(matrix.select(weights.model_names), labels)
    return _gradient(weights.w[None], np.array([weights.b]), x[None], u[None],
                     float(l2))[0]


def _gradient(w: np.ndarray, b: np.ndarray, x: np.ndarray, u: np.ndarray,
              l2: float) -> np.ndarray:
    """Gradient of :func:`loss` for R runs at once: weights (R, K), shifts
    (R,), minibatches x (R, B, K) and u (R, B); returns (R, K+1).

    Batched ``@`` makes the same BLAS matrix-vector call per run that a lone
    run makes, so each run keeps its bits; ``einsum`` sums in another order.
    """
    n = u.shape[1]
    resid = sigmoid((x @ w[:, :, None])[:, :, 0] - b[:, None]) - u
    gw = (x.transpose(0, 2, 1) @ resid[:, :, None])[:, :, 0] / n + 2.0 * l2 * w
    # sum / -n has the bits of -mean, and costs less than mean(axis=1)
    return np.concatenate([gw, (resid.sum(axis=1) / -n)[:, None]], axis=1)


def _fold_arrays(matrix: PredictionMatrix, labels: LabelVector
                 ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Training arrays of one fold, checked, plus its degenerate-labels flag."""
    x, u = _training_arrays(matrix, labels)
    n, k = x.shape
    if n < k + 1:
        raise ValidationError(f"need at least K+1={k + 1} samples, got {n}")
    return x, u, bool((u == u[0]).all())


def _result(names, w: np.ndarray, b: float, clipped: bool, cfg: TrainConfig,
            t: float, degenerate: bool) -> TrainResult:
    return TrainResult(weights=CombinerWeights(names, w, b, t), config=cfg,
                       clipped_any=bool(clipped), degenerate_labels=degenerate)


def _start(k: int) -> tuple[np.ndarray, float]:
    # The uninformative point: equal weights, shift at the centre of the
    # initial score range, so the initial forward is ~0.5.
    return np.full(k, 1.0 / k), 0.5


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
    x, u, degenerate = _fold_arrays(matrix, labels)
    w, b, clipped = _fit(x[None], u[None], *_start(x.shape[1]), [cfg], 0.0,
                         callback=callback)
    return _result(matrix.model_names, w[0], b[0], clipped[0], cfg, t,
                   degenerate)


def train_runs(folds, runs, t: float = 0.5) -> list[TrainResult]:
    """Fit many runs in lock step; each equals its own :func:`train` call.

    Parameters
    ----------
    folds : sequence of ``(matrix, labels)`` pairs naming the same models.
    runs : sequence of ``(fold index, TrainConfig)``; the configs may differ
        only in their seed.
    t : decision threshold stored on every result.

    Returns
    -------
    One TrainResult per run, in order, bit-identical to
    ``train(*folds[f], cfg, t)``.  Runs on folds of one row count share one
    minibatch-ADAM loop, so folds that differ by a row make two loops.
    """
    arrays = [_fold_arrays(m, labels) for m, labels in folds]
    names = folds[0][0].model_names if arrays else ()
    if any(m.model_names != names for m, _ in folds):
        raise ValidationError("folds trained together must name the same "
                              "models in the same order")
    results = [None] * len(runs)
    for n in sorted({len(arrays[f][1]) for f, _ in runs}):
        members = [i for i, (f, _) in enumerate(runs) if len(arrays[f][1]) == n]
        used = sorted({runs[i][0] for i in members})
        x = np.stack([arrays[f][0] for f in used])
        u = np.stack([arrays[f][1] for f in used])
        slot = np.array([used.index(runs[i][0]) for i in members], dtype=np.intp)
        cfgs = [runs[i][1] for i in members]
        w, b, clipped = _fit(x, u, *_start(len(names)), cfgs, 0.0, fold=slot)
        for j, i in enumerate(members):
            f, cfg = runs[i]
            results[i] = _result(names, w[j], b[j], clipped[j], cfg, t,
                                 arrays[f][2])
    return results


def _fit(x: np.ndarray, u: np.ndarray, w: np.ndarray, b: float, cfgs,
         floor: float, fold=None, callback=None
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minibatch ADAM on the :func:`loss` objective for R runs in lock step.

    ``x`` (F, n, K) and ``u`` (F, n) stack F equally sized folds; run r
    trains with ``cfgs[r]`` on fold ``fold[r]`` (default: fold r), starting
    from (w, b).  Every run shuffles with its own seed, but all share the
    step count, so the runs form one ``(R, K+1)`` parameter array under one
    ADAM.  Weights below ``floor`` are projected onto it after every step:
    all of a run's weights, and only in the runs that had one below it,
    exactly as a lone run would be.  ``callback(step, w, b)`` sees the first
    run.  Returns w (R, K), b (R,) and the clipped flags (R,).
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValidationError("runs trained in lock step must share every "
                              "hyperparameter but the seed")
    f, n, k = x.shape
    x, u = x.reshape(f * n, k), u.reshape(f * n)  # one copy per fold, not per run
    fold = np.arange(len(cfgs)) if fold is None else fold
    base = fold[:, None] * n
    rngs = [np.random.Generator(np.random.PCG64(c.seed)) for c in cfgs]
    params = np.tile(np.append(w, b), (len(cfgs), 1))
    opt = Adam(params.shape, lr=cfg.learning_rate)
    w, b = params[:, :k], params[:, k]
    clipped = np.zeros(len(cfgs), dtype=bool)
    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            order = np.stack([rng.permutation(n) for rng in rngs]) + base
        else:
            order = np.arange(n) + base
        for start in range(0, n, cfg.batch_size):
            idx = order[:, start:start + cfg.batch_size]
            params = opt.step(params, _gradient(w, b, x[idx], u[idx], cfg.l2))
            w, b = params[:, :k], params[:, k]
            if (w < floor).any():
                low = (w < floor).any(axis=1)
                clipped |= low
                w[low] = np.maximum(w[low], floor)
            if callback is not None:
                callback(opt.t, w[0], float(b[0]))
    return w, b, clipped
