"""Trained linear combiner: non-negative weighted sum, shift, sigmoid.

The combined score of K model probabilities is sum(w_i * p_i) with every
w_i >= 0, so it lives in [0, sum(w)].  A trainable shift b re-centres it
before the sigmoid; the class comes from thresholding the sigmoid output.
Training minimizes mean binary cross-entropy plus an L2 penalty on the
weights (not the shift) with ADAM, projecting weights back to >= 0 after
every step and recording whether any projection actually clipped.

:func:`predict` is the one forward kernel, over a whole prediction matrix.
:func:`gradient` and every step of the package's one training loop, which
also fits the toy text model, share one private gradient kernel;
:class:`TrainConfig` owns its settings.

The loop advances R independent runs in lock step: their parameters form
one ``(R, K+1)`` array under one ADAM, each run draws its own minibatches
with its own seed, and every run keeps the bits it would have alone.
:func:`train` is the case R = 1; :func:`train_runs` fits many seeds and
folds at once, as cross-validation does, through the same private code.
:func:`predict` does not recheck its output: a sigmoid is a probability.

A step is a few dozen numpy calls on arrays of a few dozen elements, so
their fixed cost is the step's cost.  The loop therefore allocates nothing
per epoch or step: each run shuffles its own row of positions in place,
each minibatch is gathered into a buffer made once per batch shape (the
text model's one-byte 0/1 matrix into one of its own dtype, then widened
by one copy), the parameters and ADAM's moments update in place, the
projection onto the weight floor runs without a branch, and the sigmoid
kernel checks finiteness itself, with one reduction per step on the -|z|
it computes anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (LabelVector, PredictionMatrix, ProbSeries, _of_checked,
                   _sigmoid, _SigmoidBuffers, check_seed, check_threshold,
                   sigmoid)
from .errors import ConstraintError, ValidationError
from .optim import Adam

__all__ = ["CombinerWeights", "TrainConfig", "TrainResult", "predict", "loss",
           "gradient", "train", "train_runs"]

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


def predict(weights: CombinerWeights, matrix: PredictionMatrix) -> ProbSeries:
    """Per-sample forward values, aligned to the matrix ids.

    Columns are matched by model name, so the matrix may carry extra models
    or list them in a different order.
    """
    sub = matrix.select(weights.model_names)
    return _of_checked(ProbSeries, sub.ids, _forward_rows(weights, sub.values))


def _forward_rows(weights: CombinerWeights, x: np.ndarray) -> np.ndarray:
    """Forward values of the rows of ``x``, columns in the weights' order."""
    return sigmoid(x @ weights.w - weights.b)


def _training_arrays(matrix: PredictionMatrix, labels: LabelVector
                     ) -> tuple[np.ndarray, np.ndarray]:
    # Canonical id ordering: shuffles then depend only on the seed, not on
    # the row order callers happened to use.
    order = np.asarray(sorted(range(len(matrix.ids)), key=lambda i: matrix.ids[i]))
    return matrix.values[order], labels.align_to(matrix.ids)[order]


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
    return _gradient(weights.w[None, :, None], np.array([[weights.b]]), u[None],
                     float(l2), _StepBuffers(x[None]))[0]


def _gradient(w: np.ndarray, b: np.ndarray, u: np.ndarray, l2: float,
              buf: _StepBuffers) -> np.ndarray:
    """Gradient of :func:`loss` for R runs at once: weight columns (R, K, 1),
    shifts (R, 1), the minibatches ``buf.x`` (R, B, K) and u (R, B); returns
    (R, K+1), one of the buffers.

    Batched ``@`` makes the same BLAS matrix-vector call per run that a lone
    run makes, so each run keeps its bits; ``einsum`` sums in another order.
    A non-finite sigmoid input raises.
    """
    np.matmul(buf.x, w, out=buf.z3)
    resid = _sigmoid(np.subtract(buf.z, b, out=buf.z), buf.sig)
    np.subtract(resid, u, out=resid)
    np.matmul(buf.xt, buf.resid3, out=buf.gw)
    np.add.reduce(resid, axis=1, out=buf.gb)
    # d/dw: sum / n; d/db: sum / -n, which has the bits of -mean
    grad = np.divide(buf.grad, buf.scale, out=buf.grad)
    np.add(buf.gw, np.multiply(w, 2.0 * l2, out=buf.l2w), out=buf.gw)
    return grad


class _StepBuffers:
    """Preallocated intermediates of :func:`_gradient` for the minibatch
    array ``x`` (R, B, K), which a training loop gathers each step into.

    Views are made once, and every operand has the full shape of its
    operation: numpy's per-call cost dominates at these sizes.
    """

    def __init__(self, x: np.ndarray):
        r, n, k = x.shape
        self.x, self.xt = x, x.transpose(0, 2, 1)
        self.z3 = np.empty((r, n, 1))
        self.z = self.z3[:, :, 0]
        self.sig = _SigmoidBuffers((r, n), np.empty((r, n)))
        self.resid3 = self.sig.out[:, :, None]
        self.grad = np.empty((r, k + 1))
        self.gw, self.gb = self.grad[:, :k, None], self.grad[:, k]
        self.l2w = np.empty((r, k, 1))
        self.scale = np.tile(np.append(np.full(k, float(n)), -float(n)), (r, 1))


def _fold_arrays(matrix: PredictionMatrix, labels: LabelVector
                 ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Training arrays of one fold, checked, plus its degenerate-labels flag."""
    x, u = _training_arrays(matrix, labels)
    n, k = x.shape
    if n < k + 1:
        raise ValidationError(f"need at least K+1={k + 1} samples, got {n}")
    return x, u, bool((u == u[0]).all())


def train(matrix: PredictionMatrix, labels: LabelVector,
          cfg: TrainConfig = TrainConfig(), t: float = 0.5) -> TrainResult:
    """Fit combination weights by minibatch ADAM with non-negativity projection.

    Parameters
    ----------
    matrix, labels : aligned training predictions and ground truth.
    cfg : optimizer hyperparameters; the run is bit-deterministic given
        identical inputs and ``cfg.seed``.
    t : decision threshold stored on the result.

    Returns
    -------
    TrainResult with the final weights (all >= 0), whether any update was
    clipped back to zero, and whether the labels were single-class.  This is
    :func:`train_runs` with one fold and one run.
    """
    return _train([(matrix, labels)], [(0, cfg)], t)[0]


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
    return _train(folds, runs, t)


def _train(folds, runs, t: float) -> list[TrainResult]:
    """The body of :func:`train_runs` and of :func:`train`, so that a span
    traced around :func:`train` holds its ADAM steps directly."""
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
        # The uninformative start: equal weights, shift at the centre of the
        # initial score range, so the initial forward is ~0.5.
        w, b, clipped = _fit(x, u, np.full(len(names), 1.0 / len(names)), 0.5,
                             cfgs, 0.0, fold=slot)
        for j, i in enumerate(members):
            f, cfg = runs[i]
            results[i] = TrainResult(
                weights=CombinerWeights(names, w[j], b[j], t), config=cfg,
                clipped_any=bool(clipped[j]), degenerate_labels=arrays[f][2])
    return results


def _fit(x: np.ndarray, u: np.ndarray, w: np.ndarray, b: float, cfgs,
         floor: float, fold=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minibatch ADAM on the :func:`loss` objective for R runs in lock step.

    ``x`` (F, n, K) and ``u`` (F, n) stack F equally sized folds; run r
    trains with ``cfgs[r]`` on fold ``fold[r]`` (default: fold r), starting
    from (w, b).  ``x`` is float64 or a one-byte (``bool`` or ``uint8``)
    0/1 matrix, which steps with the same float64 bits.  Every run shuffles
    with its own seed, but all share the step count, so the runs form one
    ``(R, K+1)`` parameter array under one ADAM.  After every step each
    weight below ``floor`` is raised onto it, and a run is flagged clipped
    if any of its weights was ever below it.  Returns w (R, K), b (R,) and
    the clipped flags (R,).

    Nothing is allocated per epoch or step.  Each run shuffles its own row
    of positions in place, with the draws of ``rng.permutation(n)``.  Each
    step gathers its minibatch into buffers allocated once per batch shape
    (a one-byte matrix into one of its own dtype, widened by one copy), and
    updates the parameters in place.  The projection has no branch: the
    lowest weights seen are kept with ``fmin`` and every weight goes through
    ``maximum``, which leaves one at or above the floor unchanged.  A step
    that overflows yields inf or NaN without a numpy warning, and the next
    step's sigmoid kernel turns that into ``ValidationError``.
    """
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValidationError("runs trained in lock step must share every "
                              "hyperparameter but the seed")
    f, n, k = x.shape
    r = len(cfgs)
    # one copy per fold, not per run; 0/1 labels are exact in float64
    x, u = x.reshape(f * n, k), np.asarray(u, dtype=np.float64).reshape(f * n)
    fold = np.arange(r) if fold is None else fold
    positions, base = np.arange(n), fold[:, None] * n
    params = np.tile(np.append(w, b), (r, 1))
    opt = Adam(params.shape, lr=cfg.learning_rate)
    w, b = params[:, :k], params[:, k]
    columns, shifts = params[:, :k, None], params[:, k:]
    floor, lowest = np.array(floor), np.full((r, k), np.inf)
    # Per epoch each run's shuffled labels are gathered once (n floats);
    # x is gathered per step, as a copy of the text model's design matrix
    # per epoch would cost more than it saves.
    order, shuffled_u = np.add(positions, base), np.empty((r, n))
    shuffles = [(np.random.Generator(np.random.PCG64(c.seed)).shuffle, row)
                for c, row in zip(cfgs, order)]
    size, starts = cfg.batch_size, range(0, n, cfg.batch_size)
    widen = x.dtype != np.float64
    buffers = {}
    for m in {min(size, n - start) for start in starts}:
        buf = _StepBuffers(np.empty((r, m, k)))
        buffers[m] = buf, np.empty((r, m, k), x.dtype) if widen else buf.x
    batches = [(order[:, start:start + size], shuffled_u[:, start:start + size],
                *buffers[min(size, n - start)]) for start in starts]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            if cfg.shuffle_each_epoch:
                np.add(positions, base, out=order)
                for shuffle, row in shuffles:
                    shuffle(row)
            # mode "clip": the indices are in range, and "raise" would
            # gather through a temporary copy of ``out``
            u.take(order, out=shuffled_u, mode="clip")
            for idx, ub, buf, rows in batches:
                x.take(idx, axis=0, out=rows, mode="clip")
                if widen:
                    np.copyto(buf.x, rows)
                opt.step(params, _gradient(columns, shifts, ub, cfg.l2, buf))
                np.fmin(lowest, w, out=lowest)
                np.maximum(w, floor, out=w)
    return w, b, (lowest < floor).any(axis=1)
