"""Calibrated synthetic predictor suites with controllable error correlation.

Each model's probabilities come from a latent-Gaussian construction chosen
because its accuracy calibrates in closed form.  For sample j with label
u_j and sign s_j = 2*u_j - 1, model i sees

    z_ij = mu_i * s_j + sqrt(rho) * g_j + sqrt(1 - rho) * e_ij

with shared noise g_j and private noise e_ij, both standard normal, and
mu_i = Phi^-1(target accuracy of model i).  The emitted probability is
sigmoid(gamma * z_ij).  Hardening at 0.5 is correct exactly when z has the
sign of s, whose probability is Phi(mu_i): expected accuracy equals the
target independently of gamma and rho.  One scalar rho moves all pairwise
error correlations together.

Reproducibility: all randomness is drawn from a PCG64 generator seeded with
``spec.seed``.  Normals use the Box-Muller transform over that generator's
uniform doubles (never numpy's normal sampler, whose stream is not
guaranteed stable across releases).  Draw order is fixed: n label uniforms,
then n shared normals, then n*K private normals in sample-major order.

Memory: the suite is drawn in place.  The private normals' (n, K) buffer
becomes the probability matrix; each model's z is built in one n-sized
column, with the formula's operations in its order, so the bits are those
of the formula computed out of place, and its sigmoid is written back over
the model's normals.  Besides the ids, a suite holds one (n, K) array and a
few n-sized ones at any time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (LabelVector, PredictionMatrix, _of_checked, _sigmoid,
                   _SigmoidBuffers, check_seed, harden)
from .errors import ValidationError

__all__ = ["SyntheticSpec", "inv_norm_cdf", "generate", "estimate_error_correlation"]

# Acklam's rational approximation of the standard normal quantile; a single
# Newton step against the erf-based CDF then polishes to near machine
# precision (the bare approximation is only good to ~1e-9).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def inv_norm_cdf(q: float) -> float:
    """Standard normal quantile: the x with Phi(x) = q, for q in (0, 1)."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile argument must lie in (0, 1), got {q}")
    if q < _P_LOW:
        r = math.sqrt(-2.0 * math.log(q))
        x = ((((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5])
             / ((((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0))
    elif q > 1.0 - _P_LOW:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -((((((_C[0] * r + _C[1]) * r + _C[2]) * r + _C[3]) * r + _C[4]) * r + _C[5])
              / ((((_D[0] * r + _D[1]) * r + _D[2]) * r + _D[3]) * r + 1.0))
    else:
        r = q - 0.5
        s = r * r
        x = ((((((_A[0] * s + _A[1]) * s + _A[2]) * s + _A[3]) * s + _A[4]) * s + _A[5]) * r
             / (((((_B[0] * s + _B[1]) * s + _B[2]) * s + _B[3]) * s + _B[4]) * s + 1.0))
    # Newton polish on Phi(x) - q.
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        x -= (_norm_cdf(x) - q) / pdf
    return x


_MAX_SAMPLES = 10_000_000  # the README draws 25,000 samples, the bench 50,000


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one suite: model count, target accuracies, correlation."""

    k: int
    target_acc: tuple[float, ...]
    rho: float = 0.3
    n: int = 1000
    balance: float = 0.5
    sharpness: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("need at least one model")
        acc = tuple(float(a) for a in self.target_acc)
        if len(acc) != self.k:
            raise ValidationError(f"need {self.k} target accuracies, got {len(acc)}")
        # 0.5 (a fair coin) is allowed; the cap keeps the latent mean finite.
        if any(not 0.5 <= a <= 0.999 for a in acc):
            raise ValidationError("target accuracies must lie in [0.5, 0.999]")
        object.__setattr__(self, "target_acc", acc)
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError("rho must lie in [0, 1)")
        if self.n < 1:
            raise ValidationError("sample count must be positive")
        if self.n > _MAX_SAMPLES:
            raise ValidationError(f"sample count {self.n} is more than {_MAX_SAMPLES}")
        if not 0.0 <= self.balance <= 1.0:
            raise ValidationError("balance must lie in [0, 1]")
        if not 0.0 < self.sharpness < math.inf:
            raise ValidationError("sharpness must be positive and finite")
        check_seed(self.seed)

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(f"M{i + 1}" for i in range(self.k))


def _box_muller(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` standard normals: the cosines of ``(size + 1) // 2`` pairs,
    then their sines, drawn into two buffers and one output array."""
    half = (size + 1) // 2
    r = rng.random(half)
    np.subtract(1.0, r, out=r)  # (0, 1], keeps the log finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = rng.random(half)
    angle *= 2.0 * np.pi
    out = np.empty(2 * half)
    np.cos(angle, out=out[:half])
    np.sin(angle, out=out[half:])
    out[:half] *= r
    out[half:] *= r
    return out[:size]


def generate(spec: SyntheticSpec) -> tuple[LabelVector, PredictionMatrix]:
    """Draw one suite, in place (see the module docstring); identical specs
    give bit-identical outputs."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, k = spec.n, spec.k
    width = len(str(n - 1))
    labels = LabelVector(tuple(f"{j:0{width}d}" for j in range(n)),
                         (rng.random(n) < spec.balance).astype(np.int64))
    s = np.multiply(labels.values, 2.0)
    s -= 1.0
    g = _box_muller(rng, n)
    g *= math.sqrt(spec.rho)
    e = _box_muller(rng, n * k).reshape(n, k)
    e *= math.sqrt(1.0 - spec.rho)

    col = np.empty(n)
    buf = _SigmoidBuffers((n,), None)  # out set per model
    for j, a in enumerate(spec.target_acc):
        np.multiply(s, inv_norm_cdf(a), out=col)
        col += g
        col += e[:, j]
        col *= spec.sharpness
        buf.out = e[:, j]
        _sigmoid(col, buf)
    return labels, _of_checked(PredictionMatrix, labels.ids, e,
                               model_names=spec.model_names)


def estimate_error_correlation(matrix: PredictionMatrix,
                               labels: LabelVector) -> np.ndarray:
    """Pearson correlation of the models' hardened-error indicators.

    Entry (i, j) correlates the 0/1 vectors "model i was wrong" and "model j
    was wrong" at threshold 0.5.  The diagonal is always 1.  Off-diagonal
    entries involving a model that is always right (or always wrong) are
    undefined and reported as NaN.
    """
    u = labels.align_to(matrix.ids)
    wrong = (harden(matrix.values, 0.5) != u[:, None]).astype(np.float64)
    centered = wrong - wrong.mean(axis=0)
    std = wrong.std(axis=0)
    k = matrix.n_models
    out = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            if std[i] == 0.0 or std[j] == 0.0:
                out[i, j] = out[j, i] = np.nan
            else:
                cov = float((centered[:, i] * centered[:, j]).mean())
                out[i, j] = out[j, i] = cov / (std[i] * std[j])
    return out
