"""Interval diagnostic for the sum of trained combination weights.

For a trained combination with weights w and shift b, let W = sum(w) and
let the weight-normalized variant divide the combined score by W, so its
coefficients sum to one.  With A the thresholded norm of the labels, e the
thresholded error of the combined output, and e_hat the thresholded error
of the normalized output, W is expected to satisfy

    (A - e) / (A + e_hat)  <=  W  <=  (A + e) / (A - e_hat)

whenever both outputs are decent (errors small relative to A).  This
module computes both fractions from the literal hardened-vector norms and
reports containment; it never asserts it, because the underlying
small-error assumptions can fail on pathological inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .combiner import CombinerWeights
from .core import (LabelVector, PredictionMatrix, sigmoid,
                   thresholded_distance, thresholded_norm)
from .errors import DegenerateWeightsError

__all__ = ["BoundReport", "weight_sum", "weight_sum_bounds"]


@dataclass(frozen=True)
class BoundReport:
    """Both bound fractions and the norms they were computed from."""

    W: float
    lower: float
    upper: float
    norm_u: float
    err_y: float
    err_yhat: float
    contained: bool
    degenerate: bool


def weight_sum(weights: CombinerWeights) -> float:
    """Sum of the combination weights."""
    return float(weights.w.sum())


def weight_sum_bounds(weights: CombinerWeights, matrix: PredictionMatrix,
                      labels: LabelVector) -> BoundReport:
    """Compute the weight-sum interval on a dataset and check containment.

    The same shift b and threshold t are applied to the combined and the
    weight-normalized scores.  All norms are recomputed from scratch on
    every call; nothing is cached against stale weights.

    When the upper fraction's denominator is not positive the interval has
    no finite upper end: ``upper`` is +inf, ``degenerate`` is set, and
    containment checks the lower bound and that W is finite.
    """
    total = weight_sum(weights)
    if total <= 0.0:
        raise DegenerateWeightsError("all combination weights are zero")
    sub = matrix.select(weights.model_names)
    u = labels.align_to(sub.ids)
    raw = sub.values @ weights.w
    t, b = weights.t, weights.b

    norm_u = thresholded_norm(u, t)
    err_y = thresholded_distance(u, sigmoid(raw - b), t)
    err_yhat = thresholded_distance(u, sigmoid(raw / total - b), t)

    lo_den = norm_u + err_yhat
    lower = (norm_u - err_y) / lo_den if lo_den > 0.0 else -math.inf
    hi_den = norm_u - err_yhat
    degenerate = hi_den <= 0.0
    upper = math.inf if degenerate else (norm_u + err_y) / hi_den
    contained = lower <= total < math.inf if degenerate else lower <= total <= upper
    return BoundReport(W=total, lower=lower, upper=upper, norm_u=norm_u,
                       err_y=err_y, err_yhat=err_yhat,
                       contained=bool(contained), degenerate=degenerate)
