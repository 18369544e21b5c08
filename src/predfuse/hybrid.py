"""Base-plus-fallback combiner with a confidence threshold.

Trust one base model's prediction whenever its confidence, max(p, 1-p), is
at least theta; otherwise defer to a fixed decision rule over a disjoint set
of auxiliary models.  Theta lives strictly between 0.5 (confidence's floor,
so every sample would stay with the base) and 1.  A grid sweep picks theta
on a tuning split by maximizing accuracy, breaking ties toward the smallest
value so the base model is preferred when fallback buys nothing.

Like every combiner it returns one score per sample, whose label is that
score hardened at 0.5.  On a labelled suite the hybrid's accuracy at every
theta comes from one theta-independent table: base confidence, and whether
the base's and the rule's hardened scores are right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (LabelVector, PredictionMatrix, ProbSeries, _of_checked,
                   harden)
from .errors import ConstraintError, ValidationError
from .rules import _rule_scores, check_rule_kind

__all__ = ["HybridConfig", "HybridPrediction", "SweepResult", "hybrid_predict",
           "theta_sweep", "default_theta_grid"]


@dataclass(frozen=True)
class HybridConfig:
    """Base model, auxiliary set, fallback rule, confidence threshold."""

    base: str
    aux: tuple[str, ...]
    rule: str = "sum"
    theta: float = 0.91

    def __post_init__(self):
        base, aux = _check_models(self.base, self.aux, self.rule)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "theta", _check_theta(self.theta))


def _check_models(base, aux, rule: str) -> tuple[str, tuple[str, ...]]:
    """Base name and auxiliary set of a hybrid, checked against its rule."""
    base, aux = str(base), tuple(str(a) for a in aux)
    if not aux:
        raise ValidationError("auxiliary model set is empty")
    if len(set(aux)) != len(aux):
        raise ValidationError("auxiliary model names must be unique")
    if base in aux:
        raise ValidationError(f"base model {base!r} also listed as auxiliary")
    if check_rule_kind(rule) == "maj" and len(aux) % 2 == 0:
        raise ConstraintError(f"majority vote needs an odd auxiliary count, got {len(aux)}")
    return base, aux


def _check_theta(theta) -> float:
    th = float(theta)
    if not 0.5 < th < 1.0:
        raise ConstraintError(f"theta must satisfy 0.5 < theta < 1, got {th}")
    return th


@dataclass(frozen=True)
class HybridPrediction:
    """Per-sample scores plus which side produced each one."""

    series: ProbSeries                        # base prob or rule score
    fallback: np.ndarray = field(repr=False)  # True where the rule decided

    @property
    def fallback_fraction(self) -> float:
        return float(self.fallback.mean())


def _decision_arrays(cfg_base: str, cfg_aux, rule: str, matrix: PredictionMatrix):
    base_p = matrix.column(cfg_base).values
    conf = np.maximum(base_p, 1.0 - base_p)
    return base_p, conf, _rule_scores(rule, matrix.select(cfg_aux).values)


def _table(base: str, aux, rule: str, matrix: PredictionMatrix, labels: LabelVector):
    """(conf, base_ok, aux_ok): the theta-independent table of a suite."""
    base_p, conf, aux_scores = _decision_arrays(base, aux, rule, matrix)
    u = labels.align_to(matrix.ids)
    return conf, harden(base_p) == u, harden(aux_scores) == u


def _accuracy_at(table, theta: float) -> tuple[float, float]:
    """Accuracy and fallback fraction of the hybrid at ``theta``."""
    conf, base_ok, aux_ok = table
    fallback = conf < theta
    return float(np.where(fallback, aux_ok, base_ok).mean()), float(fallback.mean())


def hybrid_predict(cfg: HybridConfig, matrix: PredictionMatrix) -> HybridPrediction:
    """Per-sample score: the base model's where it is confident, else the rule's.

    A sample keeps the base when confidence >= theta; fallback happens only
    strictly below theta.  Its label is the score hardened at 0.5.
    """
    base_p, conf, aux_scores = _decision_arrays(cfg.base, cfg.aux, cfg.rule, matrix)
    fallback = conf < cfg.theta
    series = _of_checked(ProbSeries, matrix.ids, np.where(fallback, aux_scores, base_p))
    return HybridPrediction(series, fallback)


def default_theta_grid() -> list[float]:
    """Two-decimal grid 0.51, 0.52, ..., 0.99."""
    return [round(0.51 + 0.01 * i, 2) for i in range(49)]


@dataclass(frozen=True)
class SweepResult:
    """Accuracy of every candidate theta plus the winner."""

    best_theta: float
    best_accuracy: float
    rows: tuple[tuple[float, float, float], ...]  # (theta, accuracy, fallback_fraction)

    def to_tsv(self) -> str:
        lines = ["theta\taccuracy\tfallback_fraction"]
        lines += [f"{th}\t{acc!r}\t{fb!r}" for th, acc, fb in self.rows]
        return "\n".join(lines) + "\n"


def theta_sweep(base: str, aux, rule: str, matrix: PredictionMatrix,
                labels: LabelVector, grid=None) -> SweepResult:
    """Evaluate the hybrid at each theta on (matrix, labels); pick the best.

    Ties break toward the smallest theta.  The suite's table is built once.
    """
    grid = [_check_theta(g) for g in (default_theta_grid() if grid is None else grid)]
    if not grid:
        raise ValidationError("theta grid is empty")
    base, aux = _check_models(base, aux, rule)
    table = _table(base, aux, rule, matrix, labels)
    rows = []
    best_theta, best_acc = None, -1.0
    for th in grid:
        acc, fb = _accuracy_at(table, th)
        rows.append((th, acc, fb))
        if acc > best_acc or (acc == best_acc and best_theta is not None and th < best_theta):
            best_theta, best_acc = th, acc
    return SweepResult(best_theta=best_theta, best_accuracy=best_acc,
                       rows=tuple(rows))
