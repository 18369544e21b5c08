"""Fixed decision rules for combining K class-1 probabilities.

Four classic posterior-combination rules: sum, average, max, and majority
vote.  Each one compares the aggregated posterior of class 1 against class 0
(whose per-model posterior is 1 - p_i) and breaks the aggregate tie toward
class 1, matching the ``>= t`` convention used everywhere else.

Useful identities, all covered by tests:
  * avg and sum always decide identically (argmax of a mean is argmax of
    the sum);
  * for K = 2, max also agrees with sum, because max(p) + min(p) = p1 + p2;
  * majority vote equals sum when every p_i is already hard (0 or 1).

Each rule has one implementation, the vectorized :func:`rule_scores`.  The
scalar helpers (:func:`sum_rule` and friends) are one-row views of it, so
tests that check them against brute-force oracles check the kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PredictionMatrix, ProbSeries, _of_checked, check_probs
from .errors import ConstraintError, ValidationError

RULE_KINDS = ("sum", "avg", "max", "maj")

__all__ = ["RULE_KINDS", "RuleDecision", "sum_rule", "average_rule", "max_rule",
           "majority_vote", "apply_rule", "rule_scores"]


@dataclass(frozen=True)
class RuleDecision:
    """A rule's class label plus a reportable confidence surrogate in [0, 1].

    The score is defined so that label == (score >= 0.5) for every rule; it
    exists for reporting and file export, decisions never depend on it.
    """

    label: int
    score: float


def _one_row(rule: str, p) -> RuleDecision:
    """A rule's decision for one sample: the first row of :func:`rule_scores`."""
    scores, labels = rule_scores(rule, check_probs(p)[None])
    return RuleDecision(label=int(labels[0]), score=float(scores[0]))


def sum_rule(p) -> RuleDecision:
    """Class 1 iff sum(p) >= sum(1 - p), i.e. mean(p) >= 0.5."""
    return _one_row("sum", p)


def average_rule(p) -> RuleDecision:
    """Class with the larger mean posterior; decides identically to sum_rule."""
    return _one_row("avg", p)


def max_rule(p) -> RuleDecision:
    """Class 1 iff max(p) >= max(1 - p); score normalizes the two maxima."""
    return _one_row("max", p)


def majority_vote(p) -> RuleDecision:
    """Each model votes its hardened label; the majority wins.

    Only defined for odd K: an even panel can tie, so it is rejected rather
    than silently broken.
    """
    return _one_row("maj", p)


def check_rule_kind(rule: str) -> str:
    if rule not in RULE_KINDS:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {RULE_KINDS}")
    return rule


def rule_scores(rule: str, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (scores, labels) for an (N, K) block of probabilities."""
    check_rule_kind(rule)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValidationError("rule input must be a non-empty (N, K) block")
    k = values.shape[1]
    if rule == "maj" and k % 2 == 0:
        raise ConstraintError(f"majority vote needs an odd number of models, got {k}")
    if rule in ("sum", "avg"):
        scores = values.mean(axis=1)
        labels = (scores >= 0.5).astype(np.int64)
    elif rule == "max":
        hi1 = values.max(axis=1)
        hi0 = (1.0 - values).max(axis=1)
        scores = hi1 / (hi1 + hi0)
        labels = (hi1 >= hi0).astype(np.int64)
    else:  # maj
        votes = (values >= 0.5).sum(axis=1)
        scores = votes / k
        labels = (2 * votes > k).astype(np.int64)
    return scores, labels


def apply_rule(rule: str, matrix: PredictionMatrix, subset=None
               ) -> tuple[ProbSeries, np.ndarray]:
    """Apply a rule per sample over selected columns of a prediction matrix.

    Returns the score series (aligned to the matrix ids) and the label
    vector it hardens to.  The scores are probabilities by construction.
    """
    sub = matrix if subset is None else matrix.select(subset)
    scores, labels = rule_scores(rule, sub.values)
    return _of_checked(ProbSeries, sub.ids, scores), labels
