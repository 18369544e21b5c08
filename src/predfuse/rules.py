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

Each rule has one implementation, the vectorized :func:`rule_scores` over an
(N, K) block; :func:`apply_rule` is its entry for a prediction matrix.  Each
returns one score per sample, in [0, 1]; a rule's label is its score
hardened at 0.5, as for every other combiner.
"""

from __future__ import annotations

import numpy as np

from .core import PredictionMatrix, ProbSeries, _of_checked, check_probs
from .errors import ConstraintError, ValidationError

RULE_KINDS = ("sum", "avg", "max", "maj")

__all__ = ["RULE_KINDS", "apply_rule", "rule_scores"]


def check_rule_kind(rule: str) -> str:
    if rule not in RULE_KINDS:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {RULE_KINDS}")
    return rule


def check_panel(rule: str, k: int) -> None:
    """Refuse an even panel of ``k`` models for majority vote: it could tie."""
    if rule == "maj" and k % 2 == 0:
        raise ConstraintError(f"majority vote needs an odd number of models, got {k}")


def rule_scores(rule: str, values) -> np.ndarray:
    """Vectorized scores for an (N, K) block of probabilities in [0, 1]."""
    return _rule_scores(rule, check_probs(values))


def _rule_scores(rule: str, values: np.ndarray) -> np.ndarray:
    """:func:`rule_scores` of a block already known to hold probabilities."""
    check_rule_kind(rule)
    if values.ndim != 2 or values.shape[1] == 0:
        raise ValidationError("rule input must be a non-empty (N, K) block")
    k = values.shape[1]
    check_panel(rule, k)
    if rule in ("sum", "avg"):
        return values.mean(axis=1)
    if rule == "max":
        hi1 = values.max(axis=1)
        hi0 = 1.0 - values.min(axis=1)
        scores = hi1 / (hi1 + hi0)
        # Where hi1 < hi0 the sum can round to 2 * hi1 and the score to 0.5;
        # the largest double below 0.5 keeps it on class 0's side.
        scores[(scores == 0.5) & (hi1 < hi0)] = np.nextafter(0.5, 0.0)
        return scores
    return (values >= 0.5).sum(axis=1) / k  # maj: the share of votes


def apply_rule(rule: str, matrix: PredictionMatrix) -> ProbSeries:
    """Apply a rule per sample over every column of a prediction matrix.

    Returns the score series, aligned to the matrix ids; the scores are
    probabilities by construction.  To combine some of the models, pass
    ``matrix.select(names)``.
    """
    return _of_checked(ProbSeries, matrix.ids, _rule_scores(rule, matrix.values))
