import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predfuse import (RULE_KINDS, ConstraintError, ValidationError,
                      apply_rule, harden)
from predfuse.rules import rule_scores

from conftest import make_matrix


# Brute-force oracle: aggregate the per-class posteriors (class 1 has
# posterior p_i, class 0 has 1 - p_i) and take the argmax, ties to class 1.
def oracle(rule, p):
    p = list(p)
    q = [1.0 - x for x in p]
    if rule in ("sum", "avg"):
        s1, s0 = sum(p), sum(q)
    elif rule == "max":
        s1, s0 = max(p), max(q)
    else:  # maj: each model votes its own argmax, per-model tie to class 1
        votes1 = sum(1 for x in p if x >= 0.5)
        s1, s0 = votes1, len(p) - votes1
    return 1 if s1 >= s0 else 0


class TestRuleExamples:
    def test_sum(self):
        scores, labels = rule_scores("sum", np.array([[0.6, 0.3, 0.7]]))
        assert labels.tolist() == [1]
        assert scores[0] == pytest.approx(1.6 / 3)
        assert rule_scores("sum", np.array([[0.5, 0.5]]))[1].tolist() == [1]  # boundary
        _, labels = rule_scores("sum", np.array([[0.3], [0.8]]))
        np.testing.assert_array_equal(labels, harden([0.3, 0.8], 0.5))

    def test_average(self):
        assert rule_scores("avg", np.array([[0.6, 0.3, 0.7]]))[1].tolist() == [1]
        assert rule_scores("avg", np.array([[0.2, 0.2]]))[1].tolist() == [0]

    def test_max(self):
        _, labels = rule_scores("max", np.array([[0.9, 0.2], [0.45, 0.45]]))
        assert labels.tolist() == [1, 0]  # 0.9 >= 0.8; 0.45 < 0.55
        assert rule_scores("max", np.array([[0.5]]))[1].tolist() == [1]  # boundary tie

    @pytest.mark.parametrize("row", [[0.75, 0.25 - 2**-53], [0.25 - 2**-53, 0.75]])
    def test_max_rounding_tie_scores_below_half(self, row):
        # hi0 = 0.75 + 2**-53 > hi1 = 0.75, but hi1 + hi0 rounds to 1.5
        scores, labels = rule_scores("max", np.array([row]))
        assert labels.tolist() == [0]
        assert scores.tolist() == [np.nextafter(0.5, 0.0)]

    def test_majority(self):
        _, labels = rule_scores("maj", np.array([[0.9, 0.4, 0.3], [0.6, 0.7, 0.2]]))
        assert labels.tolist() == [0, 1]  # votes 1,0,0; votes 1,1,0

    def test_even_panel_rejected(self):
        with pytest.raises(ConstraintError):
            rule_scores("maj", np.array([[0.9, 0.4]]))

    @pytest.mark.parametrize("rule, block, message", [
        ("max", [[1.5, -0.2]], "probability 1.5 outside [0, 1]"),
        ("sum", [[np.nan, 0.9]], "probability nan outside [0, 1]"),
    ], ids=["max-out-of-range", "sum-nan"])
    def test_non_probabilities_rejected(self, rule, block, message):
        with pytest.raises(ValidationError) as err:
            rule_scores(rule, np.array(block))
        assert str(err.value) == message

    def test_empty_vector_rejected(self):
        for rule in RULE_KINDS:
            with pytest.raises(ValidationError):
                rule_scores(rule, np.empty((1, 0)))


class TestRuleProperties:
    def test_avg_equals_sum_always(self, rng):
        for k in range(1, 8):
            p = rng.uniform(0, 1, size=(10_000, k))
            _, sum_labels = rule_scores("sum", p)
            _, avg_labels = rule_scores("avg", p)
            np.testing.assert_array_equal(sum_labels, avg_labels)

    def test_max_equals_sum_for_two_models(self, rng):
        p = rng.uniform(0, 1, size=(10_000, 2))
        np.testing.assert_array_equal(rule_scores("max", p)[1],
                                      rule_scores("sum", p)[1])
        # full draw, via the definitions directly
        assert (((p.max(axis=1) + p.min(axis=1)) >= 1.0) ==
                (p.mean(axis=1) >= 0.5)).all()

    def test_majority_equals_sum_on_hard_votes(self, rng):
        for k in (1, 3, 5, 7):
            p = rng.integers(0, 2, size=(300, k)).astype(float)
            np.testing.assert_array_equal(rule_scores("maj", p)[1],
                                          rule_scores("sum", p)[1])

    def test_permutation_invariance(self, rng):
        for k in (1, 3, 5):
            p = rng.uniform(0, 1, size=(100, k))
            perm = rng.permutation(k)
            for rule in RULE_KINDS:
                np.testing.assert_array_equal(rule_scores(rule, p)[1],
                                              rule_scores(rule, p[:, perm])[1])

    def test_all_rules_match_oracle(self, rng):
        for k in range(1, 8):
            p = rng.uniform(0, 1, size=(300, k))
            for rule in RULE_KINDS if k % 2 == 1 else ("sum", "avg", "max"):
                _, labels = rule_scores(rule, p)
                assert labels.tolist() == [oracle(rule, row) for row in p]

    def test_max_score_bits(self, rng):
        # hi1 / (hi1 + hi0), with hi0 the largest class-0 posterior 1 - p_i
        edge = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.5],
                         [0.5, 0.5, 0.5], [0.3, 0.7, 0.7], [5e-324, 0.0, 5e-324],
                         [1 - 2**-53, 1.0, 0.5], [5e-324, 1 - 2**-53, 0.25]])
        blocks = [edge, edge[:, :1], edge[:, :2]]
        blocks += [rng.uniform(0, 1, size=(500, k)) for k in range(1, 8)]
        for p in blocks:
            hi1 = p.max(axis=1)
            want = hi1 / (hi1 + (1 - p).max(axis=1))
            assert rule_scores("max", p)[0].tobytes() == want.tobytes()

    def test_score_hardens_to_label(self, rng):
        for k in (1, 3, 5, 7):
            p = rng.uniform(0, 1, size=(125, k))
            for rule in RULE_KINDS:
                scores, labels = rule_scores(rule, p)
                np.testing.assert_array_equal(labels, harden(scores, 0.5))
                assert ((0.0 <= scores) & (scores <= 1.0)).all()

    @settings(deadline=None)
    @given(a=st.floats(0.0, 1.0), k=st.integers(-8, 8), j=st.integers(-8, 8),
           flip=st.booleans())
    @example(a=0.75, k=-4, j=0, flip=False)
    def test_near_ties_harden_to_their_labels(self, a, k, j, flip):
        """Rows ``[a, 1 - a]`` and ``[a, 1 - a, 0.5]``, each of the last
        two moved ``k`` and ``j`` doubles, where the rounding of each
        rule's score decides which side of 0.5 it lands on."""
        b, c = _moved(1.0 - a, k), _moved(0.5, j)
        pair = [b, a] if flip else [a, b]
        for rule, row in ([(rule, pair) for rule in ("sum", "avg", "max")]
                          + [(rule, pair + [c]) for rule in RULE_KINDS]):
            scores, labels = rule_scores(rule, np.array([row]))
            assert labels.tolist() == (scores >= 0.5).astype(int).tolist(), (rule, row)


def _moved(x: float, k: int) -> float:
    """``x`` moved ``k`` doubles up (``k > 0``) or down, kept in [0, 1]."""
    for _ in range(abs(k)):
        x = np.nextafter(x, 1.0 if k > 0 else 0.0)
    return float(x)


class TestApplyRule:
    def test_single_model_subset_is_hardened_column(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(50, 3)))
        _, labels = apply_rule("sum", m.select(["M2"]))
        np.testing.assert_array_equal(labels, harden(m.column("M2").values, 0.5))

    def test_two_model_rules_agree(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(200, 2)))
        out = {rule: apply_rule(rule, m)[1] for rule in ("sum", "avg", "max")}
        np.testing.assert_array_equal(out["sum"], out["avg"])
        np.testing.assert_array_equal(out["sum"], out["max"])

    def test_scores_align_to_matrix_ids(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(10, 3)))
        scores, _ = apply_rule("avg", m)
        assert scores.ids == m.ids

    def test_empty_subset_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)))
        with pytest.raises(ValidationError):
            apply_rule("sum", m.select([]))

    def test_unknown_model_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)))
        with pytest.raises(ValidationError):
            apply_rule("sum", m.select(["M7"]))

    def test_even_subset_majority_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 4)))
        with pytest.raises(ConstraintError):
            apply_rule("maj", m.select(["M1", "M2"]))

    def test_unknown_rule_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)))
        with pytest.raises(ValidationError):
            apply_rule("median", m)
