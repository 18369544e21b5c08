import numpy as np
import pytest

from predfuse import (ConstraintError, ValidationError, apply_rule,
                      assign_class, average_rule, harden, majority_vote,
                      max_rule, sum_rule)
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
        d = sum_rule([0.6, 0.3, 0.7])
        assert d.label == 1
        assert d.score == pytest.approx(1.6 / 3)
        assert sum_rule([0.5, 0.5]).label == 1  # boundary
        assert sum_rule([0.3]).label == assign_class(0.3, 0.5)
        assert sum_rule([0.8]).label == assign_class(0.8, 0.5)

    def test_average(self):
        assert average_rule([0.6, 0.3, 0.7]).label == 1
        assert average_rule([0.2, 0.2]).label == 0

    def test_max(self):
        assert max_rule([0.9, 0.2]).label == 1   # 0.9 >= 0.8
        assert max_rule([0.45, 0.45]).label == 0  # 0.45 < 0.55
        assert max_rule([0.5]).label == 1         # boundary tie

    def test_majority(self):
        assert majority_vote([0.9, 0.4, 0.3]).label == 0  # votes 1,0,0
        assert majority_vote([0.6, 0.7, 0.2]).label == 1  # votes 1,1,0

    def test_even_panel_rejected(self):
        with pytest.raises(ConstraintError):
            majority_vote([0.9, 0.4])

    def test_empty_vector_rejected(self):
        for rule in (sum_rule, average_rule, max_rule, majority_vote):
            with pytest.raises(ValidationError):
                rule([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            sum_rule([0.5, 1.2])


class TestRuleProperties:
    def test_avg_equals_sum_always(self, rng):
        for k in range(1, 8):
            p = rng.uniform(0, 1, size=(10_000, k))
            _, sum_labels = rule_scores("sum", p)
            _, avg_labels = rule_scores("avg", p)
            np.testing.assert_array_equal(sum_labels, avg_labels)
            for row in p[:200]:
                assert average_rule(row).label == sum_rule(row).label

    def test_max_equals_sum_for_two_models(self, rng):
        p = rng.uniform(0, 1, size=(10_000, 2))
        for row in p[:500]:
            assert max_rule(row).label == sum_rule(row).label
        # full draw, via the definitions directly
        assert (((p.max(axis=1) + p.min(axis=1)) >= 1.0) ==
                (p.mean(axis=1) >= 0.5)).all()

    def test_majority_equals_sum_on_hard_votes(self, rng):
        for k in (1, 3, 5, 7):
            p = rng.integers(0, 2, size=(300, k)).astype(float)
            for row in p:
                assert majority_vote(row).label == sum_rule(row).label

    def test_permutation_invariance(self, rng):
        for _ in range(100):
            k = int(rng.choice([1, 3, 5]))
            p = rng.uniform(0, 1, size=k)
            perm = rng.permutation(k)
            for rule in (sum_rule, average_rule, max_rule, majority_vote):
                assert rule(p).label == rule(p[perm]).label

    def test_all_rules_match_oracle(self, rng):
        for _ in range(2000):
            k = int(rng.integers(1, 8))
            p = rng.uniform(0, 1, size=k)
            assert sum_rule(p).label == oracle("sum", p)
            assert average_rule(p).label == oracle("avg", p)
            assert max_rule(p).label == oracle("max", p)
            if k % 2 == 1:
                assert majority_vote(p).label == oracle("maj", p)

    def test_score_hardens_to_label(self, rng):
        for _ in range(500):
            k = int(rng.choice([1, 3, 5, 7]))
            p = rng.uniform(0, 1, size=k)
            for rule in (sum_rule, average_rule, max_rule, majority_vote):
                d = rule(p)
                assert d.label == assign_class(d.score, 0.5)
                assert 0.0 <= d.score <= 1.0


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
