import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from predfuse import (RULE_KINDS, CombinerWeights, ConstraintError,
                      HybridConfig, ProbSeries, ValidationError, accuracy,
                      apply_rule, harden, hybrid_predict, predict)
from predfuse.rules import rule_scores

from conftest import make_labels, make_matrix


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


def reference_labels(rule, p):
    """Each rule's decision as a formula of its own, apart from its score:
    the kernel hardens its score instead, and these check that it agrees."""
    if rule in ("sum", "avg"):
        return (p.mean(axis=1) >= 0.5).astype(np.int64)
    if rule == "max":
        return (p.max(axis=1) >= 1.0 - p.min(axis=1)).astype(np.int64)
    return (2 * (p >= 0.5).sum(axis=1) > p.shape[1]).astype(np.int64)  # maj


def labels_of(rule, p):
    return harden(rule_scores(rule, p))


class TestRuleExamples:
    def test_sum(self):
        scores = rule_scores("sum", np.array([[0.6, 0.3, 0.7]]))
        assert harden(scores).tolist() == [1]
        assert scores[0] == pytest.approx(1.6 / 3)
        assert labels_of("sum", np.array([[0.5, 0.5]])).tolist() == [1]  # boundary
        labels = labels_of("sum", np.array([[0.3], [0.8]]))
        np.testing.assert_array_equal(labels, harden([0.3, 0.8], 0.5))

    def test_average(self):
        assert labels_of("avg", np.array([[0.6, 0.3, 0.7]])).tolist() == [1]
        assert labels_of("avg", np.array([[0.2, 0.2]])).tolist() == [0]

    def test_max(self):
        labels = labels_of("max", np.array([[0.9, 0.2], [0.45, 0.45]]))
        assert labels.tolist() == [1, 0]  # 0.9 >= 0.8; 0.45 < 0.55
        assert labels_of("max", np.array([[0.5]])).tolist() == [1]  # boundary tie

    @pytest.mark.parametrize("row", [[0.75, 0.25 - 2**-53], [0.25 - 2**-53, 0.75]])
    def test_max_rounding_tie_scores_below_half(self, row):
        # hi0 = 0.75 + 2**-53 > hi1 = 0.75, but hi1 + hi0 rounds to 1.5
        scores = rule_scores("max", np.array([row]))
        assert harden(scores).tolist() == [0]
        assert scores.tolist() == [np.nextafter(0.5, 0.0)]

    def test_majority(self):
        labels = labels_of("maj", np.array([[0.9, 0.4, 0.3], [0.6, 0.7, 0.2]]))
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
            np.testing.assert_array_equal(labels_of("sum", p), labels_of("avg", p))

    def test_max_equals_sum_for_two_models(self, rng):
        p = rng.uniform(0, 1, size=(10_000, 2))
        np.testing.assert_array_equal(labels_of("max", p), labels_of("sum", p))
        # full draw, via the definitions directly
        assert (((p.max(axis=1) + p.min(axis=1)) >= 1.0) ==
                (p.mean(axis=1) >= 0.5)).all()

    def test_majority_equals_sum_on_hard_votes(self, rng):
        for k in (1, 3, 5, 7):
            p = rng.integers(0, 2, size=(300, k)).astype(float)
            np.testing.assert_array_equal(labels_of("maj", p), labels_of("sum", p))

    def test_permutation_invariance(self, rng):
        for k in (1, 3, 5):
            p = rng.uniform(0, 1, size=(100, k))
            perm = rng.permutation(k)
            for rule in RULE_KINDS:
                np.testing.assert_array_equal(labels_of(rule, p),
                                              labels_of(rule, p[:, perm]))

    def test_all_rules_match_oracle(self, rng):
        for k in range(1, 8):
            p = rng.uniform(0, 1, size=(300, k))
            for rule in RULE_KINDS if k % 2 == 1 else ("sum", "avg", "max"):
                labels = labels_of(rule, p)
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
            assert rule_scores("max", p).tobytes() == want.tobytes()

    def test_score_hardens_to_label(self, rng):
        for k in (1, 3, 5, 7):
            p = rng.uniform(0, 1, size=(125, k))
            for rule in RULE_KINDS:
                scores = rule_scores(rule, p)
                np.testing.assert_array_equal(harden(scores), reference_labels(rule, p))
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
            p = np.array([row])
            assert (harden(rule_scores(rule, p)).tolist()
                    == reference_labels(rule, p).tolist()), (rule, row)


def _moved(x: float, k: int) -> float:
    """``x`` moved ``k`` doubles up (``k > 0``) or down, kept in [0, 1]."""
    for _ in range(abs(k)):
        x = np.nextafter(x, 1.0 if k > 0 else 0.0)
    return float(x)


class TestApplyRule:
    def test_single_model_subset_is_hardened_column(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(50, 3)))
        labels = harden(apply_rule("sum", m.select(["M2"])).values)
        np.testing.assert_array_equal(labels, harden(m.column("M2").values, 0.5))

    def test_two_model_rules_agree(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(200, 2)))
        out = {rule: harden(apply_rule(rule, m).values) for rule in ("sum", "avg", "max")}
        np.testing.assert_array_equal(out["sum"], out["avg"])
        np.testing.assert_array_equal(out["sum"], out["max"])

    def test_scores_align_to_matrix_ids(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(10, 3)))
        assert apply_rule("avg", m).ids == m.ids

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


class TestOneOutputPerCombiner:
    @pytest.mark.parametrize("combine", [
        lambda m: predict(CombinerWeights(m.model_names, [0.5, 1.0, 2.0], 1.0), m),
        *(lambda m, rule=rule: apply_rule(rule, m) for rule in RULE_KINDS),
        lambda m: hybrid_predict(HybridConfig("M1", ("M2", "M3"), "max", 0.8), m).series,
    ], ids=["nn", *RULE_KINDS, "hybrid"])
    def test_returns_a_series_over_the_matrix_ids(self, rng, combine):
        m = make_matrix(rng.uniform(0, 1, size=(40, 3)))
        out = combine(m)
        assert isinstance(out, ProbSeries) and out.ids is m.ids
        labels = make_labels(rng.integers(0, 2, size=40))
        assert accuracy(out, labels) == (harden(out.values) == labels.values).mean()
