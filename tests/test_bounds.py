import math

import numpy as np
import pytest

from predfuse import (CombinerWeights, DegenerateWeightsError, TrainConfig,
                      train, weight_sum, weight_sum_bounds)
from predfuse.synth import SyntheticSpec, generate

from conftest import make_labels, make_matrix

REF_WEIGHTS_4 = (0.451013505, 0.589404309, 1.242073622, 0.346501002)


def weights_of(w, b=0.0, t=0.5):
    names = tuple(f"M{i + 1}" for i in range(len(w)))
    return CombinerWeights(names, np.asarray(w, dtype=float), b, t)


# Independent recomputation from the raw norm definitions, scalar Python only:
# harden everything with the >= t rule, take Euclidean norms, form the two
# fractions around the weight sum.
def oracle_bounds(w, b, t, x, u):
    total = sum(w)

    def hard(v):
        return 1 if v >= t else 0

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    hu = [hard(v) for v in u]
    hy, hyh = [], []
    for row in x:
        raw = sum(wi * pi for wi, pi in zip(w, row))
        hy.append(hard(sig(raw - b)))
        hyh.append(hard(sig(raw / total - b)))
    norm_u = math.sqrt(sum(c * c for c in hu))
    err_y = math.sqrt(sum((a - c) ** 2 for a, c in zip(hu, hy)))
    err_yhat = math.sqrt(sum((a - c) ** 2 for a, c in zip(hu, hyh)))
    lower = (norm_u - err_y) / (norm_u + err_yhat) if norm_u + err_yhat > 0 else -math.inf
    upper = math.inf if norm_u - err_yhat <= 0 else (norm_u + err_y) / (norm_u - err_yhat)
    return total, lower, upper


class TestWeightSum:
    def test_reference_four_model_row(self):
        assert weight_sum(weights_of(REF_WEIGHTS_4)) == pytest.approx(
            2.628992438, abs=1e-12)

    def test_all_zero(self):
        assert weight_sum(weights_of([0.0, 0.0, 0.0])) == 0.0

    def test_single_unit(self):
        assert weight_sum(weights_of([1.0])) == 1.0


class TestWeightSumBounds:
    def test_single_model_unit_weight_symmetric_errors(self, rng):
        # with w = [1] the normalized score equals the raw score exactly,
        # so both error terms coincide and W = 1 sits in the interval
        u = rng.integers(0, 2, size=400)
        noisy = np.where(rng.random(400) < 0.85, u, 1 - u).astype(float)
        p = np.clip(noisy * 0.8 + 0.1, 0, 1)  # 0.9 / 0.1 confidence levels
        m = make_matrix(p.reshape(-1, 1))
        labels = make_labels(u)
        rep = weight_sum_bounds(weights_of([1.0], b=0.5), m, labels)
        assert rep.err_y == rep.err_yhat
        assert rep.lower <= 1.0 <= rep.upper
        assert rep.contained

    def test_zero_error_interval_is_exactly_one_one(self):
        u = np.array([1, 0, 1, 0, 1, 1])
        m = make_matrix(np.column_stack([u, u]).astype(float))
        labels = make_labels(u)
        rep = weight_sum_bounds(weights_of([0.5, 0.5], b=0.5), m, labels)
        assert rep.err_y == 0.0 and rep.err_yhat == 0.0
        assert rep.lower == 1.0 and rep.upper == 1.0
        assert rep.contained  # W = 1 exactly

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(5, 120))
            w = rng.uniform(0.05, 2.0, size=k)
            b = float(rng.uniform(-0.5, 2.0))
            t = float(rng.uniform(0.1, 0.9))
            x = rng.uniform(0, 1, size=(n, k))
            u = rng.integers(0, 2, size=n)
            rep = weight_sum_bounds(weights_of(w, b, t), make_matrix(x),
                                    make_labels(u))
            total, lower, upper = oracle_bounds(w, b, t, x, u)
            assert rep.W == pytest.approx(total, abs=1e-12)
            if math.isinf(upper):
                assert rep.degenerate and math.isinf(rep.upper)
            else:
                assert rep.upper == pytest.approx(upper, abs=1e-12)
            if math.isinf(lower):
                assert math.isinf(rep.lower)
            else:
                assert rep.lower == pytest.approx(lower, abs=1e-12)

    def test_interval_brackets_one_when_errors_small(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(20, 100))
            w = rng.uniform(0.05, 2.0, size=k)
            b = float(rng.uniform(-0.5, 1.5))
            x = rng.uniform(0, 1, size=(n, k))
            u = rng.integers(0, 2, size=n)
            rep = weight_sum_bounds(weights_of(w, b), make_matrix(x), make_labels(u))
            if not rep.degenerate and rep.err_yhat < rep.norm_u:
                assert rep.lower <= 1.0 + 1e-12
                assert rep.upper >= 1.0 - 1e-12

    def test_report_recomputes_after_weight_change(self, rng):
        u = rng.integers(0, 2, size=50)
        x = np.clip(u[:, None] + rng.normal(0, 0.2, size=(50, 2)), 0, 1)
        m = make_matrix(x)
        labels = make_labels(u)
        w1 = weights_of([0.6, 0.8], b=0.7)
        rep1 = weight_sum_bounds(w1, m, labels)
        lam = 2.5
        w2 = weights_of([0.6 * lam, 0.8 * lam], b=0.7 * lam)
        rep2 = weight_sum_bounds(w2, m, labels)
        assert rep2.W == pytest.approx(lam * rep1.W, abs=1e-12)
        # scaling w and b together preserves the raw-score hardening, but
        # the normalized predictor moves, so the report cannot be a copy
        assert rep2 != rep1

    def test_zero_weights_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(10, 2)))
        labels = make_labels(rng.integers(0, 2, size=10))
        with pytest.raises(DegenerateWeightsError):
            weight_sum_bounds(weights_of([0.0, 0.0]), m, labels)

    def test_infinite_weight_sum_never_contained(self):
        # the weighted sums stay finite, so only W overflows; the degenerate
        # interval's upper end is inf too, which must not contain W = inf
        m = make_matrix([[0.1, 0.3], [0.2, 0.0], [0.3, 0.25]])
        with np.errstate(over="ignore"):
            rep = weight_sum_bounds(weights_of([1e308, 1e308]), m,
                                    make_labels([0, 1, 0]))
        assert (rep.W, rep.upper, rep.degenerate) == (math.inf, math.inf, True)
        assert rep.lower < 0 and not rep.contained

    def test_trained_single_model_combiners_contained(self):
        # structural expectation for decent single inputs: W inside interval
        for seed in range(5):
            labels, m = generate(SyntheticSpec(
                k=1, target_acc=(0.9,), rho=0.0, n=3000, seed=seed))
            result = train(m, labels, TrainConfig(epochs=40, seed=seed))
            rep = weight_sum_bounds(result.weights, m, labels)
            assert rep.contained, (seed, rep)
