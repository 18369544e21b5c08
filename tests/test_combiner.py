import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from predfuse import (CombinerWeights, ConstraintError, TrainConfig,
                      ValidationError, accuracy, derive_seed, forward,
                      gradient, kfold_split, loss, predict, raw_score, train,
                      train_runs)
from predfuse.synth import SyntheticSpec, generate

from conftest import make_labels, make_matrix

REF_WEIGHTS_2 = (0.837207982, 0.92409282)
REF_WEIGHTS_234 = (0.451013505, 0.589404309, 1.242073622, 0.346501002)


def weights_of(w, b=0.0, t=0.5):
    names = tuple(f"M{i + 1}" for i in range(len(w)))
    return CombinerWeights(names, np.asarray(w, dtype=float), b, t)


# Independent scalar recomputation of the loss, pure Python math.
def oracle_loss(w, b, x, u, l2):
    eps = 1e-12
    total = 0.0
    for row, ui in zip(x, u):
        z = sum(wi * pi for wi, pi in zip(w, row)) - b
        yhat = 1.0 / (1.0 + math.exp(-z))
        yhat = min(max(yhat, eps), 1.0 - eps)
        total += -(ui * math.log(yhat) + (1 - ui) * math.log(1.0 - yhat))
    return total / len(u) + l2 * sum(wi * wi for wi in w)


def fd_gradient(names, w, b, matrix, labels, l2, h=1e-5):
    out = []
    for i in range(len(w)):
        wp, wm = np.array(w), np.array(w)
        wp[i] += h
        wm[i] -= h
        out.append((loss(CombinerWeights(names, wp, b), matrix, labels, l2)
                    - loss(CombinerWeights(names, wm, b), matrix, labels, l2))
                   / (2 * h))
    out.append((loss(CombinerWeights(names, np.array(w), b + h), matrix, labels, l2)
                - loss(CombinerWeights(names, np.array(w), b - h), matrix, labels, l2))
               / (2 * h))
    return np.asarray(out)


class TestForwardPath:
    def test_zero_weights_score(self):
        assert raw_score(weights_of([0.0, 0.0]), [0.3, 0.9]) == 0.0

    def test_reference_weight_row_sums(self):
        got = raw_score(weights_of(REF_WEIGHTS_2), [1.0, 1.0])
        assert got == pytest.approx(1.761300802, abs=1e-12)

    def test_joint_permutation_invariance(self, rng):
        w = rng.uniform(0, 2, size=5)
        p = rng.uniform(0, 1, size=5)
        perm = rng.permutation(5)
        assert raw_score(weights_of(w), p) == pytest.approx(
            raw_score(weights_of(w[perm]), p[perm]), abs=1e-12)

    def test_forward_at_origin(self):
        assert forward(weights_of([0.0, 0.0], b=0.0), [0.2, 0.8]) == 0.5

    def test_forward_reference_row(self):
        got = forward(weights_of(REF_WEIGHTS_2, b=0.0), [1.0, 1.0])
        assert got == pytest.approx(0.8533725016187753, abs=1e-12)

    def test_forward_monotone_in_each_input(self, rng):
        w = weights_of(rng.uniform(0, 2, size=3), b=0.7)
        p = rng.uniform(0.1, 0.9, size=3)
        base = forward(w, p)
        for i in range(3):
            q = p.copy()
            q[i] += 0.05
            assert forward(w, q) >= base

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            raw_score(weights_of([1.0, 1.0]), [0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConstraintError):
            weights_of([0.5, -0.1])

    def test_predict_matches_forward_per_sample(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(7, 2)))
        w = weights_of(rng.uniform(0, 2, size=2), b=0.9)
        series = predict(w, m)
        for i in range(7):
            assert series.values[i] == pytest.approx(forward(w, m.values[i]), abs=1e-15)

    def test_predict_matches_hand_computation_on_reference_weights(self):
        m = make_matrix([[1.0, 1.0], [0.0, 0.0], [0.5, 0.25]])
        w = weights_of(REF_WEIGHTS_2, b=0.5)
        got = predict(w, m).values
        for i, row in enumerate(m.values):
            z = sum(wi * pi for wi, pi in zip(REF_WEIGHTS_2, row)) - 0.5
            assert got[i] == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)

    def test_predict_ignores_column_order(self, rng):
        vals = rng.uniform(0, 1, size=(20, 3))
        m = make_matrix(vals, names=("A", "B", "C"))
        m_perm = m.select(["C", "A", "B"])
        w = CombinerWeights(("A", "B", "C"), rng.uniform(0, 1, size=3), 0.4)
        np.testing.assert_array_equal(predict(w, m).values, predict(w, m_perm).values)

    def test_predict_missing_column(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)))
        w = CombinerWeights(("M1", "M9"), [0.5, 0.5], 0.0)
        with pytest.raises(ValidationError):
            predict(w, m)


class TestLoss:
    def test_uninformative_forward_gives_ln2(self):
        m = make_matrix([[0.2], [0.8], [0.5]])
        labels = make_labels([1, 0, 1])
        w = weights_of([0.0], b=0.0)
        assert loss(w, m, labels, l2=0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_perfect_confident_predictions_leave_only_l2(self):
        labels = make_labels([1, 0, 1, 0])
        m = make_matrix([[1.0], [0.0], [1.0], [0.0]])
        w = weights_of([20.0], b=10.0)
        l2 = 0.039
        assert loss(w, m, labels, l2=l2) == pytest.approx(l2 * 400.0, abs=1e-3)

    def test_matches_independent_scalar_recomputation(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(2, 30))
            x = rng.uniform(0, 1, size=(n, k))
            u = rng.integers(0, 2, size=n)
            w = rng.uniform(0, 2, size=k)
            b = float(rng.uniform(-1, 2))
            l2 = float(rng.uniform(0, 0.1))
            # canonical id sort must not change the value: ids are unordered
            got = loss(weights_of(w, b), make_matrix(x), make_labels(u), l2)
            want = oracle_loss(w, b, x, u, l2)
            assert got == pytest.approx(want, abs=1e-12)


class TestGradient:
    def test_matches_central_finite_differences(self, rng):
        worst = 0.0
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(5, 201))
            m = make_matrix(rng.uniform(0, 1, size=(n, k)))
            labels = make_labels(rng.integers(0, 2, size=n))
            w = rng.uniform(0.1, 2.0, size=k)
            b = float(rng.uniform(-1, 1))
            l2 = float(rng.uniform(0, 0.1))
            analytic = gradient(weights_of(w, b), m, labels, l2)
            fd = fd_gradient(tuple(f"M{i+1}" for i in range(k)), w, b, m, labels, l2)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-4

    def test_l2_contribution_is_exactly_linear(self, rng):
        k = 3
        m = make_matrix(rng.uniform(0, 1, size=(20, k)))
        labels = make_labels(rng.integers(0, 2, size=20))
        w = rng.uniform(0.2, 1.5, size=k)
        cw = weights_of(w, b=0.3)
        diff = gradient(cw, m, labels, l2=0.25) - gradient(cw, m, labels, l2=0.0)
        np.testing.assert_allclose(diff[:k], 2 * 0.25 * w, atol=1e-15)
        assert diff[k] == 0.0  # the shift is not penalized

    def test_zero_at_unconstrained_minimum(self, rng):
        # informative columns keep the unconstrained optimum interior (w > 0)
        k, n = 2, 120
        u = rng.integers(0, 2, size=n)
        x = np.clip(u[:, None] + rng.normal(0, 0.2, size=(n, k)), 0, 1)
        m = make_matrix(x)
        labels = make_labels(u)
        l2 = 0.05

        def f(params):
            return loss(weights_of(np.abs(params[:k]), params[k]), m, labels, l2)

        res = minimize(f, x0=np.array([0.5, 0.5, 0.2]), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000})
        w_opt = np.abs(res.x[:k])
        assert (w_opt > 0.01).all()  # interior, not pinned at the constraint
        g = gradient(weights_of(w_opt, res.x[k]), m, labels, l2)
        assert np.linalg.norm(g) < 1e-5


class TestTrain:
    def test_perfect_single_column_reaches_full_accuracy(self, rng):
        u = rng.integers(0, 2, size=120)
        labels = make_labels(u)
        m = make_matrix(u.reshape(-1, 1).astype(float))
        result = train(m, labels, TrainConfig(epochs=30, seed=5))
        assert accuracy(predict(result.weights, m), labels) == 1.0
        assert not result.degenerate_labels

    def test_uninformative_columns_stay_at_chance(self):
        n = 100
        labels = make_labels([1, 0] * (n // 2))
        m = make_matrix(np.full((n, 2), 0.5))
        result = train(m, labels, TrainConfig(epochs=40, seed=3))
        out = predict(result.weights, m)
        assert abs(out.values.mean() - 0.5) < 0.05
        assert accuracy(out, labels) == 0.5

    def test_synthetic_suite_beats_090(self):
        test_labels, test_m = generate(SyntheticSpec(
            k=3, target_acc=(0.85, 0.88, 0.90), rho=0.3, n=10_000, seed=999))
        accs = []
        for seed in range(10):
            labels, m = generate(SyntheticSpec(
                k=3, target_acc=(0.85, 0.88, 0.90), rho=0.3, n=5_000, seed=seed))
            result = train(m, labels, TrainConfig(epochs=40, seed=seed))
            accs.append(accuracy(predict(result.weights, test_m), test_labels))
        assert np.mean(accs) > 0.90

    def test_deterministic_replay_is_bit_identical(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(80, 3)))
        labels = make_labels(rng.integers(0, 2, size=80))
        cfg = TrainConfig(epochs=15, seed=42)
        a = train(m, labels, cfg)
        b = train(m, labels, cfg)
        np.testing.assert_array_equal(a.weights.w, b.weights.w)
        assert a.weights.b == b.weights.b

    def test_weights_stay_nonnegative_every_step(self, rng):
        # a strongly anti-correlated column forces the projection to clip
        u = rng.integers(0, 2, size=200)
        flipped = np.clip(1.0 - u + rng.normal(0, 0.05, size=200), 0, 1)
        aligned = np.clip(u + rng.normal(0, 0.05, size=200), 0, 1)
        m = make_matrix(np.column_stack([flipped, aligned]))
        labels = make_labels(u)
        seen = []
        result = train(m, labels, TrainConfig(learning_rate=0.05, epochs=20, seed=7),
                       callback=lambda step, w, b: seen.append(w.min()))
        assert min(seen) >= 0.0
        assert (result.weights.w >= 0).all()
        assert result.clipped_any

    def test_pinned_weights_and_shift(self):
        # Pinned bits (numpy's bundled OpenBLAS on x86-64; another BLAS may
        # round differently): any drift in the training loop, the gradient
        # kernel or ADAM changes them.  C is anti-correlated with the labels,
        # so the projection clips.
        ids = tuple(f"s{i}" for i in range(12))
        u = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1]
        a = [0.9, 0.2, 0.7, 0.8, 0.3, 0.1, 0.6, 0.4, 0.9, 0.7, 0.2, 0.8]
        b = [0.5 + (0.3 if x else -0.2) * (i % 3 - 1) for i, x in enumerate(u)]
        m = make_matrix(np.column_stack([a, b, [1.0 - x for x in a]]), ids=ids,
                        names=("A", "B", "C"))
        result = train(m, make_labels(u, ids=ids),
                       TrainConfig(learning_rate=0.05, epochs=15, batch_size=5, seed=2))
        assert hashlib.sha256(result.weights.w.tobytes()).hexdigest() == (
            "599e3aa990640054c044f9040991bc96ed915cfe895a72c840995f17fd94a0c8")
        assert result.weights.b.hex() == "0x1.189734678a181p-2"
        assert result.clipped_any

    def test_label_permutation_equivariance(self, rng):
        n = 60
        ids = tuple(f"s{i}" for i in range(n))
        vals = rng.uniform(0, 1, size=(n, 2))
        u = rng.integers(0, 2, size=n)
        cfg = TrainConfig(epochs=10, seed=11)
        a = train(make_matrix(vals, ids=ids), make_labels(u, ids=ids), cfg)
        perm = rng.permutation(n)
        b = train(make_matrix(vals[perm], ids=[ids[i] for i in perm]),
                  make_labels(u[perm], ids=[ids[i] for i in perm]), cfg)
        np.testing.assert_array_equal(a.weights.w, b.weights.w)
        assert a.weights.b == b.weights.b

    def test_degenerate_labels_flagged_not_fatal(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(30, 2)))
        labels = make_labels(np.ones(30, dtype=int))
        result = train(m, labels, TrainConfig(epochs=3, seed=1))
        assert result.degenerate_labels

    def test_too_few_samples_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(3, 3)))
        labels = make_labels([1, 0, 1])
        with pytest.raises(ValidationError):
            train(m, labels, TrainConfig(epochs=1))


class TestTrainRuns:
    """Lock-step training equals one separate train() call per run, bit for bit."""

    @staticmethod
    def folds_and_runs(n, n_folds, repeats, **cfg):
        labels, m = generate(SyntheticSpec(
            k=3, target_acc=(0.55, 0.8, 0.9), rho=0.3, n=n, seed=5))
        split = kfold_split(m.ids, n_folds, seed=1)
        folds = [(m.restrict(ids), labels.restrict(ids)) for ids in split.folds]
        runs = [(f, TrainConfig(seed=derive_seed(0, f, r), **cfg))
                for f in range(n_folds) for r in range(repeats)]
        return folds, runs

    @staticmethod
    def assert_bit_identical(folds, runs, t=0.5):
        results = train_runs(folds, runs, t=t)
        assert len(results) == len(runs)
        for (f, cfg), got in zip(runs, results):
            want = train(*folds[f], cfg, t=t)
            assert got.weights.w.tobytes() == want.weights.w.tobytes()
            assert got.weights.b.hex() == want.weights.b.hex()
            assert got.clipped_any == want.clipped_any
            assert got.degenerate_labels == want.degenerate_labels
            assert got.config == cfg
            assert (got.weights.model_names, got.weights.t) == (
                want.weights.model_names, want.weights.t)
        return results

    def test_two_fold_sizes_ragged_batches_and_mixed_clipping(self):
        # 1,003 rows in 5 folds: sizes 201, 201, 201, 200, 200, so two
        # lock-step groups; batch 24 divides neither size.
        folds, runs = self.folds_and_runs(1003, 5, 2, learning_rate=0.02,
                                          epochs=4, batch_size=24)
        assert sorted({len(m.ids) for m, _ in folds}) == [200, 201]
        results = self.assert_bit_identical(folds, runs, t=0.4)
        for size in (200, 201):
            flags = {r.clipped_any for (f, _), r in zip(runs, results)
                     if len(folds[f][0].ids) == size}
            assert flags == {True, False}  # a clipping run beside one that does not

    def test_without_shuffling(self):
        folds, runs = self.folds_and_runs(303, 3, 2, learning_rate=0.02,
                                          epochs=3, batch_size=16,
                                          shuffle_each_epoch=False)
        self.assert_bit_identical(folds, runs)

    def test_runs_in_any_order_over_a_subset_of_folds(self):
        folds, runs = self.folds_and_runs(250, 4, 2, epochs=2)
        self.assert_bit_identical(folds, [runs[5], runs[0], runs[4]])

    def test_hyperparameters_beside_the_seed_must_match(self):
        folds, runs = self.folds_and_runs(200, 2, 1, epochs=2)
        f, cfg = runs[1]
        with pytest.raises(ValidationError, match="share every hyperparameter"):
            train_runs(folds, [runs[0], (f, replace(cfg, l2=0.0))])

    def test_folds_must_name_the_same_models(self):
        folds, runs = self.folds_and_runs(200, 2, 1, epochs=2)
        m, labels = folds[1]
        folds[1] = (m.select(["M2", "M1", "M3"]), labels)
        with pytest.raises(ValidationError, match="same models"):
            train_runs(folds, runs)
