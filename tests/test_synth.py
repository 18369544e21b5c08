import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from predfuse import (ValidationError, accuracy, core, harden,
                      estimate_error_correlation, generate, inv_norm_cdf,
                      sigmoid)
from predfuse.synth import SyntheticSpec

from conftest import make_labels, make_matrix, traced_peak


# Independent oracle: bisection on the erf-based normal CDF.
def bisect_quantile(q, lo=-12.0, hi=12.0):
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# Reference: the generator written out of place, one full-size temporary per
# operation, as the module formula reads.
def reference_box_muller(rng, size):
    half = (size + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2),
                           r * np.sin(2.0 * np.pi * u2)])[:size]


def reference_generate(spec):
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n, k = spec.n, spec.k
    u = (rng.random(n) < spec.balance).astype(np.int64)
    s = 2.0 * u - 1.0
    g = reference_box_muller(rng, n)
    e = reference_box_muller(rng, n * k).reshape(n, k)
    mu = np.array([inv_norm_cdf(a) for a in spec.target_acc])
    z = mu[None, :] * s[:, None] + math.sqrt(spec.rho) * g[:, None] \
        + math.sqrt(1.0 - spec.rho) * e
    return u, sigmoid(spec.sharpness * z)


def _bits_or_error(draw):
    """The label and value bits ``draw()`` returns, or its error text.  A
    huge sharpness overflows to inf, which both generators report."""
    try:
        with np.errstate(over="ignore"):
            u, probs = draw()
    except ValidationError as exc:
        return str(exc)
    return u.dtype, u.tobytes(), probs.shape, probs.dtype, probs.tobytes()


class TestInvNormCdf:
    def test_median_is_zero(self):
        assert inv_norm_cdf(0.5) == 0.0

    def test_hand_bisected_point(self):
        # bisection oracle for q = 0.8413 gives 0.9998150936147445
        assert inv_norm_cdf(0.8413) == pytest.approx(0.9998150936147445, abs=1e-9)

    def test_09_quantile(self):
        assert inv_norm_cdf(0.9) == pytest.approx(1.2815515655446004, abs=1e-9)

    def test_symmetry(self, rng):
        for q in rng.uniform(0.001, 0.999, size=30):
            assert inv_norm_cdf(1.0 - q) == pytest.approx(-inv_norm_cdf(q), abs=1e-10)

    def test_against_bisection_oracle(self, rng):
        for q in np.concatenate([rng.uniform(1e-6, 1 - 1e-6, size=50),
                                 [0.001, 0.024, 0.025, 0.5, 0.975, 0.999]]):
            assert abs(inv_norm_cdf(float(q)) - bisect_quantile(float(q))) < 1e-9

    def test_against_scipy(self, rng):
        for q in rng.uniform(1e-5, 1 - 1e-5, size=200):
            assert inv_norm_cdf(float(q)) == pytest.approx(float(ndtri(q)), abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValidationError):
            inv_norm_cdf(bad)


class TestSyntheticSpec:
    def test_target_count_must_match_k(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(k=2, target_acc=(0.8,))

    def test_accuracy_cap(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(k=1, target_acc=(0.9995,))
        with pytest.raises(ValidationError):
            SyntheticSpec(k=1, target_acc=(0.4,))
        SyntheticSpec(k=1, target_acc=(0.5,))  # fair coin is allowed

    def test_rho_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(k=1, target_acc=(0.8,), rho=1.0)

    @pytest.mark.parametrize("fields, message", [
        (dict(k=0, target_acc=()), "need at least one model"),
        (dict(k=1, target_acc=(0.8,), n=0), "sample count must be positive"),
        (dict(k=1, target_acc=(0.8,), balance=1.5), "balance must lie in [0, 1]"),
    ], ids=["k", "n", "balance"])
    def test_rejected_with_its_message(self, fields, message):
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(**fields)
        assert str(err.value) == message

    def test_sample_count_ceiling(self):
        assert SyntheticSpec(k=1, target_acc=(0.8,), n=10_000_000).n == 10_000_000
        with pytest.raises(ValidationError) as err:
            SyntheticSpec(k=1, target_acc=(0.8,), n=10_000_001)
        assert str(err.value) == "sample count 10000001 is more than 10000000"


class TestGenerate:
    def test_deterministic_bitwise(self):
        spec = SyntheticSpec(k=3, target_acc=(0.8, 0.85, 0.9), rho=0.4,
                             n=500, seed=77)
        la, ma = generate(spec)
        lb, mb = generate(spec)
        assert la.ids == lb.ids
        np.testing.assert_array_equal(la.values, lb.values)
        np.testing.assert_array_equal(ma.values, mb.values)

    @given(n=st.integers(1, 300), k=st.integers(1, 6),
           acc=st.lists(st.floats(0.5, 0.999), min_size=6, max_size=6),
           rho=st.floats(0.0, 0.999), balance=st.floats(0.0, 1.0),
           sharpness=st.floats(0.01, 50.0) | st.sampled_from([1e300, 1e308]),
           seed=st.integers(0, 2**63))
    def test_bits_match_the_out_of_place_reference(self, n, k, acc, rho,
                                                   balance, sharpness, seed):
        spec = SyntheticSpec(k=k, target_acc=tuple(acc[:k]), rho=rho, n=n,
                             balance=balance, sharpness=sharpness, seed=seed)

        def drawn():
            labels, matrix = generate(spec)
            assert labels.ids == tuple(f"{j:0{len(str(n - 1))}d}" for j in range(n))
            return labels.values, np.ascontiguousarray(matrix.values)
        assert _bits_or_error(drawn) == _bits_or_error(lambda: reference_generate(spec))

    def test_draws_in_place(self):
        """n = 50k, K = 5: the bound sits between drawing in place (8.3 MB
        peak, most of it the ids and their one check) and one full-size
        temporary per operation (16.3 MB peak)."""
        spec = SyntheticSpec(k=5, target_acc=(0.8, 0.85, 0.9, 0.87, 0.83),
                             n=50_000, seed=0)
        (labels, matrix), peak, _ = traced_peak(lambda: generate(spec))
        assert matrix.values.shape == (50_000, 5)
        assert peak < 1.0e7, peak

    def test_ids_are_built_checked(self, monkeypatch):
        """The zero-padded decimal ids are built as their bytes, unique by
        construction, so no check of them runs."""
        checks = []
        real = core._check_ids
        monkeypatch.setattr(core, "_check_ids",
                            lambda ids: checks.append(ids) or real(ids))
        labels, matrix = generate(SyntheticSpec(k=2, target_acc=(0.7, 0.8),
                                                n=12, seed=1))
        assert checks == []
        assert type(labels.ids) is core.SampleIds and matrix.ids is labels.ids
        assert labels.ids == tuple(f"{j:02d}" for j in range(12))

    def test_coin_flip_target(self):
        labels, m = generate(SyntheticSpec(k=1, target_acc=(0.5,), n=20_000,
                                           seed=5))
        acc = accuracy(m.column("M1"), labels)
        assert abs(acc - 0.5) < 3 * math.sqrt(0.25 / 20_000)

    def test_calibration_within_binomial_band(self):
        targets = (0.85, 0.9, 0.95)
        for seed in (0, 1, 2, 3, 4):
            labels, m = generate(SyntheticSpec(k=3, target_acc=targets,
                                               rho=0.3, n=50_000, seed=seed))
            for name, a in zip(m.model_names, targets):
                emp = accuracy(m.column(name), labels)
                band = 3 * math.sqrt(a * (1 - a) / 50_000)
                assert abs(emp - a) <= band, (seed, name, emp, a)

    def test_calibration_independent_of_rho_and_sharpness(self):
        targets = (0.88,)
        accs = []
        for rho, gamma in ((0.0, 0.5), (0.6, 2.0), (0.9, 8.0)):
            labels, m = generate(SyntheticSpec(k=1, target_acc=targets, rho=rho,
                                               n=50_000, sharpness=gamma, seed=11))
            accs.append(accuracy(m.column("M1"), labels))
        band = 3 * math.sqrt(0.88 * 0.12 / 50_000)
        assert all(abs(a - 0.88) <= band for a in accs)

    def test_sharpness_leaves_hardened_labels_unchanged(self):
        base = dict(k=2, target_acc=(0.8, 0.9), rho=0.3, n=2_000, seed=21)
        _, m1 = generate(SyntheticSpec(sharpness=0.7, **base))
        _, m2 = generate(SyntheticSpec(sharpness=5.0, **base))
        np.testing.assert_array_equal(harden(m1.values, 0.5), harden(m2.values, 0.5))

    def test_model_names_autoassigned(self):
        _, m = generate(SyntheticSpec(k=2, target_acc=(0.8, 0.8), n=10, seed=0))
        assert m.model_names == ("M1", "M2")


class TestErrorCorrelation:
    def test_duplicated_column_fully_correlated(self, rng):
        u = rng.integers(0, 2, size=300)
        col = np.clip(u + rng.normal(0, 0.4, size=300), 0, 1)
        m = make_matrix(np.column_stack([col, col]))
        corr = estimate_error_correlation(m, make_labels(u))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_always_one(self, rng):
        labels, m = generate(SyntheticSpec(k=4, target_acc=(0.8,) * 4, n=500,
                                           seed=3))
        corr = estimate_error_correlation(m, labels)
        np.testing.assert_array_equal(np.diag(corr), np.ones(4))

    def test_independent_suite_near_zero(self):
        labels, m = generate(SyntheticSpec(k=3, target_acc=(0.85, 0.9, 0.8),
                                           rho=0.0, n=100_000, seed=9))
        corr = estimate_error_correlation(m, labels)
        off = corr[~np.eye(3, dtype=bool)]
        assert (np.abs(off) < 0.02).all()

    def test_correlation_monotone_in_rho(self):
        means = []
        for rho in (0.0, 0.3, 0.6):
            vals = []
            for seed in range(3):
                labels, m = generate(SyntheticSpec(
                    k=3, target_acc=(0.85, 0.88, 0.9), rho=rho, n=30_000,
                    seed=seed))
                corr = estimate_error_correlation(m, labels)
                vals.append(corr[~np.eye(3, dtype=bool)].mean())
            means.append(np.mean(vals))
        assert means[0] < means[1] < means[2]

    def test_constant_error_column_is_nan_sentinel(self):
        u = np.array([1, 0, 1, 0])
        perfect = u.astype(float)
        noisy = np.array([0.9, 0.8, 0.7, 0.1])
        m = make_matrix(np.column_stack([perfect, noisy]))
        corr = estimate_error_correlation(m, make_labels(u))
        assert math.isnan(corr[0, 1]) and math.isnan(corr[1, 0])
        assert corr[0, 0] == 1.0
