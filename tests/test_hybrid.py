import numpy as np
import pytest

from predfuse import (ConstraintError, HybridConfig, ValidationError, accuracy,
                      default_theta_grid, harden, hybrid_predict, theta_sweep)

from conftest import make_labels, make_matrix


class TestConfidence:
    @pytest.mark.parametrize("p,want", [(0.5, 0.5), (0.95, 0.95), (0.1, 0.9)])
    def test_symmetric_distance_from_boundary(self, p, want):
        # the base is kept exactly while its confidence, max(p, 1-p), is
        # at least theta
        m = make_matrix([[p, 0.5]], names=("B", "A"))
        for theta in (np.nextafter(want, 0), want, np.nextafter(want, 1)):
            if 0.5 < theta < 1:
                pred = hybrid_predict(HybridConfig("B", ("A",), "sum", theta), m)
                assert pred.fallback.tolist() == [theta > want]


class TestHybridConfig:
    def test_theta_must_be_strictly_inside(self):
        for theta in (0.5, 1.0, 0.2, 1.5):
            with pytest.raises(ConstraintError):
                HybridConfig("M1", ("M2",), "sum", theta)

    def test_base_disjoint_from_aux(self):
        with pytest.raises(ValidationError):
            HybridConfig("M1", ("M1", "M2"), "sum", 0.9)

    def test_empty_aux_rejected(self):
        with pytest.raises(ValidationError):
            HybridConfig("M1", (), "sum", 0.9)

    def test_even_aux_majority_rejected(self):
        with pytest.raises(ConstraintError):
            HybridConfig("M1", ("M2", "M3"), "maj", 0.9)


class TestHybridPredict:
    def test_confident_base_is_used(self):
        m = make_matrix([[0.95, 0.2, 0.3]], names=("B", "A1", "A2"))
        pred = hybrid_predict(HybridConfig("B", ("A1", "A2"), "max", 0.91), m)
        assert pred.fallback.tolist() == [False]
        assert pred.series.values.tolist() == [0.95]
        assert harden(pred.series.values).tolist() == [1]

    def test_unconfident_base_falls_back_to_rule(self):
        # base conf 0.6 < 0.91; max rule over [0.2, 0.3]: 0.3 < 0.8 -> class 0
        m = make_matrix([[0.6, 0.2, 0.3]], names=("B", "A1", "A2"))
        pred = hybrid_predict(HybridConfig("B", ("A1", "A2"), "max", 0.91), m)
        assert pred.fallback.tolist() == [True]
        assert pred.series.values.tolist() == [0.3 / (0.3 + (1.0 - 0.2))]
        assert harden(pred.series.values).tolist() == [0]

    def test_theta_near_half_keeps_base_everywhere(self, rng):
        vals = rng.uniform(0, 1, size=(100, 3))
        vals[:, 0] = np.where(vals[:, 0] > 0.5, np.maximum(vals[:, 0], 0.52),
                              np.minimum(vals[:, 0], 0.48))
        m = make_matrix(vals, names=("B", "A1", "A2"))
        pred = hybrid_predict(HybridConfig("B", ("A1", "A2"), "sum", 0.51), m)
        assert not pred.fallback.any()
        np.testing.assert_array_equal(pred.series.values, vals[:, 0])
        np.testing.assert_array_equal(harden(pred.series.values), harden(vals[:, 0], 0.5))

    def test_sources_partition_the_samples(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(200, 3)), names=("B", "A1", "A2"))
        pred = hybrid_predict(HybridConfig("B", ("A1", "A2"), "sum", 0.8), m)
        assert pred.fallback.dtype == bool and pred.fallback.shape == (200,)
        base = m.values[:, 0]
        np.testing.assert_array_equal(pred.fallback, np.maximum(base, 1 - base) < 0.8)

    def test_fallback_volume_monotone_in_theta(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(300, 3)), names=("B", "A1", "A2"))
        fracs = [hybrid_predict(HybridConfig("B", ("A1", "A2"), "sum", th),
                                m).fallback_fraction
                 for th in (0.55, 0.7, 0.85, 0.99)]
        assert fracs == sorted(fracs)

    def test_single_aux_makes_rule_irrelevant(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(150, 2)), names=("B", "A"))
        outs = [hybrid_predict(HybridConfig("B", ("A",), rule, 0.9), m).series.values
                for rule in ("sum", "avg", "max", "maj")]
        outs = [harden(scores) for scores in outs]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)

    def test_missing_model_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)), names=("B", "A"))
        with pytest.raises(ValidationError):
            hybrid_predict(HybridConfig("B", ("Q",), "sum", 0.9), m)

    def test_output_probs_harden_to_labels(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(120, 4)),
                        names=("B", "A1", "A2", "A3"))
        pred = hybrid_predict(HybridConfig("B", ("A1", "A2", "A3"), "maj", 0.85), m)
        base, aux, fallback = m.values[:, 0], m.values[:, 1:], pred.fallback
        np.testing.assert_array_equal(fallback, np.maximum(base, 1 - base) < 0.85)
        # the base's label where it is kept, else the majority of A1..A3
        want = np.where(fallback, 2 * (aux >= 0.5).sum(axis=1) > 3, base >= 0.5)
        np.testing.assert_array_equal(harden(pred.series.values), want)


class TestThetaSweep:
    def test_default_grid_shape(self):
        grid = default_theta_grid()
        assert len(grid) == 49
        assert grid[0] == 0.51 and grid[-1] == 0.99

    def test_perfect_base_ties_resolve_to_smallest_theta(self):
        u = [1, 0, 1, 0]
        m = make_matrix([[0.9, 0.5], [0.1, 0.5], [0.8, 0.5], [0.2, 0.5]],
                        names=("B", "A"))
        sweep = theta_sweep("B", ("A",), "sum", m, make_labels(u),
                            grid=[0.6, 0.75, 0.9])
        assert sweep.best_theta == 0.6
        assert sweep.best_accuracy == 1.0

    def test_aux_rescue_pushes_theta_above_error_confidence(self):
        # one base error at confidence 0.55; a correct auxiliary rescues it
        # once theta rises strictly above 0.55
        u = [1, 1, 0, 0]
        m = make_matrix([[0.95, 1.0], [0.45, 0.9], [0.05, 0.0], [0.30, 0.1]],
                        names=("B", "A"))
        labels = make_labels(u)
        sweep = theta_sweep("B", ("A",), "sum", m, labels,
                            grid=[round(0.51 + 0.01 * i, 2) for i in range(49)])
        assert sweep.best_theta == 0.56
        assert sweep.best_accuracy == 1.0
        by_theta = dict((th, acc) for th, acc, _ in sweep.rows)
        assert by_theta[0.55] == 0.75 and by_theta[0.56] == 1.0

    def test_sweep_maximum_at_least_pure_base(self, rng):
        for seed in range(5):
            local = np.random.Generator(np.random.PCG64(seed))
            vals = local.uniform(0, 1, size=(200, 3))
            u = local.integers(0, 2, size=200)
            m = make_matrix(vals, names=("B", "A1", "A2"))
            labels = make_labels(u)
            sweep = theta_sweep("B", ("A1", "A2"), "sum", m, labels)
            base_acc = accuracy(m.column("B"), labels)
            # structural guarantee whenever the smallest grid point keeps
            # every sample on the base model
            if min(np.maximum(vals[:, 0], 1 - vals[:, 0])) >= 0.51:
                assert sweep.best_accuracy >= base_acc

    def test_reports_fallback_fraction(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(50, 2)), names=("B", "A"))
        labels = make_labels(rng.integers(0, 2, size=50))
        sweep = theta_sweep("B", ("A",), "sum", m, labels, grid=[0.6, 0.9])
        fracs = {th: fb for th, _, fb in sweep.rows}
        assert 0.0 <= fracs[0.6] <= fracs[0.9] <= 1.0

    def test_empty_grid_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)), names=("B", "A"))
        with pytest.raises(ValidationError):
            theta_sweep("B", ("A",), "sum", m, make_labels([1, 0, 1, 0, 1]), grid=[])

    def test_out_of_range_grid_rejected(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(5, 2)), names=("B", "A"))
        with pytest.raises(ConstraintError):
            theta_sweep("B", ("A",), "sum", m, make_labels([1, 0, 1, 0, 1]),
                        grid=[0.4, 0.6])

    def test_tsv_renders_one_row_per_theta(self, rng):
        m = make_matrix(rng.uniform(0, 1, size=(30, 2)), names=("B", "A"))
        labels = make_labels(rng.integers(0, 2, size=30))
        sweep = theta_sweep("B", ("A",), "sum", m, labels)
        lines = sweep.to_tsv().strip().splitlines()
        assert lines[0] == "theta\taccuracy\tfallback_fraction"
        assert len(lines) == 1 + 49
