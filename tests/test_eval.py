import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfuse import (AlignmentError, BoundReport, ConstraintError,
                      EvalReport, HybridConfig, HybridMethod, LabelVector, NNMethod,
                      RuleMethod, RunPlan, RunRecord, TrainConfig,
                      ValidationError, accuracy, core, cross_validate,
                      derive_seed, evaluate, hybrid, hybrid_predict,
                      kfold_split, mean_stdev, predict, report_render,
                      theta_sweep, train)
from predfuse.synth import SyntheticSpec, generate

FAST_NN = NNMethod(config=TrainConfig(epochs=3, seed=0))


def small_suite(n_train=120, n_test=400, k=3, seed=0):
    spec = dict(k=k, target_acc=(0.8, 0.85, 0.9)[:k], rho=0.2)
    train_u, train_m = generate(SyntheticSpec(n=n_train, seed=seed, **spec))
    test_u, test_m = generate(SyntheticSpec(n=n_test, seed=seed + 5000, **spec))
    return train_m, train_u, test_m, test_u


class TestKFold:
    def test_five_folds_of_five_thousand(self):
        ids = [f"{i:05d}" for i in range(25_000)]
        split = kfold_split(ids, 5, seed=1)
        assert [len(f) for f in split] == [5000] * 5
        assert set().union(*map(set, split)) == set(ids)

    def test_uneven_sizes_balanced(self):
        split = kfold_split([str(i) for i in range(10)], 3, seed=0)
        assert sorted(len(f) for f in split) == [3, 3, 4]

    def test_same_seed_same_split(self):
        ids = [f"x{i}" for i in range(100)]
        assert kfold_split(ids, 4, 9) == kfold_split(ids, 4, 9)

    def test_row_order_does_not_matter(self):
        ids = [f"x{i}" for i in range(50)]
        assert kfold_split(ids, 5, 2) == kfold_split(ids[::-1], 5, 2)

    def test_checked_ids_split_alike_into_checked_folds(self):
        _, matrix = generate(SyntheticSpec(k=1, target_acc=(0.8,), n=103, seed=4))
        split = kfold_split(matrix.ids, 4, 7)
        assert split == kfold_split(list(matrix.ids), 4, 7)
        for fold in split:  # restrict takes them without a check
            assert type(fold) is core.SampleIds
            assert matrix.restrict(fold).ids is fold

    @settings(deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab\0\xe9\ud800\U0001f600"),
                            min_size=1, max_size=12),
                    min_size=2, max_size=40, unique=True),
           st.integers(0, 2**32))
    def test_cuts_a_shuffle_of_the_sorted_ids(self, ids, seed):
        """The canonical order is ``sorted``'s over the ids, found by
        sorting their bytes."""
        n_folds = 2 + seed % (len(ids) - 1)
        ranked = sorted(ids)
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(len(ids))
        want = tuple(tuple(ranked[i] for i in part)
                     for part in np.array_split(perm, n_folds))
        assert kfold_split(ids, n_folds, seed) == want

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match=r"^duplicate sample ids: \['a'\]$"):
            kfold_split(["a", "b", "a"], 2, 0)

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError, match="^sample ids must be non-empty$"):
            kfold_split(["a", "", "b"], 2, 0)

    def test_too_few_ids(self):
        with pytest.raises(ValidationError):
            kfold_split(["a", "b"], 3, 0)

    def test_one_fold_rejected(self):
        with pytest.raises(ValidationError, match="^need at least two folds$"):
            kfold_split(["a", "b", "c"], 1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            kfold_split(["a", "b", "c"], 2, -1)
        with pytest.raises(ValidationError, match="seed"):
            RunPlan(seed=-1)


class TestSeedDerivation:
    def test_pure_function(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)

    def test_distinct_inputs_distinct_seeds(self):
        seeds = {derive_seed(7, f, r) for f in range(5) for r in range(30)}
        assert len(seeds) == 150

    def test_64_bit_range(self):
        for args in ((0, 0, 0), (123456789, 4, 29)):
            assert 0 <= derive_seed(*args) < 2 ** 64


class TestMeanStdev:
    def test_constant_values(self):
        assert mean_stdev([1, 1, 1]) == (1.0, 0.0)

    def test_two_point_sample_stdev(self):
        m, s = mean_stdev([0, 1])
        assert m == 0.5
        assert s == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_singleton_convention(self):
        assert mean_stdev([0.73]) == (0.73, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            mean_stdev([])


class TestCrossValidate:
    def test_zero_repeats_rejected(self):
        with pytest.raises(ValidationError, match="^need at least one repeat per fold$"):
            RunPlan(repeats_per_fold=0)

    def test_unknown_method_rejected(self):
        method = object()
        with pytest.raises(ValidationError) as err:
            cross_validate(RunPlan(n_folds=2, repeats_per_fold=1), *small_suite(), method)
        assert str(err.value) == f"unknown method {method!r}"

    def test_nn_produces_folds_times_repeats_records(self):
        train_m, train_u, test_m, test_u = small_suite()
        plan = RunPlan(n_folds=4, repeats_per_fold=3, seed=2)
        report = cross_validate(plan, train_m, train_u, test_m, test_u, FAST_NN)
        assert len(report.records) == 12
        assert {(r.fold, r.repeat) for r in report.records} == {
            (f, r) for f in range(4) for r in range(3)}
        assert all(r.bound is not None for r in report.records)

    def test_rule_method_has_zero_stdev_and_one_record_per_fold(self):
        train_m, train_u, test_m, test_u = small_suite()
        plan = RunPlan(n_folds=5, repeats_per_fold=30, seed=2)
        report = cross_validate(plan, train_m, train_u, test_m, test_u,
                                RuleMethod("max"))
        assert len(report.records) == 5
        assert report.stdev == 0.0
        assert report.method == "max"

    def test_rule_method_draws_no_folds(self, monkeypatch):
        train_m, train_u, test_m, test_u = small_suite()
        tiny_m, tiny_u = (v.restrict(train_m.ids[:3]) for v in (train_m, train_u))
        plan = RunPlan(n_folds=4, repeats_per_fold=3, seed=2)
        method = RuleMethod("max")
        want = report_render(cross_validate(plan, train_m, train_u, test_m,
                                            test_u, method))
        with pytest.raises(ValidationError) as small:
            cross_validate(plan, tiny_m, tiny_u, test_m, test_u, method)
        assert str(small.value) == "cannot split 3 ids into 4 folds"

        def no_split(*args):
            raise AssertionError("a rule method drew folds")
        monkeypatch.setattr(evaluate, "kfold_split", no_split)
        got = report_render(cross_validate(plan, train_m, train_u, test_m,
                                           test_u, method))
        assert got == want
        with pytest.raises(ValidationError) as again:
            cross_validate(plan, tiny_m, tiny_u, test_m, test_u, method)
        assert str(again.value) == str(small.value)

    def test_hybrid_method_one_record_per_fold_with_theta(self):
        train_m, train_u, test_m, test_u = small_suite(n_train=200)
        plan = RunPlan(n_folds=4, repeats_per_fold=9, seed=3)
        method = HybridMethod(base="M3", aux=("M1", "M2"), rule="sum")
        report = cross_validate(plan, train_m, train_u, test_m, test_u, method)
        assert len(report.records) == 4
        assert all("theta=" in r.detail for r in report.records)

    def test_hybrid_method_aligns_the_test_labels_once(self, monkeypatch):
        train_m, train_u, test_m, test_u = small_suite(n_train=200)
        shuffled = test_u.restrict(test_u.ids[::-1])
        plan = RunPlan(n_folds=4, repeats_per_fold=1, seed=3)
        method = HybridMethod(base="M3", aux=("M1", "M2"), rule="sum")
        want = cross_validate(plan, train_m, train_u, test_m, test_u, method)
        lookups = []
        rows_of = core._rows_of
        monkeypatch.setattr(core, "_rows_of", lambda ids, wanted, missing: (
            lookups.append(missing) or rows_of(ids, wanted, missing)))
        got = cross_validate(plan, train_m, train_u, test_m, shuffled, method)
        assert got == want
        assert lookups.count("labels are missing sample id") == 1

    @pytest.mark.parametrize("base, aux, rule", [
        ("M3", ("M1", "M2"), "sum"), ("M3", ("M1", "M2"), "avg"),
        ("M3", ("M1", "M2"), "max"), ("M1", ("M2",), "maj")],
        ids=["sum", "avg", "max", "maj"])
    def test_hybrid_builds_the_test_table_once(self, monkeypatch, base, aux, rule):
        """The test suite's decisions do not depend on theta: cv builds them
        once, never per fold, and scores each tuned theta as
        ``hybrid_predict`` would."""
        train_m, train_u, test_m, test_u = small_suite(n_train=200)
        plan = RunPlan(n_folds=5, repeats_per_fold=1, seed=3)
        want = []
        for fold_ids in kfold_split(train_m.ids, 5, 3):
            theta = theta_sweep(base, aux, rule, train_m.restrict(fold_ids),
                                train_u.restrict(fold_ids)).best_theta
            cfg = HybridConfig(base, aux, rule, theta)
            want.append((accuracy(hybrid_predict(cfg, test_m).series, test_u),
                         f"base={base};rule={rule};theta={theta}"))
        built, predicted = [], []
        arrays = hybrid._decision_arrays
        monkeypatch.setattr(hybrid, "_decision_arrays", lambda b, a, r, m: (
            built.append(m) or arrays(b, a, r, m)))
        for module in (hybrid, evaluate):
            monkeypatch.setattr(module, "hybrid_predict", lambda *args: (
                predicted.append(args) or hybrid_predict(*args)), raising=False)
        report = cross_validate(plan, train_m, train_u, test_m, test_u,
                                HybridMethod(base, aux, rule))
        assert [m is test_m for m in built].count(True) == 1
        assert len(built) == 6 and predicted == []
        assert [(r.accuracy, r.detail) for r in report.records] == want

    @pytest.mark.parametrize("kwargs, error", [
        ({"aux": ("M3", "M2")}, ValidationError),
        ({"aux": ("M1", "M1")}, ValidationError),
        ({"rule": "maj"}, ConstraintError),
        ({"grid": (0.4, 0.9)}, ConstraintError),
    ])
    def test_hybrid_method_validated_at_construction(self, kwargs, error):
        with pytest.raises(error):
            HybridMethod(**{"base": "M3", "aux": ("M1", "M2"), **kwargs})

    def test_scheduling_independence(self):
        # a single (fold, repeat) run recomputed in isolation matches the
        # record from the batch, because its seed depends only on the indices
        train_m, train_u, test_m, test_u = small_suite()
        plan = RunPlan(n_folds=3, repeats_per_fold=2, seed=6)
        report = cross_validate(plan, train_m, train_u, test_m, test_u, FAST_NN)
        split = kfold_split(train_m.ids, 3, seed=6)
        fold, repeat = 1, 1
        fold_m = train_m.restrict(split[fold])
        fold_u = train_u.restrict(split[fold])
        cfg = TrainConfig(epochs=3, seed=derive_seed(6, fold, repeat))
        res = train(fold_m, fold_u, cfg)
        acc = accuracy(predict(res.weights, test_m), test_u)
        record = next(r for r in report.records
                      if (r.fold, r.repeat) == (fold, repeat))
        assert record.accuracy == acc

    def test_repeat_runs_are_identical(self):
        train_m, train_u, test_m, test_u = small_suite()
        plan = RunPlan(n_folds=3, repeats_per_fold=2, seed=1)
        a = cross_validate(plan, train_m, train_u, test_m, test_u, FAST_NN)
        b = cross_validate(plan, train_m, train_u, test_m, test_u, FAST_NN)
        assert a == b

    def test_model_name_mismatch_rejected(self):
        train_m, train_u, test_m, test_u = small_suite(k=3)
        bad_test = test_m.select(["M1", "M2"])
        with pytest.raises(ValidationError):
            cross_validate(RunPlan(2, 1, 0), train_m, train_u, bad_test,
                           test_u, FAST_NN)

    @pytest.mark.parametrize("method", [
        FAST_NN, RuleMethod("sum"), HybridMethod("M3", ("M1", "M2"))],
        ids=["nn", "rule", "hybrid"])
    @pytest.mark.parametrize("edit, message", [
        ("extra", "labels have extra sample id 'zz'"),
        ("missing", "labels are missing sample id '00'"),
    ])
    def test_test_labels_must_carry_the_test_ids(self, method, edit, message):
        train_m, train_u, test_m, test_u = small_suite(n_test=60)
        if edit == "extra":
            labels = LabelVector(tuple(test_u.ids) + ("zz",), [*test_u.values, 1])
        else:
            labels = test_u.restrict(test_u.ids[1:])
        with pytest.raises(AlignmentError, match=f"^{message}$"):
            cross_validate(RunPlan(2, 1, 0), train_m, train_u, test_m, labels,
                           method)


class TestReportRendering:
    def test_percent_formats_like_published_tables(self):
        train_m, train_u, test_m, test_u = small_suite()
        report = cross_validate(RunPlan(2, 1, 0), train_m, train_u, test_m,
                                test_u, RuleMethod("sum"))
        line = report_render(report).splitlines()[1]
        cells = dict(zip(report_render(report).splitlines()[0].split("\t"),
                         line.split("\t")))
        assert cells["percent"] == f"{report.mean * 100:.2f}"

    def test_mean_09387_renders_9387(self):
        rep = EvalReport(method="sum",
                         records=(RunRecord(0, 0, 0.9387),), mean=0.9387,
                         stdev=0.0)
        assert "\t93.87\t" in report_render(rep).splitlines()[1]

    def test_summary_only_flag(self):
        train_m, train_u, test_m, test_u = small_suite()
        report = cross_validate(RunPlan(2, 2, 0), train_m, train_u, test_m,
                                test_u, FAST_NN)
        text = report_render(report, include_runs=False)
        assert len(text.strip().splitlines()) == 2

    def test_rendered_text_pinned(self):
        # one run row with a bound, its upper end infinite, and one without
        bound = BoundReport(W=1.25, lower=0.30000000000000004, upper=math.inf,
                            norm_u=3.0, err_y=1.0, err_yhat=2.0,
                            contained=True, degenerate=True)
        report = EvalReport(method="nn", records=(
            RunRecord(0, 1, 0.75, "seed=3;clipped=no", bound),
            RunRecord(1, 0, 0.5, "rule=sum")),
            mean=0.625, stdev=0.1767766952966369)
        head = ("kind\tfold\trepeat\taccuracy\tmean\tstdev\tpercent\tW\t"
                "lower\tupper\tcontained\tdetail\n"
                "summary\t\t\t\t0.625\t0.1767766952966369\t62.50\t\t\t\t\t"
                "method=nn\n")
        assert report_render(report, include_runs=False) == head
        assert report_render(report) == head + (
            "run\t0\t1\t0.75\t\t\t\t1.25\t0.30000000000000004\tinf\tyes\t"
            "seed=3;clipped=no\n"
            "run\t1\t0\t0.5\t\t\t\t\t\t\t\trule=sum\n")
