import math

import pytest

from predfuse import (AlignmentError, ConstraintError, HybridMethod,
                      LabelVector, NNMethod, RuleMethod, RunPlan,
                      TrainConfig, ValidationError, accuracy, core,
                      cross_validate, derive_seed, kfold_split, mean_stdev,
                      parse_report, predict, report_render, train)
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
        assert [len(f) for f in split.folds] == [5000] * 5
        assert set().union(*map(set, split.folds)) == set(ids)

    def test_uneven_sizes_balanced(self):
        split = kfold_split([str(i) for i in range(10)], 3, seed=0)
        assert sorted(len(f) for f in split.folds) == [3, 3, 4]

    def test_same_seed_same_split(self):
        ids = [f"x{i}" for i in range(100)]
        assert kfold_split(ids, 4, 9).folds == kfold_split(ids, 4, 9).folds

    def test_row_order_does_not_matter(self):
        ids = [f"x{i}" for i in range(50)]
        assert kfold_split(ids, 5, 2).folds == kfold_split(ids[::-1], 5, 2).folds

    def test_checked_ids_split_alike_into_checked_folds(self):
        _, matrix = generate(SyntheticSpec(k=1, target_acc=(0.8,), n=103, seed=4))
        split = kfold_split(matrix.ids, 4, 7)
        assert split == kfold_split(list(matrix.ids), 4, 7)
        for fold in split.folds:  # restrict takes them without a check
            assert type(fold) is core.SampleIds
            assert matrix.restrict(fold).ids is fold

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match=r"^duplicate sample ids: \['a'\]$"):
            kfold_split(["a", "b", "a"], 2, 0)

    def test_empty_id_rejected(self):
        with pytest.raises(ValidationError, match="^sample ids must be non-empty$"):
            kfold_split(["a", "", "b"], 2, 0)

    def test_too_few_ids(self):
        with pytest.raises(ValidationError):
            kfold_split(["a", "b"], 3, 0)

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
        fold_m = train_m.restrict(split.folds[fold])
        fold_u = train_u.restrict(split.folds[fold])
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
            labels = LabelVector(test_u.ids + ("zz",), [*test_u.values, 1])
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
        from predfuse import EvalReport, RunRecord
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

    def test_round_trip_summary_and_records(self):
        train_m, train_u, test_m, test_u = small_suite()
        report = cross_validate(RunPlan(3, 2, 4), train_m, train_u, test_m,
                                test_u, FAST_NN)
        back = parse_report(report_render(report))
        assert back.mean == report.mean
        assert back.stdev == report.stdev
        assert back.method == report.method
        assert len(back.records) == len(report.records)
        for a, b in zip(back.records, report.records):
            assert (a.fold, a.repeat, a.accuracy, a.detail) == (
                b.fold, b.repeat, b.accuracy, b.detail)
            assert a.bound.W == b.bound.W
            assert a.bound.lower == b.bound.lower
            assert a.bound.upper == b.bound.upper or (
                math.isinf(a.bound.upper) and math.isinf(b.bound.upper))
            assert a.bound.contained == b.bound.contained

    def test_parse_rejects_foreign_text(self):
        with pytest.raises(ValidationError):
            parse_report("hello\tworld\n")
