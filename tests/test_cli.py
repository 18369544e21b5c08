import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import predfuse
from predfuse import LabelVector, core, evaluate, io_files
from predfuse.cli import _grid, main
from predfuse.evaluate import parse_report
from predfuse.hybrid import default_theta_grid
from predfuse.io_files import load_prediction_file


@pytest.fixture
def suite(tmp_path):
    """A small synthetic suite on disk: 3 train models + labels, same for test."""
    train = tmp_path / "train"
    test = tmp_path / "test"
    assert main(["synth", "--models", "3", "--acc", "0.8,0.85,0.9",
                 "--rho", "0.3", "--n", "300", "--seed", "1",
                 "--out", str(train)]) == 0
    assert main(["synth", "--models", "3", "--acc", "0.8,0.85,0.9",
                 "--rho", "0.3", "--n", "500", "--seed", "2",
                 "--out", str(test)]) == 0
    return {
        "train_preds": [str(train / f"M{i}.csv") for i in (1, 2, 3)],
        "train_labels": str(train / "labels.csv"),
        "test_preds": [str(test / f"M{i}.csv") for i in (1, 2, 3)],
        "test_labels": str(test / "labels.csv"),
    }


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestSynth:
    def test_writes_one_file_per_model_plus_labels(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["synth", "--models", "2", "--acc", "0.8,0.9", "--n", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "M1.csv", "M2.csv", "labels.csv"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--models", "2", "--acc", "0.8,0.9",
                         "--n", "80", "--seed", "5", "--out", str(out)]) == 0
        for name in ("M1.csv", "M2.csv", "labels.csv"):
            assert read(a / name) == read(b / name)

    @pytest.mark.parametrize("culprit", ["directory", "write"])
    def test_failed_last_file_leaves_no_model_file(self, tmp_path, monkeypatch,
                                                   capsys, culprit):
        out = tmp_path / "suite"
        if culprit == "directory":  # labels.csv cannot replace a directory
            (out / "labels.csv").mkdir(parents=True)
        else:  # the labels file is the last one written
            def failing(path, labels):
                def write(fh):
                    fh.write("id,label\n")
                    raise OSError(28, "No space left on device")
                return path, write
            monkeypatch.setattr(io_files, "_label_csv", failing)
        assert main(["synth", "--models", "3", "--acc", "0.8,0.85,0.9",
                     "--n", "50", "--seed", "3", "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err
        left = sorted(p.name for p in out.iterdir())
        assert left == (["labels.csv"] if culprit == "directory" else [])


class TestTrainAndCombine:
    def test_train_then_combine_then_eval(self, suite, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert main(["train-nn", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--epochs", "5",
                     "--seed", "0", "--out", str(weights)]) == 0
        doc = json.loads(read(weights))
        assert doc["model_names"] == ["M1", "M2", "M3"]
        assert all(w >= 0 for w in doc["weights"])
        assert doc["train_config"]["l2"] == 0.039

        combined = tmp_path / "combined.csv"
        assert main(["combine", "--method", "nn", "--weights", str(weights),
                     "--preds", *suite["test_preds"],
                     "--out", str(combined)]) == 0
        series = load_prediction_file(combined)
        assert len(series) == 500

        assert main(["eval", "--combined", str(combined),
                     "--labels", suite["test_labels"]]) == 0
        outlines = capsys.readouterr().out.strip().splitlines()
        assert outlines[0] == "name\taccuracy\tpercent"
        acc = float(outlines[1].split("\t")[1])
        assert 0.5 < acc <= 1.0

    def test_train_nn_deterministic_output_bytes(self, suite, tmp_path):
        w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
        for out in (w1, w2):
            assert main(["train-nn", "--preds", *suite["train_preds"],
                         "--labels", suite["train_labels"], "--epochs", "3",
                         "--seed", "9", "--out", str(out)]) == 0
        assert read(w1) == read(w2)

    def test_rule_combine(self, suite, tmp_path):
        out = tmp_path / "sum.csv"
        assert main(["combine", "--method", "sum",
                     "--preds", *suite["test_preds"], "--out", str(out)]) == 0
        assert read(out).startswith("id,prob\n")

    def test_hybrid_combine(self, suite, tmp_path):
        out = tmp_path / "hyb.csv"
        assert main(["combine", "--method", "hybrid", "--hybrid-base", "M3",
                     "--hybrid-aux", "M1", "M2", "--rule", "max",
                     "--theta", "0.9", "--preds", *suite["test_preds"],
                     "--out", str(out)]) == 0
        assert len(read(out).splitlines()) == 501

    def test_eval_per_model(self, suite, capsys):
        assert main(["eval", "--preds", *suite["test_preds"],
                     "--labels", suite["test_labels"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["M1", "M2", "M3"]

    def test_eval_per_model_aligns_the_labels_once(self, suite, tmp_path,
                                                   monkeypatch, capsys):
        labels = io_files.load_label_file(suite["test_labels"])
        shuffled = tmp_path / "labels.csv"  # another row order than the preds
        io_files.save_label_file(shuffled, labels.restrict(labels.ids[::-1]))
        argv = ["eval", "--preds", *suite["test_preds"], "--labels"]
        assert main([*argv, suite["test_labels"]]) == 0
        want = capsys.readouterr().out
        lookups = []
        rows_of = core._rows_of
        monkeypatch.setattr(core, "_rows_of", lambda ids, wanted, missing: (
            lookups.append(missing) or rows_of(ids, wanted, missing)))
        assert main([*argv, str(shuffled)]) == 0
        assert capsys.readouterr().out == want
        assert lookups == ["labels are missing sample id"]


class TestExitCodes:
    def test_even_majority_is_constraint_violation(self, suite, tmp_path, capsys):
        code = main(["combine", "--method", "maj",
                     "--preds", *suite["test_preds"][:2],
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "constraint" in capsys.readouterr().err

    def test_theta_out_of_range_is_constraint_violation(self, suite, tmp_path, capsys):
        code = main(["combine", "--method", "hybrid", "--hybrid-base", "M3",
                     "--hybrid-aux", "M1", "M2", "--theta", "0.4",
                     "--preds", *suite["test_preds"],
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_negative_weight_file_is_constraint_violation(self, suite, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert main(["train-nn", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--epochs", "2",
                     "--out", str(weights)]) == 0
        doc = json.loads(read(weights))
        doc["weights"][0] = -0.5
        weights.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["combine", "--method", "nn", "--weights", str(weights),
                     "--preds", *suite["test_preds"],
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_malformed_csv_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,prob\na,1.5\n", encoding="utf-8")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,1\n", encoding="utf-8")
        code = main(["eval", "--combined", str(bad), "--labels", str(labels)])
        assert code == 2
        assert "invalid input" in capsys.readouterr().err

    def test_regrouped_fields_name_the_line(self, tmp_path, capsys):
        # Four fields after the header, but as 3 + 1: not the ids a and c.
        bad = tmp_path / "bad.csv"
        bad.write_text("id,prob\na,0.1,c\n0.2\n", encoding="utf-8")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,1\nc,0\n", encoding="utf-8")
        code = main(["eval", "--combined", str(bad), "--labels", str(labels)])
        assert code == 2
        assert "bad.csv:2: expected 2 fields, got 3" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["eval", "--combined", str(tmp_path / "nope.csv"),
                     "--labels", str(tmp_path / "nope2.csv")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_failed_run_leaves_no_partial_output(self, suite, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["combine", "--method", "maj",
                     "--preds", *suite["test_preds"][:2],
                     "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("culprit", ["preds", "labels", "weights"])
    def test_invalid_utf8_is_validation_error(self, suite, tmp_path, capsys, culprit):
        weights = tmp_path / "w.json"
        assert main(["train-nn", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--epochs", "1",
                     "--out", str(weights)]) == 0
        bad = tmp_path / f"{culprit}.bad"
        bad.write_bytes(b"id,prob\n\xff,0.5\n" if culprit != "weights"
                        else b'{"model_names": ["\xff"]}')
        preds = [str(bad)] if culprit == "preds" else suite["test_preds"]
        out = tmp_path / "x.csv"
        if culprit == "labels":
            argv = ["eval", "--preds", *preds, "--labels", str(bad)]
        else:
            argv = ["combine", "--method", "nn", "--preds", *preds, "--out", str(out),
                    "--weights", str(bad if culprit == "weights" else weights)]
        assert main(argv) == 2
        assert f"{bad}: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_weights_field_is_validation_error(self, suite, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert main(["train-nn", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--epochs", "1",
                     "--out", str(weights)]) == 0
        doc = json.loads(read(weights))
        doc["train_config"]["epochs"] = 1.7
        weights.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["combine", "--method", "nn", "--weights", str(weights),
                     "--preds", *suite["test_preds"],
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "train_config.epochs must be a JSON int" in capsys.readouterr().err


class TestQuotedIds:
    def test_combine_then_eval_on_a_quoted_id(self, tmp_path, capsys):
        for name, text in [("M1", 'id,prob\n"a,b",0.25\nc,0.75\n'),
                           ("M2", 'id,prob\nc,0.5\n"a,b",0.125\n'),
                           ("labels", 'id,label\n"a,b",0\nc,1\n')]:
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
        out = tmp_path / "c.csv"
        assert main(["combine", "--method", "avg", "--preds",
                     str(tmp_path / "M1.csv"), str(tmp_path / "M2.csv"),
                     "--out", str(out)]) == 0
        assert read(out).startswith('id,prob\n"a,b",')
        assert main(["eval", "--combined", str(out),
                     "--labels", str(tmp_path / "labels.csv")]) == 0
        assert capsys.readouterr().out == "name\taccuracy\tpercent\ncombined\t1.0\t100.00\n"


class TestFlagsBeforeFiles:
    """A bad flag exits 2 or 3 even when an input file is missing (exit 4)."""

    @pytest.mark.parametrize("argv, code, culprit", [
        pytest.param(["train-nn", "--lr", "nan", "--labels", "L", "--preds", "P"],
                     2, "learning_rate", id="train-nn-lr"),
        pytest.param(["train-nn", "--threshold", "1.5", "--labels", "L", "--preds", "P"],
                     2, "threshold", id="train-nn-threshold"),
        pytest.param(["combine", "--method", "hybrid", "--hybrid-base", "M1",
                      "--hybrid-aux", "M1", "M2", "--preds", "P"],
                     2, "also listed as auxiliary", id="combine-hybrid-base-in-aux"),
        pytest.param(["combine", "--method", "hybrid", "--hybrid-base", "M1",
                      "--hybrid-aux", "M2", "--theta", "0.4", "--preds", "P"],
                     3, "theta", id="combine-hybrid-theta"),
        pytest.param(["combine", "--method", "nn", "--preds", "P"],
                     2, "--weights", id="combine-nn-no-weights"),
        pytest.param(["eval", "--threshold", "0", "--labels", "L", "--combined", "P"],
                     2, "threshold", id="eval-threshold"),
        pytest.param(["sweep-theta", "--base", "M1", "--aux", "M1", "M2",
                      "--labels", "L", "--preds", "P"],
                     2, "also listed as auxiliary", id="sweep-theta-base-in-aux"),
        pytest.param(["sweep-theta", "--base", "M1", "--aux", "M2", "--grid", "0.3:0.6:0.1",
                      "--labels", "L", "--preds", "P"],
                     3, "theta", id="sweep-theta-grid"),
        pytest.param(["cv", "--method", "max", "--folds", "1"],
                     2, "two folds", id="cv-folds"),
        pytest.param(["cv", "--method", "nn", "--lr", "nan"],
                     2, "learning_rate", id="cv-lr"),
        pytest.param(["cv", "--method", "hybrid", "--hybrid-base", "M1",
                      "--hybrid-aux", "M1", "M2"],
                     2, "also listed as auxiliary", id="cv-hybrid-base-in-aux"),
    ])
    def test_flag_error_wins_over_missing_file(self, tmp_path, capsys, argv, code, culprit):
        missing = str(tmp_path / "missing.csv")
        argv = [missing if a in ("P", "L") else a for a in argv]
        if argv[0] == "cv":
            argv += ["--train-preds", missing, "--train-labels", missing,
                     "--test-preds", missing, "--test-labels", missing]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        assert culprit in capsys.readouterr().err
        assert not out.exists()


class TestSweepTheta:
    def test_default_grid_has_49_rows(self, suite, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep-theta", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--base", "M3",
                     "--aux", "M1", "M2", "--grid", "0.51:0.99:0.01",
                     "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert lines[0] == "theta\taccuracy\tfallback_fraction"
        assert len(lines) == 50

    def test_base_listed_as_aux_rejected(self, suite, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep-theta", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--base", "M3",
                     "--aux", "M3", "M2", "--out", str(out)]) == 2
        assert not out.exists()
        assert "'M3' also listed as auxiliary" in capsys.readouterr().err


class TestGrid:
    """--grid lo:hi:step never passes hi, and keeps hi when it is on the grid."""

    def test_overshooting_step_stops_below_hi(self):
        grid = _grid("0.51:0.99:0.05")
        assert len(grid) == 10
        assert grid[-1] == 0.96

    def test_hi_kept_when_step_count_is_inexact(self):
        # (0.95 - 0.55) / 0.1 is 3.9999999999999996 in floating point
        assert _grid("0.55:0.95:0.1") == [0.55, 0.65, 0.75, 0.85, 0.95]

    def test_readme_grid_is_the_default_grid(self):
        assert _grid("0.51:0.99:0.01") == default_theta_grid()

    def test_overshooting_grid_sweeps(self, suite, tmp_path):
        out = tmp_path / "sweep.tsv"
        assert main(["sweep-theta", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--base", "M3",
                     "--aux", "M1", "M2", "--grid", "0.51:0.99:0.05",
                     "--out", str(out)]) == 0
        thetas = [float(ln.split("\t")[0]) for ln in read(out).splitlines()[1:]]
        assert thetas == _grid("0.51:0.99:0.05")

    @pytest.mark.parametrize("text", ["0.6:inf:0.1", "-inf:0.9:0.1", "0.6:0.9:nan"])
    def test_non_finite_grid_rejected(self, suite, tmp_path, text):
        out = tmp_path / "sweep.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep-theta", "--preds", *suite["train_preds"],
                  "--labels", suite["train_labels"], "--base", "M3",
                  "--aux", "M1", "M2", "--grid", text, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


def _synth_args(suite, out, *flags):
    return ["synth", "--models", "2", "--acc", "0.8,0.9", "--n", "50",
            *flags, "--out", str(out)]


def _train_nn_args(suite, out, *flags):
    return ["train-nn", "--preds", *suite["train_preds"],
            "--labels", suite["train_labels"], "--epochs", "2",
            *flags, "--out", str(out)]


def _cv_args(suite, out, *flags):
    return ["cv", "--folds", "2", "--repeats", "1", "--epochs", "2",
            "--train-preds", *suite["train_preds"],
            "--train-labels", suite["train_labels"],
            "--test-preds", *suite["test_preds"],
            "--test-labels", suite["test_labels"], *flags, "--out", str(out)]


class TestRejectedAtConfig:
    """Bad seeds and non-finite hyperparameters exit 2, name the culprit and
    write nothing."""

    @pytest.mark.parametrize("build, flags, culprit", [
        pytest.param(_synth_args, ("--seed", "-1"), "seed", id="synth-seed"),
        pytest.param(_synth_args, ("--sharpness", "nan"), "sharpness", id="synth-sharpness-nan"),
        pytest.param(_synth_args, ("--sharpness", "inf"), "sharpness", id="synth-sharpness-inf"),
        pytest.param(_train_nn_args, ("--seed", "-1"), "seed", id="train-seed"),
        pytest.param(_train_nn_args, ("--lr", "nan"), "learning_rate", id="train-lr-nan"),
        pytest.param(_train_nn_args, ("--lr", "inf"), "learning_rate", id="train-lr-inf"),
        pytest.param(_train_nn_args, ("--l2", "nan"), "l2", id="train-l2-nan"),
        pytest.param(_cv_args, ("--method", "nn", "--seed", "-1"), "seed", id="cv-nn-seed"),
        pytest.param(_cv_args, ("--method", "max", "--seed", "-1"), "seed", id="cv-max-seed"),
        pytest.param(_cv_args, ("--method", "nn", "--lr", "nan"), "learning_rate", id="cv-lr-nan"),
        pytest.param(_cv_args, ("--method", "nn", "--l2", "nan"), "l2", id="cv-l2-nan"),
    ])
    def test_exit_2_and_no_output(self, suite, tmp_path, capsys, build, flags, culprit):
        out = tmp_path / "out"
        assert main(build(suite, out, *flags)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("predfuse: invalid input:")
        assert culprit in err


class TestDivergence:
    """Training that overflows: the exit code, the message and the weights
    file are pinned, and numpy's overflow warnings never reach the user."""

    @staticmethod
    def run(tmp_path, *flags):
        suite = tmp_path / "suite"
        assert main(["synth", "--models", "2", "--acc", "0.7,0.9", "--n", "120",
                     "--seed", "3", "--out", str(suite)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(predfuse.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "predfuse", "train-nn",
             "--preds", str(suite / "M1.csv"), str(suite / "M2.csv"),
             "--labels", str(suite / "labels.csv"), "--epochs", "3",
             "--seed", "1", *flags, "--out", str(tmp_path / "w.json")],
            env=env, capture_output=True, text=True)

    def test_huge_learning_rate_exits_2(self, tmp_path):
        proc = self.run(tmp_path, "--lr", "1e300")
        assert proc.returncode == 2
        assert proc.stderr == "predfuse: invalid input: sigmoid input must be finite\n"
        assert not (tmp_path / "w.json").exists()

    def test_huge_l2_leaves_the_weights_where_they_start(self, tmp_path):
        # v overflows to inf, so every weight step is lr * m / inf = 0; the
        # shift, which carries no L2, still trains.
        proc = self.run(tmp_path, "--l2", "1e200")
        assert (proc.returncode, proc.stderr) == (0, "")
        weights = tmp_path / "w.json"
        assert json.loads(read(weights))["weights"] == [0.5, 0.5]
        assert hashlib.sha256(weights.read_bytes()).hexdigest() == (
            "53e66976aca9aa66973327fac5fca6668cb6076e1a234c3bdcf0afcb740f38bd")


class TestCheckBound:
    def test_reports_interval(self, suite, tmp_path, capsys):
        weights = tmp_path / "w.json"
        assert main(["train-nn", "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"], "--epochs", "5",
                     "--out", str(weights)]) == 0
        assert main(["check-bound", "--weights", str(weights),
                     "--preds", *suite["train_preds"],
                     "--labels", suite["train_labels"]]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[:4] == ["W", "lower", "upper", "contained"]
        w = float(lines[1].split("\t")[0])
        assert w >= 0


class TestCv:
    def test_nn_cv_report(self, suite, tmp_path):
        out = tmp_path / "report.tsv"
        assert main(["cv", "--folds", "3", "--repeats", "2", "--seed", "4",
                     "--method", "nn", "--epochs", "2",
                     "--train-preds", *suite["train_preds"],
                     "--train-labels", suite["train_labels"],
                     "--test-preds", *suite["test_preds"],
                     "--test-labels", suite["test_labels"],
                     "--out", str(out)]) == 0
        report = parse_report(read(out))
        assert len(report.records) == 6
        assert report.method == "nn"

    def test_nn_cv_report_bytes_pinned(self, tmp_path):
        # Pinned bits, as in test_combiner.  301 rows make folds of 101, 100
        # and 100 rows, so the runs train in two lock-step groups; batch 16
        # divides neither size, and some runs clip while others do not.
        train, test = tmp_path / "train", tmp_path / "test"
        for out, n, seed in ((train, "301", "7"), (test, "200", "8")):
            assert main(["synth", "--models", "3", "--acc", "0.6,0.75,0.9",
                         "--n", n, "--seed", seed, "--out", str(out)]) == 0
        out = tmp_path / "report.tsv"
        assert main(["cv", "--folds", "3", "--repeats", "2", "--seed", "4",
                     "--method", "nn", "--epochs", "5", "--lr", "0.05",
                     "--batch", "16",
                     "--train-preds", *(str(train / f"M{i}.csv") for i in (1, 2, 3)),
                     "--train-labels", str(train / "labels.csv"),
                     "--test-preds", *(str(test / f"M{i}.csv") for i in (1, 2, 3)),
                     "--test-labels", str(test / "labels.csv"),
                     "--out", str(out)]) == 0
        text = read(out)
        assert "clipped=yes" in text and "clipped=no" in text
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "86ac421bcf69445bf1134b8090c1d0d46c992459938af3faf4cc1c1e93678b8f")

    def test_cv_byte_identical_reruns(self, suite, tmp_path):
        outs = [tmp_path / "r1.tsv", tmp_path / "r2.tsv"]
        for out in outs:
            assert main(["cv", "--folds", "2", "--repeats", "2", "--seed", "4",
                         "--method", "nn", "--epochs", "2",
                         "--train-preds", *suite["train_preds"],
                         "--train-labels", suite["train_labels"],
                         "--test-preds", *suite["test_preds"],
                         "--test-labels", suite["test_labels"],
                         "--out", str(out)]) == 0
        assert read(outs[0]) == read(outs[1])

    def test_hybrid_base_listed_as_aux_rejected_before_folds(
            self, suite, tmp_path, capsys, monkeypatch):
        def no_split(*args):
            raise AssertionError("folds were split")
        monkeypatch.setattr(evaluate, "kfold_split", no_split)
        out = tmp_path / "report.tsv"
        assert main(_cv_args(suite, out, "--method", "hybrid", "--hybrid-base",
                             "M3", "--hybrid-aux", "M3", "M2")) == 2
        assert not out.exists()
        assert "'M3' also listed as auxiliary" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [
        ("--method", "nn"), ("--method", "sum"),
        ("--method", "hybrid", "--hybrid-base", "M3", "--hybrid-aux", "M1", "M2"),
    ], ids=["nn", "rule", "hybrid"])
    @pytest.mark.parametrize("edit", ["extra", "missing"])
    def test_test_labels_must_carry_the_test_ids(self, suite, tmp_path, capsys,
                                                 method, edit):
        labels = io_files.load_label_file(suite["test_labels"])
        if edit == "extra":
            bad = LabelVector(labels.ids + ("zz",), [*labels.values, 1])
            message = "labels have extra sample id 'zz'"
        else:
            bad = labels.restrict(labels.ids[1:])
            message = f"labels are missing sample id {labels.ids[0]!r}"
        io_files.save_label_file(tmp_path / "bad.csv", bad)
        out = tmp_path / "report.tsv"
        suite = dict(suite, test_labels=str(tmp_path / "bad.csv"))
        assert main(_cv_args(suite, out, *method)) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"predfuse: invalid input: {message}\n"

    def test_rule_cv_summary_only(self, suite, tmp_path):
        out = tmp_path / "report.tsv"
        assert main(["cv", "--folds", "5", "--repeats", "30", "--method",
                     "max", "--summary-only",
                     "--train-preds", *suite["train_preds"],
                     "--train-labels", suite["train_labels"],
                     "--test-preds", *suite["test_preds"],
                     "--test-labels", suite["test_labels"],
                     "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert len(lines) == 2
        report = parse_report(read(out))
        assert report.stdev == 0.0
