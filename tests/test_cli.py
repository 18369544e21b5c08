import argparse
import csv
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import predfuse
from predfuse import (CombinerWeights, LabelVector, ProbSeries, TrainResult,
                      core, evaluate, io_files)
from predfuse.cli import _grid, main
from predfuse.combiner import TrainConfig
from predfuse.hybrid import default_theta_grid
from predfuse.io_files import load_prediction_file

from conftest import traced_peak, write_shuffled_suite


def capped_cli(*argv, limit=512 << 20):
    """Run the CLI in a child process whose address space is capped at
    ``limit`` bytes, so a size the program fails to refuse ends in a
    ``MemoryError`` there instead of filling this machine's memory."""
    env = dict(os.environ, PYTHONPATH=str(Path(predfuse.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "predfuse", *argv], env=env, capture_output=True,
        text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


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

    def test_max_rounding_tie_is_written_below_half(self, tmp_path):
        # hi1 + hi0 rounds to 1.5 and the score to 0.5, yet the label is 0
        (tmp_path / "M1.csv").write_text("id,prob\na,0.75\n", encoding="utf-8")
        (tmp_path / "M2.csv").write_text(f"id,prob\na,{0.25 - 2**-53!r}\n",
                                         encoding="utf-8")
        out = tmp_path / "max.csv"
        assert main(["combine", "--method", "max", "--preds", str(tmp_path / "M1.csv"),
                     str(tmp_path / "M2.csv"), "--out", str(out)]) == 0
        assert load_prediction_file(out).values.tolist() == [0.49999999999999994]

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
        assert lookups == []  # placed into the suite's id index as read

    def test_eval_holds_one_copy_of_the_ids(self, tmp_path, capsys):
        """``eval --preds`` on K = 4 shuffled 20k-row files and a shuffled
        label file reads them as one suite.  The bound sits between this
        (3.6 MB peak) and checking the first file's ids with a set of their
        own and joining the columns by a copy (4.1 MB peak); reading the
        labels first with ids of their own, then aligning them to the
        matrix, peaked at 5.5 MB."""
        paths = write_shuffled_suite(tmp_path)
        code, peak, _ = traced_peak(lambda: main(
            ["eval", "--preds", *paths, "--labels", str(tmp_path / "labels.csv")]))
        assert code == 0 and capsys.readouterr().out.count("\n") == 5
        assert peak < 3.8e6, peak


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

    @pytest.mark.parametrize("command, target", [("combine", "nodir/o.csv"),
                                                 ("eval", "afile/e.tsv")])
    def test_output_io_error_names_the_target(self, suite, tmp_path, capsys,
                                              command, target):
        """Not the temporary file beside it, whose name changes every run."""
        (tmp_path / "afile").write_text("", encoding="utf-8")
        flags = (["--method", "sum"] if command == "combine"
                 else ["--labels", suite["test_labels"]])
        argv = [command, *flags, "--preds", *suite["test_preds"],
                "--out", str(tmp_path / target)]
        errs = []
        for _ in range(2):
            assert main(argv) == 4
            errs.append(capsys.readouterr().err)
        reason = ("[Errno 2] No such file or directory" if target.startswith("nodir")
                  else "[Errno 20] Not a directory")
        assert errs == [f"predfuse: i/o error: {reason}: '{tmp_path / target}'\n"] * 2

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
        pytest.param(["combine", "--method", "maj", "--preds", "P", "P"],
                     3, "majority vote needs an odd number of models, got 2",
                     id="combine-maj-even"),
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

    @pytest.mark.parametrize("method, train, test, files, code, message", [
        pytest.param("maj", "M1 M2", "M1 M2", "missing", 3, "constraint violation: "
                     "majority vote needs an odd number of models, got 2",
                     id="maj-even-missing"),
        pytest.param("maj", "M1 M2", "M1 M2", "malformed", 3, "constraint violation: "
                     "majority vote needs an odd number of models, got 2",
                     id="maj-even-malformed"),
        pytest.param("maj", "M1 M2", "M1 M3", "missing", 2, "invalid input: train and "
                     "test matrices name different models: ['M1', 'M2'] vs ['M1', 'M3']",
                     id="maj-even-and-names"),
        pytest.param("nn", "M1 M2", "M2 M3", "missing", 2, "invalid input: train and "
                     "test matrices name different models: ['M1', 'M2'] vs ['M2', 'M3']",
                     id="nn-names-missing"),
        pytest.param("nn", "M1 M2", "M2 M3", "malformed", 2, "invalid input: train and "
                     "test matrices name different models: ['M1', 'M2'] vs ['M2', 'M3']",
                     id="nn-names-malformed"),
        pytest.param("maj", "M1 M2 M3", "M3 M2 M1", "missing", 4, "i/o error: [Errno 2] "
                     "No such file or directory: '{tmp}/train/M1.csv'", id="maj-odd"),
    ])
    def test_cv_models_checked_before_files(self, tmp_path, capsys, method,
                                            train, test, files, code, message):
        """Model names are the file stems, so cv compares the two suites'
        names, then checks a majority panel, before it reads any file."""
        argv = ["cv", "--method", method]
        for side, stems in (("train", train), ("test", test)):
            (tmp_path / side).mkdir()
            paths = [tmp_path / side / f"{s}.csv" for s in [*stems.split(), "labels"]]
            if files == "malformed":
                for path in paths:
                    path.write_text("not,a\nprediction,file\n")
            argv += [f"--{side}-preds", *map(str, paths[:-1]),
                     f"--{side}-labels", str(paths[-1])]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().err == f"predfuse: {message.format(tmp=tmp_path)}\n"
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

    @pytest.mark.parametrize("text", ["0.51:0.99:5e-324",
                                      "0.5000001:0.9999999:1e-12"])
    @pytest.mark.parametrize("command", ["sweep-theta", "cv"])
    def test_oversized_grid_refused_before_it_is_built(self, suite, tmp_path,
                                                       command, text):
        out = tmp_path / "sweep.tsv"
        if command == "cv":
            argv = ["cv", "--method", "hybrid", "--hybrid-base", "M3",
                    "--hybrid-aux", "M1", "M2", "--train-preds", *suite["train_preds"],
                    "--train-labels", suite["train_labels"],
                    "--test-preds", *suite["test_preds"],
                    "--test-labels", suite["test_labels"]]
        else:
            argv = ["sweep-theta", "--preds", *suite["train_preds"],
                    "--labels", suite["train_labels"], "--base", "M3",
                    "--aux", "M1", "M2"]
        proc = capped_cli(*argv, "--grid", text, "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.endswith(f"grid has more than 1000000 values: {text!r}\n")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_largest_grid_is_built(self):
        grid = _grid("0:999999:1")
        assert len(grid) == 1_000_000 and grid[-1] == 999999.0
        with pytest.raises(argparse.ArgumentTypeError, match="more than"):
            _grid("0:1000000:1")


_NOT_FINITE = "predfuse: invalid input: sigmoid input must be finite\n"


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
    """Training or scoring that overflows: the exit code, the message and
    the weights file are pinned, and numpy's overflow warnings never reach
    the user."""

    @staticmethod
    def cli(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(predfuse.__file__).parents[1]))
        return subprocess.run([sys.executable, "-m", "predfuse", *argv],
                              env=env, capture_output=True, text=True)

    @classmethod
    def run(cls, tmp_path, *flags):
        suite = tmp_path / "suite"
        assert main(["synth", "--models", "2", "--acc", "0.7,0.9", "--n", "120",
                     "--seed", "3", "--out", str(suite)]) == 0
        return cls.cli(
            "train-nn", "--preds", str(suite / "M1.csv"), str(suite / "M2.csv"),
            "--labels", str(suite / "labels.csv"), "--epochs", "3",
            "--seed", "1", *flags, "--out", str(tmp_path / "w.json"))

    def test_huge_learning_rate_exits_2(self, tmp_path):
        proc = self.run(tmp_path, "--lr", "1e300")
        assert proc.returncode == 2
        assert proc.stderr == _NOT_FINITE
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

    @pytest.mark.parametrize("command, scale, code, stderr", [
        pytest.param("synth", 1.0, 2, _NOT_FINITE, id="synth-sharpness"),
        pytest.param("combine", 1.0, 2, _NOT_FINITE, id="combine-nn"),
        pytest.param("check-bound", 1.0, 2, _NOT_FINITE, id="check-bound"),
        # on probabilities <= 0.3 the weighted sums stay finite and only
        # the weight sum overflows, to inf
        pytest.param("check-bound", 0.3, 0, "", id="check-bound-low-probs"),
    ])
    def test_overflow_warnings_stay_off_stderr(self, tmp_path, command, scale,
                                               code, stderr):
        suite = tmp_path / "suite"
        assert main(["synth", "--models", "2", "--acc", "0.8,0.9", "--n", "50",
                     "--out", str(suite)]) == 0
        preds = [str(suite / f"M{i}.csv") for i in (1, 2)]
        for path in preds:
            series = load_prediction_file(path)
            io_files.save_prediction_file(path, ProbSeries(series.ids,
                                                           series.values * scale))
        weights = tmp_path / "w.json"
        io_files.save_weights(weights, TrainResult(
            CombinerWeights(("M1", "M2"), [1e308, 1e308], 0.0), TrainConfig(),
            clipped_any=False, degenerate_labels=False))
        argv = {
            "synth": ["synth", "--models", "2", "--acc", "0.8,0.9", "--n", "1000",
                      "--sharpness", "1e308", "--out", str(tmp_path / "s")],
            "combine": ["combine", "--method", "nn", "--weights", str(weights),
                        "--preds", *preds, "--out", str(tmp_path / "c.csv")],
            "check-bound": ["check-bound", "--weights", str(weights), "--preds",
                            *preds, "--labels", str(suite / "labels.csv")],
        }[command]
        proc = self.cli(*argv)
        assert (proc.returncode, proc.stderr) == (code, stderr)
        if proc.returncode == 0:  # an infinite weight sum lies in no interval
            row = dict(zip(*(line.split("\t") for line in proc.stdout.splitlines())))
            assert (row["W"], row["contained"]) == ("inf", "no")


class TestSizeCeilings:
    """A size no run could hold exits 2 with one stderr line, and leaves
    the output as it was: refused with the flags where its size is known,
    else reported as running out of memory."""

    def test_cv_run_count_refused_before_any_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        out = tmp_path / "report.tsv"
        assert main(["cv", "--folds", "5", "--repeats", "100000000",
                     "--method", "nn", "--train-preds", missing,
                     "--train-labels", missing, "--test-preds", missing,
                     "--test-labels", missing, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "predfuse: invalid input: folds x repeats is 500000000 runs, "
            "more than 100000\n")
        assert not out.exists()

    def test_synth_sample_count_refused_before_it_draws(self, tmp_path):
        out = tmp_path / "D"
        out.mkdir()
        (out / "keep.txt").write_text("as it was\n")
        proc = capped_cli("synth", "--models", "2", "--acc", "0.8,0.9",
                          "--n", "10000001", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == ("predfuse: invalid input: sample count 10000001 "
                               "is more than 10000000\n")
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "as it was\n"

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path):
        out = tmp_path / "D"
        out.mkdir()
        (out / "keep.txt").write_text("as it was\n")
        proc = capped_cli("synth", "--models", "2", "--acc", "0.8,0.9",
                          "--n", "10000000", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("predfuse: out of memory")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "as it was\n"


_ENDING_SIGNALS = [signal.SIGINT, signal.SIGTERM, signal.SIGHUP]


class TestSignals:
    """SIGINT, SIGTERM or SIGHUP during a write exits 128+N with one stderr
    line, and the write's temporary files are gone."""

    @pytest.mark.parametrize("signum", _ENDING_SIGNALS, ids=lambda s: s.name)
    def test_a_signal_mid_write_leaves_no_partial_output(self, tmp_path, signum):
        out = tmp_path / "D"
        out.mkdir()
        (out / "keep.txt").write_text("as it was\n")
        env = dict(os.environ, PYTHONPATH=str(Path(predfuse.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")

        def defaults():  # as a shell started in the foreground would leave them
            for s in _ENDING_SIGNALS:
                signal.signal(s, signal.SIG_DFL)

        proc = subprocess.Popen(
            [sys.executable, "-m", "predfuse", "synth", "--models", "2",
             "--acc", "0.8,0.9", "--n", "1000000", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=defaults)
        try:
            deadline = time.monotonic() + 120
            # synth writes every file to a temporary one before any rename
            while not any(p.name != "keep.txt" for p in out.iterdir()):
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "no temporary file appeared"
                time.sleep(0.002)
            proc.send_signal(signum)
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert proc.returncode == 128 + signum
        assert err == f"predfuse: interrupted by {signum.name}\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "as it was\n"

    @pytest.mark.parametrize("before", [signal.SIG_DFL, signal.SIG_IGN])
    def test_the_callers_handlers_are_back_on_return(self, tmp_path, before):
        kept = {s: signal.signal(s, before) for s in _ENDING_SIGNALS}
        try:
            assert main(["synth", "--models", "2", "--acc", "0.8,0.9", "--n", "50",
                         "--out", str(tmp_path)]) == 0
            assert [signal.getsignal(s) for s in kept] == [before] * len(kept)
        finally:
            for s, handler in kept.items():
                signal.signal(s, handler)


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
        rows = list(csv.DictReader(io.StringIO(read(out)), delimiter="\t"))
        assert [r["kind"] for r in rows] == ["summary"] + ["run"] * 6
        assert rows[0]["detail"] == "method=nn"

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
        [summary] = csv.DictReader(io.StringIO(read(out)), delimiter="\t")
        assert float(summary["stdev"]) == 0.0


def _bad_labels(path, tmp_path, edit):
    """A copy of the label file at ``path`` whose ids differ from the
    predictions' by ``edit``, and the id it lacks (None for ``extra``)."""
    labels = io_files.load_label_file(path)
    ids, values, gone = list(labels.ids), list(labels.values), labels.ids[2]
    if edit == "missing":
        del ids[2], values[2]
    elif edit == "extra":
        ids, values, gone = ids + ["zz"], values + [1], None
    else:  # renamed: one id missing and one extra
        ids[2] = "zz"
    bad = tmp_path / f"bad-{edit}.csv"
    io_files.save_label_file(bad, LabelVector(ids, values))
    return str(bad), gone


def _align_error(gone):
    """``align_to``'s message for labels lacking ``gone`` (None: extra zz)."""
    return ("labels have extra sample id 'zz'" if gone is None
            else f"labels are missing sample id {gone!r}")


_EDITS = ["missing", "extra", "renamed"]
_CV_METHODS = [("--method", "nn"), ("--method", "sum"),
               ("--method", "hybrid", "--hybrid-base", "M3",
                "--hybrid-aux", "M1", "M2")]


class TestLabelIdsDifferFromPreds:
    """A label file whose ids differ from its predictions' fails where the
    command first pairs labels with rows, with the same message and exit
    code however the files are read; a model-name fault met first wins."""

    @staticmethod
    def argv(command, suite, labels, weights, *flags):
        preds = suite["train_preds"]
        return {"train-nn": ["train-nn", "--preds", *preds, "--labels", labels,
                             "--epochs", "2"],
                "sweep-theta": ["sweep-theta", "--preds", *preds,
                                "--labels", labels, *flags],
                "check-bound": ["check-bound", "--weights", str(weights),
                                "--preds", *preds, "--labels", labels],
                "eval": ["eval", "--preds", *preds, "--labels", labels],
                "eval-combined": ["eval", "--combined", preds[0],
                                  "--labels", labels]}[command]

    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("command", ["train-nn", "sweep-theta", "check-bound",
                                         "eval", "eval-combined"])
    def test_one_suite_commands(self, suite, tmp_path, capsys, command, edit):
        weights, out = tmp_path / "w.json", tmp_path / "out"
        assert main(_train_nn_args(suite, weights)) == 0
        labels, gone = _bad_labels(suite["train_labels"], tmp_path, edit)
        argv = self.argv(command, suite, labels, weights,
                         "--base", "M3", "--aux", "M1", "M2")
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"predfuse: invalid input: {_align_error(gone)}\n")

    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("flags, message", [
        (("--base", "M9", "--aux", "M1", "M2"),
         "unknown model 'M9'; have ['M1', 'M2', 'M3']"),
        (("--base", "M3", "--aux", "M3", "M2"),
         "base model 'M3' also listed as auxiliary"),
    ], ids=["unknown-base", "base-in-aux"])
    def test_sweep_theta_model_fault_wins(self, suite, tmp_path, capsys,
                                          edit, flags, message):
        labels, _ = _bad_labels(suite["train_labels"], tmp_path, edit)
        out = tmp_path / "out"
        argv = self.argv("sweep-theta", suite, labels, None, *flags)
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", f"predfuse: invalid input: {message}\n")

    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("method", _CV_METHODS, ids=["nn", "rule", "hybrid"])
    def test_cv_test_labels(self, suite, tmp_path, capsys, method, edit):
        labels, gone = _bad_labels(suite["test_labels"], tmp_path, edit)
        out = tmp_path / "report.tsv"
        assert main(_cv_args(dict(suite, test_labels=labels), out, *method)) == 2
        assert not out.exists()
        assert capsys.readouterr() == (
            "", f"predfuse: invalid input: {_align_error(gone)}\n")

    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("method", _CV_METHODS, ids=["nn", "rule", "hybrid"])
    def test_cv_train_labels(self, suite, tmp_path, capsys, method, edit):
        """Each fold takes the train labels of its own ids, so an extra id
        passes, and a rule, which trains nothing, takes none of them."""
        clean, out = tmp_path / "clean.tsv", tmp_path / "report.tsv"
        assert main(_cv_args(suite, clean, *method)) == 0
        labels, gone = _bad_labels(suite["train_labels"], tmp_path, edit)
        code = main(_cv_args(dict(suite, train_labels=labels), out, *method))
        if gone is None or method[1] == "sum":
            assert code == 0 and read(out) == read(clean)
            assert capsys.readouterr() == ("", "")
        else:
            assert code == 2 and not out.exists()
            assert capsys.readouterr() == (
                "", f"predfuse: invalid input: labels have no sample id {gone!r}\n")

    @pytest.mark.parametrize("edit", _EDITS)
    @pytest.mark.parametrize("side", ["train_labels", "test_labels"])
    @pytest.mark.parametrize("base, aux", [("M9", ("M1", "M2")), ("M3", ("M3", "M2"))],
                             ids=["unknown-base", "base-in-aux"])
    def test_cv_hybrid_double_faults(self, suite, tmp_path, capsys,
                                     edit, side, base, aux):
        """A base listed in aux is refused before any file is read.  An
        unknown base is met only when the first fold is swept: after the
        test labels are paired and that fold's train labels taken."""
        labels, gone = _bad_labels(suite[side], tmp_path, edit)
        ids = load_prediction_file(suite["train_preds"][0]).ids
        first_fold = evaluate.kfold_split(ids, 2, TrainConfig.seed)[0]
        out = tmp_path / "report.tsv"
        code = main(_cv_args(dict(suite, **{side: labels}), out, "--method",
                             "hybrid", "--hybrid-base", base, "--hybrid-aux", *aux))
        if base in aux:
            message = f"base model {base!r} also listed as auxiliary"
        elif side == "test_labels":
            message = _align_error(gone)
        elif gone in first_fold:
            message = f"labels have no sample id {gone!r}"
        else:
            message = "unknown model 'M9'; have ['M1', 'M2', 'M3']"
        assert code == 2 and not out.exists()
        assert capsys.readouterr() == ("", f"predfuse: invalid input: {message}\n")

    @pytest.mark.parametrize("command", ["train-nn", "sweep-theta", "check-bound",
                                         "eval"])
    def test_first_missing_id_in_row_order(self, tmp_path, capsys, command):
        """Labels lacking two ids name the first one the predictions list,
        whichever command pairs them."""
        preds = [str(tmp_path / f"M{j}.csv") for j in (1, 2, 3)]
        for path in preds:
            Path(path).write_text("id,prob\nc,0.2\na,0.9\nb,0.4\nd,0.7\n")
        full, short = tmp_path / "full.csv", tmp_path / "short.csv"
        full.write_text("id,label\na,1\nb,0\nc,0\nd,1\n")
        short.write_text("id,label\nb,0\nd,1\n")
        weights = tmp_path / "w.json"
        assert main(_train_nn_args({"train_preds": preds, "train_labels": str(full)},
                                   weights)) == 0
        argv = self.argv(command, {"train_preds": preds}, str(short), weights,
                         "--base", "M3", "--aux", "M1", "M2")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", "predfuse: invalid input: labels are missing sample id 'c'\n")

    @pytest.mark.parametrize("command", ["train-nn", "eval", "eval-combined"])
    def test_prediction_file_error_wins_over_label_file_error(
            self, tmp_path, capsys, command):
        """A command reads its prediction files before its label file, so
        when both are bad the prediction file's error is reported."""
        preds = [str(tmp_path / f"M{j}.csv") for j in (1, 2)]
        Path(preds[0]).write_text("id,prob\na,0.2\nb,1.5\n")
        Path(preds[1]).write_text("id,prob\na,0.3\nb,0.6\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\na,2\nb,0\n")
        argv = self.argv(command, {"train_preds": preds}, str(labels), None)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == (
            "", f"predfuse: invalid input: {preds[0]}:3: probability 1.5 outside [0, 1]\n")
