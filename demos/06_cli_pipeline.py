"""End-to-end pipeline through the command-line interface.

Everything here also works from a shell; the demo drives the same entry
point in-process.  A toy text classifier exports a prediction file, a
synthetic suite provides peers, and the files flow through train-nn,
combine, check-bound, and cv.
"""

import tempfile
from pathlib import Path

from predfuse import ProbSeries
from predfuse.cli import main
from predfuse.io_files import save_prediction_file
from predfuse.textmodel import predict_proba, train_logistic


def run(*argv):
    print("$ predfuse", " ".join(argv))
    code = main(list(argv))
    assert code == 0, f"exit {code}"


# everything the demo writes lives in one temporary directory, removed at exit
with tempfile.TemporaryDirectory(prefix="predfuse-demo-") as tmp:
    work = Path(tmp)
    print(f"working in {work}\n")

    # 1. synthetic suites for training and evaluation
    run("synth", "--models", "3", "--acc", "0.85,0.9,0.93", "--rho", "0.3",
        "--n", "4000", "--seed", "0", "--out", str(work / "train"))
    run("synth", "--models", "3", "--acc", "0.85,0.9,0.93", "--rho", "0.3",
        "--n", "8000", "--seed", "1", "--out", str(work / "test"))
    train_preds = [str(work / "train" / f"M{i}.csv") for i in (1, 2, 3)]
    test_preds = [str(work / "test" / f"M{i}.csv") for i in (1, 2, 3)]

    # 2. train the combiner and persist its weights
    run("train-nn", "--preds", *train_preds,
        "--labels", str(work / "train" / "labels.csv"),
        "--epochs", "60", "--seed", "0", "--out", str(work / "weights.json"))
    print((work / "weights.json").read_text(), end="\n")

    # 3. combined prediction file, then scored against the test labels
    run("combine", "--method", "nn", "--weights", str(work / "weights.json"),
        "--preds", *test_preds, "--out", str(work / "combined.csv"))
    run("eval", "--combined", str(work / "combined.csv"),
        "--labels", str(work / "test" / "labels.csv"))

    # 4. the weight-sum interval diagnostic on the training pool
    run("check-bound", "--weights", str(work / "weights.json"),
        "--preds", *train_preds,
        "--labels", str(work / "train" / "labels.csv"))

    # 5. a small fold/repeat protocol run
    run("cv", "--folds", "5", "--repeats", "3", "--method", "nn",
        "--epochs", "20",
        "--train-preds", *train_preds,
        "--train-labels", str(work / "train" / "labels.csv"),
        "--test-preds", *test_preds,
        "--test-labels", str(work / "test" / "labels.csv"),
        "--summary-only")

    # 6. text route: a toy bag-of-words model exports a compatible file
    docs = ["a wonderful heartfelt film", "dreadful pacing and a boring plot",
            "superb acting throughout", "tedious and awful writing"] * 10
    labels = [1, 0, 1, 0] * 10
    model = train_logistic(docs, labels, v_size=20, epochs=100, seed=0)
    ids = tuple(str(i) for i in range(len(docs)))
    save_prediction_file(work / "text.csv", ProbSeries(
        ids, [predict_proba(model, d) for d in docs]))
    (work / "text-labels.csv").write_text(
        "id,label\n" + "".join(f"{i},{lab}\n" for i, lab in enumerate(labels)),
        encoding="utf-8")
    run("eval", "--combined", str(work / "text.csv"),
        "--labels", str(work / "text-labels.csv"))
