"""Workload definitions shared by the runner, the input generator and the checks.

A workload is a set of generated inputs plus one round of operations: the
predfuse CLI commands (and, for ``fit-single``, one text-model fit) that a
run repeats until its time is up.  Every path is relative to the checkout
root, which is the working directory of every process the benchmark starts.

This module uses only the standard library, so the runner can import it
without importing numpy: the runner's own resident set then stays far below
that of any command it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORK_DIR = ".bench_work"
FOLDS = 5
CV_NN_REPEATS = 2          # cut from the README's 30 so a round takes ~5 s
CV_NN_EPOCHS = 200
FIT_EPOCHS = 40            # train-nn on the 20k-row pool: 25,000 ADAM steps
BATCH = 32
TEXT_DOCS, TEXT_TRAIN_DOCS, TEXT_VOCAB, TEXT_EPOCHS = 4000, 3200, 400, 20
THETA = 0.91
BAD_GRID = "0.51:0.99:0.05"  # cli._grid rounds 9.6 steps up and emits 1.01
DEFAULT_GRID_SIZE = 49       # hybrid.default_theta_grid: 0.51 .. 0.99


@dataclass(frozen=True)
class Suite:
    """One generated prediction suite: K model files plus a label file."""

    name: str
    n: int
    acc: tuple[float, ...]
    rho: float = 0.3

    @property
    def k(self) -> int:
        return len(self.acc)

    @property
    def names(self) -> list[str]:
        return [f"M{i + 1}" for i in range(self.k)]

    def preds(self, root: str) -> list[str]:
        return [f"{root}/in/{self.name}/{m}.csv" for m in self.names]

    def labels(self, root: str) -> str:
        return f"{root}/in/{self.name}/labels.csv"

    @property
    def rows(self) -> int:
        """Rows a command parses when it loads the suite's models and labels."""
        return (self.k + 1) * self.n


@dataclass(frozen=True)
class Op:
    """One operation of a round: a predfuse CLI command or the text fit.

    ``rows`` counts the data rows the operation parses plus writes, from the
    benchmark's own input sizes.  ``fits`` and ``steps`` count fitted runs
    and their optimizer steps (theta candidates for a hybrid sweep).
    ``may_fail`` names the exit code of a known program fault: the operation
    is then counted as failed without making the run incorrect.
    """

    name: str
    args: tuple[str, ...]
    kind: str = "cli"          # "cli": predfuse CLI; "text": bench/textfit.py
    rows: int = 0
    fits: int = 0
    steps: int = 0
    may_fail: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[Suite, ...]
    synth: Suite | None = None
    corpus: bool = False
    weights_file: bool = False

    @property
    def root(self) -> str:
        return f"{WORK_DIR}/{self.name}"

    def suite(self, name: str) -> Suite:
        return next(s for s in self.suites if s.name == name)

    def ops(self, seed: int) -> list[Op]:
        return _OPS[self.name](self, str(program_seed(seed)))


def program_seed(seed: int) -> int:
    """The seed passed to predfuse commands; the CLI rejects negative seeds."""
    return seed % (2 ** 31)


def steps_per_fit(n: int, epochs: int) -> int:
    return epochs * math.ceil(n / BATCH)


def _cv_nn_ops(w: Workload, seed: str) -> list[Op]:
    train, test = w.suite("train"), w.suite("test")
    fold_rows = train.n // FOLDS   # 5,000 rows split evenly into 5 folds
    runs = FOLDS * CV_NN_REPEATS
    return [Op("cv-nn", (
        "cv", "--folds", str(FOLDS), "--repeats", str(CV_NN_REPEATS),
        "--method", "nn", "--epochs", str(CV_NN_EPOCHS), "--seed", seed,
        "--train-preds", *train.preds(w.root), "--train-labels", train.labels(w.root),
        "--test-preds", *test.preds(w.root), "--test-labels", test.labels(w.root),
        "--out", f"{w.root}/out/report.tsv"),
        rows=train.rows + test.rows, fits=runs,
        steps=runs * steps_per_fit(fold_rows, CV_NN_EPOCHS))]


def _fit_single_ops(w: Workload, seed: str) -> list[Op]:
    pool, test = w.suite("pool"), w.suite("test")
    out = f"{w.root}/out"
    weights = f"{out}/weights.json"
    held_out = TEXT_DOCS - TEXT_TRAIN_DOCS
    return [
        Op("train-nn", ("train-nn", "--preds", *pool.preds(w.root),
                        "--labels", pool.labels(w.root), "--epochs", str(FIT_EPOCHS),
                        "--batch", str(BATCH), "--seed", seed, "--out", weights),
           rows=pool.rows, fits=1, steps=steps_per_fit(pool.n, FIT_EPOCHS)),
        Op("combine-nn", ("combine", "--method", "nn", "--weights", weights,
                          "--preds", *test.preds(w.root), "--out", f"{out}/combined.csv"),
           rows=test.k * test.n + test.n),
        Op("eval", ("eval", "--combined", f"{out}/combined.csv",
                    "--labels", test.labels(w.root), "--out", f"{out}/eval.tsv"),
           rows=2 * test.n),
        Op("check-bound", ("check-bound", "--weights", weights,
                           "--preds", *pool.preds(w.root),
                           "--labels", pool.labels(w.root), "--out", f"{out}/bound.tsv"),
           rows=pool.rows),
        Op("text-fit", ("--corpus", f"{w.root}/in/corpus.txt",
                        "--labels", f"{w.root}/in/corpus-labels.csv",
                        "--train-docs", str(TEXT_TRAIN_DOCS), "--vocab", str(TEXT_VOCAB),
                        "--epochs", str(TEXT_EPOCHS), "--seed", seed,
                        "--out", f"{out}/text.csv"),
           kind="text", rows=TEXT_DOCS + held_out, fits=1,
           steps=steps_per_fit(TEXT_TRAIN_DOCS, TEXT_EPOCHS)),
    ]


def _files_large_ops(w: Workload, seed: str) -> list[Op]:
    pool, test, synth = w.suite("pool"), w.suite("test"), w.synth
    out = f"{w.root}/out"
    preds, labels = pool.preds(w.root), pool.labels(w.root)
    aux = [m for m in pool.names if m != "M3"]
    combine_rows = pool.k * pool.n + pool.n
    cv_inputs = ("--train-preds", *preds, "--train-labels", labels,
                 "--test-preds", *test.preds(w.root), "--test-labels", test.labels(w.root),
                 "--folds", str(FOLDS), "--seed", seed)
    sweep = ("sweep-theta", "--preds", *preds, "--labels", labels,
             "--base", "M3", "--aux", "M1", "M2", "M4", "--rule", "maj")
    return [
        Op("synth", ("synth", "--models", str(synth.k),
                     "--acc", ",".join(str(a) for a in synth.acc), "--rho", str(synth.rho),
                     "--n", str(synth.n), "--seed", seed, "--out", f"{out}/synth"),
           rows=synth.rows),
        Op("combine-max", ("combine", "--method", "max", "--preds", *preds,
                           "--out", f"{out}/max.csv"), rows=combine_rows),
        Op("combine-maj", ("combine", "--method", "maj", "--preds", *preds,
                           "--out", f"{out}/maj.csv"), rows=combine_rows),
        Op("combine-hybrid", ("combine", "--method", "hybrid", "--preds", *preds,
                              "--hybrid-base", "M3", "--hybrid-aux", *aux,
                              "--rule", "sum", "--theta", str(THETA),
                              "--out", f"{out}/hybrid.csv"), rows=combine_rows),
        Op("combine-nn", ("combine", "--method", "nn", "--preds", *preds,
                          "--weights", f"{w.root}/in/weights.json",
                          "--out", f"{out}/nn.csv"), rows=combine_rows),
        Op("eval", ("eval", "--preds", *preds, "--labels", labels,
                    "--out", f"{out}/eval.tsv"), rows=pool.rows),
        Op("sweep-theta", (*sweep, "--out", f"{out}/sweep.tsv"),
           rows=pool.rows, fits=1, steps=DEFAULT_GRID_SIZE),
        Op("sweep-theta-grid", (*sweep, "--grid", BAD_GRID, "--out", f"{out}/sweep-grid.tsv"),
           rows=pool.rows, may_fail=3),
        Op("check-bound", ("check-bound", "--weights", f"{w.root}/in/weights.json",
                           "--preds", *preds, "--labels", labels,
                           "--out", f"{out}/bound.tsv"), rows=pool.rows),
        Op("cv-hybrid", ("cv", "--method", "hybrid", "--hybrid-base", "M3",
                         "--hybrid-aux", *aux, "--rule", "max", *cv_inputs,
                         "--out", f"{out}/cv-hybrid.tsv"),
           rows=pool.rows + test.rows, fits=FOLDS, steps=FOLDS * DEFAULT_GRID_SIZE),
        Op("cv-max", ("cv", "--method", "max", *cv_inputs, "--out", f"{out}/cv-max.tsv"),
           rows=pool.rows + test.rows),
    ]


_OPS = {"cv-nn": _cv_nn_ops, "fit-single": _fit_single_ops,
        "files-large": _files_large_ops}

_README_ACC = (0.88, 0.90, 0.93, 0.88)
_LARGE_ACC = (0.80, 0.85, 0.90, 0.87, 0.83)

WORKLOADS = {
    "cv-nn": Workload("cv-nn", (Suite("train", 5000, _README_ACC),
                                Suite("test", 25000, _README_ACC))),
    "fit-single": Workload("fit-single", (Suite("pool", 20000, _README_ACC),
                                          Suite("test", 25000, _README_ACC)),
                           corpus=True),
    "files-large": Workload("files-large", (Suite("pool", 50000, _LARGE_ACC),
                                            Suite("test", 25000, _LARGE_ACC)),
                            synth=Suite("synth", 50000, _LARGE_ACC),
                            weights_file=True),
}
