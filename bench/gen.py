"""Seeded input generator for the benchmark's workloads.

Every input comes from the benchmark seed alone, through numpy's PCG64, so
the same seed gives the same files byte for byte.  Ids are distinct random
integers written without padding, so their string order is not their
numeric order, and every model file and label file lists its rows in its
own shuffled order: a program that pairs rows by position instead of by id
produces outputs the checks reject.

The checks call :func:`draw` again to get their own copy of the inputs;
only the runner's set-up writes files.

    python3 bench/gen.py --workload cv-nn --seed 0 --repeat 3

writes the inputs under ``.bench_work/<workload>/in`` ``--repeat`` times
and prints the seconds each repetition took as the last line of JSON.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np

from workloads import TEXT_DOCS, WORKLOADS, Suite, Workload

_POS_CUES = [f"good{j}" for j in range(30)]
_NEG_CUES = [f"bad{j}" for j in range(30)]
_NEUTRAL = [f"w{j}" for j in range(600)]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed % 2 ** 64, *stream])))


def draw_suite(rng: np.random.Generator, suite: Suite) -> dict:
    """Labels and K correlated probability columns with the given accuracies.

    Model i sees z = mu_i * s + sqrt(rho) * g + sqrt(1 - rho) * e_i for the
    label sign s, shared noise g and private noise e_i, and emits
    sigmoid(2 z); hardening at 0.5 is right with probability Phi(mu_i).
    """
    n, k = suite.n, suite.k
    ids = [str(v) for v in (rng.choice(10 * n, size=n, replace=False) + 1).tolist()]
    u = (rng.random(n) < 0.5).astype(np.int64)
    mu = np.array([NormalDist().inv_cdf(a) for a in suite.acc])
    g = rng.standard_normal(n)
    e = rng.standard_normal((n, k))
    z = mu * (2.0 * u - 1.0)[:, None] + np.sqrt(suite.rho) * g[:, None] \
        + np.sqrt(1.0 - suite.rho) * e
    x = 1.0 / (1.0 + np.exp(-2.0 * z))
    orders = [rng.permutation(n) for _ in range(k + 1)]
    return {"ids": ids, "u": u, "x": x, "orders": orders}


def draw_corpus(rng: np.random.Generator) -> dict:
    """Short documents whose cue words lean toward their label."""
    u = (rng.random(TEXT_DOCS) < 0.5).astype(np.int64)
    docs = []
    for label in u.tolist():
        own, other = (_POS_CUES, _NEG_CUES) if label else (_NEG_CUES, _POS_CUES)
        words = []
        for r in rng.random(int(rng.integers(8, 21))).tolist():
            pool = own if r < 0.15 else other if r < 0.2 else _NEUTRAL
            word = pool[int(rng.integers(len(pool)))]
            words.append(word.capitalize() + "," if r > 0.97 else word)
        docs.append(" ".join(words))
    return {"docs": docs, "u": u, "order": rng.permutation(TEXT_DOCS)}


def draw_weights(rng: np.random.Generator, k: int) -> dict:
    w = rng.uniform(0.2, 1.5, k)
    return {"w": w, "b": float(w.sum() * rng.uniform(0.4, 0.6))}


def draw(workload: Workload, seed: int) -> dict:
    """All of a workload's inputs, keyed by suite name, 'corpus', 'weights'."""
    data = {s.name: draw_suite(_rng(seed, i), s)
            for i, s in enumerate(workload.suites)}
    if workload.corpus:
        data["corpus"] = draw_corpus(_rng(seed, 100))
    if workload.weights_file:
        data["weights"] = draw_weights(_rng(seed, 101), workload.suites[0].k)
    return data


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_inputs(workload: Workload, data: dict, root: Path) -> None:
    for suite in workload.suites:
        d = data[suite.name]
        ids, u, x, orders = d["ids"], d["u"].tolist(), d["x"], d["orders"]
        for i, name in enumerate(suite.names):
            col = x[:, i].tolist()
            _write_text(root / suite.name / f"{name}.csv", "id,prob\n" + "".join(
                f"{ids[j]},{col[j]!r}\n" for j in orders[i].tolist()))
        _write_text(root / suite.name / "labels.csv", "id,label\n" + "".join(
            f"{ids[j]},{u[j]}\n" for j in orders[-1].tolist()))
    if "corpus" in data:
        c = data["corpus"]
        _write_text(root / "corpus.txt", "".join(d + "\n" for d in c["docs"]))
        labels = c["u"].tolist()
        _write_text(root / "corpus-labels.csv", "id,label\n" + "".join(
            f"{j},{labels[j]}\n" for j in c["order"].tolist()))
    if "weights" in data:
        wt = data["weights"]
        k = len(wt["w"])
        doc = {"model_names": [f"M{i + 1}" for i in range(k)],
               "weights": wt["w"].tolist(), "b": wt["b"], "t": 0.5,
               "train_config": {"learning_rate": 0.001, "epochs": 1,
                                "batch_size": 32, "l2": 0.039,
                                "seed": 0, "shuffle_each_epoch": True},
               "clipped_any": False}
        _write_text(root / "weights.json", json.dumps(doc) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    root = Path(workload.root) / "in"
    times = []
    for _ in range(args.repeat):
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        write_inputs(workload, draw(workload, args.seed), root)
        times.append(time.perf_counter() - t0)
    print(json.dumps({"times": times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
