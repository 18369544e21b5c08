"""Correctness checks for one round's outputs, computed apart from predfuse.

Every expected value is recomputed here in numpy from the checker's own
copy of the inputs (``gen.draw`` with the run's seed), joined by id, or is
a property the method must have.  Nothing is compared against a stored
copy of an earlier output.

    python3 bench/check.py --workload cv-nn --seed 0

reads ``.bench_work/<workload>/out`` and prints, as the last line, a JSON
object ``{"errors": [...]}``; an empty list means every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

import gen
from workloads import (BAD_GRID, CV_NN_REPEATS, FOLDS, TEXT_TRAIN_DOCS, THETA,
                       WORKLOADS, Workload, program_seed)

_AMBIGUOUS = 1e-9   # |score - boundary| below this may harden either way
_TOL = 1e-12
_L2 = 0.039


class Checks:
    """Collects failed checks instead of stopping at the first one."""

    def __init__(self):
        self.errors: list[str] = []

    def that(self, ok, what: str) -> bool:
        if not ok:
            self.errors.append(what)
        return bool(ok)

    def close(self, got, want, what: str, tol: float = _TOL) -> bool:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        ok = got.shape == want.shape and bool(
            np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))
        return self.that(ok, f"{what}: got {got.ravel()[:3]}, want {want.ravel()[:3]}")


# --- readers --------------------------------------------------------------

def read_csv(path: Path, header: str) -> tuple[list[str], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: header is not {header!r}")
    ids, vals = zip(*(ln.split(",") for ln in lines[1:])) if len(lines) > 1 else ((), ())
    return list(ids), list(vals)


def read_series(path: Path, ids: list[str]) -> np.ndarray:
    """The ``id,prob`` file's values joined to ``ids``; the id sets must match."""
    got_ids, vals = read_csv(path, "id,prob")
    index = {sid: j for j, sid in enumerate(got_ids)}
    if len(index) != len(got_ids) or set(index) != set(ids):
        raise ValueError(f"{path}: id set differs from the input's")
    values = np.array([float(v) for v in vals])
    return values[np.array([index[sid] for sid in ids])]


def read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]


# --- reference arithmetic -------------------------------------------------

def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def hard_interval(z: np.ndarray, u: np.ndarray) -> tuple[int, int]:
    """Fewest and most samples whose decision ``z >= 0`` can match ``u``.

    Samples within rounding distance of the boundary may go either way, so
    a recomputation with another summation order brackets the count.
    """
    ambiguous = np.abs(z) <= _AMBIGUOUS
    match = ((z >= 0).astype(np.int64) == u) & ~ambiguous
    return int(match.sum()), int(match.sum() + ambiguous.sum())


def rule(kind: str, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and labels of the README decision rules, ties to class 1."""
    if kind in ("sum", "avg"):
        s = x.mean(axis=1)
        return s, (s >= 0.5).astype(np.int64)
    if kind == "max":
        hi1, hi0 = x.max(axis=1), (1.0 - x).max(axis=1)
        return hi1 / (hi1 + hi0), (hi1 >= hi0).astype(np.int64)
    votes = (x >= 0.5).sum(axis=1)
    return votes / x.shape[1], (2 * votes > x.shape[1]).astype(np.int64)


def hybrid(x: np.ndarray, base: int, aux: list[int], kind: str, theta: float):
    """Scores and labels: the base model where max(p, 1-p) >= theta, else the rule."""
    p = x[:, base]
    keep = np.maximum(p, 1.0 - p) >= theta
    scores, labels = rule(kind, x[:, aux])
    return np.where(keep, p, scores), np.where(keep, (p >= 0.5).astype(np.int64), labels)


def default_grid() -> list[float]:
    return [round(0.51 + 0.01 * i, 2) for i in range(49)]


def sweep(x, u, base, aux, kind, grid) -> list[tuple[float, float, float]]:
    """(theta, accuracy, fallback fraction) for every theta of the grid."""
    p = x[:, base]
    conf = np.maximum(p, 1.0 - p)
    _, aux_lab = rule(kind, x[:, aux])
    rows = []
    for th in grid:
        fallback = conf < th
        lab = np.where(fallback, aux_lab, (p >= 0.5).astype(np.int64))
        rows.append((th, float((lab == u).mean()), float(fallback.mean())))
    return rows


def fold_split(ids: list[str], seed: int) -> list[np.ndarray]:
    """Row indices of each fold: a PCG64 shuffle of the string-sorted ids,
    cut into contiguous folds whose sizes differ by at most one."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(len(ids))
    return np.array_split(np.asarray(order)[perm], FOLDS)


def bce_l2(x, u, w, b) -> float:
    y = np.clip(sigmoid(x @ w - b), 1e-12, 1.0 - 1e-12)
    return float(-(u * np.log(y) + (1 - u) * np.log(1 - y)).mean() + _L2 * (w @ w))


# --- shared checks --------------------------------------------------------

def check_summary(c: Checks, rows: list[dict], what: str) -> list[dict]:
    """Summary mean and sample stdev recomputed from the run rows."""
    summary = [r for r in rows if r["kind"] == "summary"]
    runs = [r for r in rows if r["kind"] == "run"]
    if not c.that(len(summary) == 1 and runs, f"{what}: one summary row and runs"):
        return runs
    accs = [float(r["accuracy"]) for r in runs]
    stdev = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    c.close(float(summary[0]["mean"]), np.mean(accs), f"{what}: summary mean")
    c.close(float(summary[0]["stdev"]), stdev, f"{what}: summary stdev")
    c.that(summary[0]["percent"] == f"{float(summary[0]['mean']) * 100:.2f}",
           f"{what}: percent column")
    return runs


def check_bound_file(c: Checks, path: Path, x, u, w, b) -> None:
    """check-bound output against the interval formula of ``bounds``:
    (A - e) / (A + e_hat) <= W <= (A + e) / (A - e_hat), with A the norm of
    the hardened labels and e, e_hat the errors of the combined and the
    weight-normalized outputs."""
    (row,) = read_tsv(path)
    big_w = float(w.sum())
    c.close(float(row["W"]), big_w, "check-bound W")
    raw = x @ w
    a, e, e_hat = (float(row[k]) for k in ("norm_u", "err_y", "err_yhat"))
    c.that(round(a * a) == int(u.sum()) and math.isclose(a, math.sqrt(u.sum())),
           "check-bound norm_u is sqrt(positive labels)")
    for norm, z, what in ((e, raw - b, "err_y"), (e_hat, raw / big_w - b, "err_yhat")):
        lo, hi = hard_interval(z, u)   # matches; errors are n - matches
        errs = round(norm * norm)
        c.that(len(u) - hi <= errs <= len(u) - lo and math.isclose(norm, math.sqrt(errs)),
               f"check-bound {what} {norm} not sqrt of {len(u) - hi}..{len(u) - lo} errors")
    c.close(float(row["lower"]), (a - e) / (a + e_hat), "check-bound lower")
    degenerate = a - e_hat <= 0
    upper = math.inf if degenerate else (a + e) / (a - e_hat)
    if degenerate:
        c.that(row["upper"] == "inf", "check-bound upper is inf when A <= e_hat")
    else:
        c.close(float(row["upper"]), upper, "check-bound upper")
    contained = (a - e) / (a + e_hat) <= big_w <= upper
    c.that(row["contained"] == ("yes" if contained else "no"), "check-bound contained")
    c.that(row["degenerate"] == ("yes" if degenerate else "no"), "check-bound degenerate")


# --- per workload ---------------------------------------------------------

def check_cv_nn(c: Checks, w: Workload, data: dict, out: Path, seed: int) -> None:
    test = data["test"]
    x, u = test["x"], test["u"]
    runs = check_summary(c, read_tsv(out / "report.tsv"), "cv nn")
    c.that(sorted((int(r["fold"]), int(r["repeat"])) for r in runs)
           == [(f, r) for f in range(FOLDS) for r in range(CV_NN_REPEATS)],
           "cv nn: one run per (fold, repeat)")
    seeds = []
    for r in runs:
        detail = dict(kv.split("=", 1) for kv in r["detail"].split(";"))
        seeds.append(detail["seed"])
        wv = np.array([float(v) for v in detail["w"].split("|")])
        b = float(detail["b"])
        c.that((wv >= 0).all(), f"cv nn run {r['fold']}/{r['repeat']}: weights >= 0")
        c.close(float(r["W"]), wv.sum(), f"cv nn run {r['fold']}/{r['repeat']}: W = sum(w)")
        lo, hi = hard_interval(x @ wv - b, u)
        acc = float(r["accuracy"])
        c.that(lo / len(u) - _TOL <= acc <= hi / len(u) + _TOL,
               f"cv nn run {r['fold']}/{r['repeat']}: accuracy {acc} vs "
               f"recomputed {lo / len(u)}")
        upper = math.inf if r["upper"] == "inf" else float(r["upper"])
        inside = float(r["lower"]) <= float(r["W"]) <= upper
        c.that(r["contained"] == ("yes" if inside else "no"),
               f"cv nn run {r['fold']}/{r['repeat']}: contained flag")
    c.that(len(set(seeds)) == len(seeds), "cv nn: run seeds are distinct")
    best_single = float(((x >= 0.5) == u[:, None]).mean(axis=0).max())
    mean = statistics.fmean(float(r["accuracy"]) for r in runs)
    c.that(mean > best_single,
           f"cv nn: mean accuracy {mean} not above best single model {best_single}")


def check_fit_single(c: Checks, w: Workload, data: dict, out: Path, seed: int) -> None:
    pool, test = data["pool"], data["test"]
    doc = json.loads((out / "weights.json").read_text(encoding="utf-8"))
    wv, b = np.array(doc["weights"], dtype=float), float(doc["b"])
    k = len(wv)
    c.that(doc["model_names"] == w.suite("pool").names, "weights: model names")
    c.that((wv >= 0).all(), "weights: all >= 0")
    trained = bce_l2(pool["x"], pool["u"], wv, b)
    start = bce_l2(pool["x"], pool["u"], np.full(k, 1.0 / k), 0.5)
    c.that(trained < start, f"train-nn: loss {trained} not below start loss {start}")

    combined = read_series(out / "combined.csv", test["ids"])
    c.close(combined, sigmoid(test["x"] @ wv - b), "combine nn: sigmoid(x @ w - b)", 1e-10)
    (row,) = read_tsv(out / "eval.tsv")
    acc = float(((combined >= 0.5) == test["u"]).mean())
    c.that(row["name"] == "combined", "eval: row name")
    c.close(float(row["accuracy"]), acc, "eval --combined accuracy")
    check_bound_file(c, out / "bound.tsv", pool["x"], pool["u"], wv, b)

    corpus = data["corpus"]
    held = [str(j) for j in range(TEXT_TRAIN_DOCS, len(corpus["docs"]))]
    probs = read_series(out / "text.csv", held)
    u_held = corpus["u"][TEXT_TRAIN_DOCS:]
    text_acc = float(((probs >= 0.5) == u_held).mean())
    chance = 0.5 + 4 * 0.5 / math.sqrt(len(held))   # four standard errors of a coin
    c.that(text_acc > chance, f"text model: held-out accuracy {text_acc} <= {chance}")


def check_files_large(c: Checks, w: Workload, data: dict, out: Path, seed: int) -> None:
    pool, test = data["pool"], data["test"]
    ids, x, u = pool["ids"], pool["x"], pool["u"]
    names = w.suite("pool").names
    base, aux = names.index("M3"), [i for i, m in enumerate(names) if m != "M3"]
    maj_aux = [names.index(m) for m in ("M1", "M2", "M4")]

    synth = w.synth
    s_ids, s_labels = read_csv(out / "synth" / "labels.csv", "id,label")
    s_u = np.array([int(v) for v in s_labels])
    c.that(len(s_ids) == synth.n, "synth: sample count")
    for i, (name, target) in enumerate(zip(synth.names, synth.acc)):
        acc = float(((read_series(out / "synth" / f"{name}.csv", s_ids) >= 0.5) == s_u).mean())
        se = math.sqrt(target * (1 - target) / synth.n)
        c.that(abs(acc - target) <= 5 * se,
               f"synth {name}: accuracy {acc} more than 5 SE from {target}")

    c.close(read_series(out / "max.csv", ids), rule("max", x)[0], "combine max")
    c.close(read_series(out / "maj.csv", ids), rule("maj", x)[0], "combine maj")
    c.close(read_series(out / "hybrid.csv", ids), hybrid(x, base, aux, "sum", THETA)[0],
            "combine hybrid")
    wt = data["weights"]
    c.close(read_series(out / "nn.csv", ids), sigmoid(x @ wt["w"] - wt["b"]),
            "combine nn", 1e-10)

    rows = read_tsv(out / "eval.tsv")
    c.that([r["name"] for r in rows] == names, "eval: one row per model")
    for i, r in enumerate(rows):
        c.close(float(r["accuracy"]), ((x[:, i] >= 0.5) == u).mean(), f"eval {r['name']}")

    def check_sweep(path: Path, grid: list[float], what: str) -> None:
        got = [(float(r["theta"]), float(r["accuracy"]), float(r["fallback_fraction"]))
               for r in read_tsv(path)]
        c.that(len(got) == len(grid), f"{what}: one row per theta")
        c.close([g[0] for g in got], grid, f"{what}: thetas")
        want = sweep(x, u, base, maj_aux, "maj", grid)
        c.close(np.array(got)[:, 1:], np.array(want)[:, 1:], f"{what}: rows")

    check_sweep(out / "sweep.tsv", default_grid(), "sweep-theta")
    if (out / "sweep-grid.tsv").exists():   # written only once the grid fault is mended
        lo, hi, _ = (float(v) for v in BAD_GRID.split(":"))
        thetas = [float(r["theta"]) for r in read_tsv(out / "sweep-grid.tsv")]
        c.that(thetas and all(lo <= t <= hi for t in thetas),
               f"sweep-theta --grid {BAD_GRID}: thetas outside [{lo}, {hi}]")
        check_sweep(out / "sweep-grid.tsv", thetas, f"sweep-theta --grid {BAD_GRID}")
    check_bound_file(c, out / "bound.tsv", x, u, wt["w"], wt["b"])

    tx, tu = test["x"], test["u"]
    runs = check_summary(c, read_tsv(out / "cv-hybrid.tsv"), "cv hybrid")
    folds = fold_split(ids, program_seed(seed))
    c.that(len(runs) == FOLDS, "cv hybrid: one run per fold")
    for r, rows_f in zip(sorted(runs, key=lambda r: int(r["fold"])), folds):
        table = sweep(x[rows_f], u[rows_f], base, aux, "max", default_grid())
        best = max(acc for _, acc, _ in table)
        theta = min(th for th, acc, _ in table if acc == best)   # smallest argmax
        detail = dict(kv.split("=", 1) for kv in r["detail"].split(";"))
        c.that(float(detail["theta"]) == theta,
               f"cv hybrid fold {r['fold']}: theta {detail['theta']} is not the "
               f"smallest argmax {theta}")
        scores, _ = hybrid(tx, base, aux, "max", theta)
        c.close(float(r["accuracy"]), ((scores >= 0.5) == tu).mean(),
                f"cv hybrid fold {r['fold']}")

    runs = check_summary(c, read_tsv(out / "cv-max.tsv"), "cv max")
    want = float(((rule("max", tx)[0] >= 0.5) == tu).mean())
    c.that(len(runs) == FOLDS and len({r["accuracy"] for r in runs}) == 1,
           "cv max: equal scores on every fold")
    c.close([float(r["accuracy"]) for r in runs], [want] * len(runs), "cv max accuracy")


CHECKS = {"cv-nn": check_cv_nn, "fit-single": check_fit_single,
          "files-large": check_files_large}


def run_checks(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name]
    c = Checks()
    try:
        CHECKS[name](c, workload, gen.draw(workload, seed),
                     Path(workload.root) / "out", seed)
    except (OSError, ValueError, KeyError) as exc:
        c.errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return c.errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps({"errors": run_checks(args.workload, args.seed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
