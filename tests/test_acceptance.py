"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Published headline numbers are not reproducible at desk scale, so
the suite checks protocol fidelity, property equivalences against
independent oracles, and the qualitative structure of the results on
calibrated synthetic predictor suites.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

import predfuse as pf
from predfuse.cli import main as cli_main
from predfuse.io_files import load_label_file, save_prediction_file
from predfuse.rules import rule_scores
from predfuse.synth import SyntheticSpec, generate
from predfuse.textmodel import predict_proba, train_logistic


def report(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


SUITE = dict(k=4, target_acc=(0.88, 0.90, 0.93, 0.88), rho=0.3)
N_TRAIN, N_TEST, N_SEEDS = 5_000, 25_000, 10


@pytest.fixture(scope="module")
def combiner_runs():
    """Criterion-5 suite, shared by criteria 3, 5, 6, and 7."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(N_SEEDS):
        train_u, train_m = generate(SyntheticSpec(n=N_TRAIN, seed=seed, **SUITE))
        test_u, test_m = generate(SyntheticSpec(n=N_TEST, seed=seed + 10_000,
                                                **SUITE))
        result = pf.train(train_m, train_u, pf.TrainConfig(epochs=60, seed=seed))
        runs.append({
            "seed": seed,
            "train": (train_m, train_u),
            "test": (test_m, test_u),
            "result": result,
            "nn_acc": pf.accuracy(pf.predict(result.weights, test_m), test_u),
            "bound": pf.weight_sum_bounds(result.weights, train_m, train_u),
        })
    return {"runs": runs, "seconds": time.perf_counter() - t0}


def test_criterion_1_rule_equivalences(rng):
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 8):
        p = rng.uniform(0, 1, size=(10_000, k))
        sum_lab = pf.harden(rule_scores("sum", p))
        avg_lab = pf.harden(rule_scores("avg", p))
        ok &= bool((sum_lab == avg_lab).all())
        if k == 2:
            max_lab = pf.harden(rule_scores("max", p))
            ok &= bool((sum_lab == max_lab).all())
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, ok, f"avg==sum for K in 1..7, max==sum for K=2 over 10k vectors "
                  f"each, {elapsed:.2f}s")


def test_criterion_2_rule_oracle(rng):
    # brute force: aggregate both classes' posteriors, argmax with ties to 1
    def oracle(rule, p):
        q = 1.0 - p
        if rule in ("sum", "avg"):
            s1, s0 = p.sum(), q.sum()
        elif rule == "max":
            s1, s0 = p.max(), q.max()
        else:
            s1 = sum(1 for v in p if v >= 0.5)
            s0 = len(p) - s1
        return 1 if s1 >= s0 else 0

    mismatches = 0
    ks = rng.integers(1, 8, size=10_000)
    for k in range(1, 8):
        block = rng.uniform(0, 1, size=(int((ks == k).sum()), k))
        for rule in pf.RULE_KINDS if k % 2 == 1 else ("sum", "avg", "max"):
            labels = pf.harden(rule_scores(rule, block))
            mismatches += sum(int(label != oracle(rule, p))
                              for label, p in zip(labels, block))
    report(2, mismatches == 0,
           f"all four rules match the two-class argmax oracle on 10k vectors "
           f"({mismatches} mismatches)")


def test_criterion_3_nonnegative_weights(combiner_runs, rng, step_minima):
    train_m, train_u = combiner_runs["runs"][0]["train"]
    first = pf.train(train_m, train_u, pf.TrainConfig(epochs=3, seed=0))
    # adversarial anti-correlated column to force clipping
    u = rng.integers(0, 2, size=300)
    vals = np.column_stack([
        np.clip(1.0 - u + rng.normal(0, 0.05, size=300), 0, 1),
        np.clip(u + rng.normal(0, 0.05, size=300), 0, 1)])
    adv_m = pf.PredictionMatrix(tuple(map(str, range(300))), ("A", "B"), vals)
    adv_u = pf.LabelVector(tuple(map(str, range(300))), u)
    adv = pf.train(adv_m, adv_u, pf.TrainConfig(learning_rate=0.05, epochs=20,
                                                seed=1))
    steps = 3 * math.ceil(N_TRAIN / 32) + 20 * math.ceil(300 / 32)
    # each watched step sees the previous step's projection; the returned
    # weights are the last one
    finals = [r["result"] for r in combiner_runs["runs"]] + [first, adv]
    finals_ok = all((r.weights.w >= 0).all() for r in finals)
    ok = (len(step_minima) == steps and min(step_minima) >= 0.0 and finals_ok
          and adv.clipped_any)
    report(3, ok, f"weights >= 0 after every step ({len(step_minima)} of "
                  f"{steps} steps watched), "
                  f"clipping recorded: {adv.clipped_any}")


def test_criterion_4_gradient_check(rng):
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(5, 201))
        names = tuple(f"M{i + 1}" for i in range(k))
        ids = tuple(f"s{i}" for i in range(n))
        m = pf.PredictionMatrix(ids, names, rng.uniform(0, 1, size=(n, k)))
        labels = pf.LabelVector(ids, rng.integers(0, 2, size=n))
        w = rng.uniform(0.1, 2.0, size=k)
        b = float(rng.uniform(-1, 1))
        l2 = float(rng.uniform(0, 0.1))
        analytic = pf.gradient(pf.CombinerWeights(names, w, b), m, labels, l2)
        h = 1e-5
        fd = []
        for i in range(k):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd.append((pf.loss(pf.CombinerWeights(names, wp, b), m, labels, l2)
                       - pf.loss(pf.CombinerWeights(names, wm, b), m, labels, l2))
                      / (2 * h))
        fd.append((pf.loss(pf.CombinerWeights(names, w, b + h), m, labels, l2)
                   - pf.loss(pf.CombinerWeights(names, w, b - h), m, labels, l2))
                  / (2 * h))
        fd = np.asarray(fd)
        worst = max(worst, float(np.linalg.norm(analytic - fd)
                                 / max(np.linalg.norm(fd), 1e-8)))
    report(4, worst < 1e-4,
           f"analytic vs central differences on 50 instances, max rel err "
           f"{worst:.2e} < 1e-4")


def test_criterion_5_combination_beats_individuals(combiner_runs):
    t0 = time.perf_counter()
    runs = combiner_runs["runs"]
    nn_mean = float(np.mean([r["nn_acc"] for r in runs]))
    per_model = {name: [] for name in ("M1", "M2", "M3", "M4")}
    for r in runs:
        test_m, test_u = r["test"]
        for name in per_model:
            per_model[name].append(pf.accuracy(test_m.column(name), test_u))
    best_individual = max(float(np.mean(v)) for v in per_model.values())
    elapsed = combiner_runs["seconds"] + (time.perf_counter() - t0)
    ok = nn_mean > best_individual and elapsed < 120.0
    report(5, ok, f"nn mean {nn_mean:.4f} > best individual mean "
                  f"{best_individual:.4f} over {N_SEEDS} seeds")


def test_criterion_6_bound_checker(combiner_runs, rng):
    # (a) oracle equivalence on 100 random instances, scalar recomputation
    def oracle(w, b, t, x, u):
        total = sum(w)
        hard = lambda v: 1 if v >= t else 0
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        hu = [hard(v) for v in u]
        hy = [hard(sig(sum(wi * pi for wi, pi in zip(w, row)) - b)) for row in x]
        hyh = [hard(sig(sum(wi * pi for wi, pi in zip(w, row)) / total - b))
               for row in x]
        a = math.sqrt(sum(c * c for c in hu))
        e = math.sqrt(sum((p - q) ** 2 for p, q in zip(hu, hy)))
        eh = math.sqrt(sum((p - q) ** 2 for p, q in zip(hu, hyh)))
        lower = (a - e) / (a + eh) if a + eh > 0 else -math.inf
        upper = math.inf if a - eh <= 0 else (a + e) / (a - eh)
        return total, lower, upper

    max_err = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(5, 100))
        names = tuple(f"M{i + 1}" for i in range(k))
        ids = tuple(f"s{i}" for i in range(n))
        w = rng.uniform(0.05, 2.0, size=k)
        b, t = float(rng.uniform(-0.5, 2.0)), float(rng.uniform(0.1, 0.9))
        x = rng.uniform(0, 1, size=(n, k))
        u = rng.integers(0, 2, size=n)
        rep = pf.weight_sum_bounds(
            pf.CombinerWeights(names, w, b, t),
            pf.PredictionMatrix(ids, names, x), pf.LabelVector(ids, u))
        total, lower, upper = oracle(w, b, t, x, u)
        max_err = max(max_err, abs(rep.W - total))
        if math.isfinite(lower):
            max_err = max(max_err, abs(rep.lower - lower))
        if math.isfinite(upper):
            max_err = max(max_err, abs(rep.upper - upper))

    # (b) trained K=1 combiners: containment must hold in every run
    k1_contained = []
    for seed in range(10):
        u1, m1 = generate(SyntheticSpec(k=1, target_acc=(0.9,), rho=0.0,
                                        n=3_000, seed=seed))
        res = pf.train(m1, u1, pf.TrainConfig(epochs=40, seed=seed))
        k1_contained.append(pf.weight_sum_bounds(res.weights, m1, u1).contained)

    # (c) zero-error analytic case: interval is exactly [1, 1]
    u = np.array([1, 0, 1, 0, 1, 1])
    ids = tuple(map(str, range(6)))
    perfect = pf.PredictionMatrix(ids, ("A", "B"),
                                  np.column_stack([u, u]).astype(float))
    zrep = pf.weight_sum_bounds(
        pf.CombinerWeights(("A", "B"), np.array([0.5, 0.5]), 0.5),
        perfect, pf.LabelVector(ids, u))
    exact_unit = zrep.lower == 1.0 and zrep.upper == 1.0

    # (d) reported metric: containment rate on the criterion-5 suite
    rate = float(np.mean([r["bound"].contained
                          for r in combiner_runs["runs"]]))
    ok = max_err <= 1e-12 and all(k1_contained) and exact_unit
    report(6, ok, f"oracle max err {max_err:.1e} <= 1e-12; K=1 containment "
                  f"{sum(k1_contained)}/10; zero-error interval [1,1]; "
                  f"K=4 containment rate {rate:.0%} (reported, expect >= 90%)")


def test_criterion_7_hybrid_sweep(combiner_runs):
    base, aux, rule = "M3", ("M1", "M2", "M4"), "max"
    runs = combiner_runs["runs"]
    nn_mean = float(np.mean([r["nn_acc"] for r in runs]))
    tune_ok, test_accs = [], []
    for r in runs:
        train_m, train_u = r["train"]
        test_m, test_u = r["test"]
        sweep = pf.theta_sweep(base, aux, rule, train_m, train_u)
        tune_ok.append(sweep.best_accuracy
                       >= pf.accuracy(train_m.column(base), train_u))
        cfg = pf.HybridConfig(base, aux, rule, sweep.best_theta)
        pred = pf.hybrid_predict(cfg, test_m)
        test_accs.append(pf.accuracy(pred.series, test_u))
    hybrid_mean = float(np.mean(test_accs))
    gap = abs(nn_mean - hybrid_mean)
    ok = all(tune_ok) and gap <= 0.01
    report(7, ok, f"swept hybrid >= pure base on every tuning split; test mean "
                  f"{hybrid_mean:.4f} within {gap * 100:.2f}pp of nn mean "
                  f"{nn_mean:.4f}")


def test_criterion_8_protocol_fidelity(tmp_path):
    train_dir, test_dir = tmp_path / "train", tmp_path / "test"
    assert cli_main(["synth", "--models", "4", "--acc", "0.88,0.90,0.93,0.88",
                     "--rho", "0.3", "--n", "25000", "--seed", "100",
                     "--out", str(train_dir)]) == 0
    assert cli_main(["synth", "--models", "4", "--acc", "0.88,0.90,0.93,0.88",
                     "--rho", "0.3", "--n", "2000", "--seed", "101",
                     "--out", str(test_dir)]) == 0
    out = tmp_path / "report.tsv"
    code = cli_main(["cv", "--folds", "5", "--repeats", "30", "--seed", "0",
                     "--method", "nn", "--epochs", "2",
                     "--train-preds", *(str(train_dir / f"M{i}.csv")
                                        for i in (1, 2, 3, 4)),
                     "--train-labels", str(train_dir / "labels.csv"),
                     "--test-preds", *(str(test_dir / f"M{i}.csv")
                                       for i in (1, 2, 3, 4)),
                     "--test-labels", str(test_dir / "labels.csv"),
                     "--out", str(out)])
    summary, *runs = csv.DictReader(
        io.StringIO(out.read_text(encoding="utf-8")), delimiter="\t")
    grid = {(int(r["fold"]), int(r["repeat"])) for r in runs}
    mean, stdev = float(summary["mean"]), float(summary["stdev"])
    pool = load_label_file(train_dir / "labels.csv")
    folds = pf.kfold_split(pool.ids, 5, seed=0)
    sizes = [len(f) for f in folds]
    ok = (code == 0 and summary["kind"] == "summary"
          and [r["kind"] for r in runs] == ["run"] * 150
          and grid == {(f, r) for f in range(5) for r in range(30)}
          and sizes == [5000] * 5
          and math.isfinite(mean) and math.isfinite(stdev))
    report(8, ok, f"cv --folds 5 --repeats 30 gave {len(runs)} nn runs, "
                  f"folds {sizes}, mean {mean:.4f} stdev {stdev:.4f}")


def test_criterion_9_synthetic_calibration():
    targets = SUITE["target_acc"]
    within = True
    for seed in range(5):
        u, m = generate(SyntheticSpec(n=50_000, seed=seed, **SUITE))
        for name, a in zip(m.model_names, targets):
            band = 3 * math.sqrt(a * (1 - a) / 50_000)
            within &= abs(pf.accuracy(m.column(name), u) - a) <= band
    means = []
    for rho in (0.0, 0.3, 0.6):
        vals = []
        for seed in range(5):
            u, m = generate(SyntheticSpec(k=4, target_acc=targets, rho=rho,
                                          n=100_000, seed=seed))
            corr = pf.estimate_error_correlation(m, u)
            vals.append(float(corr[~np.eye(4, dtype=bool)].mean()))
        means.append(float(np.mean(vals)))
    monotone = means[0] < means[1] < means[2]
    report(9, within and monotone,
           f"accuracy within 3-sigma band at n=50k (5 seeds); error "
           f"correlation {means[0]:.3f} < {means[1]:.3f} < {means[2]:.3f} "
           f"over rho 0/0.3/0.6")


def test_criterion_10_cli_determinism(tmp_path):
    def run_all(tag):
        d = tmp_path / tag
        assert cli_main(["synth", "--models", "2", "--acc", "0.85,0.9",
                         "--n", "400", "--seed", "11", "--out", str(d)]) == 0
        w = d / "weights.json"
        assert cli_main(["train-nn", "--preds", str(d / "M1.csv"),
                         str(d / "M2.csv"), "--labels", str(d / "labels.csv"),
                         "--epochs", "4", "--seed", "2", "--out", str(w)]) == 0
        rep = d / "report.tsv"
        assert cli_main(["cv", "--folds", "2", "--repeats", "3", "--seed", "7",
                         "--method", "nn", "--epochs", "2",
                         "--train-preds", str(d / "M1.csv"), str(d / "M2.csv"),
                         "--train-labels", str(d / "labels.csv"),
                         "--test-preds", str(d / "M1.csv"), str(d / "M2.csv"),
                         "--test-labels", str(d / "labels.csv"),
                         "--out", str(rep)]) == 0
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    ok = run_all("a") == run_all("b")
    report(10, ok, "synth, train-nn, and cv reruns are byte-identical "
                   "given identical flags and seeds")


def test_criterion_11_toy_text_run(tmp_path, capsys):
    pos_words = ["great", "superb", "wonderful", "delightful", "excellent"]
    neg_words = ["awful", "boring", "dreadful", "tedious", "wretched"]
    docs, labels = [], []
    for i in range(40):
        if i % 2 == 0:
            docs.append(f"a {pos_words[i % 5]} film with {pos_words[(i + 2) % 5]} acting")
            labels.append(1)
        else:
            docs.append(f"an {neg_words[i % 5]} plot and {neg_words[(i + 3) % 5]} pacing")
            labels.append(0)
    model = train_logistic(docs, labels, v_size=30, epochs=150, seed=0)
    ids = tuple(str(i) for i in range(40))
    text_preds = pf.ProbSeries(ids, [predict_proba(model, d) for d in docs])
    save_prediction_file(tmp_path / "text.csv", text_preds)

    peer_u, peer_m = generate(SyntheticSpec(k=1, target_acc=(0.85,), n=40,
                                            seed=6))
    peer = pf.ProbSeries(ids, peer_m.column("M1").values)
    save_prediction_file(tmp_path / "peer.csv", peer)
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text(
        "id,label\n" + "".join(f"{i},{lab}\n" for i, lab in enumerate(labels)),
        encoding="utf-8")

    combined = tmp_path / "combined.csv"
    code1 = cli_main(["combine", "--method", "sum",
                      "--preds", str(tmp_path / "text.csv"),
                      str(tmp_path / "peer.csv"), "--out", str(combined)])
    code2 = cli_main(["eval", "--combined", str(combined),
                      "--labels", str(labels_path)])
    out = capsys.readouterr().out
    acc = float(out.strip().splitlines()[-1].split("\t")[1])
    ok = code1 == 0 and code2 == 0 and combined.exists() and 0.0 <= acc <= 1.0
    with capsys.disabled():
        report(11, ok, f"text model -> prediction file -> sum combine -> eval "
                       f"ran end to end (combined accuracy {acc:.2f})")
