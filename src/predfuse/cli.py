"""Command-line surface binding the library together.

Subcommands: synth, train-nn, combine, eval, sweep-theta, check-bound, cv.
Exit codes: 0 success, 2 input validation error, 3 constraint violation
(even-K majority vote, theta out of range, negative weight), 4 I/O error.
Every command checks its flags before it reads any file.  Outputs go to
--out when given, else stdout; file writes are atomic and all commands are
deterministic given identical flags and seeds.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import io_files
from .combiner import TrainConfig, predict, train
from .core import LabelVector, accuracy, check_threshold
from .errors import ConstraintError, ValidationError
from .evaluate import (HybridMethod, NNMethod, RuleMethod, RunPlan,
                       cross_validate, report_render)
from .hybrid import HybridConfig, hybrid_predict, theta_sweep
from .rules import RULE_KINDS, apply_rule
from .bounds import weight_sum_bounds
from .synth import SyntheticSpec, generate

__all__ = ["main", "build_parser"]


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _grid(text: str) -> list[float]:
    """Parse lo:hi:step into lo, lo+step, ... up to hi, never past it.

    hi is kept when it lies on the grid, even where (hi - lo) / step falls
    just short of a whole number in floating point (0.55:0.95:0.1).
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be numeric, got {text!r}")
    if not (-math.inf < lo <= hi < math.inf and 0.0 < step < math.inf):
        raise argparse.ArgumentTypeError("grid needs finite values, step > 0 and hi >= lo")
    count = int((hi - lo) / step + 1e-9) + 1
    return [min(round(lo + i * step, 10), hi) for i in range(count)]


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predfuse",
        description="Combine probability outputs of binary classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a calibrated synthetic suite")
    p.add_argument("--models", type=int, required=True, help="number of models K")
    p.add_argument("--acc", type=_float_list, required=True,
                   help="comma-separated target accuracies, one per model")
    p.add_argument("--rho", type=float, default=0.3,
                   help="shared-noise fraction in [0, 1)")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--balance", type=float, default=0.5)
    p.add_argument("--sharpness", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-nn", help="train the weighted combiner")
    p.add_argument("--preds", nargs="+", required=True,
                   help="prediction CSVs, one per model (names from file stems)")
    p.add_argument("--labels", required=True)
    _add_train_flags(p)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="weights JSON path")

    p = sub.add_parser("combine", help="write a combined prediction file")
    p.add_argument("--method", required=True,
                   choices=("nn",) + RULE_KINDS + ("hybrid",))
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--weights", help="weights JSON (method nn)")
    p.add_argument("--hybrid-base", help="base model name (method hybrid)")
    p.add_argument("--hybrid-aux", nargs="+", help="auxiliary model names")
    p.add_argument("--rule", default="sum", choices=RULE_KINDS,
                   help="fallback rule (method hybrid)")
    p.add_argument("--theta", type=float, default=0.91)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="accuracy of predictions against labels")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--combined", help="a single combined prediction CSV")
    group.add_argument("--preds", nargs="+", help="per-model prediction CSVs")
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out")

    p = sub.add_parser("sweep-theta", help="tune the hybrid confidence threshold")
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--aux", nargs="+", required=True)
    p.add_argument("--rule", default="sum", choices=RULE_KINDS)
    p.add_argument("--grid", type=_grid, default=None, help="lo:hi:step")
    p.add_argument("--out")

    p = sub.add_parser("check-bound", help="weight-sum interval diagnostic")
    p.add_argument("--weights", required=True)
    p.add_argument("--preds", nargs="+", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")

    p = sub.add_parser("cv", help="cross-validation harness")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--repeats", type=int, default=30)
    p.add_argument("--method", required=True,
                   choices=("nn",) + RULE_KINDS + ("hybrid",))
    p.add_argument("--train-preds", nargs="+", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-preds", nargs="+", required=True)
    p.add_argument("--test-labels", required=True)
    _add_train_flags(p)  # its --seed also seeds the fold split
    p.add_argument("--hybrid-base")
    p.add_argument("--hybrid-aux", nargs="+")
    p.add_argument("--rule", default="sum", choices=RULE_KINDS)
    p.add_argument("--grid", type=_grid, default=None)
    p.add_argument("--summary-only", action="store_true",
                   help="omit per-run rows from the report")
    p.add_argument("--out")
    return parser


def _emit(text: str, out) -> None:
    if out:
        io_files.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> None:
    spec = SyntheticSpec(k=args.models, target_acc=tuple(args.acc),
                         rho=args.rho, n=args.n, balance=args.balance,
                         sharpness=args.sharpness, seed=args.seed)
    labels, matrix = generate(spec)
    io_files.save_matrix_files(args.out, matrix, labels)


def _train_config(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                       batch_size=args.batch, l2=args.l2, seed=args.seed)


def _hybrid_models(args) -> tuple[str, tuple[str, ...]]:
    if not args.hybrid_base or not args.hybrid_aux:
        raise ValidationError("--method hybrid needs --hybrid-base and --hybrid-aux")
    return args.hybrid_base, tuple(args.hybrid_aux)


def _cmd_train_nn(args) -> None:
    cfg, t = _train_config(args), check_threshold(args.threshold)
    matrix = io_files.load_matrix(args.preds)
    labels = io_files.load_label_file(args.labels)
    io_files.save_weights(args.out, train(matrix, labels, cfg, t=t))


def _cmd_combine(args) -> None:
    if args.method == "nn" and not args.weights:
        raise ValidationError("--method nn needs --weights")
    if args.method == "hybrid":
        cfg = HybridConfig(*_hybrid_models(args), args.rule, args.theta)
    matrix = io_files.load_matrix(args.preds)
    if args.method == "nn":
        series = predict(io_files.load_weights(args.weights).weights, matrix)
    elif args.method == "hybrid":
        series = hybrid_predict(cfg, matrix).series
    else:
        series, _ = apply_rule(args.method, matrix)
    io_files.save_prediction_file(args.out, series)


def _cmd_eval(args) -> None:
    t = check_threshold(args.threshold)
    labels = io_files.load_label_file(args.labels)
    if args.combined:
        matrix = io_files.load_matrix([args.combined], names=["combined"])
    else:
        matrix = io_files.load_matrix(args.preds)
    labels = LabelVector(matrix.ids, labels.align_to(matrix.ids))  # not per column
    lines = ["name\taccuracy\tpercent"]
    for name in matrix.model_names:
        acc = accuracy(matrix.column(name), labels, t)
        lines.append(f"{name}\t{acc!r}\t{acc * 100.0:.2f}")
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_sweep_theta(args) -> None:
    method = HybridMethod(args.base, tuple(args.aux), args.rule, tuple(args.grid or ()))
    matrix = io_files.load_matrix(args.preds)
    labels = io_files.load_label_file(args.labels)
    sweep = theta_sweep(method.base, method.aux, method.rule, matrix, labels,
                        method.grid or None)
    _emit(sweep.to_tsv(), args.out)


def _cmd_check_bound(args) -> None:
    result = io_files.load_weights(args.weights)
    matrix = io_files.load_matrix(args.preds)
    labels = io_files.load_label_file(args.labels)
    rep = weight_sum_bounds(result.weights, matrix, labels)
    lines = ["W\tlower\tupper\tcontained\tnorm_u\terr_y\terr_yhat\tdegenerate",
             "\t".join([repr(rep.W), repr(rep.lower), repr(rep.upper),
                        "yes" if rep.contained else "no", repr(rep.norm_u),
                        repr(rep.err_y), repr(rep.err_yhat),
                        "yes" if rep.degenerate else "no"])]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_cv(args) -> None:
    if args.method == "nn":
        method = NNMethod(config=_train_config(args))
    elif args.method == "hybrid":
        method = HybridMethod(*_hybrid_models(args), rule=args.rule,
                              grid=tuple(args.grid or ()))
    else:
        method = RuleMethod(args.method)
    plan = RunPlan(n_folds=args.folds, repeats_per_fold=args.repeats,
                   seed=args.seed)
    train_m = io_files.load_matrix(args.train_preds)
    train_u = io_files.load_label_file(args.train_labels)
    test_m = io_files.load_matrix(args.test_preds)
    test_u = io_files.load_label_file(args.test_labels)
    report = cross_validate(plan, train_m, train_u, test_m, test_u, method)
    _emit(report_render(report, include_runs=not args.summary_only), args.out)


_COMMANDS = {
    "synth": _cmd_synth,
    "train-nn": _cmd_train_nn,
    "combine": _cmd_combine,
    "eval": _cmd_eval,
    "sweep-theta": _cmd_sweep_theta,
    "check-bound": _cmd_check_bound,
    "cv": _cmd_cv,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ConstraintError as exc:
        print(f"predfuse: constraint violation: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"predfuse: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"predfuse: i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
