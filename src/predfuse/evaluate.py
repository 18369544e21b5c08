"""Cross-validation harness: fold splits, repeated runs, mean/stdev reports.

The protocol is deliberately asymmetric: the training pool is split into
folds, a combiner is fitted on each held-out fold's prediction rows, and
every fitted combiner is evaluated on the one full test matrix.  Trained
combiners are refitted ``repeats_per_fold`` times per fold with seeds
derived from (plan seed, fold, repeat), so runs are independent of
scheduling order: every (fold, repeat) run is fitted in one lock-step call
(:func:`~predfuse.combiner.train_runs`, one training loop per fold size),
then scored run by run through :func:`~predfuse.combiner.predict` (ids and
values checked once per call).  Fixed rules have nothing to fit and get one
record per fold; the hybrid's theta sweep is deterministic, so it does too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundReport, weight_sum_bounds
from .combiner import TrainConfig, TrainResult, predict, train_runs
from .core import (LabelVector, PredictionMatrix, SampleIds, _as_ids, accuracy,
                   check_seed)
from .errors import ValidationError
from .hybrid import _accuracy_at, _check_models, _check_theta, _table, theta_sweep
from .rules import apply_rule, check_rule_kind

__all__ = ["RunPlan", "RunRecord", "EvalReport",
           "NNMethod", "RuleMethod", "HybridMethod",
           "kfold_split", "derive_seed", "mean_stdev", "cross_validate",
           "report_render"]

_MASK64 = (1 << 64) - 1


def derive_seed(plan_seed: int, fold: int, repeat: int) -> int:
    """Per-run seed: splitmix64 finalizer folded over (plan_seed, fold, repeat).

    A pure function, so any scheduling of the (fold, repeat) grid reproduces
    the same runs.
    """
    h = 0
    for part in (plan_seed, fold, repeat):
        h = (h + (int(part) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def kfold_split(ids, n_folds: int, seed: int) -> tuple[SampleIds, ...]:
    """Seeded shuffle of the canonically sorted ids, then contiguous cuts.

    Plain ids are checked as a constructor checks them (``core._as_ids``);
    ids a matrix or label vector carries are not checked again.  Returns
    one tuple of checked ids per fold, which ``restrict`` takes as they
    are.  The cuts of unique ids are disjoint, at least two, non-empty, and
    differ in size by at most one.
    """
    ids = sorted(_as_ids(ids))
    _check_folds(len(ids), n_folds)
    check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = np.array_split(rng.permutation(len(ids)), n_folds)
    return tuple(SampleIds(map(ids.__getitem__, part.tolist())) for part in parts)


def _check_folds(n_ids: int, n_folds: int) -> None:
    if n_folds < 2:
        raise ValidationError("need at least two folds")
    if n_ids < n_folds:
        raise ValidationError(f"cannot split {n_ids} ids into {n_folds} folds")


_MAX_RUNS = 100_000  # folds x repeats; the README's protocol runs 150


@dataclass(frozen=True)
class RunPlan:
    n_folds: int = 5
    repeats_per_fold: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.n_folds < 2:
            raise ValidationError("need at least two folds")
        if self.repeats_per_fold < 1:
            raise ValidationError("need at least one repeat per fold")
        runs = self.n_folds * self.repeats_per_fold
        if runs > _MAX_RUNS:
            raise ValidationError(
                f"folds x repeats is {runs} runs, more than {_MAX_RUNS}")
        check_seed(self.seed)


@dataclass(frozen=True)
class NNMethod:
    """Fit the trained combiner on each fold."""

    config: TrainConfig = TrainConfig()


@dataclass(frozen=True)
class RuleMethod:
    """Apply one fixed decision rule; nothing is fitted."""

    rule: str

    def __post_init__(self):
        check_rule_kind(self.rule)


@dataclass(frozen=True)
class HybridMethod:
    """Sweep theta on each fold's rows, then evaluate the tuned hybrid."""

    base: str
    aux: tuple[str, ...]
    rule: str = "sum"
    grid: tuple[float, ...] = ()  # empty: theta_sweep's default grid

    def __post_init__(self):
        _check_models(self.base, self.aux, self.rule)
        object.__setattr__(self, "grid", tuple(_check_theta(g) for g in self.grid))


@dataclass(frozen=True)
class RunRecord:
    fold: int
    repeat: int
    accuracy: float
    detail: str = ""
    bound: BoundReport | None = None


@dataclass(frozen=True)
class EvalReport:
    """All per-run records plus their mean and sample standard deviation."""

    method: str
    records: tuple[RunRecord, ...]
    mean: float
    stdev: float

    @classmethod
    def from_records(cls, method: str, records) -> "EvalReport":
        records = tuple(records)
        m, s = mean_stdev([r.accuracy for r in records])
        return cls(method=method, records=records, mean=m, stdev=s)


def mean_stdev(values) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; 0 for a singleton."""
    v = [float(x) for x in values]
    if not v:
        raise ValidationError("cannot summarize an empty value list")
    m = sum(v) / len(v)
    if len(v) == 1:
        return m, 0.0
    var = sum((x - m) ** 2 for x in v) / (len(v) - 1)
    return m, math.sqrt(var)


def _check_shared_models(train_names, test_names) -> None:
    """Refuse train and test suites whose model name sets differ."""
    if set(train_names) != set(test_names):
        raise ValidationError(
            "train and test matrices name different models: "
            f"{sorted(train_names)} vs {sorted(test_names)}"
        )


def cross_validate(plan: RunPlan, train_preds: PredictionMatrix,
                   train_labels: LabelVector, test_preds: PredictionMatrix,
                   test_labels: LabelVector, method) -> EvalReport:
    """Run the fold/repeat protocol for one combination method.

    Every fitted run is scored on the full test matrix.  For the trained
    combiner a weight-sum bound report, computed on the fold it was trained
    on, is attached to each record.
    """
    _check_shared_models(train_preds.model_names, test_preds.model_names)
    _check_folds(len(train_preds.ids), plan.n_folds)
    test_u = LabelVector(test_preds.ids, test_labels.align_to(test_preds.ids))
    records = []
    if isinstance(method, NNMethod):
        label = "nn"
        folds = [(train_preds.restrict(ids), train_labels.restrict(ids))
                 for ids in kfold_split(train_preds.ids, plan.n_folds, plan.seed)]
        grid = [(f, r) for f in range(plan.n_folds)
                for r in range(plan.repeats_per_fold)]
        results = train_runs(folds, [
            (f, replace(method.config, seed=derive_seed(plan.seed, f, r)))
            for f, r in grid])
        test_m = test_preds.select(train_preds.model_names)
        for (f, r), result in zip(grid, results):
            records.append(_nn_run(f, r, result, *folds[f], test_m, test_u))
    elif isinstance(method, RuleMethod):  # nothing is fitted: no folds drawn
        label = method.rule
        acc = accuracy(apply_rule(method.rule, test_preds), test_u)
        for f in range(plan.n_folds):
            records.append(RunRecord(fold=f, repeat=0, accuracy=acc,
                                     detail=f"rule={method.rule}"))
    elif isinstance(method, HybridMethod):
        label = f"hybrid-{method.rule}"
        # an unknown model is left for the first fold's sweep to report
        if {method.base, *method.aux} <= set(test_preds.model_names):
            table = _table(method.base, method.aux, method.rule, test_preds, test_u)
        split = kfold_split(train_preds.ids, plan.n_folds, plan.seed)
        for f, fold_ids in enumerate(split):
            sweep = theta_sweep(method.base, method.aux, method.rule,
                                train_preds.restrict(fold_ids),
                                train_labels.restrict(fold_ids), method.grid or None)
            records.append(RunRecord(
                fold=f, repeat=0, accuracy=_accuracy_at(table, sweep.best_theta)[0],
                detail=f"base={method.base};rule={method.rule};"
                       f"theta={sweep.best_theta}"))
    else:
        raise ValidationError(f"unknown method {method!r}")
    return EvalReport.from_records(label, records)


def _nn_run(fold: int, repeat: int, result: TrainResult,
            fold_m: PredictionMatrix, fold_u: LabelVector,
            test_m: PredictionMatrix, test_u: LabelVector) -> RunRecord:
    """Score one trained run on the test rows and bound it on its fold.

    ``test_m`` holds the test columns in the run's model order and
    ``test_u`` the labels of the same ids, both prepared once per cv call.
    """
    acc = accuracy(predict(result.weights, test_m), test_u)
    bound = weight_sum_bounds(result.weights, fold_m, fold_u)
    clipped = "yes" if result.clipped_any else "no"
    w_text = "|".join(repr(float(w)) for w in result.weights.w)
    detail = (f"seed={result.config.seed};clipped={clipped};w={w_text};"
              f"b={result.weights.b!r}")
    return RunRecord(fold=fold, repeat=repeat, accuracy=acc, detail=detail,
                     bound=bound)


# --- TSV rendering -------------------------------------------------------

_COLUMNS = ("kind", "fold", "repeat", "accuracy", "mean", "stdev", "percent",
            "W", "lower", "upper", "contained", "detail")


def report_render(report: EvalReport, include_runs: bool = True) -> str:
    """Render a report as TSV: header, one summary row, optional run rows."""
    lines = ["\t".join(_COLUMNS)]
    summary = {
        "kind": "summary",
        "mean": repr(report.mean),
        "stdev": repr(report.stdev),
        "percent": f"{report.mean * 100.0:.2f}",
        "detail": f"method={report.method}",
    }
    lines.append(_row(summary))
    if include_runs:
        for r in report.records:
            row = {
                "kind": "run",
                "fold": str(r.fold),
                "repeat": str(r.repeat),
                "accuracy": repr(r.accuracy),
                "detail": r.detail,
            }
            if r.bound is not None:
                row.update({
                    "W": repr(r.bound.W),
                    "lower": repr(r.bound.lower),
                    "upper": repr(r.bound.upper),
                    "contained": "yes" if r.bound.contained else "no",
                })
            lines.append(_row(row))
    return "\n".join(lines) + "\n"


def _row(values: dict[str, str]) -> str:
    return "\t".join(values.get(c, "") for c in _COLUMNS)

