"""Foundational types and probability/threshold arithmetic.

Everything downstream works on three value types: a labelled sample set
(:class:`LabelVector`), a single per-sample probability column
(:class:`ProbSeries`), and K named columns sharing one id set
(:class:`PredictionMatrix`).  Alignment is always by sample id, never by row
order, ``accuracy``'s included, so files may list samples in any order
without silently misjoining; ``align_to`` takes only unique ids.
Ids and values are checked once: a public constructor checks plain ids
(strings, non-empty, unique; a private ``SampleIds`` passes) and the values,
and ``select``, ``column``, ``restrict``, the join (``from_columns``, which
checks only the model names), the file reader, ``predict``, ``apply_rule``,
``synth.generate`` and the hybrid's combined column build from checked parts
through the private ``_of_checked``.

The norm operations harden a real-valued series with the ``>= t`` rule first
and then take the Euclidean norm of the resulting 0/1 vector.  They accept
any finite series, not just probabilities; the hardening rule is defined on
raw values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import AlignmentError, ValidationError

__all__ = [
    "LabelVector",
    "ProbSeries",
    "PredictionMatrix",
    "sigmoid",
    "shifted_sigmoid",
    "assign_class",
    "harden",
    "binary_norm",
    "thresholded_norm",
    "thresholded_distance",
    "accuracy",
    "check_threshold",
    "check_probs",
    "check_seed",
]


def check_threshold(t: float) -> float:
    """Validate a decision threshold, which must lie strictly inside (0, 1)."""
    t = float(t)
    if not np.isfinite(t) or not 0.0 < t < 1.0:
        raise ValidationError(f"decision threshold must satisfy 0 < t < 1, got {t}")
    return t


def check_probs(values) -> np.ndarray:
    """Validate probabilities, finite and in [0, 1]; return them as float64."""
    v = np.asarray(values, dtype=np.float64)
    bad = ~((v >= 0.0) & (v <= 1.0))  # NaN fails both comparisons
    if bad.any():
        raise ValidationError(f"probability {v[bad][0]} outside [0, 1]")
    return v


def check_seed(seed: int) -> None:
    """Validate a random seed; numpy's PCG64 accepts only non-negative ones."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")


class SampleIds(tuple):
    """A sample id tuple already known to be non-empty, unique strings.

    Build one only from ids that passed those checks: :func:`_as_ids` and
    the file reader do.  Every constructor takes it as it is, so the ids of
    a loaded file are checked once and then travel with the data.
    """

    __slots__ = ()


def _as_ids(ids) -> SampleIds:
    """``ids`` as checked ids; a :class:`SampleIds` passes as it is."""
    return ids if isinstance(ids, SampleIds) else _check_ids(ids)


def _check_ids(ids) -> SampleIds:
    out = SampleIds(str(i) for i in ids)
    if not out:
        raise ValidationError("sample id set is empty")
    if any(i == "" for i in out):
        raise ValidationError("sample ids must be non-empty")
    if len(set(out)) != len(out):
        dupes = sorted(i for i, n in Counter(out).items() if n > 1)
        raise ValidationError(f"duplicate sample ids: {dupes[:5]}")
    return out


def _rows_of(ids: tuple[str, ...], wanted, missing: str) -> np.ndarray:
    """Row index in ``ids`` of each wanted id; AlignmentError names the first
    missing one.  ``wanted`` holds unique ids, as ``_as_ids`` makes them.

    The dict is over ``wanted`` and ``ids`` is scanned once, so a fold's
    restrict, which wants a fifth of the rows, indexes only those.
    """
    slot = {sid: j for j, sid in enumerate(wanted)}
    where = np.fromiter(map(slot.get, ids, repeat(-1)), np.intp, len(ids))
    hit = np.flatnonzero(where >= 0)
    where = where[hit]  # the full scan is freed before rows is made
    rows = np.full(len(wanted), -1)
    rows[where] = hit
    if (rows < 0).any():
        lost = next(sid for sid, k in zip(wanted, rows) if k < 0)
        raise AlignmentError(f"{missing} {lost!r}")
    return rows


def _of_checked(cls, ids: SampleIds, values: np.ndarray, **fields):
    """A ``cls`` value from checked parts, none checked or copied again:
    ``values`` holds what the constructor would store, and becomes read-only."""
    out = object.__new__(cls)
    for name, value in (("ids", ids), ("values", values), *fields.items()):
        object.__setattr__(out, name, value)
    values.setflags(write=False)
    return out


def _restrict(value, ids, missing: str, **fields):
    """``value`` with the given sample ids, in the given order."""
    ids = _as_ids(ids)
    rows = _rows_of(value.ids, ids, missing)
    return _of_checked(type(value), ids, value.values[rows], **fields)


@dataclass(frozen=True)
class LabelVector:
    """Binary ground-truth labels keyed by sample id."""

    ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", _as_ids(self.ids))
        v = np.asarray(self.values)
        if v.ndim != 1 or v.shape[0] != len(self.ids):
            raise ValidationError("label values must be 1-d and match the id count")
        if not np.isin(v, (0, 1)).all():
            raise ValidationError("labels must be exactly 0 or 1")
        v = v.astype(np.int64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.ids)

    def align_to(self, ids: tuple[str, ...]) -> np.ndarray:
        """Return label values reordered to unique ``ids``; error if the sets differ."""
        return _align_values(self.ids, self.values, ids, what="labels")

    def restrict(self, ids) -> "LabelVector":
        """Sub-vector with the given sample ids, in the given order."""
        return _restrict(self, ids, "labels have no sample id")


@dataclass(frozen=True)
class ProbSeries:
    """One model's class-1 probabilities keyed by sample id."""

    ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", _as_ids(self.ids))
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != len(self.ids):
            raise ValidationError("probability values must be 1-d and match the id count")
        v = check_probs(v).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.ids)

    def align_to(self, ids: tuple[str, ...]) -> np.ndarray:
        return _align_values(self.ids, self.values, ids, what="probabilities")


def _align_values(src_ids, src_values, target_ids, what: str) -> np.ndarray:
    if src_ids == target_ids:
        return src_values
    target_ids = _as_ids(target_ids)
    order = _rows_of(src_ids, target_ids, f"{what} are missing sample id")
    if len(target_ids) != len(src_ids):
        wanted = set(target_ids)
        extra = next(sid for sid in src_ids if sid not in wanted)
        raise AlignmentError(f"{what} have extra sample id {extra!r}")
    return src_values[order]


def _model_names(names) -> tuple[str, ...]:
    """Model names as strings, which must be unique."""
    names = tuple(str(n) for n in names)
    if len(set(names)) != len(names):
        raise ValidationError("model names must be unique")
    return names


@dataclass(frozen=True)
class PredictionMatrix:
    """K named probability columns aligned to one sample id set.

    ``values`` has shape (N, K) with column order matching ``model_names``.
    All columns were joined on identical id sets at construction, so row j of
    every column refers to the same sample.
    """

    ids: tuple[str, ...]
    model_names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ids", _as_ids(self.ids))
        names = _model_names(self.model_names)
        if not names:
            raise ValidationError("a prediction matrix needs at least one model")
        object.__setattr__(self, "model_names", names)
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape != (len(self.ids), len(names)):
            raise ValidationError(
                f"values must have shape ({len(self.ids)}, {len(names)}), got {v.shape}"
            )
        v = check_probs(v).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_columns(
            cls, columns: Iterable[tuple[str, ProbSeries]]) -> "PredictionMatrix":
        """Join named series on their common id set (order of the first column).

        This is the package's one join of prediction columns: every series
        must carry exactly the first one's ids, in any order, and an
        AlignmentError names the model and an id that one side lacks.

        ``columns``, ``(name, ProbSeries)`` pairs, is read once, keeping only
        the first series' ids and the aligned values, so a generator reading
        a file per series holds one file's ids besides the first.  A join
        error is raised once the rest is read, so an error the iterable
        raises wins.  Only ``ProbSeries`` are taken, as their values are
        already checked probabilities; the names are checked.
        """
        names, cols, error = [], [], None
        for name, series in columns:
            if not isinstance(series, ProbSeries):
                raise ValidationError(
                    f"model {name!r} is a {type(series).__name__}, not a ProbSeries")
            if not names:
                first, base = name, _as_ids(series.ids)
            names.append(name)
            if error is None:
                try:
                    cols.append(series.align_to(base))
                except AlignmentError as exc:
                    error = AlignmentError(f"model {name!r} vs {first!r}: {exc}")
            del series  # its ids are freed before the next one is read
        if not names:
            raise ValidationError("no prediction columns given")
        if error is not None:
            raise error
        return _of_checked(cls, base, np.column_stack(cols),
                           model_names=_model_names(names))

    @property
    def n_samples(self) -> int:
        return len(self.ids)

    @property
    def n_models(self) -> int:
        return len(self.model_names)

    def column(self, name: str) -> ProbSeries:
        return _of_checked(ProbSeries, self.ids, self.values[:, self._col(name)])

    def select(self, names) -> "PredictionMatrix":
        """Sub-matrix with the given model columns, in the given order."""
        names = tuple(str(n) for n in names)
        if not names:
            raise ValidationError("model subset is empty")
        cols = [self._col(n) for n in names]
        if _model_names(names) == self.model_names:
            return self
        return _of_checked(PredictionMatrix, self.ids,
                           self.values.take(cols, axis=1), model_names=names)

    def restrict(self, ids) -> "PredictionMatrix":
        """Sub-matrix with the given sample ids, in the given order."""
        return _restrict(self, ids, "matrix has no sample id",
                         model_names=self.model_names)

    def _col(self, name: str) -> int:
        try:
            return self.model_names.index(str(name))
        except ValueError:
            raise ValidationError(
                f"unknown model {name!r}; have {list(self.model_names)}"
            ) from None


# --- scalar / vector arithmetic ------------------------------------------


_SIGMOID_NOT_FINITE = "sigmoid input must be finite"


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), elementwise, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValidationError(_SIGMOID_NOT_FINITE)
    x1 = np.atleast_1d(x)
    buf = _SigmoidBuffers(x1.shape, np.empty_like(x1), keep_neg_abs=False)
    out = _sigmoid(x1, buf)
    return float(out[0]) if x.ndim == 0 else out


class _SigmoidBuffers:
    """Work arrays of :func:`_sigmoid` for one shape, views made once.

    Without ``keep_neg_abs`` the exponentials overwrite their arguments,
    which saves two arrays the size of the input.
    """

    def __init__(self, shape, out: np.ndarray, keep_neg_abs: bool = True):
        self.pair = np.empty((2, *shape))
        self.exps = np.empty((2, *shape)) if keep_neg_abs else self.pair
        self.neg_abs, self.low = self.pair
        self.e_abs, self.e_low = self.exps
        self.out = out


def _sigmoid(x: np.ndarray, buf: _SigmoidBuffers) -> np.ndarray:
    """Unchecked kernel of :func:`sigmoid`: the result goes to ``buf.out``.

    ``buf.neg_abs`` keeps -|x|, which is NaN or -inf exactly where ``x`` is
    not finite, for a caller that checks after the fact.
    """
    np.copysign(x, -1.0, out=buf.neg_abs)
    np.minimum(x, 0.0, out=buf.low)  # -|x| where x < 0, else 0
    np.exp(buf.pair, out=buf.exps)  # both in [0, 1], so nothing overflows
    den = np.add(buf.e_abs, 1.0, out=buf.e_abs)
    return np.divide(buf.e_low, den, out=buf.out)  # 1/(1+e^-x), or e^x/(1+e^x)


def shifted_sigmoid(score, b: float):
    """Sigmoid with its argument re-centred: sigmoid(score - b).

    Combined scores of non-negative weights live in [0, sum(w)], to the right
    of the sigmoid's centre; subtracting the shift b re-centres them before
    thresholding.
    """
    return sigmoid(np.asarray(score, dtype=np.float64) - float(b))


def assign_class(p: float, t: float = 0.5) -> int:
    """Class label for a probability: 1 iff p >= t, else 0.

    The boundary goes to class 1. Input must be a probability; use
    :func:`harden` for raw-valued series.
    """
    t = check_threshold(t)
    return 1 if check_probs(float(p)) >= t else 0


def harden(values, t: float = 0.5) -> np.ndarray:
    """Apply the >= t class-assignment rule elementwise to a raw series.

    Unlike :func:`assign_class` this accepts any finite values, so it can
    harden unbounded scores as well as probabilities.
    """
    t = check_threshold(t)
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValidationError("series must be finite")
    return (v >= t).astype(np.int64)


def _binary_values(f) -> np.ndarray:
    if isinstance(f, LabelVector):
        return f.values
    v = np.asarray(f)
    if not np.isin(v, (0, 1)).all():
        raise ValidationError("binary norm needs a 0/1 vector")
    return v.astype(np.int64)


def binary_norm(f) -> float:
    """Euclidean norm of a binary vector: sqrt(count of ones)."""
    v = _binary_values(f)
    return float(np.sqrt(int(v.sum())))


def thresholded_norm(values, t: float = 0.5) -> float:
    """Euclidean norm of the hardened series: sqrt(sum of I_t(y)^2)."""
    return float(np.sqrt(int(harden(values, t).sum())))


def thresholded_distance(y, z, t: float = 0.5) -> float:
    """Euclidean distance between two hardened series.

    Its square is the Hamming distance of the class assignments.
    """
    ids_y = y.ids if isinstance(y, (ProbSeries, LabelVector)) else None
    ids_z = z.ids if isinstance(z, (ProbSeries, LabelVector)) else None
    vy = y.values if ids_y is not None else np.asarray(y, dtype=np.float64)
    vz = z.values if ids_z is not None else np.asarray(z, dtype=np.float64)
    if ids_y is not None and ids_z is not None:
        vz = _align_values(ids_z, vz, ids_y, what="second series")
    elif len(vy) != len(vz):
        raise AlignmentError(
            f"series lengths differ: {len(vy)} vs {len(vz)}"
        )
    diff = harden(vy, t) - harden(vz, t)
    return float(np.sqrt(int((diff * diff).sum())))


def accuracy(pred: ProbSeries, labels: LabelVector, t: float = 0.5) -> float:
    """Fraction of samples whose hardened prediction matches its label, by id."""
    t = check_threshold(t)
    if not (isinstance(pred, ProbSeries) and isinstance(labels, LabelVector)):
        raise ValidationError(
            "accuracy scores a ProbSeries against a LabelVector, got "
            f"{type(pred).__name__} and {type(labels).__name__}")
    return float((harden(pred.values, t) == labels.align_to(pred.ids)).mean())
