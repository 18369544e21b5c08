"""Foundational types and probability/threshold arithmetic.

Everything downstream works on three value types: a labelled sample set
(:class:`LabelVector`), a single per-sample probability column
(:class:`ProbSeries`), and K named columns sharing one id set
(:class:`PredictionMatrix`).  Alignment is always by sample id, never by row
order, ``accuracy``'s included, so files may list samples in any order
without silently misjoining; ``align_to`` takes only unique ids, and
``thresholded_distance`` pairs two id-keyed series by id or two arrays by
position, never one of each.
Ids and values are checked once: a public constructor checks plain ids
(strings, non-empty, unique by one ``set``, as the file reader's row scanner
checks them; a private ``SampleIds`` passes) and the values,
and ``select``, ``column``, ``restrict``, the join (``from_columns``, which
checks only the model names), the file reader and its suite join,
``predict``, ``apply_rule``, ``synth.generate`` and the hybrid's combined
column build from checked parts through the private ``_of_checked``.
Every value holds its ids as a ``SampleIds``: their UTF-8 bytes in one
buffer, decoded only when read, paired through an index of keys cut from
those bytes (``idkeys._pair``), never through an ``{id: row}`` dict.

The norm operations harden a real-valued series with the ``>= t`` rule first
and then take the Euclidean norm of the resulting 0/1 vector.  They accept
any finite series, not just probabilities; the hardening rule is defined on
raw values.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ValidationError
from .idkeys import SampleIds, _pair

__all__ = [
    "LabelVector",
    "ProbSeries",
    "PredictionMatrix",
    "sigmoid",
    "harden",
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


def _as_ids(ids) -> SampleIds:
    """``ids`` as checked ids; a non-empty :class:`SampleIds` passes as it is."""
    return ids if isinstance(ids, SampleIds) and ids else _check_ids(ids)


def _check_ids(ids) -> SampleIds:
    strs = [str(i) for i in ids]
    if not strs:
        raise ValidationError("sample id set is empty")
    if "" in strs:
        raise ValidationError("sample ids must be non-empty")
    if len(set(strs)) < len(strs):
        repeated = [sid for sid, n in Counter(strs).items() if n > 1]
        raise ValidationError(f"duplicate sample ids: {sorted(repeated)[:5]}")
    return SampleIds(strs)


def _rows_of(ids: SampleIds, wanted: SampleIds, missing: str) -> np.ndarray:
    """Row index in ``ids`` of each wanted id; AlignmentError names the first
    missing one.  ``wanted`` holds unique ids, as ``_as_ids`` makes them.

    Rows are found through an index of the bytes of ``ids``
    (``idkeys._pair``).
    """
    rows = _pair(ids, wanted)
    lost = np.flatnonzero(rows < 0)
    if lost.size:
        raise AlignmentError(f"{missing} {wanted[int(lost[0])]!r}")
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

    ids: Sequence[str]
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

    def align_to(self, ids: Sequence[str]) -> np.ndarray:
        """Return label values reordered to unique ``ids``; error if the sets differ."""
        return _align_values(self.ids, self.values, ids, what="labels")

    def restrict(self, ids) -> "LabelVector":
        """Sub-vector with the given sample ids, in the given order."""
        return _restrict(self, ids, "labels have no sample id")


@dataclass(frozen=True)
class ProbSeries:
    """One model's class-1 probabilities keyed by sample id."""

    ids: Sequence[str]
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

    def align_to(self, ids: Sequence[str]) -> np.ndarray:
        return _align_values(self.ids, self.values, ids, what="probabilities")


def _align_values(src_ids, src_values, target_ids, what: str) -> np.ndarray:
    if src_ids == target_ids:
        return src_values
    target_ids = _as_ids(target_ids)
    order = _rows_of(src_ids, target_ids, f"{what} are missing sample id")
    if len(target_ids) != len(src_ids):
        paired = np.zeros(len(src_ids), dtype=bool)
        paired[order] = True
        extra = src_ids[int(paired.argmin())]  # the first, in row order
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

    ids: Sequence[str]
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
    def from_columns(cls, names,
                     series: Iterable[ProbSeries]) -> "PredictionMatrix":
        """Join named series on their common id set (order of the first one).

        ``names`` holds one model name per series.  Every series must carry
        exactly the first one's ids, in any order, and an AlignmentError
        names the model and an id that one side lacks.  A series whose ids
        equal the first one's, in order, is taken as it is: the suite loader
        (``io_files.load_matrix``) places each later file into the first
        file's rows by sorted id keys as it reads it, so only a file it
        declines reaches this join with ids of its own.

        ``series`` is read once.  The (N, K) values are allocated when the
        first series arrives and each series is written into its column,
        so only the first series' ids and the values are kept.  A join
        error is raised once the rest is read, so an error the iterable
        raises wins.  Only ``ProbSeries`` are taken, as their values are
        already checked probabilities; the names are checked last.
        """
        names = tuple(names)
        values = error = None
        count = 0
        for count, column in enumerate(series, 1):
            if count > len(names):
                raise ValidationError(f"more series than the {len(names)} model names")
            name = names[count - 1]
            if not isinstance(column, ProbSeries):
                raise ValidationError(
                    f"model {name!r} is a {type(column).__name__}, not a ProbSeries")
            if values is None:
                base = _as_ids(column.ids)
                values = np.empty((len(base), len(names)))
            if error is None:
                try:
                    values[:, count - 1] = column.align_to(base)
                except AlignmentError as exc:
                    error = AlignmentError(f"model {name!r} vs {names[0]!r}: {exc}")
            del column  # its ids are freed before the next one is read
        if values is None:
            raise ValidationError("no prediction columns given")
        if count < len(names):
            raise ValidationError(f"{count} series for {len(names)} model names")
        if error is not None:
            raise error
        return _of_checked(cls, base, values, model_names=_model_names(names))

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


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), elementwise, stable for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    x1 = np.atleast_1d(x)
    out = _sigmoid(x1, _SigmoidBuffers(x1.shape, np.empty_like(x1)))
    return float(out[0]) if x.ndim == 0 else out


class _SigmoidBuffers:
    """Work arrays of :func:`_sigmoid` for one shape, views made once: one
    pair the exponentials overwrite in place, and the output array."""

    def __init__(self, shape, out: np.ndarray):
        self.pair = np.empty((2, *shape))
        self.neg_abs, self.low = self.pair
        self.out = out


def _sigmoid(x: np.ndarray, buf: _SigmoidBuffers) -> np.ndarray:
    """Kernel of :func:`sigmoid`: the result goes to ``buf.out``.

    A non-finite ``x`` raises before anything is exponentiated, and
    ``buf.out`` is then left as it was.
    """
    np.copysign(x, -1.0, out=buf.neg_abs)
    # -|x| is NaN or -inf exactly where x is not finite; an empty x passes
    if not np.minimum.reduce(buf.neg_abs, axis=None, initial=0.0) > -np.inf:
        raise ValidationError("sigmoid input must be finite")
    np.minimum(x, 0.0, out=buf.low)  # -|x| where x < 0, else 0
    np.exp(buf.pair, out=buf.pair)  # both in [0, 1], so nothing overflows
    den = np.add(buf.neg_abs, 1.0, out=buf.neg_abs)  # 1 + e^-|x|
    return np.divide(buf.low, den, out=buf.out)  # 1/(1+e^-x), or e^x/(1+e^x)


def harden(values, t: float = 0.5) -> np.ndarray:
    """Apply the >= t class-assignment rule elementwise to a raw series.

    The boundary goes to class 1.  Any finite values are accepted, so it
    hardens unbounded scores as well as probabilities.
    """
    t = check_threshold(t)
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise ValidationError("series must be finite")
    return (v >= t).astype(np.int64)


def thresholded_norm(values, t: float = 0.5) -> float:
    """Euclidean norm of the hardened series: sqrt(sum of I_t(y)^2)."""
    return float(np.sqrt(int(harden(values, t).sum())))


def thresholded_distance(y, z, t: float = 0.5) -> float:
    """Euclidean distance between two hardened series.

    Its square is the Hamming distance of the class assignments.  Two
    id-keyed series (``ProbSeries`` or ``LabelVector``) are paired by id,
    two arrays by position; one of each is rejected.
    """
    keyed = (ProbSeries, LabelVector)
    if isinstance(y, keyed) != isinstance(z, keyed):
        raise ValidationError(
            "thresholded_distance pairs two id-keyed series by id or two "
            f"arrays by position, got {type(y).__name__} and {type(z).__name__}")
    if isinstance(y, keyed):
        vy, vz = y.values, _align_values(z.ids, z.values, y.ids,
                                         what="second series")
    else:
        vy, vz = np.asarray(y, dtype=np.float64), np.asarray(z, dtype=np.float64)
        if len(vy) != len(vz):
            raise AlignmentError(
                f"series lengths differ: {len(vy)} vs {len(vz)}")
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
