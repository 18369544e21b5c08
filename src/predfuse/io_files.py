"""File formats and persistence: prediction/label CSVs, weights JSON, reports.

All formats are line-delimited UTF-8 text.  Reals round-trip exactly:
CSV probabilities use Python's shortest round-trip repr, the weights JSON
uses 17 significant digits.  Every write goes to a temporary file in the
target directory and is renamed into place, so failed runs never leave a
partial output behind.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

from .combiner import CombinerWeights, TrainConfig, TrainResult
from .core import LabelVector, PredictionMatrix, ProbSeries
from .errors import ConstraintError, ValidationError
from .evaluate import EvalReport, parse_report, report_render

__all__ = ["load_prediction_file", "save_prediction_file", "load_label_file",
           "save_label_file", "load_matrix", "save_matrix_files",
           "save_weights", "load_weights", "save_report", "load_report",
           "atomic_write_text"]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place,
    with the mode ``open`` would give (0o666 less the umask, not 0o600)."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)  # the only way to read it; restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_rows(path, header: tuple[str, str]):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        if first != list(header):
            raise ValidationError(
                f"{path}: header must be exactly {','.join(header)!r}, "
                f"got {','.join(first)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            yield lineno, row[0], row[1]


def load_prediction_file(path) -> ProbSeries:
    """Read an ``id,prob`` CSV; errors name the file, line, and value."""
    ids, values = [], []
    seen = set()
    for lineno, sid, raw in _read_rows(path, ("id", "prob")):
        if sid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate id {sid!r}")
        seen.add(sid)
        try:
            p = float(raw)
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: {raw!r} is not a number") from None
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValidationError(f"{path}:{lineno}: probability {raw} outside [0, 1]")
        ids.append(sid)
        values.append(p)
    if not ids:
        raise ValidationError(f"{path}: no prediction rows")
    return ProbSeries(tuple(ids), np.asarray(values))


def save_prediction_file(path, series: ProbSeries) -> None:
    lines = ["id,prob"]
    lines += [f"{sid},{float(val)!r}" for sid, val in zip(series.ids, series.values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_label_file(path) -> LabelVector:
    """Read an ``id,label`` CSV with labels in {0, 1}."""
    ids, values = [], []
    seen = set()
    for lineno, sid, raw in _read_rows(path, ("id", "label")):
        if sid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate id {sid!r}")
        seen.add(sid)
        if raw not in ("0", "1"):
            raise ValidationError(f"{path}:{lineno}: label must be 0 or 1, got {raw!r}")
        ids.append(sid)
        values.append(int(raw))
    if not ids:
        raise ValidationError(f"{path}: no label rows")
    return LabelVector(tuple(ids), np.asarray(values))


def save_label_file(path, labels: LabelVector) -> None:
    lines = ["id,label"]
    lines += [f"{sid},{val}" for sid, val in zip(labels.ids, labels.values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_matrix(paths, names=None) -> PredictionMatrix:
    """Join prediction files on their sample ids into one matrix.

    The join is strict: every file must carry exactly the same id set (in
    any order).  Model names default to the file stems.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValidationError("no prediction files given")
    if names is None:
        names = [p.stem for p in paths]
    names = [str(n) for n in names]
    if len(names) != len(paths):
        raise ValidationError(f"{len(paths)} files but {len(names)} model names")
    columns = [(name, load_prediction_file(path))
               for name, path in zip(names, paths)]
    base_name, base = columns[0]
    base_set = set(base.ids)
    for name, series in columns[1:]:
        other = set(series.ids)
        if other != base_set:
            missing = sorted(base_set - other) or sorted(other - base_set)
            raise ValidationError(
                f"prediction files disagree on sample ids: {name!r} vs "
                f"{base_name!r}, first mismatch id {missing[0]!r}"
            )
    return PredictionMatrix.from_columns(columns)


def save_matrix_files(out_dir, matrix: PredictionMatrix) -> list[Path]:
    """One ``<model>.csv`` per column, in the matrix's column order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name in matrix.model_names:
        path = out_dir / f"{name}.csv"
        save_prediction_file(path, matrix.column(name))
        written.append(path)
    return written


# --- combiner weights (JSON) ----------------------------------------------

def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


# train_config fields by declared type: (reader, JSON writer).
_TC_CODECS = {"float": (float, _fmt17), "int": (int, str),
              "bool": (bool, lambda v: "true" if v else "false")}


def save_weights(path, result: TrainResult) -> None:
    """Persist a training result; field order is fixed, reals carry 17
    significant digits."""
    w, cfg = result.weights, result.config
    tc = ", ".join(f'"{f.name}": {_TC_CODECS[f.type][1](getattr(cfg, f.name))}'
                   for f in fields(TrainConfig))
    doc = ", ".join([
        f'"model_names": {json.dumps(list(w.model_names))}',
        f'"weights": [{", ".join(_fmt17(x) for x in w.w)}]',
        f'"b": {_fmt17(w.b)}',
        f'"t": {_fmt17(w.t)}',
        f'"train_config": {{{tc}}}',
        f'"clipped_any": {"true" if result.clipped_any else "false"}',
    ])
    atomic_write_text(path, "{" + doc + "}\n")


def load_weights(path) -> TrainResult:
    """Load a weights document, enforcing the schema and the non-negativity
    constraint.  The degenerate-labels flag is not persisted and comes back
    False."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    required = ("model_names", "weights", "b", "t", "train_config", "clipped_any")
    for key in required:
        if key not in doc:
            raise ValidationError(f"{path}: missing field {key!r}")
    names = doc["model_names"]
    wvals = doc["weights"]
    if (not isinstance(names, list) or not isinstance(wvals, list)
            or len(names) != len(wvals)):
        raise ValidationError(f"{path}: model_names and weights must be "
                              "lists of equal length")
    tc = doc["train_config"]
    tc_fields = fields(TrainConfig)
    if not isinstance(tc, dict) or set(tc) != {f.name for f in tc_fields}:
        raise ValidationError(f"{path}: train_config must carry exactly "
                              f"{[f.name for f in tc_fields]}")
    try:
        weights = CombinerWeights(tuple(names), np.asarray(wvals, dtype=float),
                                  float(doc["b"]), float(doc["t"]))
        cfg = TrainConfig(**{f.name: _TC_CODECS[f.type][0](tc[f.name])
                             for f in tc_fields})
    except ConstraintError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return TrainResult(weights=weights, config=cfg,
                       clipped_any=bool(doc["clipped_any"]),
                       degenerate_labels=False)


def save_report(path, report: EvalReport, include_runs: bool = True) -> None:
    atomic_write_text(path, report_render(report, include_runs=include_runs))


def load_report(path) -> EvalReport:
    with open(path, encoding="utf-8") as fh:
        return parse_report(fh.read())
