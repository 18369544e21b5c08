"""File formats and persistence: prediction/label CSVs, weights JSON, reports.

All formats are line-delimited UTF-8 text.  Reals round-trip exactly:
CSV probabilities use Python's shortest round-trip repr, the weights JSON
uses 17 significant digits.  Every write goes to a temporary file in the
target directory and is renamed into place, so failed runs never leave a
partial output behind.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import re
import tempfile
from dataclasses import fields
from itertools import islice
from pathlib import Path

import numpy as np

from .combiner import CombinerWeights, TrainConfig, TrainResult
from .core import LabelVector, PredictionMatrix, ProbSeries
from .errors import ValidationError
from .evaluate import EvalReport, parse_report, report_render

__all__ = ["load_prediction_file", "save_prediction_file", "load_label_file",
           "save_label_file", "load_matrix", "save_matrix_files",
           "save_weights", "load_weights", "save_report", "load_report",
           "atomic_write_text"]


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place,
    with the mode ``open`` would give (0o666 less the umask, not 0o600)."""
    _atomic_write([(path, lambda fh: fh.write(text))])


def _atomic_write(writes) -> None:
    """For each ``(path, write)``, ``write(fh)`` fills a temp file beside
    ``path``; only when every file is written are they renamed into place,
    in order.  Nothing new is left if a write raises.  A target that is a
    directory, which would fail its rename, is refused before anything is
    written; any other failed rename leaves the files renamed before it."""
    for path, _ in writes:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(path))
    tmps = []
    try:
        for path, write in writes:
            path = Path(path)
            fd, tmp = tempfile.mkstemp(dir=path.parent or ".",
                                       prefix=path.name + ".")
            tmps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        umask = os.umask(0)  # the only way to read it; restored at once
        os.umask(umask)
        for tmp, (path, _) in zip(tmps, writes):
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


# --- id-keyed CSV files: the one reader and the one writer ----------------

def _read_csv(path, column: str, parse, noun: str) -> tuple[list[str], list]:
    """Ids and parsed values of an ``id,<column>`` CSV.

    ``parse`` turns one raw value into a number or raises ValueError with
    the reason; a bad row is reported as ``file:line: reason``.  A UTF-8 BOM
    before the header is skipped.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise ValidationError(f"{path}: empty file")
            if first != ["id", column]:
                raise ValidationError(f"{path}: header must be exactly "
                                      f"'id,{column}', got {','.join(first)!r}")
            ids, values, seen = [], [], set()
            for row in reader:
                if len(row) != 2:
                    if not row:
                        continue
                    raise ValueError(f"expected 2 fields, got {len(row)}")
                sid, raw = row
                if not sid:
                    raise ValueError("empty sample id")
                if sid in seen:
                    raise ValueError(f"duplicate id {sid!r}")
                seen.add(sid)
                ids.append(sid)
                values.append(parse(raw))
        except ValidationError:
            raise
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8") from None
        except (ValueError, csv.Error) as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if not ids:
        raise ValidationError(f"{path}: no {noun} rows")
    return ids, values


def _csv_writer(path, column: str, ids, cells):
    """A ``write(fh)`` for :func:`_atomic_write` that writes an
    ``id,<column>`` CSV a few thousand rows at a time, so no copy of the
    whole text is held."""
    def write(fh):
        quoted = map(_id_field, ids) if any(map(_QUOTED.search, ids)) else ids
        rows = (f"{sid},{cell}\n" for sid, cell in zip(quoted, cells))
        fh.write(f"id,{column}\n")
        try:
            while chunk := "".join(islice(rows, 4096)):
                fh.write(chunk)
        except UnicodeEncodeError as exc:  # a lone surrogate in an id
            bad = exc.object[exc.start:exc.end]
            raise ValidationError(f"{path}: sample id holds {bad!r}, "
                                  "which UTF-8 cannot encode") from None
    return path, write


_QUOTED = re.compile('[,"\r\n]')


def _id_field(sid: str) -> str:
    """An id as ``_read_csv`` reads it back: quoted when it holds ``,``,
    ``"``, ``\\r`` or ``\\n``.  (``csv.writer`` with a ``\\n`` line
    terminator would leave a lone ``\\r`` bare, which the reader splits on.)"""
    return '"' + sid.replace('"', '""') + '"' if _QUOTED.search(sid) else sid


def _prob(raw: str) -> float:
    try:
        p = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"probability {raw} outside [0, 1]")
    return p


def _label(raw: str) -> int:
    if raw not in ("0", "1"):
        raise ValueError(f"label must be 0 or 1, got {raw!r}")
    return int(raw)


def _prob_csv(path, ids, probs):
    return _csv_writer(path, "prob", ids, map(repr, map(float, probs)))


def _label_csv(path, labels: LabelVector):
    return _csv_writer(path, "label", labels.ids, labels.values)


def load_prediction_file(path) -> ProbSeries:
    """Read an ``id,prob`` CSV; errors name the file, line, and value."""
    ids, values = _read_csv(path, "prob", _prob, "prediction")
    return ProbSeries(tuple(ids), np.asarray(values))


def save_prediction_file(path, series: ProbSeries) -> None:
    _atomic_write([_prob_csv(path, series.ids, series.values)])


def load_label_file(path) -> LabelVector:
    """Read an ``id,label`` CSV with labels in {0, 1}."""
    ids, values = _read_csv(path, "label", _label, "label")
    return LabelVector(tuple(ids), np.asarray(values))


def save_label_file(path, labels: LabelVector) -> None:
    _atomic_write([_label_csv(path, labels)])


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
    return PredictionMatrix.from_columns(
        [(name, load_prediction_file(path)) for name, path in zip(names, paths)])


def save_matrix_files(out_dir, matrix: PredictionMatrix,
                      labels: LabelVector | None = None) -> list[Path]:
    """One ``<model>.csv`` per column, in the matrix's column order, then
    ``labels.csv`` when labels are given.  Every file is written before any
    is renamed into place, so a failed write leaves no new file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writes = [_prob_csv(out_dir / f"{name}.csv", matrix.ids, matrix.values[:, j])
              for j, name in enumerate(matrix.model_names)]
    if labels is not None:
        writes.append(_label_csv(out_dir / "labels.csv", labels))
    _atomic_write(writes)
    return [path for path, _ in writes]


# --- combiner weights (JSON) ----------------------------------------------

def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


# train_config fields by declared type: (reader, JSON writer).
_TC_CODECS = {"float": (float, _fmt17), "int": (int, str),
              "bool": (bool, lambda v: "true" if v else "false")}

# JSON value types a field of each declared type accepts: a float field also
# takes an integer literal, and only a bool field takes true/false.
_JSON_TYPES = {"float": (int, float), "int": (int,), "bool": (bool,)}


def _typed(path, key: str, value, kind: str):
    """``value`` read as ``kind``; ValidationError names the field otherwise."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise ValidationError(f"{path}: {key} must be a JSON {kind}, "
                              f"got {json.dumps(value)}")
    try:
        return _TC_CODECS[kind][0](value)
    except OverflowError:  # an integer literal beyond the float range
        raise ValidationError(f"{path}: {key} must be a finite number") from None


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
    constraint.  A UTF-8 BOM before the document is skipped.  The
    degenerate-labels flag is not persisted and comes back False."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8") from None
    except (ValueError, RecursionError) as exc:  # also: over 4300 digits, too deep
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    required = ("model_names", "weights", "b", "t", "train_config", "clipped_any")
    for key in required:
        if key not in doc:
            raise ValidationError(f"{path}: missing field {key!r}")
    names = doc["model_names"]
    wvals = doc["weights"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValidationError(f"{path}: model_names must be a JSON list of strings")
    if not isinstance(wvals, list) or len(names) != len(wvals):
        raise ValidationError(f"{path}: model_names and weights must be "
                              "lists of equal length")
    tc = doc["train_config"]
    tc_fields = fields(TrainConfig)
    if not isinstance(tc, dict) or set(tc) != {f.name for f in tc_fields}:
        raise ValidationError(f"{path}: train_config must carry exactly "
                              f"{[f.name for f in tc_fields]}")
    wvals = [_typed(path, "weights", v, "float") for v in wvals]
    b, t = (_typed(path, key, doc[key], "float") for key in ("b", "t"))
    tc = {f.name: _typed(path, f"train_config.{f.name}", tc[f.name], f.type)
          for f in tc_fields}
    clipped_any = _typed(path, "clipped_any", doc["clipped_any"], "bool")
    try:
        weights = CombinerWeights(tuple(names), np.asarray(wvals, dtype=float), b, t)
        cfg = TrainConfig(**tc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return TrainResult(weights=weights, config=cfg, clipped_any=clipped_any,
                       degenerate_labels=False)


def save_report(path, report: EvalReport, include_runs: bool = True) -> None:
    atomic_write_text(path, report_render(report, include_runs=include_runs))


def load_report(path) -> EvalReport:
    with open(path, encoding="utf-8") as fh:
        return parse_report(fh.read())
