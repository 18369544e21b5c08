"""File formats and persistence: prediction/label CSVs and weights JSON.

All formats are line-delimited UTF-8 text.  Reals round-trip exactly:
CSV probabilities use Python's shortest round-trip repr, the weights JSON
uses 17 significant digits.  Every write goes to a temporary file in the
target directory and is renamed into place, so failed runs never leave a
partial output behind.

Every prediction or label CSV is read by one function, ``_read_csv``.  A
plain file (no quotes, ``\\r`` or NUL, one comma on every line) is parsed
in one pass over its bytes.  A file that pass declines is read once by the
``csv`` row scanner, which decides it, so every error, with its
``file:line``, is the scanner's.  Either way the ids (a ``SampleIds``, one
UTF-8 buffer) and values come back checked; the loaders check neither again.

A plain file keeps its ids' bytes and indexes them by keys cut from those
bytes (``idkeys``), sorted: two equal neighbours are a repeated id (or two
wide ids whose sort keys collide), and the row scanner then decides the
file, as it does where the keys would be far wider than the ids.  A suite
(``load_matrix``, ``load_suite``), named by its files' stems, keeps the
index of its first prediction file, only where a later prediction file or
the label file is placed into it.  Such a file is placed chunk by chunk as
it is read, rows in the first file's order as they come, any other by
finding its ids in the index, so it holds no ids, set or dict of its own.
The join writes each file's values into one (N, K) array.  A file the
placing pass declines (not plain, or not exactly the first file's ids) is
read by the row scanner, and the join or the caller's alignment decides it
as for a file read alone.
"""

from __future__ import annotations

import codecs
import csv
import errno
import io
import json
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .combiner import CombinerWeights, TrainConfig, TrainResult
from .core import (LabelVector, PredictionMatrix, ProbSeries, SampleIds,
                   _of_checked)
from .errors import ValidationError
from .idkeys import _decoded, _Index, _joined, _offsets, _place

__all__ = ["load_prediction_file", "save_prediction_file", "load_label_file",
           "save_label_file", "model_names", "load_matrix", "load_suite",
           "save_matrix_files", "save_weights", "load_weights",
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
            try:
                fd, tmp = tempfile.mkstemp(dir=Path(path).parent,
                                           prefix=Path(path).name + ".")
            except OSError as exc:  # named as the target, not the temp file
                raise type(exc)(exc.errno, exc.strerror, str(path)) from None
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

# About this many bytes of whole lines are parsed at once.  Larger chunks
# gain little speed, and at 64 KiB the heap their temporaries left behind
# raised the peak RSS of a cv run by about 4 %.
_CHUNK_BYTES = 1 << 14


def _read_csv(path, column: str, suite=None):
    """Checked ids and values of an ``id,<column>`` CSV.

    One plain pass (:func:`_plain_chunks`) either collects the rows
    (:func:`_plain_rows`) or, given a ``suite`` that holds the index of its
    first file (:class:`_Index`), places each chunk into it
    (:func:`_place`); an empty ``suite`` gets the index the pass builds.  A
    file the pass declines is read once by the row scanner
    (:func:`_scan_rows`), which decides it, so every error is the scanner's;
    in a suite, it is placed whole if it holds exactly the suite's ids, and
    otherwise keeps its own ids for the caller's alignment to report what
    differs.
    """
    dtype = _COLUMNS[column][3]
    placing = suite is not None and suite.ids is not None
    with _source(path) as src:
        read = (_place(_plain_chunks(src, column), suite, dtype) if placing
                else _plain_rows(src, column, suite))
        if read is not None:
            return read
        src.seek(0)
        ids, values = _scan_rows(src, path, column)
    ids, values = SampleIds(ids), np.asarray(values, dtype=dtype)
    # Only a file as long as the suite's first can hold exactly its ids.
    placed = (placing and len(ids) == len(suite.ids)
              and _place([(values, ids)], suite, dtype))
    return placed or (ids, values)


@contextmanager
def _source(path):
    """``path`` opened for binary reads that can seek back to the start:
    a pipe, which cannot, is read whole into memory."""
    with open(path, "rb") as fh:
        yield fh if fh.seekable() else io.BytesIO(fh.read())


def _plain_rows(fh, column: str, suite=None):
    """Checked ids and values of a plain ``id,<column>`` CSV read from
    binary ``fh``, or None, also when an id repeats.

    A plain file holds no ``"``, ``\\r`` or NUL (Python 3.10's ``csv``
    rejects NUL, 3.11 reads it), and after an optional BOM and one final
    ``\\n`` its ``,`` and ``\\n`` separators strictly alternate: every line
    holds exactly two fields, so ``csv`` would split it the same way.  None
    also when the scanner would reject the header, a field's length, an id
    or a value, or when no row follows the header.

    The ids are kept as bytes; their index (:class:`_Index`) is the check
    for a repeated id, and None also where they get none.  An empty
    ``suite`` keeps it.
    """
    ids, values = [], []
    for chunk in _plain_chunks(fh, column):
        if chunk is None:
            return None
        values.append(chunk[0])
        ids.append(chunk[1])
    if not ids:
        return None
    ids = _joined(ids)
    if (suite or _Index()).build(ids) is None:
        return None  # an id repeats, or the ids get no index
    return ids, np.concatenate(values)


def _plain_chunks(fh, column: str):
    """The ``(values, ids)`` of each chunk of whole lines of a plain
    ``id,<column>`` CSV (:func:`_plain_rows`), so every temporary is
    chunk-sized; a last None where the file is found not plain."""
    if fh.readline(64).removeprefix(codecs.BOM_UTF8) != f"id,{column}\n".encode():
        yield None
        return
    parse_all, limit = _COLUMNS[column][1], csv.field_size_limit()
    while block := fh.read(_CHUNK_BYTES):
        chunk = _plain_chunk((block + fh.readline()).removesuffix(b"\n"),
                             parse_all, limit)
        yield chunk
        if chunk is None:
            return


def _plain_chunk(block: bytes, parse_all, limit: int):
    """Parsed values and the ids (a ``SampleIds`` whose buffer holds them
    alone) of ``block``, whole lines of a plain file without the last
    ``\\n``, or None if they are not plain."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    raw = np.frombuffer(block, dtype=np.uint8)
    cuts = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    seps = raw[cuts]
    if (cuts.size % 2 == 0 or (seps[0::2] != ord(",")).any()
            or (seps[1::2] != ord("\n")).any()):
        return None  # a line without exactly one comma, or a blank one
    # Field sizes in bytes, an upper bound on their sizes in characters.
    sizes = np.diff(cuts, prepend=-1, append=raw.size) - 1
    if sizes.max() > limit or (sizes[0::2] == 0).any():
        return None  # a field csv finds too long, or an empty id
    try:
        fields = block.decode("utf-8").replace("\n", ",").split(",")
    except UnicodeDecodeError:
        return None
    part = parse_all(fields[1::2])
    if part is None:
        return None
    ids = np.frombuffer("".join(fields[0::2]).encode(), dtype=np.uint8)
    return part, SampleIds._of(ids, _offsets(sizes[0::2]))


def _scan_rows(fh, path, column: str) -> tuple[list[str], list]:
    """The row scanner: ids and parsed values of any ``id,<column>`` CSV
    that ``csv`` reads from binary ``fh``, a bad row reported as
    ``file:line: reason``.  A UTF-8 BOM before the header is skipped."""
    parse, _, noun, _ = _COLUMNS[column]
    with io.TextIOWrapper(fh, encoding="utf-8-sig", newline="") as text:
        reader = csv.reader(text)
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


def _csv_writer(path, column: str, ids: SampleIds, values: np.ndarray):
    """A ``write(fh)`` for :func:`_atomic_write` that writes an
    ``id,<column>`` CSV a few thousand rows at a time, so no copy of the
    whole text, and no list of all its ids or values, is held: each chunk's
    ids are decoded at once and its values formatted from one list."""
    def write(fh):
        fh.write(f"id,{column}\n")
        try:
            for rows, chunk in _decoded(ids):
                quoted = map(_id_field, chunk) if _QUOTED.search("".join(chunk)) else chunk
                fh.write("".join([f"{sid},{cell!r}\n" for sid, cell
                                  in zip(quoted, values[rows].tolist())]))
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


def _probs(raws: list[str]) -> np.ndarray | None:
    """:func:`_prob` of every raw value, or None if one fails.  numpy reads
    each str as Python's ``float`` does (``test_io``'s differential test
    holds it to that) and builds no string array on the way."""
    try:
        v = np.array(raws, dtype=np.float64)
    except ValueError:
        return None
    return v if ((v >= 0.0) & (v <= 1.0)).all() else None  # NaN fails too


def _labels(raws: list[str]) -> np.ndarray | None:
    """:func:`_label` of every raw value, or None if one fails."""
    return np.array(raws, dtype=np.int64) if set(raws) <= {"0", "1"} else None


# The value column of each file kind: (one raw value, all raw values at
# once or None, noun for "no <noun> rows", dtype).
_COLUMNS = {"prob": (_prob, _probs, "prediction", np.float64),
            "label": (_label, _labels, "label", np.int64)}


def _label_csv(path, labels: LabelVector):
    return _csv_writer(path, "label", labels.ids, labels.values)


def load_prediction_file(path) -> ProbSeries:
    """Read an ``id,prob`` CSV; errors name the file, line, and value."""
    return _of_checked(ProbSeries, *_read_csv(path, "prob"))


def save_prediction_file(path, series: ProbSeries) -> None:
    _atomic_write([_csv_writer(path, "prob", series.ids, series.values)])


def load_label_file(path) -> LabelVector:
    """Read an ``id,label`` CSV with labels in {0, 1}."""
    return _of_checked(LabelVector, *_read_csv(path, "label"))


def save_label_file(path, labels: LabelVector) -> None:
    _atomic_write([_label_csv(path, labels)])


def model_names(paths) -> list[str]:
    """The model names of a suite's prediction files: their stems."""
    return [Path(p).stem for p in paths]


def load_matrix(paths) -> PredictionMatrix:
    """Join prediction files on their sample ids into one matrix.

    The join is strict: every file must carry exactly the same id set (in
    any order).  Model names are the file stems.  Given later files, the
    first file's ids are indexed once, by the sorted keys of their bytes,
    and each later file is placed into that index as it is read, so it
    holds no ids of its own (:func:`_read_csv`); a lone file is read with
    no index.  Every file is still read, and a file that fails to parse
    wins over a join error in an earlier one.
    """
    return _load_suite(paths)


def load_suite(paths, labels) -> tuple[PredictionMatrix, LabelVector]:
    """:func:`load_matrix` of ``paths``, then the label file ``labels``
    placed into the same id index, by finding its ids there unless its
    rows come in the first file's order: how every command that reads
    labels, ``eval`` too, pairs them with prediction rows.

    Labels that hold exactly the matrix's ids come back keyed by the
    matrix's own ``ids``.  Any other label file comes back as
    :func:`load_label_file` reads it, so the caller's ``align_to`` or
    ``restrict`` fails on it just where it would on that.  The label file is
    read last, so a prediction file's error wins over the label file's.
    """
    return _load_suite(paths, labels)


def _load_suite(paths, labels=None):
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValidationError("no prediction files given")
    # The one index, only where a later file or the labels are placed into it.
    suite = _Index() if len(paths) > 1 or labels is not None else None
    ids, values = _read_csv(paths[0], "prob", suite)
    if suite is not None and suite.ids is None:  # the row scanner read it
        suite = suite.build(ids)  # None: each file alone
    series = _suite_series(_of_checked(ProbSeries, ids, values), paths[1:], suite)
    del values  # the join alone holds them, and frees them once copied
    matrix = PredictionMatrix.from_columns(model_names(paths), series)
    if labels is None:
        return matrix
    return matrix, _of_checked(LabelVector, *_read_csv(labels, "label", suite))


def _suite_series(first: ProbSeries, paths, suite):
    """``first``, then each of ``paths`` read into ``suite`` as it is
    needed.  Only the join holds ``first`` once it is yielded, so its
    values are freed as soon as they are copied."""
    yield first
    del first
    for path in paths:
        yield _of_checked(ProbSeries, *_read_csv(path, "prob", suite))


def save_matrix_files(out_dir, matrix: PredictionMatrix,
                      labels: LabelVector | None = None) -> list[Path]:
    """One ``<model>.csv`` per column, in the matrix's column order, then
    ``labels.csv`` when labels are given.  Every file is written before any
    is renamed into place, so a failed write leaves no new file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writes = [_csv_writer(out_dir / f"{name}.csv", "prob", matrix.ids,
                          matrix.values[:, j])
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
