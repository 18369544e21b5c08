import csv
import io
import json
import os
import random
import stat
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfuse import (AlignmentError, CombinerWeights, ConstraintError, LabelVector,
                      PredictionMatrix, ProbSeries, TrainConfig, ValidationError)
from predfuse import core, idkeys, io_files
from predfuse.combiner import TrainResult
from predfuse.io_files import (atomic_write_text, load_label_file, load_matrix,
                               load_prediction_file, load_weights,
                               save_label_file, save_matrix_files,
                               save_prediction_file, save_weights)
from predfuse.synth import SyntheticSpec, generate

from conftest import traced_peak, write_shuffled_suite


def write(path, text):
    path.write_text(text, encoding="utf-8")


# Any non-empty text that UTF-8 can encode (no lone surrogates) is an id,
# commas, quotes, a lone \r, \n and surrounding spaces included.  Python
# 3.10's csv module rejects NUL characters (3.11 reads them), so there ids
# carry none.
_CHARS = st.characters(blacklist_categories=("Cs",),
                       blacklist_characters="\x00" if sys.version_info < (3, 11) else "")
_IDS = st.lists(st.text(_CHARS, min_size=1, max_size=8)
                | st.sampled_from([",", '"', "\r", "\n", " a ", '"q"', "a,b", "\r\n"]),
                min_size=1, max_size=12, unique=True)


class TestRoundTripAnyIds:
    @settings(max_examples=200, deadline=None)
    @given(ids=_IDS, data=st.data())
    def test_prediction_file(self, tmp_path_factory, ids, data):
        values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids),
                                    max_size=len(ids)))
        path = tmp_path_factory.mktemp("rt") / "p.csv"
        save_prediction_file(path, ProbSeries(tuple(ids), values))
        back = load_prediction_file(path)
        assert back.ids == tuple(ids)
        assert back.values.tobytes() == np.asarray(values, dtype=float).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(ids=_IDS, data=st.data())
    def test_label_file(self, tmp_path_factory, ids, data):
        values = data.draw(st.lists(st.integers(0, 1), min_size=len(ids),
                                    max_size=len(ids)))
        path = tmp_path_factory.mktemp("rt") / "l.csv"
        save_label_file(path, LabelVector(tuple(ids), values))
        back = load_label_file(path)
        assert back.ids == tuple(ids)
        assert back.values.tolist() == values

    @settings(max_examples=50, deadline=None)
    @given(ids=_IDS, data=st.data())
    def test_matrix_files(self, tmp_path_factory, ids, data):
        values = data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                                    min_size=len(ids), max_size=len(ids)))
        matrix = PredictionMatrix(tuple(ids), ("A", "B"), values)
        out = tmp_path_factory.mktemp("rt")
        back = load_matrix(save_matrix_files(out, matrix))
        assert back.ids == matrix.ids and back.model_names == ("A", "B")
        assert back.values.tobytes() == matrix.values.tobytes()

    def test_ids_that_need_quotes_are_quoted(self, tmp_path):
        path = tmp_path / "p.csv"
        save_prediction_file(path, ProbSeries(("a,b", '"q"', "x\ry", "plain"),
                                              [0.25, 0.5, 0.75, 1.0]))
        assert path.read_bytes() == (b'id,prob\n"a,b",0.25\n"""q""",0.5\n'
                                     b'"x\ry",0.75\nplain,1.0\n')


_EITHER_KIND = pytest.mark.parametrize("load, header", [
    (load_prediction_file, "id,prob"), (load_label_file, "id,label")])


class TestReaderEdgeCases:
    @_EITHER_KIND
    def test_bom_before_header_accepted(self, tmp_path, load, header):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{header}\na,1\n".encode())
        assert load(path).ids == ("a",)

    @_EITHER_KIND
    def test_invalid_utf8_names_the_file(self, tmp_path, load, header):
        path = tmp_path / "bad.csv"
        path.write_bytes(f"{header}\na,1\n".encode() + b"\xff\xfe,0\n")
        with pytest.raises(ValidationError, match=r"bad\.csv: not valid UTF-8"):
            load(path)

    @_EITHER_KIND
    def test_empty_id_names_file_and_line(self, tmp_path, load, header):
        path = tmp_path / "bad.csv"
        write(path, f"{header}\na,1\n,0\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: empty sample id"):
            load(path)

    def test_oversized_field_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,prob\na,0.5\n" + "x" * 200_000 + ",0.5\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3: field larger"):
            load_prediction_file(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,prob\na,0.5\n\nb,nan\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:4: probability nan"):
            load_prediction_file(path)


# The differential test of the reader: files drawn from ids and values, then
# mutated towards everything the one-pass path must leave to the row scanner.
_LIMIT = csv.field_size_limit()
_PLAIN_IDS = st.text(st.characters(codec="utf-8", exclude_characters=',"\r\n\x00'),
                     min_size=1, max_size=6)
_ODD_VALUES = ["nan", "-0", "-0.0", "1e400", "-1e-400", "inf", "0.2_5", "1_0",
               " 0.5", "0.5 ", "\x0b0.5", "\u0660.\u0665", "\U0001d7ce.\U0001d7d3",
               "0x1p-1", "+.5", "", "1.0", "01", " 1", "+1", "0", "1", "\u0660"]
_SNIPPETS = [",", "\n", "\n\n", '"', "\r", "\x00", " ", "_", "\u0665", "\ufeff"]
_ID_MUTATIONS = {
    "empty id": lambda sid: "",
    "long id": lambda sid: "x" * (_LIMIT + 1),  # over csv's field limit
    "wide id": lambda sid: "\xe9" * _LIMIT,  # within it in characters, not bytes
    "quoted id": lambda sid: f'"{sid}"',
    "cr in id": lambda sid: sid + "\r" + sid,
}
_ROW_MUTATIONS = (["value"] * 3 + ["header", "duplicate id", "extra field",
                                   "lone field", "regroup", "split row", "copy row"]
                  + list(_ID_MUTATIONS))


@st.composite
def _csv_bytes(draw, column):
    ids = draw(st.lists(_PLAIN_IDS, max_size=8, unique=True))
    if column == "prob":
        cells = [repr(v) for v in draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids),
                                                max_size=len(ids)))]
    else:
        cells = [str(v) for v in draw(st.lists(st.integers(0, 1), min_size=len(ids),
                                               max_size=len(ids)))]
    rows = [["id", column]] + [[sid, cell] for sid, cell in zip(ids, cells)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(1, len(rows) - 1)) if len(rows) > 1 else 0
        kind = draw(st.sampled_from(_ROW_MUTATIONS))
        if kind == "value":
            rows[j][-1] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "header":
            rows[0] = draw(st.sampled_from([["id", "label"], ["id", "prob"], ["ID", column]]))
        elif kind == "duplicate id":
            rows[j][0] = rows[draw(st.integers(0, len(rows) - 1))][0]
        elif kind == "extra field":
            rows[j].append(draw(st.sampled_from(["", "c"])))
        elif kind == "lone field":
            rows[j] = rows[j][:1]
        elif kind == "regroup" and j + 1 < len(rows):  # 2 + 2 fields as 3 + 1
            rows[j:j + 2] = [rows[j] + rows[j + 1][:1], rows[j + 1][1:]]
        elif kind == "split row":  # 2 fields as 1 + 1
            rows[j:j + 1] = [rows[j][:1], rows[j][1:]]
        elif kind == "copy row":
            rows.insert(j, list(rows[j]))
        elif kind in _ID_MUTATIONS:
            rows[j][0] = _ID_MUTATIONS[kind](rows[j][0])
        rows = [row or [""] for row in rows]  # a split can leave a blank line
    text = "\n".join(",".join(row) for row in rows)
    text += draw(st.sampled_from(["\n", ""]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_SNIPPETS)) + text[at:]
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def _scanned(data, column):
    try:
        return io_files._scan_rows(io.BytesIO(data), "f.csv", column)
    except ValidationError:
        return None


def _agree(fast, scanned):
    """The one-pass result is the scanner's: same ids, same value bits."""
    assert scanned is not None
    ids, values = fast
    ref = np.asarray(scanned[1])
    assert list(ids) == scanned[0]
    assert values.dtype == ref.dtype and values.tobytes() == ref.tobytes()


class TestOnePassParse:
    @pytest.mark.parametrize("column", ["prob", "label"])
    @settings(deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([1, 5, 16, io_files._CHUNK_BYTES]))
    def test_never_accepts_what_the_scanner_rejects(self, column, data, chunk):
        raw = data.draw(_csv_bytes(column))
        with mock.patch.object(io_files, "_CHUNK_BYTES", chunk):  # chunk edges too
            fast = io_files._plain_rows(io.BytesIO(raw), column)
        if fast is not None:
            _agree(fast, _scanned(raw, column))

    @pytest.mark.parametrize("text", [
        "id,prob\na,0.25\nb,1\n",
        "\ufeffid,prob\na,0.25\nb,1\n",       # BOM
        "id,prob\na,0.25\nb,1",               # no final newline
        "id,prob\n a ,0.2_5\n\u00e9,-0\nc, 0.5\n",
        "id,prob\nx,\u0660.\u0665\ny,1e-400\nz,\x0b1\n",
        "id,prob\n" + "x" * _LIMIT + ",0.5\n",  # a field right at the limit
    ])
    def test_plain_files_take_the_one_pass_path(self, text):
        raw = text.encode("utf-8")
        fast = io_files._plain_rows(io.BytesIO(raw), "prob")
        assert fast is not None
        _agree(fast, _scanned(raw, "prob"))

    @pytest.mark.parametrize("text", [
        "id,prob\na,0.1,c\n0.2\n",            # an even token count, a row of 3 fields
        "id,prob\na\n0.1\nc,0.2\n",           # the same, as rows of 1, 1 and 2 fields
        "id,prob\na,0.5\n\nb,0.5\n",          # a blank line
        "id,prob\na,0.5\n\n",                 # two final newlines
        '"id",prob\na,0.5\n',
        "id,prob\r\na,0.5\r\n",
        "id,prob\na\x00b,0.5\n",              # csv reads NUL on 3.11, not on 3.10
        "id,prob\n",
        "id,label\na,0.5\n",
        'id,prob\n"a",0.5\n',                 # a quoted id
        "id,prob\na\rb,0.5\n",                # csv ends a row at a lone \r
        "id,prob\na,nan\n",
        "id,prob\na,1.5\n",
    ])
    def test_other_files_go_to_the_scanner(self, text):
        assert io_files._plain_rows(io.BytesIO(text.encode()), "prob") is None

    @pytest.mark.parametrize("label", ["2", " 1", "1.0", "01", "+1", "\u0661", ""])
    def test_other_labels_go_to_the_scanner(self, label):
        raw = f"id,label\na,0\nb,{label}\n".encode()
        assert io_files._plain_rows(io.BytesIO(raw), "label") is None

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("text, ids", [("id,prob\na,0.5\n", ("a",)),
                                           ('id,prob\n"a,b",0.5\n', ("a,b",))])
    def test_a_pipe_is_read_either_way(self, text, ids):
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            assert load_prediction_file(f"/dev/fd/{r}").ids == ids
        finally:
            os.close(r)

    def test_labels_take_the_one_pass_path(self):
        raw = b"id,label\nb,1\na,0\n"
        fast = io_files._plain_rows(io.BytesIO(raw), "label")
        assert fast is not None and fast[1].dtype == np.int64
        _agree(fast, _scanned(raw, "label"))


class TestPredictionFiles:
    def test_round_trip_is_exact(self, tmp_path, rng):
        values = np.concatenate([[0.0, 1.0, 1e-17, 0.1 + 0.2],
                                 rng.uniform(0, 1, size=50)])
        series = ProbSeries(tuple(f"id{i}" for i in range(len(values))), values)
        path = tmp_path / "preds.csv"
        save_prediction_file(path, series)
        back = load_prediction_file(path)
        assert back.ids == series.ids
        np.testing.assert_array_equal(back.values, series.values)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,probability\nx,0.5\n")
        with pytest.raises(ValidationError, match="header"):
            load_prediction_file(path)

    def test_out_of_range_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,prob\na,0.5\nb,1.5\n")
        with pytest.raises(ValidationError, match=r"bad\.csv:3.*1\.5"):
            load_prediction_file(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,prob\na,zero\n")
        with pytest.raises(ValidationError, match="not a number"):
            load_prediction_file(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,prob\na,0.5\na,0.6\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_prediction_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "")
        with pytest.raises(ValidationError):
            load_prediction_file(path)


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = LabelVector(("a", "b", "c"), [1, 0, 1])
        path = tmp_path / "labels.csv"
        save_label_file(path, labels)
        back = load_label_file(path)
        assert back.ids == labels.ids
        np.testing.assert_array_equal(back.values, labels.values)

    def test_nonbinary_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write(path, "id,label\na,2\n")
        with pytest.raises(ValidationError, match="0 or 1"):
            load_label_file(path)


class TestLoadMatrix:
    def test_two_files_identical_ids(self, tmp_path):
        write(tmp_path / "m1.csv", "id,prob\na,0.1\nb,0.9\n")
        write(tmp_path / "m2.csv", "id,prob\nb,0.8\na,0.2\n")
        m = load_matrix([tmp_path / "m1.csv", tmp_path / "m2.csv"])
        assert m.model_names == ("m1", "m2")
        assert m.ids == ("a", "b")  # first file's order wins
        np.testing.assert_allclose(m.values, [[0.1, 0.2], [0.9, 0.8]])

    def test_disjoint_ids_rejected_naming_missing_id(self, tmp_path):
        write(tmp_path / "m1.csv", "id,prob\na,0.1\nb,0.9\n")
        write(tmp_path / "m2.csv", "id,prob\na,0.8\nc,0.2\n")
        with pytest.raises(ValidationError, match="'b'|'c'"):
            load_matrix([tmp_path / "m1.csv", tmp_path / "m2.csv"])

    def test_parse_error_in_a_later_file_beats_a_join_error(self, tmp_path):
        write(tmp_path / "m1.csv", "id,prob\na,0.1\nb,0.9\n")
        write(tmp_path / "m2.csv", "id,prob\na,0.8\nc,0.2\n")  # lacks 'b'
        write(tmp_path / "m3.csv", "id,prob\na,0.5\nb,1.5\n")
        write(tmp_path / "m4.csv", "id,prob\nd,0.5\nb,0.5\n")  # lacks 'a'
        paths = [tmp_path / f"m{k}.csv" for k in (1, 2, 3, 4)]
        with pytest.raises(ValidationError) as err:
            load_matrix(paths)
        assert str(err.value) == f"{paths[2]}:3: probability 1.5 outside [0, 1]"
        with pytest.raises(AlignmentError, match="^model 'm2' vs 'm1': "):
            load_matrix([paths[k] for k in (0, 1, 3)])  # the first join error

    def test_later_files_and_labels_hold_no_ids_of_their_own(self, tmp_path):
        """K = 4 shuffled 20k-row files and a shuffled label file, loaded
        as one suite: only the first file's ids, one index over them, which
        is also their duplicate check, and the (N, K) values are ever held.
        The peak bound sits between this (3.35 MB peak, 2.0 MB live; 3.56
        MB with a ``{id: row}`` dict as the index) and
        checking the first file's ids with a set of their own and joining K
        columns by a copy (4.05 MB peak); reading every file with ids of
        its own, then aligning it, peaked at 6.0 MB with 3.3 MB live."""
        paths = write_shuffled_suite(tmp_path)
        (m, u), peak, live = traced_peak(
            lambda: io_files.load_suite(paths, tmp_path / "labels.csv"))
        assert u.ids is m.ids
        assert peak < 3.8e6 and live < 2.7e6, (peak, live)

    def test_a_lone_file_builds_no_index(self, tmp_path):
        """A shuffled 50k-row file loaded alone: its ids and values, and
        their sorted keys as their duplicate check, but no suite index,
        which no later file or label file would be placed into.  This
        peaks at 5.6 MB; a key-only dict as the check peaked at 6.4 MB, and
        indexing the lone file's ids in a ``{id: row}`` dict at 7.8 MB."""
        _, m = generate(SyntheticSpec(k=2, target_acc=(0.8, 0.9), n=50_000, seed=3))
        rows = np.random.default_rng(7).permutation(m.n_samples)
        save_prediction_file(tmp_path / "M1.csv", ProbSeries(
            [m.ids[i] for i in rows], m.values[rows, 0]))
        del m, rows
        got, peak, _ = traced_peak(lambda: load_matrix([tmp_path / "M1.csv"]))
        assert got.n_samples == 50_000
        assert peak < 7.0e6, peak

    @pytest.mark.parametrize("labels", [False, True])
    def test_a_repeated_id_in_the_first_file_is_the_scanners_error(
            self, tmp_path, labels):
        write(tmp_path / "m1.csv", "id,prob\na,0.1\nb,0.9\na,0.5\n")
        write(tmp_path / "m2.csv", "id,prob\na,0.8\nb,0.2\n")
        write(tmp_path / "labels.csv", "id,label\na,1\nb,0\n")
        paths = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
        with pytest.raises(ValidationError) as err:
            if labels:
                io_files.load_suite(paths, tmp_path / "labels.csv")
            else:
                load_matrix(paths)
        assert str(err.value) == f"{paths[0]}:4: duplicate id 'a'"

    def test_no_files_rejected(self):
        with pytest.raises(ValidationError):
            load_matrix([])

    def test_generate_save_load_is_identity(self, tmp_path):
        labels, matrix = generate(SyntheticSpec(
            k=3, target_acc=(0.8, 0.85, 0.9), n=200, seed=13))
        save_matrix_files(tmp_path, matrix)
        save_label_file(tmp_path / "labels.csv", labels)
        back = load_matrix([tmp_path / f"{n}.csv" for n in matrix.model_names])
        assert back.ids == matrix.ids
        np.testing.assert_array_equal(back.values, matrix.values)
        back_labels = load_label_file(tmp_path / "labels.csv")
        np.testing.assert_array_equal(back_labels.values, labels.values)


# The differential test of the suite loader: a suite's first file, later
# files and label file drawn around one id set, then edited towards every
# file the placing path must leave to the reference's path.
# Ids of 7, 8, 9, 15, 16 and 17 UTF-8 bytes, some sharing their first 8,
# non-ASCII and astral ones among them: keys of one, two and three words.
_WIDE_IDS = ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmno", "abcdefgh" * 2,
             "abcdefgh" * 2 + "x", "\xe9" * 4, "\xe9" * 4 + "a", "\U0001f600" * 2,
             "\U0001f600abcd", "abcdefgh\U0001f600", "\U0001f600" * 4 + "a"]
_SUITE_IDS = st.lists(_PLAIN_IDS | st.sampled_from(["a,b", '"q"', " s ", "x\ry", "n\nl"])
                      | st.sampled_from(_WIDE_IDS), min_size=1, max_size=6, unique=True)
_SUITE_EDITS = {
    "missing": lambda ids, cells, j, bad: (ids[:j] + ids[j + 1:], cells[:j] + cells[j + 1:]),
    "extra": lambda ids, cells, j, bad: (ids + ["zz"], cells + cells[-1:]),
    "renamed": lambda ids, cells, j, bad: (ids[:j] + ["zz"] + ids[j + 1:], cells),
    "duplicate": lambda ids, cells, j, bad: (ids + ids[j:j + 1], cells + cells[j:j + 1]),
    "repeated": lambda ids, cells, j, bad: (ids[:j] + [ids[j - 1]] + ids[j + 1:], cells),
    "empty id": lambda ids, cells, j, bad: (ids[:j] + [""] + ids[j + 1:], cells),
    "value": lambda ids, cells, j, bad: (ids, cells[:j] + [bad] + cells[j + 1:]),
}
_BAD_CELLS = ["1.5", "nan", "-0.1", "2", "x"]


def _quoted(sid):
    return '"' + sid.replace('"', '""') + '"'


def _suite_bytes(ids, cells, column, quote=io_files._id_field, end="\n", bom=b""):
    text = end.join([f"id,{column}"] + [f"{quote(sid)},{cell}"
                                         for sid, cell in zip(ids, cells)]) + end
    return bom + text.encode("utf-8")


@st.composite
def _suite_file(draw, ids, column):
    """Bytes of an ``id,<column>`` file over a permutation of ``ids``, with
    up to two edits, quoted ids, a BOM or \\r\\n line ends."""
    ids = list(draw(st.permutations(ids)))
    if column == "prob":
        cells = [repr(v) for v in draw(st.lists(st.floats(0.0, 1.0), min_size=len(ids),
                                                max_size=len(ids)))]
    else:
        cells = [str(v) for v in draw(st.lists(st.integers(0, 1), min_size=len(ids),
                                               max_size=len(ids)))]
    edits = draw(st.just([]) | st.lists(st.sampled_from(sorted(_SUITE_EDITS)),
                                        min_size=1, max_size=2))
    for edit in edits:
        if ids:
            ids, cells = _SUITE_EDITS[edit](ids, cells, draw(st.integers(0, len(ids) - 1)),
                                            draw(st.sampled_from(_BAD_CELLS)))
    return _suite_bytes(ids, cells, column,
                        quote=draw(st.sampled_from([io_files._id_field, _quoted])),
                        end=draw(st.sampled_from(["\n", "\r\n"])),
                        bom=draw(st.sampled_from([b"", b"\xef\xbb\xbf"])))


def _outcome(load):
    try:
        return load()
    except ValidationError as exc:
        return type(exc), str(exc)


def _bits(values):
    return values.dtype, values.tobytes()


class TestLoadSuite:
    @staticmethod
    def reference(paths, labels):
        """Each file read on its own: the matrix joined by ``from_columns``,
        then the label file with its own ids."""
        matrix = PredictionMatrix.from_columns(
            [Path(path).stem for path in paths], map(load_prediction_file, paths))
        return matrix, load_label_file(labels)

    @staticmethod
    def agree(root, files, piped, chunk=io_files._CHUNK_BYTES):
        """The suite loader on prediction files and a last label file, given
        as bytes, has the reference's outcome: the same ids and value bits, or
        the same exception type and message."""
        paths, fds = [root / f"f{j}.csv" for j in range(len(files))], []

        def load(loader):
            """``loader``'s outcome.  A pipe is read once, so each load gets
            new ones, each behind a link with its file's name: model names
            and error texts are the same in both loads."""
            for path, raw, pipe in zip(paths, files, piped):
                path.unlink(missing_ok=True)
                if pipe:
                    r, w = os.pipe()
                    os.write(w, raw)
                    os.close(w)
                    fds.append(r)
                    path.symlink_to(f"/dev/fd/{r}")
                else:
                    path.write_bytes(raw)
            return _outcome(lambda: loader(paths[:-1], paths[-1]))

        try:
            with mock.patch.object(io_files, "_CHUNK_BYTES", chunk):
                got = load(io_files._load_suite)
            want = load(TestLoadSuite.reference)
        finally:
            for r in fds:
                os.close(r)
        if not isinstance(want[0], PredictionMatrix):
            assert got == want
            return got
        (m, u), (ref_m, ref_u) = got, want
        assert (m.ids, m.model_names) == (ref_m.ids, ref_m.model_names)
        assert _bits(m.values) == _bits(ref_m.values)
        if u.ids is m.ids:  # placed: the reference's labels hold the same ids
            assert _bits(u.values) == _bits(ref_u.align_to(m.ids))
        else:
            assert u.ids == ref_u.ids and _bits(u.values) == _bits(ref_u.values)
        half = m.ids[::2]
        for use in (lambda v: v.align_to(m.ids), lambda v: v.restrict(half).values):
            assert _outcome(lambda: _bits(use(u))) == _outcome(lambda: _bits(use(ref_u)))
        return got

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @settings(deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([1, 7, io_files._CHUNK_BYTES]))
    def test_agrees_with_each_file_read_on_its_own(self, tmp_path_factory, data, chunk):
        ids = data.draw(_SUITE_IDS)
        k = data.draw(st.integers(1, 3))
        files = [data.draw(_suite_file(ids, "prob")) for _ in range(k)]
        files.append(data.draw(_suite_file(ids, "label")))
        # Later files and the label file may come through a pipe.
        piped = [j > 0 and data.draw(st.booleans()) for j in range(k + 1)]
        self.agree(tmp_path_factory.mktemp("suite"), files, piped, chunk)

    @pytest.mark.parametrize("chunk", [1, io_files._CHUNK_BYTES])
    @pytest.mark.parametrize("at", [0, 2])  # the first file's last row, or not
    @pytest.mark.parametrize("edit", sorted(_SUITE_EDITS) + ["quoted", "crlf", "none"])
    @pytest.mark.parametrize("where", [1, 2, 3], ids=["second", "third", "labels"])
    def test_each_edit_of_a_later_file_agrees(self, tmp_path, where, edit, at, chunk):
        """Every edit of one later file or the label file, alone and with
        the other later file lacking an id: the reference decides each."""
        ids, probs = ["a", "b", "c", "d"], ["0.25", "0.5", "1", "0"]
        cells = [probs, probs[::-1], probs, ["0", "1", "1", "0"]]
        files = []
        for j, column in enumerate(["prob", "prob", "prob", "label"]):
            rows = (ids[::-1] if j else ids, cells[j])
            if j == where and edit in _SUITE_EDITS:
                rows = _SUITE_EDITS[edit](*map(list, rows), at, "1.5" if j < 3 else "2")
            files.append(_suite_bytes(
                *rows, column, quote=_quoted if (j, edit) == (where, "quoted")
                else io_files._id_field, end="\r\n" if (j, edit) == (where, "crlf")
                else "\n"))
        self.agree(tmp_path, files, [False] * 4, chunk)
        if where < 3:
            files[3 - where] = _suite_bytes(["a", "b", "c"], probs[:3], "prob")
            self.agree(tmp_path, files, [False] * 4, chunk)

    def test_labels_in_another_order_are_keyed_by_the_matrix_ids(self, tmp_path):
        write(tmp_path / "m1.csv", "id,prob\na,0.1\nb,0.9\n")
        write(tmp_path / "m2.csv", 'id,prob\r\n"b",0.8\r\na,0.2\r\n')  # not plain
        write(tmp_path / "labels.csv", "id,label\nb,1\na,0\n")
        m, u = io_files.load_suite([tmp_path / "m1.csv", tmp_path / "m2.csv"],
                                   tmp_path / "labels.csv")
        assert u.ids is m.ids and m.ids == ("a", "b")
        assert u.values.tolist() == [0, 1]
        assert m.values.tolist() == [[0.1, 0.2], [0.9, 0.8]]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="csv rejects NUL")
    @pytest.mark.parametrize("where", [1, 2], ids=["second", "labels"])
    @pytest.mark.parametrize("old, new", [(None, None), ("b", "b\0"), ("a\0", "a\0\0\0")])
    def test_ids_that_differ_by_trailing_nuls_stay_apart(self, tmp_path, where, old, new):
        """``a``, ``a\\0`` and ``a\\0\\0`` are three ids, so the suite
        is indexed, and a later file or the label file with ``b\\0`` in
        place of ``b`` is not the first file's ids.  (Keys padded with zero
        bytes would merge each such pair.)"""
        ids = ["a", "a\0", "b", "a\0\0"]
        files = [_suite_bytes(ids, ["0.25", "0.5", "1", "0"], "prob", quote=_quoted),
                 _suite_bytes(ids[::-1], ["0.5"] * 4, "prob", quote=_quoted),
                 _suite_bytes(ids[1:] + ids[:1], ["1", "0", "1", "0"], "label",
                              quote=_quoted)]
        if old is not None:
            files[where] = files[where].replace(_quoted(old).encode() + b",",
                                                _quoted(new).encode() + b",")
        got = self.agree(tmp_path, files, [False] * 3)
        if isinstance(got[0], PredictionMatrix):  # not the second file's join error
            assert (got[1].ids is got[0].ids) == (old is None)

    @pytest.mark.parametrize("where", [1, 2], ids=["second", "labels"])
    def test_a_wide_id_renamed_within_its_first_word(self, tmp_path, where):
        """``abcdefghj`` in place of ``abcdefghi``: keys that differ only
        in their second word."""
        ids = ["abcdefghi", "abc", "s1", "xyz" * 5]
        files = [_suite_bytes(ids, ["0.25", "0.5", "1", "0"], "prob"),
                 _suite_bytes(ids[::-1], ["0.5"] * 4, "prob"),
                 _suite_bytes(ids[1:] + ids[:1], ["1", "0", "1", "0"], "label")]
        files[where] = files[where].replace(b"abcdefghi,", b"abcdefghj,")
        self.agree(tmp_path, files, [False] * 3)

    def test_one_very_long_id_among_short_ones(self, tmp_path):
        """A shuffled 20k-row suite with one 100,000-character id: keys as
        wide as that id would take 20k x 100 kB, about 2 GB, so no file of
        it gets keys, and each is read as a declined file is.  That peaks at
        8.5 MB; a ``{id: row}`` dict index peaked at 3.7 MB."""
        ids = [f"s{i:05d}" for i in range(20_000)]
        ids[123] = "x" * 100_000
        rng = random.Random(5)
        files = [_suite_bytes(rng.sample(ids, len(ids)),
                              [repr(rng.random()) for _ in ids], "prob") for _ in range(3)]
        files.append(_suite_bytes(rng.sample(ids, len(ids)),
                                  [rng.choice("01") for _ in ids], "label"))
        self.agree(tmp_path, files, [False] * 4)
        paths = [tmp_path / f"f{j}.csv" for j in range(4)]
        _, peak, _ = traced_peak(lambda: io_files.load_suite(paths[:-1], paths[-1]))
        assert peak < 10e6, peak

    def test_a_shuffled_suite_is_joined_by_no_dict(self, tmp_path, monkeypatch):
        """Neither ``core._index_of`` nor ``core._rows_in`` is called: every
        later file and the label file are placed by their sorted keys."""
        ids = [f"s{i:03d}" for i in range(200)]
        orders = [random.Random(j).sample(ids, len(ids)) for j in range(4)]
        files = [_suite_bytes(order, ["0.25"] * len(ids), "prob") for order in orders[:3]]
        files.append(_suite_bytes(orders[3], ["1"] * len(ids), "label"))
        self.agree(tmp_path, files, [False] * 4)
        calls = []
        for module in (core, io_files):
            for name in ("_index_of", "_rows_in"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda *args, real=real, name=name: (
                        calls.append(name), real(*args))[1])
        paths = [tmp_path / f"f{j}.csv" for j in range(4)]
        m, u = io_files.load_suite(paths[:-1], paths[-1])
        assert u.ids is m.ids
        assert calls == []


# Sort keys that collide for every key of more than one word, or for every
# two keys with the same first word.
_COLLIDING = {"constant": lambda keys: (keys[:, 0].copy() if keys.shape[1] == 1
                                        else np.zeros(len(keys), dtype=np.uint64)),
              "first word": lambda keys: keys[:, 0].copy()}


class TestLoadSuiteWhereSortKeysCollide(TestLoadSuite):
    """Every case of :class:`TestLoadSuite`, with the mix of a key's words
    that sorts it (``idkeys._ranks``) colliding: a collision only sends a
    file to the slower route."""

    @pytest.fixture(autouse=True, scope="class", params=sorted(_COLLIDING))
    def colliding(self, request):
        with mock.patch.object(idkeys, "_ranks", _COLLIDING[request.param]):
            yield

    # Hypothesis runs a property test from one class only: this one's own.
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @settings(deadline=None)
    @given(data=st.data(), chunk=st.sampled_from([1, 7, io_files._CHUNK_BYTES]))
    def test_agrees_with_each_file_read_on_its_own(self, tmp_path_factory, data, chunk):
        TestLoadSuite.test_agrees_with_each_file_read_on_its_own.hypothesis.inner_test(
            self, tmp_path_factory, data, chunk)


class TestPassesPerFile:
    """Each file of a suite gets one plain pass; a file that pass declines
    gets one row-scanner pass more, and no second plain pass."""

    IDS = [f"s{i:03d}" for i in range(200)]

    @staticmethod
    def passes(paths, labels):
        """The load's outcome and the ``(file name, pass)`` calls it made."""
        calls = []
        plain, scan = io_files._plain_chunks, io_files._scan_rows

        def counted_plain(fh, column):
            calls.append((os.path.basename(fh.name), "plain"))
            return plain(fh, column)

        def counted_scan(fh, path, column):
            calls.append((os.path.basename(path), "scan"))
            return scan(fh, path, column)

        with mock.patch.object(io_files, "_plain_chunks", counted_plain), \
                mock.patch.object(io_files, "_scan_rows", counted_scan):
            outcome = _outcome(lambda: io_files.load_suite(paths, labels))
        return outcome, calls

    @pytest.mark.parametrize("case", ["plain", "missing", "crlf", "quoted last"])
    def test_one_plain_pass_then_at_most_one_scan(self, tmp_path, case):
        """A shuffled plain suite, with one later file edited; each load's
        outcome is the reference's (:meth:`TestLoadSuite.agree`)."""
        orders = [self.IDS] + [random.Random(j).sample(self.IDS, len(self.IDS))
                               for j in (1, 2, 3)]
        files = [_suite_bytes(ids, ["0.25"] * len(ids), "prob") for ids in orders[:3]]
        files.append(_suite_bytes(orders[3], ["1"] * len(self.IDS), "label"))
        ids, cells, chunk = orders[2], ["0.25"] * len(self.IDS), io_files._CHUNK_BYTES
        if case == "missing":
            files[2] = _suite_bytes(ids[1:], cells[1:], "prob")
        elif case == "crlf":
            files[2] = _suite_bytes(ids, cells, "prob", end="\r\n")
        elif case == "quoted last":  # the one quoted id in the last of many chunks
            files[2] = _suite_bytes(ids, cells, "prob",
                                    quote=lambda s: _quoted(s) if s == ids[-1] else s)
            chunk = 64
        outcome = TestLoadSuite.agree(tmp_path, files, [False] * 4, chunk)
        paths = [tmp_path / f"f{j}.csv" for j in range(4)]
        with mock.patch.object(io_files, "_CHUNK_BYTES", chunk):
            got, calls = self.passes(paths[:-1], paths[-1])
        joined = isinstance(outcome[0], PredictionMatrix)
        if joined:
            assert got[0].ids == outcome[0].ids
            assert _bits(got[0].values) == _bits(outcome[0].values)
        else:  # the join error, raised before the label file is read
            assert got == outcome
        assert calls == ([(f"f{j}.csv", "plain") for j in range(3)]
                         + ([] if case == "plain" else [("f2.csv", "scan")])
                         + ([("f3.csv", "plain")] if joined else []))


    @pytest.mark.parametrize("chunk", [1, 7, io_files._CHUNK_BYTES])
    def test_a_shuffled_suite_of_wide_ids_is_placed(self, tmp_path, chunk):
        """Ids of one to three key words, each file in an order of its own:
        one plain pass per file, and the labels keyed by the matrix ids."""
        ids = _WIDE_IDS + self.IDS[:20]
        orders = [random.Random(j).sample(ids, len(ids)) for j in range(4)]
        files = [_suite_bytes(order, [repr(j / 4)] * len(ids), "prob")
                 for j, order in enumerate(orders[:3])]
        files.append(_suite_bytes(orders[3], ["1", "0"] * (len(ids) // 2), "label"))
        TestLoadSuite.agree(tmp_path, files, [False] * 4, chunk)
        paths = [tmp_path / f"f{j}.csv" for j in range(4)]
        with mock.patch.object(io_files, "_CHUNK_BYTES", chunk):
            (m, u), calls = self.passes(paths[:-1], paths[-1])
        assert u.ids is m.ids
        assert calls == [(f"f{j}.csv", "plain") for j in range(4)]


class TestWeightsJson:
    def result(self):
        w = CombinerWeights(("M1", "M2"), np.array([1 / 3, 0.92409282]),
                            b=-0.3127, t=0.5)
        return TrainResult(weights=w, config=TrainConfig(seed=7),
                           clipped_any=True, degenerate_labels=False)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        back = load_weights(path)
        np.testing.assert_array_equal(back.weights.w, self.result().weights.w)
        assert back.weights.b == self.result().weights.b
        assert back.weights.t == 0.5
        assert back.weights.model_names == ("M1", "M2")
        assert back.config == self.result().config
        assert back.clipped_any is True

    def test_field_order_and_17_digit_reals(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        text = path.read_text(encoding="utf-8")
        keys = list(json.loads(text).keys())
        assert keys == ["model_names", "weights", "b", "t", "train_config",
                        "clipped_any"]
        assert "0.33333333333333331" in text  # 17 significant digits of 1/3

    def test_negative_weight_rejected_at_load(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["weights"][0] = -0.1
        write(path, json.dumps(doc))
        with pytest.raises(ConstraintError):
            load_weights(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["b"]
        write(path, json.dumps(doc))
        with pytest.raises(ValidationError, match="missing field 'b'"):
            load_weights(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        write(path, "{not json")
        with pytest.raises(ValidationError):
            load_weights(path)

    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100_000, id="nested-100k-deep"),
        pytest.param('{"b": 1' + "0" * 5000 + "}", id="integer-5001-digits")])
    def test_pathological_json_rejected(self, tmp_path, text):
        path = tmp_path / "w.json"
        write(path, text)
        with pytest.raises(ValidationError, match=r"w\.json: not valid JSON"):
            load_weights(path)

    @pytest.mark.parametrize("field, value", [
        ("train_config.epochs", 1.7),
        ("train_config.batch_size", True),
        ("train_config.shuffle_each_epoch", 0),
        ("train_config.seed", True),
        ("train_config.learning_rate", "0.1"),
        ("clipped_any", 1),
        ("clipped_any", "false"),
        ("b", "0.5"),
        ("b", None),
        ("t", "0.5"),
        ("weights", "0.1"),
        ("model_names", [1, 2]),
    ])
    def test_json_types_checked_not_coerced(self, tmp_path, field, value):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        doc = json.loads(path.read_text(encoding="utf-8"))
        if field == "weights":
            doc["weights"][0] = value
        elif field.startswith("train_config."):
            doc["train_config"][field.split(".")[1]] = value
        else:
            doc[field] = value
        write(path, json.dumps(doc))
        with pytest.raises(ValidationError, match=rf"w\.json: {field} must be"):
            load_weights(path)

    def test_integer_literals_read_as_floats(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["weights"], doc["b"] = [1, 0], 0
        write(path, json.dumps(doc))
        back = load_weights(path)
        assert back.weights.w.tolist() == [1.0, 0.0] and back.weights.b == 0.0

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["b"] = 10 ** 400
        write(path, json.dumps(doc))
        with pytest.raises(ValidationError, match=r"w\.json: b must be a finite number"):
            load_weights(path)

    def test_bom_before_document_accepted(self, tmp_path):
        path = tmp_path / "w.json"
        save_weights(path, self.result())
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        back = load_weights(path)
        np.testing.assert_array_equal(back.weights.w, self.result().weights.w)
        assert back.config == self.result().config

    def test_invalid_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_bytes(b'{"model_names": ["\xff"]}')
        with pytest.raises(ValidationError, match=r"w\.json: not valid UTF-8"):
            load_weights(path)


class TestAtomicWrites:
    @pytest.mark.parametrize("save", [
        pytest.param(lambda p, ids: save_prediction_file(
            p, ProbSeries(ids, [0.5] * len(ids))), id="prediction"),
        pytest.param(lambda p, ids: save_label_file(
            p, LabelVector(ids, [1] * len(ids))), id="label")])
    def test_unencodable_id_names_the_file(self, tmp_path, save):
        # A lone surrogate, only the library API can build one; after 5,000
        # rows so that it falls in a later chunk than the first.
        ids = tuple(f"s{i}" for i in range(5000)) + ("a\ud800",)
        with pytest.raises(ValidationError,
                           match=r"out\.csv: sample id holds '\\ud800'"):
            save(tmp_path / "out.csv", ids)
        assert list(tmp_path.iterdir()) == []

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "missing_dir" / "out.txt"
        with pytest.raises(OSError):
            atomic_write_text(target, "hello")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_mode_follows_umask(self, tmp_path):
        target = tmp_path / "out.txt"
        text = "id,prob\nx,0.5\n"
        old = os.umask(0o022)
        try:
            atomic_write_text(target, text)
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        assert target.read_bytes() == text.encode("utf-8")

    def test_no_temp_residue_on_success(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_text(encoding="utf-8") == "hello"
