import contextlib
import gc
import math
import random
import uuid
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predfuse import (AlignmentError, CombinerWeights, LabelVector,
                      PredictionMatrix, ProbSeries, ValidationError, accuracy,
                      core, harden, idkeys, predict, sigmoid,
                      thresholded_distance, thresholded_norm)
from predfuse.cli import main
from predfuse.io_files import (load_label_file, load_matrix,
                               load_prediction_file, save_label_file,
                               save_matrix_files, save_prediction_file)
from predfuse.synth import SyntheticSpec, generate

from conftest import COLLIDING_RANKS, make_labels, make_matrix


# Brute-force oracle: harden with the >= t rule, then take the plain
# Euclidean norm, all in scalar Python.
def oracle_norm(values, t):
    return math.sqrt(sum((1 if v >= t else 0) ** 2 for v in values))


def oracle_distance(y, z, t):
    return math.sqrt(sum(((1 if a >= t else 0) - (1 if b >= t else 0)) ** 2
                         for a, b in zip(y, z)))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_analytic_point(self):
        # sigmoid passes through (ln(t/(1-t)), t); here t = 0.8
        assert sigmoid(math.log(4.0)) == pytest.approx(0.8, abs=1e-15)

    def test_hand_evaluated_point(self):
        # 1/(1 + e^-1.7613008020000001), evaluated by scalar math
        assert sigmoid(1.7613008020000001) == pytest.approx(
            0.8533725016187753, abs=1e-12)

    def test_antisymmetry(self):
        assert sigmoid(-1.7) == pytest.approx(1.0 - sigmoid(1.7), abs=1e-15)

    def test_strictly_inside_unit_interval(self):
        x = np.linspace(-30.0, 30.0, 401)
        y = sigmoid(x)
        assert ((y > 0.0) & (y < 1.0)).all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValidationError):
            sigmoid(bad)

    @staticmethod
    def two_branch(x):
        """The earlier formula: 1/(1+e^-x) where x >= 0, e^x/(1+e^x) elsewhere."""
        x = np.asarray(x, dtype=np.float64)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_bit_identical_to_two_branch_formula(self, rng):
        edges = np.array([0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0])
        for x in [edges, rng.normal(0.0, 5.0, 1001), rng.uniform(-800, 800, 997),
                  rng.normal(0.0, 1.0, (7, 13))]:
            assert sigmoid(x).tobytes() == self.two_branch(x).tobytes()
        for x in edges:
            got = sigmoid(np.float64(x))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == self.two_branch(x).tobytes()

    def test_kernel_into_buffers_has_the_same_bits(self, rng):
        # the training loop's path: buffers allocated once, reused
        x = rng.normal(0.0, 20.0, (3, 32))
        buf = core._SigmoidBuffers(x.shape, np.empty(x.shape))
        for scale in (1.0, 1e-3, 40.0):
            assert core._sigmoid(x * scale, buf) is buf.out
            assert buf.out.tobytes() == self.two_branch(x * scale).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_kernel_rejects_nonfinite_before_writing(self, rng, bad):
        for _ in range(5):
            x = rng.normal(0.0, 20.0, (3, 32))
            x[int(rng.integers(3)), int(rng.integers(32))] = bad
            buf = core._SigmoidBuffers(x.shape, np.full(x.shape, 7.0))
            with pytest.raises(ValidationError, match="sigmoid input must be finite"):
                core._sigmoid(x, buf)
            assert (buf.out == 7.0).all()

    def test_empty_input_gives_empty_output(self):
        got = sigmoid(np.array([]))
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.float64 and got.shape == (0,)


class TestHarden:
    @pytest.mark.parametrize("p,t,want", [(0.7, 0.5, 1), (0.5, 0.5, 1),
                                          (0.3, 0.5, 0), (0.91, 0.91, 1)])
    def test_boundary_goes_to_class_one(self, p, t, want):
        assert harden([p], t).tolist() == [want]

    def test_bad_threshold_rejected(self):
        for t in (0.0, 1.0, -1.0, math.nan):
            with pytest.raises(ValidationError):
                harden([0.5], t)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_series_rejected(self, bad):
        with pytest.raises(ValidationError, match="^series must be finite$"):
            harden([0.5, bad])

    def test_threshold_identity_with_shift(self, rng):
        # harden(sigmoid(s - b), t) == 1  iff  s >= b + ln(t/(1-t))
        for _ in range(50):
            b = rng.uniform(-2, 2)
            t = rng.uniform(0.05, 0.95)
            cut = b + math.log(t / (1 - t))
            s = np.linspace(cut - 2, cut + 2, 17)
            s = s[abs(s - cut) >= 1e-9]
            np.testing.assert_array_equal(harden(sigmoid(s - b), t),
                                          (s >= cut).astype(int))


class TestNorms:
    def test_binary_norm_examples(self):
        assert thresholded_norm([1, 1, 0, 1]) == pytest.approx(math.sqrt(3), abs=0)
        assert thresholded_norm([0, 0, 0]) == 0.0

    def test_binary_norm_square_is_exact_count(self, rng):
        for _ in range(50):
            f = rng.integers(0, 2, size=rng.integers(1, 200))
            assert thresholded_norm(f) ** 2 == pytest.approx(int(f.sum()), abs=1e-9)

    def test_binary_equals_thresholded_for_any_t(self, rng):
        f = rng.integers(0, 2, size=37)
        for t in (0.1, 0.5, 0.93):
            assert thresholded_norm(f, t) == math.sqrt(int(f.sum()))

    def test_thresholded_norm_examples(self):
        assert thresholded_norm([0.9, 0.9, 0.1], 0.5) == pytest.approx(math.sqrt(2))
        assert thresholded_norm([0.1, 0.2, 0.3], 0.5) == 0.0

    def test_unbounded_values_allowed(self):
        # the hardening rule is defined on raw values, not just [0, 1]
        assert thresholded_norm([-3.0, 7.5, 0.2], 0.5) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-2, 3, allow_nan=False), min_size=1, max_size=100),
           st.floats(0.01, 0.99))
    def test_norm_matches_oracle(self, values, t):
        assert thresholded_norm(values, t) == oracle_norm(values, t)

    def test_norm_oracle_bulk(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            values = rng.uniform(-2, 3, size=n)
            t = float(rng.uniform(0.05, 0.95))
            assert thresholded_norm(values, t) == oracle_norm(values, t)


class TestThresholdedDistance:
    def test_identity(self, rng):
        y = rng.uniform(0, 1, size=40)
        assert thresholded_distance(y, y, 0.5) == 0.0

    def test_hand_hardened_example(self):
        # classes [1, 0] vs [1, 1] -> one disagreement
        assert thresholded_distance([0.9, 0.2], [0.8, 0.7], 0.5) == 1.0

    def test_labels_vs_perfect_classifier(self):
        u = [1, 0, 1, 1, 0]
        perfect = [0.99, 0.03, 0.8, 0.6, 0.2]
        assert thresholded_distance(u, perfect, 0.5) == 0.0

    def test_square_is_hamming(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 80))
            y, z = rng.uniform(-1, 2, size=(2, n))
            d = thresholded_distance(y, z, 0.5)
            hamming = int((harden(y, 0.5) != harden(z, 0.5)).sum())
            assert d * d == pytest.approx(hamming, abs=1e-9)

    def test_triangle_inequality(self, rng):
        for _ in range(200):
            a, b, c = rng.uniform(0, 1, size=(3, 30))
            t = float(rng.uniform(0.1, 0.9))
            assert thresholded_distance(a, c, t) <= (
                thresholded_distance(a, b, t) + thresholded_distance(b, c, t) + 1e-12)

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(AlignmentError):
            thresholded_distance([0.1, 0.2], [0.1, 0.2, 0.3], 0.5)

    def test_series_align_by_id_not_order(self):
        y = ProbSeries(("a", "b"), [0.9, 0.1])
        z = ProbSeries(("b", "a"), [0.1, 0.9])
        assert thresholded_distance(y, z, 0.5) == 0.0

    @pytest.mark.parametrize("labels_first", [False, True])
    def test_one_id_keyed_side_rejected(self, labels_first):
        # Paired by id the distance is 0.0; paired by position it reads 1.414.
        y = ProbSeries(("b", "a"), [0.9, 0.1])
        labels = LabelVector(("a", "b"), [0, 1])
        assert thresholded_distance(y, labels, 0.5) == 0.0
        args = (labels.values, y) if labels_first else (y, labels.values)
        names = "ndarray and ProbSeries" if labels_first else "ProbSeries and ndarray"
        with pytest.raises(ValidationError, match=f"got {names}$"):
            thresholded_distance(*args, 0.5)

    def test_series_with_foreign_ids_rejected(self):
        y = ProbSeries(("a", "b"), [0.9, 0.1])
        z = ProbSeries(("a", "c"), [0.9, 0.1])
        with pytest.raises(AlignmentError):
            thresholded_distance(y, z, 0.5)

    def test_distance_matches_oracle_bulk(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 101))
            y = rng.uniform(-2, 3, size=n)
            z = rng.uniform(-2, 3, size=n)
            t = float(rng.uniform(0.05, 0.95))
            assert thresholded_distance(y, z, t) == oracle_distance(y, z, t)


class TestAccuracy:
    def test_exact_match(self):
        labels = make_labels([1, 0, 1])
        assert accuracy(ProbSeries(labels.ids, [1.0, 0.0, 1.0]), labels) == 1.0

    def test_total_inversion(self):
        labels = make_labels([1, 0, 1, 0])
        assert accuracy(ProbSeries(labels.ids, [0.0, 1.0, 0.0, 1.0]), labels) == 0.0

    def test_hand_counted(self):
        labels = make_labels([1, 0, 1, 0])
        assert accuracy(ProbSeries(labels.ids, [0.9, 0.6, 0.7, 0.1]), labels) == 0.75

    def test_alignment_by_id(self):
        labels = LabelVector(("a", "b"), [1, 0])
        pred = ProbSeries(("b", "a"), [0.1, 0.9])
        assert accuracy(pred, labels) == 1.0

    def test_id_mismatch(self):
        with pytest.raises(AlignmentError, match="^labels have extra sample id 's1'$"):
            accuracy(ProbSeries(("s0",), [0.5]), make_labels([1, 0]))

    @pytest.mark.parametrize("pred", [
        np.array([0.9, 0.1]), [0.9, 0.1], (0.9, 0.1)], ids=["ndarray", "list", "tuple"])
    def test_only_id_keyed_predictions_are_scored(self, pred):
        with pytest.raises(ValidationError,
                           match="^accuracy scores a ProbSeries against a LabelVector"):
            accuracy(pred, make_labels([1, 0]))


_SERIES = ProbSeries(("x", "y"), [0.1, 0.9])


class TestContainers:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            LabelVector(("a", "a"), [0, 1])

    def test_duplicate_ids_message_lists_first_five_sorted(self):
        ids = ("z", "a", "z", "q", "b", "b", "c", "c", "d", "d", "a", "e", "e", "q")
        with pytest.raises(ValidationError) as exc:
            LabelVector(ids, [0] * len(ids))
        assert str(exc.value) == "duplicate sample ids: ['a', 'b', 'c', 'd', 'e']"

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ValidationError):
            LabelVector(("a", "b"), [0, 2])

    def test_probability_range_enforced_at_ingestion(self):
        with pytest.raises(ValidationError):
            ProbSeries(("a",), [1.5])
        with pytest.raises(ValidationError):
            make_matrix([[0.5, -0.1]])

    def test_matrix_shape_checked(self):
        with pytest.raises(ValidationError):
            PredictionMatrix(("a", "b"), ("M1",), np.zeros((2, 2)))

    def test_duplicate_model_names_rejected(self):
        with pytest.raises(ValidationError):
            make_matrix([[0.5, 0.5]], names=("M1", "M1"))

    def test_from_columns_joins_on_ids(self):
        a = ProbSeries(("x", "y"), [0.1, 0.9])
        b = ProbSeries(("y", "x"), [0.8, 0.2])
        m = PredictionMatrix.from_columns(["A", "B"], [a, b])
        assert m.ids == ("x", "y")
        np.testing.assert_allclose(m.values, [[0.1, 0.2], [0.9, 0.8]])

    def test_from_columns_mismatched_ids_rejected(self):
        a = ProbSeries(("x", "y"), [0.1, 0.9])
        b = ProbSeries(("x", "z"), [0.8, 0.2])
        with pytest.raises(AlignmentError):
            PredictionMatrix.from_columns(["A", "B"], [a, b])

    @pytest.mark.parametrize("b_ids, lacking", [
        (("y", "z"), "'x'"),        # B lacks an id of A
        (("y", "x", "z"), "'z'"),   # A lacks an id of B
    ])
    def test_from_columns_error_names_model_and_id(self, b_ids, lacking):
        a = ProbSeries(("x", "y"), [0.1, 0.9])
        b = ProbSeries(b_ids, [0.5] * len(b_ids))
        with pytest.raises(AlignmentError, match=f"model 'B' vs 'A': .*{lacking}"):
            PredictionMatrix.from_columns(["A", "B"], [a, b])

    def test_from_columns_takes_only_prob_series(self):
        a = ProbSeries(("x", "y"), [0.1, 0.9])
        labels = LabelVector(("x", "y"), [0, 1])
        with pytest.raises(ValidationError,
                           match="^model 'B' is a LabelVector, not a ProbSeries$"):
            PredictionMatrix.from_columns(["A", "B"], [a, labels])

    @pytest.mark.parametrize("build, message", [
        (lambda: LabelVector(("a", "b"), [0]),
         "label values must be 1-d and match the id count"),
        (lambda: LabelVector(("a",), [[0]]),
         "label values must be 1-d and match the id count"),
        (lambda: ProbSeries(("a", "b"), [0.5]),
         "probability values must be 1-d and match the id count"),
        (lambda: ProbSeries(("a",), [[0.5]]),
         "probability values must be 1-d and match the id count"),
        (lambda: PredictionMatrix(("a",), (), np.zeros((1, 0))),
         "a prediction matrix needs at least one model"),
        (lambda: PredictionMatrix.from_columns(["A"], [_SERIES, _SERIES]),
         "more series than the 1 model names"),
        (lambda: PredictionMatrix.from_columns(["A"], []),
         "no prediction columns given"),
        (lambda: PredictionMatrix.from_columns(["A", "B"], [_SERIES]),
         "1 series for 2 model names"),
    ], ids=["label-count", "label-2d", "prob-count", "prob-2d", "no-model",
            "more-series", "no-series", "fewer-series"])
    def test_shape_and_count_errors(self, build, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build()

    def test_select_unknown_model(self):
        m = make_matrix([[0.5, 0.6]])
        with pytest.raises(ValidationError):
            m.select(["M9"])

    def test_restrict_to_no_ids_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            LabelVector(("a", "b"), [0, 1]).restrict([])
        with pytest.raises(ValidationError, match="empty"):
            make_matrix([[0.5, 0.6]]).restrict([])

    def test_restrict_unknown_id(self):
        m = make_matrix([[0.5, 0.6]])
        with pytest.raises(AlignmentError):
            m.restrict(["nope"])

    def test_values_are_immutable(self):
        m = make_matrix([[0.5, 0.6]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 0.2


_CONSTRUCTORS = {
    "LabelVector": lambda ids: LabelVector(ids, [0] * len(ids)),
    "ProbSeries": lambda ids: ProbSeries(ids, [0.5] * len(ids)),
    "PredictionMatrix": lambda ids: PredictionMatrix(ids, ("M1",), np.full((len(ids), 1), 0.5)),
    "LabelVector.restrict": lambda ids: make_labels([0, 1]).restrict(ids),
    "PredictionMatrix.restrict": lambda ids: make_matrix([[0.5], [0.6]]).restrict(ids),
}


def _rows_of_reference(ids, wanted, missing: str) -> np.ndarray:
    """The row lookup as it was first written: an index over all of ``ids``."""
    index = {sid: k for k, sid in enumerate(ids)}
    try:
        return np.asarray([index[sid] for sid in wanted])
    except KeyError as exc:
        raise AlignmentError(f"{missing} {exc.args[0]!r}") from None


def _outcome(call):
    try:
        return call().tolist()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestRowsOf:
    @given(st.lists(st.text("abcde", min_size=1, max_size=2), min_size=1,
                    max_size=12, unique=True), st.data())
    def test_matches_an_index_over_all_ids(self, ids, data):
        # Ids the series lacks, and unique wanted lists shorter than, as
        # long as and longer than the ids; repeats are TestAlignTo's.
        pool = st.sampled_from(ids + ["zz", "e0"])
        wanted = data.draw(
            st.permutations(ids).flatmap(
                lambda p: st.integers(0, len(p)).map(lambda n: p[:n]))
            | st.lists(pool, max_size=len(ids) + 2, unique=True))
        series = ProbSeries(ids, [k / len(ids) for k in range(len(ids))])
        for probe in (wanted, tuple(wanted)):
            got = _outcome(lambda: core._rows_of(series.ids, core.SampleIds(probe),
                                                 "no id"))
            want = _outcome(lambda: _rows_of_reference(series.ids, probe, "no id"))
            assert got == want
            got = _outcome(lambda: series.align_to(probe))
            with mock.patch.object(core, "_rows_of", _rows_of_reference):
                assert _outcome(lambda: series.align_to(probe)) == got


# Ids whose order is easy to get wrong from bytes: a prefix, a trailing NUL,
# a shared 7-, 14- and 999-byte prefix, two-, three- and four-byte UTF-8 and
# a lone surrogate, which UTF-8 with surrogatepass puts between U+D7FF and
# U+E000, as code-point order does.
_TRICKY_IDS = ["a", "ab", "a\0", "a\0\0", "b", "\x7f", "\xe9", "\u07ff",
               "\ud7ff", "\ud800", "\udfff", "\ue000", "\uffff", "\U00010000",
               "\U0001f600", "\ud800\udc00", "abcdefg", "abcdefg\0",
               "abcdefgh", "abcdefghij", "abcdefghijklmn", "abcdefghijklmno",
               "abcdefghijklm\0", "p" * 999 + "b", "p" * 999 + "a", "p" * 999,
               "p" * 999 + "\0x"]


@contextlib.contextmanager
def _ranks_patched(name):
    """``idkeys._ranks`` replaced by the ``COLLIDING_RANKS`` one ``name``;
    None leaves it as it is."""
    if name is None:
        yield
        return
    with mock.patch.object(idkeys, "_ranks", COLLIDING_RANKS[name]):
        yield


class TestSampleIds:
    def test_behaves_as_the_tuple_of_its_ids(self):
        ids = ProbSeries(("a", "b"), [0.5, 0.25]).ids
        assert ids == ("a", "b") and ("a", "b") == ids
        assert ids != ("b", "a") and ids != ["a", "b"]
        assert (ids[0], ids[1], ids[-1], ids[-2]) == ("a", "b", "b", "a")
        for i in (2, -3):
            with pytest.raises(IndexError):
                ids[i]
        assert ids[1:] == ("b",) and ids[::-1] == ("b", "a") and ids[:0] == ()
        assert list(ids) == ["a", "b"] and len(ids) == 2
        assert repr(ids) == "('a', 'b')" and repr(ids[:1]) == "('a',)"
        assert "a" in ids and "c" not in ids and ids.index("b") == 1
        with pytest.raises(ValidationError, match="^sample id set is empty$"):
            ProbSeries(ids[:0], [])

    def test_has_no_ordering_hash_or_concatenation(self):
        """A ``Sequence`` defines none of them; ``tuple(ids)`` has each."""
        ids = ProbSeries(("a", "b"), [0.5, 0.25]).ids
        for op in (lambda: ids < ("a", "c"), lambda: ids >= ids, lambda: hash(ids),
                   lambda: ids + ("c",), lambda: ("c",) + ids):
            with pytest.raises(TypeError):
                op()
        assert tuple(ids) < ("a", "c") and tuple(ids) >= tuple(ids)
        assert hash(tuple(ids)) == hash(("a", "b"))
        assert tuple(ids) + ("c",) == ("a", "b", "c")
        assert ("c",) + tuple(ids) == ("c", "a", "b")

    def test_holds_one_buffer_not_one_str_per_id(self):
        ids = ProbSeries([f"s{i}" for i in range(1000)], [0.5] * 1000).ids
        held = gc.get_referents(ids)
        assert held and not any(isinstance(obj, (str, tuple)) for obj in held)

    @pytest.mark.parametrize("n", [1, 4096, 4097, 9000])
    def test_reads_back_every_id(self, n):
        """Runs of ids are decoded at once, joined by ``\\n``; a run where
        an id holds one is decoded id by id."""
        want = [_TRICKY_IDS[i % len(_TRICKY_IDS)] + str(i) for i in range(n)]
        want[n // 2] += "\nx"
        ids = core.SampleIds(want)
        assert list(ids) == want and [ids[i] for i in range(n)] == want
        assert list(ids[::-3]) == want[::-3] and ids[::-3] == tuple(want[::-3])

    def test_canonical_order_is_sorted_order(self):
        ids = core.SampleIds(_TRICKY_IDS[::-1])
        assert [ids[i] for i in idkeys._sort(ids)[0]] == sorted(_TRICKY_IDS)
        # Many ids tied on their first two windows
        many = [f"sample_prefix_{i}" for i in range(9000, 0, -1)]
        ids = core.SampleIds(many)
        assert [ids[i] for i in idkeys._sort(ids)[0]] == sorted(many)

    @pytest.mark.parametrize("ranks", [None, *COLLIDING_RANKS])
    def test_pairs_ids_through_their_keys(self, ranks):
        """With the real sort keys, and with sort keys that collide, which
        sends the pairing and the duplicate check to the sort."""
        with _ranks_patched(ranks):
            series = ProbSeries(_TRICKY_IDS, np.arange(len(_TRICKY_IDS)) / 32)
            back = sorted(_TRICKY_IDS)
            assert series.align_to(back).tolist() == [
                _TRICKY_IDS.index(sid) / 32 for sid in back]
            with pytest.raises(AlignmentError, match="^probabilities have extra "
                                                     "sample id 'a'$"):
                series.align_to(back[1:])
            with pytest.raises(ValidationError, match=r"^duplicate sample ids: "
                                                      r"\['abcdefgh', 'pp"):
                ProbSeries(_TRICKY_IDS + ["p" * 999, "abcdefgh"], [0.5] * 29)

    @pytest.mark.parametrize("ranks", [None, *COLLIDING_RANKS])
    def test_a_found_sort_key_is_checked_word_for_word(self, ranks):
        """``abcdefgh2`` shares its first word with ``abcdefgh1``, so it has
        that id's sort key where only the first word sorts; and
        ``ijklmnopqrstuvwxy`` fills the 16-byte keys of the index with the
        bytes of ``ijklmnopqrstuvwx``."""
        with _ranks_patched(ranks):
            series = ProbSeries(["abcdefgh1", "b", "ijklmnopqrstuvwx"], [0.25, 0.5, 1])
            assert series.align_to(["b", "ijklmnopqrstuvwx", "abcdefgh1"]).tolist() == [
                0.5, 1, 0.25]
            for other in ("abcdefgh2", "abcdefgh", "ijklmnopqrstuvwxy", "ijklmnopXYZ"):
                with pytest.raises(AlignmentError, match=f"^probabilities are missing "
                                                         f"sample id '{other}'$"):
                    series.align_to(["b", other, "abcdefgh1"])

    def test_long_ids_get_an_index(self):
        """Ids as long as UUIDs, with a shared prefix, of one word and of
        one word and a byte get distinct sort keys, so an index, kind by
        kind and all together; one very long id among short ones gets none,
        as its keys would be far wider than the ids."""
        kinds = [[f"sample_{i:06d}" for i in range(5000)],
                 [f"{i:08d}" for i in range(5000)],
                 [str(uuid.UUID(int=random.Random(i).getrandbits(128)))
                  for i in range(5000)],
                 [str(i) for i in range(5000)]]
        for strs in [*kinds, sum(kinds, [])]:
            assert idkeys._Index().build(core.SampleIds(strs)) is not None
        assert idkeys._Index().build(core.SampleIds(kinds[3] + ["x" * 10_000])) is None

    @settings(deadline=None)
    @given(st.lists(st.text(st.sampled_from("ab\0\xe9\ud800\U0001f600"),
                            min_size=1, max_size=20), min_size=1, max_size=30))
    def test_sorts_as_python_sorts(self, strs):
        order, new = idkeys._sort(core.SampleIds(strs))
        got = [strs[i] for i in order]
        assert got == sorted(strs)
        assert new.tolist() == [i == 0 or got[i] != got[i - 1] for i in range(len(got))]


class TestAlignTo:
    @pytest.mark.parametrize("ids", [("a", "b"), ("a",)])
    @pytest.mark.parametrize("kind", [list, tuple])
    def test_repeated_target_ids_rejected(self, ids, kind):
        # a target as long as the ids, and one longer than them
        for value in (ProbSeries(ids, [0.5] * len(ids)),
                      LabelVector(ids, [1] * len(ids))):
            with pytest.raises(ValidationError,
                               match=r"^duplicate sample ids: \['a'\]$"):
                value.align_to(kind(["a", "a"]))


class TestCheckedIds:
    @pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
    @pytest.mark.parametrize("kind", [tuple, list])
    @pytest.mark.parametrize("ids, message", [
        ((), "sample id set is empty"),
        (("s0", ""), "sample ids must be non-empty"),
        (("s1", "s0", "s1"), r"duplicate sample ids: \['s1'\]"),
    ])
    def test_plain_sequences_are_checked(self, build, kind, ids, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(kind(ids))

    @pytest.mark.parametrize("ranks", [None, *COLLIDING_RANKS])
    @pytest.mark.parametrize("build", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
    @pytest.mark.parametrize("ids, message", [
        (["a\0", "a", "ab", "a\0", "a", "ab", "b"], r"['a', 'a\x00', 'ab']"),
        (["\ue000", "\ud800", "\ud7ff", "\U0001f600", "\xe9", "\U0001f600",
          "\ue000", "\ud800", "\ud7ff", "\xe9", "z", "z"],
         "['z', '\xe9', '\\ud7ff', '\\ud800', '\\ue000']"),
        (["\U0001f600", "\ud800\udc00", "\U00010000", "\ue000", "\ud800\udc00",
          "\U00010000", "\U0001f600", "\ue000", "\udfff", "\udfff"],
         "['\\ud800\\udc00', '\\udfff', '\\ue000', '\U00010000', '\U0001f600']"),
        ([f"sample_{i:06d}" for i in range(9, -1, -1)] * 2,
         "['sample_000000', 'sample_000001', 'sample_000002', 'sample_000003', "
         "'sample_000004']"),
    ], ids=["nul", "non-ascii", "astral", "shared-prefix"])
    def test_duplicate_text_lists_the_first_five_in_code_point_order(
            self, build, ids, message, ranks):
        with _ranks_patched(ranks), pytest.raises(ValidationError) as err:
            build(ids)
        assert str(err.value) == f"duplicate sample ids: {message}"

    def test_plain_ids_are_checked_without_the_byte_index_or_sort(self, monkeypatch):
        """A set checks ids given as strings; their bytes are neither
        indexed nor sorted."""
        calls = []
        build, sort = idkeys._Index.build, idkeys._sort
        monkeypatch.setattr(idkeys._Index, "build",
                            lambda self, ids: calls.append("build") or build(self, ids))
        for module in (idkeys, core):
            monkeypatch.setattr(module, "_sort", lambda ids: calls.append("sort") or sort(ids),
                                raising=False)
        ids = _TRICKY_IDS + [f"sample_{i:06d}" for i in range(5000)]
        LabelVector(ids, [0] * len(ids))
        ProbSeries(ids, [0.5] * len(ids))
        PredictionMatrix(ids, ("M1",), np.full((len(ids), 1), 0.5))
        assert calls == []

    def test_selected_and_restricted_values_are_not_checked_again(
            self, monkeypatch, tmp_path):
        m = make_matrix([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        labels = make_labels([1, 0])
        save_prediction_file(tmp_path / "p.csv", m.column("M2"))
        save_label_file(tmp_path / "l.csv", labels)
        weights = CombinerWeights(("M2", "M1"), [1.0, 0.5], 0.2)
        calls = []
        monkeypatch.setattr(core, "check_probs", lambda v: calls.append(v) or v)
        for cls in (LabelVector, ProbSeries, PredictionMatrix):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self: calls.append(type(self)))
        sub, rows = m.select(["M3", "M1"]), m.restrict(["s1"])
        col, sub_u = m.column("M2"), labels.restrict(["s1"])
        loaded_p = load_prediction_file(tmp_path / "p.csv")
        loaded_u = load_label_file(tmp_path / "l.csv")
        scores = predict(weights, m)
        assert calls == []
        assert (sub.ids, sub.model_names) == (m.ids, ("M3", "M1"))
        assert sub.values.tolist() == [[0.3, 0.1], [0.6, 0.4]]
        assert (rows.ids, rows.values.tolist()) == (("s1",), [[0.4, 0.5, 0.6]])
        for part in (sub, rows):
            assert part.values.flags.c_contiguous
        assert col.ids == m.ids
        assert col.values.tobytes() == m.values[:, 1].tobytes()
        assert (sub_u.ids, sub_u.values.tolist()) == (("s1",), [0])
        assert sub_u.values.dtype == np.int64
        assert (loaded_p.ids, loaded_p.values.tolist()) == (m.ids, [0.2, 0.5])
        assert (loaded_u.ids, loaded_u.values.tolist()) == (m.ids, [1, 0])
        assert loaded_u.values.dtype == np.int64
        assert scores.values.tolist() == sigmoid(
            m.values[:, [1, 0]] @ [1.0, 0.5] - 0.2).tolist()
        for part in (sub, rows, col, sub_u, loaded_p, loaded_u, scores):
            assert not part.values.flags.writeable
        assert m.select(("M1", "M2", "M3")) is m
        with pytest.raises(ValidationError, match="^model names must be unique$"):
            m.select(["M1", "M1"])
        calls.clear()
        paths = [str(path) for path in save_matrix_files(tmp_path, m)]
        joined = load_matrix(paths)
        assert main(["combine", "--method", "hybrid", "--preds", *paths,
                     "--hybrid-base", "M1", "--hybrid-aux", "M2", "M3",
                     "--out", str(tmp_path / "hybrid.csv")]) == 0
        assert calls == []
        assert joined.values.tobytes() == m.values.tobytes()
        _, suite = generate(SyntheticSpec(k=2, target_acc=(0.7, 0.8), n=5))
        assert calls == [LabelVector]  # the one check of the suite's ids
        for part in (joined, suite):
            assert not part.values.flags.writeable

    def test_checked_ids_are_not_checked_again(self, monkeypatch, tmp_path):
        checks = []
        real = core._check_ids
        monkeypatch.setattr(core, "_check_ids",
                            lambda ids: checks.append(ids) or real(ids))
        m = make_matrix([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        labels = make_labels([0, 1, 1])
        assert len(checks) == 2
        checks.clear()
        sub = m.select(["M2", "M1"])
        col = m.column("M1")
        scores = predict(CombinerWeights(("M1", "M2"), [1.0, 0.5], 0.2), m)
        joined = PredictionMatrix.from_columns(["A", "B"], [col, scores])
        assert labels.align_to(sub.ids).tolist() == [0, 1, 1]
        assert joined.ids == sub.ids == col.ids == scores.ids == m.ids
        assert checks == []
        rm, ru = m.restrict(("s2", "s0")), labels.restrict(["s2", "s0"])
        assert checks == [("s2", "s0"), ["s2", "s0"]]  # the arguments, once each
        checks.clear()
        rm.select(["M1"]).column("M1")
        rm.restrict(ru.ids)
        save_prediction_file(tmp_path / "p.csv", col)
        save_label_file(tmp_path / "l.csv", labels)
        assert load_prediction_file(tmp_path / "p.csv").ids == m.ids
        assert load_label_file(tmp_path / "l.csv").ids == m.ids
        assert checks == []
