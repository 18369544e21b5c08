import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from predfuse import textmodel
from predfuse.errors import ValidationError
from predfuse.textmodel import (LogisticModel, Vocabulary, _encode_rows,
                                build_vocab, encode, load_corpus,
                                logistic_gradient, logistic_loss,
                                predict_proba, tokenize, train_logistic)

_TOKENS = ["good", "bad", "film", "plot", "x1", "the", "a9"]
# pieces of documents: vocabulary words in any case, unknown words, and
# punctuation, digits and non-ASCII letters, which the tokenizer splits on
_PIECES = st.one_of(
    st.sampled_from(_TOKENS + ["Good", "BAD", "Film!", "plot,plot", "unknown"]),
    st.text(alphabet="aBx19 ,.!-_\té", max_size=12))


class TestTokenizeAndVocab:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Good, GOOD!") == ["good", "good"]

    def test_frequency_then_lexicographic(self):
        vocab = build_vocab(["a b", "a"], v_size=1)
        assert vocab.tokens == ("a",)

    def test_v_larger_than_distinct_token_count(self):
        vocab = build_vocab(["b a", "b c"], v_size=10)
        assert vocab.tokens == ("b", "a", "c")  # b twice, ties a < c

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_vocab(["", "  "], v_size=3)


class TestEncode:
    def test_empty_document_is_zero_vector(self):
        vocab = Vocabulary(("x", "y"))
        np.testing.assert_array_equal(encode("", vocab), [0.0, 0.0])

    def test_multi_hot_not_counts(self):
        vocab = Vocabulary(("x",))
        np.testing.assert_array_equal(encode("x x x", vocab), encode("x", vocab))

    def test_unknown_tokens_ignored(self):
        vocab = Vocabulary(("y", "z"))
        np.testing.assert_array_equal(encode("x y", vocab), [1.0, 0.0])


class TestEncodeRows:
    """The column-indexed encoder against the presence-vector definition."""

    @staticmethod
    def presence(doc, vocab):
        present = set(tokenize(doc))
        return [1.0 if tok in present else 0.0 for tok in vocab.tokens]

    @given(st.lists(st.lists(_PIECES, max_size=8).map(" ".join), max_size=6),
           st.lists(st.sampled_from(_TOKENS), min_size=1, unique=True))
    def test_matches_the_definition(self, docs, tokens):
        vocab = Vocabulary(tuple(tokens))
        want = np.array([self.presence(d, vocab) for d in docs],
                        dtype=np.float64).reshape(len(docs), vocab.size)
        got = _encode_rows([tokenize(d) for d in docs], vocab)
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        for doc, row in zip(docs, want):
            assert encode(doc, vocab).tobytes() == row.tobytes()


class TestTrain:
    def test_separable_toy_corpus_fits_exactly(self):
        docs = ["good film", "good plot twist", "bad film", "plot was bad"]
        labels = [1, 1, 0, 0]
        model = train_logistic(docs, labels, v_size=10, epochs=300, lr=0.1,
                               seed=0)
        preds = [predict_proba(model, d) for d in docs]
        assert [int(p >= 0.5) for p in preds] == labels

    def test_zero_initialised_model_predicts_half(self):
        vocab = Vocabulary(("a", "b"))
        model = LogisticModel(weights=np.zeros(2), bias=0.0, vocab=vocab)
        assert predict_proba(model, "a b") == 0.5
        assert predict_proba(model, "unseen words") == 0.5

    def test_deterministic_given_seed(self):
        docs = ["alpha beta", "beta gamma", "gamma delta", "delta alpha"] * 3
        labels = [1, 0, 1, 0] * 3
        a = train_logistic(docs, labels, v_size=6, epochs=20, seed=4)
        b = train_logistic(docs, labels, v_size=6, epochs=20, seed=4)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_probabilities_strictly_inside_unit_interval(self):
        docs = ["yes", "no", "yes yes", "no no"]
        model = train_logistic(docs, [1, 0, 1, 0], v_size=4, epochs=50, seed=1)
        for d in docs + ["other"]:
            assert 0.0 < predict_proba(model, d) < 1.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            train_logistic(["a"], [1, 0], v_size=2)

    def test_pinned_weights_and_bias(self):
        # Pinned bits (numpy's bundled OpenBLAS on x86-64; another BLAS may
        # round differently) of the shared training loop on the text path.
        docs = ["good film", "bad film", "good plot twist", "plot was bad",
                "good good", "awful bad acting"] * 3
        model = train_logistic(docs, [1, 0, 1, 0, 1, 0] * 3, v_size=8,
                               epochs=25, lr=0.1, seed=3, batch_size=4)
        assert hashlib.sha256(model.weights.tobytes()).hexdigest() == (
            "7147226ab6d24f827cd77b9540ea0f8c56c541b87a6e17434803e724c2323c75")
        assert model.bias.hex() == "0x1.1dfee0c450112p-1"
        assert not model.weights.flags.writeable

    def test_each_document_is_tokenized_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(textmodel, "tokenize",
                            lambda doc: calls.append(doc) or tokenize(doc))
        docs = ["good film", "bad film", "good plot twist", "plot was bad"]
        train_logistic(docs, [1, 0, 1, 0], v_size=5, epochs=2, seed=0)
        assert calls == docs

    def test_diverging_fit_is_a_validation_error(self):
        # lr near the float64 maximum drives the weights to inf within a few
        # epochs; the next step's finiteness check stops it.
        docs = ["good film", "bad film", "good plot twist", "plot was bad"]
        with pytest.raises(ValidationError, match="^sigmoid input must be finite$"):
            train_logistic(docs, [1, 0, 1, 0], v_size=5, epochs=20, lr=1e308,
                           seed=0)

    @pytest.mark.parametrize("kwargs, culprit", [
        ({"seed": -1}, "seed"),
        ({"lr": float("nan")}, "learning_rate"),
        ({"lr": 0.0}, "learning_rate"),
        ({"epochs": 0}, "epochs"),
        ({"batch_size": 0}, "batch_size"),
    ])
    def test_bad_hyperparameter_names_the_parameter(self, kwargs, culprit):
        with pytest.raises(ValidationError, match=culprit):
            train_logistic(["a b", "b c"], [1, 0], v_size=3, **kwargs)


class TestLogisticGradient:
    def test_matches_finite_differences(self, rng):
        worst = 0.0
        for _ in range(20):
            n, v = int(rng.integers(4, 40)), int(rng.integers(1, 6))
            x = rng.integers(0, 2, size=(n, v)).astype(float)
            u = rng.integers(0, 2, size=n).astype(float)
            w = rng.normal(0, 1, size=v)
            bias = float(rng.normal())
            analytic = logistic_gradient(w, bias, x, u)
            h = 1e-5
            fd = []
            for i in range(v):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd.append((logistic_loss(wp, bias, x, u)
                           - logistic_loss(wm, bias, x, u)) / (2 * h))
            fd.append((logistic_loss(w, bias + h, x, u)
                       - logistic_loss(w, bias - h, x, u)) / (2 * h))
            fd = np.asarray(fd)
            worst = max(worst, np.linalg.norm(analytic - fd)
                        / max(np.linalg.norm(fd), 1e-8))
        assert worst < 1e-4


class TestCorpusFile:
    def test_one_document_per_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("first doc\nsecond doc\n\nfourth doc\n", encoding="utf-8")
        assert load_corpus(path) == ["first doc", "second doc", "", "fourth doc"]
