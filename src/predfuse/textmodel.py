"""Toy bag-of-words logistic classifier for end-to-end text runs.

A deliberately small stand-in so the pipeline can start from raw text at
desk scale: lowercase tokens, multi-hot presence encoding over a top-V
vocabulary, and a logistic layer trained through the prediction combiner's
minibatch-ADAM loop, kernels and hyperparameter checks (``TrainConfig``),
with unconstrained weights, no L2, and bias = -b in sigmoid(x @ w - b).
The vocabulary maps each token to its column once, so encoding a corpus
sets each document's present columns, with no loop over the vocabulary.
Training keeps that design matrix at one byte per entry (``uint8``); the
loop widens each minibatch to float64, so the trained bits are those of a
float64 matrix, and :func:`encode` still returns float64.

Corpus format: one document per line; labels in a CSV aligned by 0-based
line number.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .combiner import TrainConfig, _fit
from .core import sigmoid
from .errors import ValidationError

__all__ = ["Vocabulary", "LogisticModel", "tokenize", "build_vocab", "encode",
           "train_logistic", "predict_proba", "load_corpus"]

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def tokenize(doc: str) -> list[str]:
    """Lowercase and split on anything that is not a letter or digit.  Tokens
    are interned, so training holds one string per distinct token."""
    return [sys.intern(t) for t in _TOKEN_SPLIT.split(doc.lower()) if t]


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]
    _columns: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tokens:
            raise ValidationError("vocabulary is empty")
        columns = {tok: col for col, tok in enumerate(self.tokens)}
        if len(columns) != len(self.tokens):
            raise ValidationError("vocabulary tokens must be unique")
        object.__setattr__(self, "_columns", columns)

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray = field(repr=False)
    bias: float
    vocab: Vocabulary


def build_vocab(corpus, v_size: int) -> Vocabulary:
    """Top-``v_size`` tokens by frequency, frequency ties broken lexically."""
    return _ranked_vocab(map(tokenize, corpus), v_size)


def _ranked_vocab(token_lists, v_size: int) -> Vocabulary:
    """:func:`build_vocab` of token lists; training tokenizes a doc once."""
    if v_size < 1:
        raise ValidationError("vocabulary size must be positive")
    counts = Counter(tok for tokens in token_lists for tok in tokens)
    if not counts:
        raise ValidationError("corpus has no tokens")
    ranked = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return Vocabulary(tuple(ranked[:v_size]))


def encode(doc: str, vocab: Vocabulary) -> np.ndarray:
    """Multi-hot presence vector; repeats count once, unknown tokens drop."""
    return _encode_rows([tokenize(doc)], vocab)[0]


def _encode_rows(token_lists, vocab: Vocabulary, dtype=np.float64) -> np.ndarray:
    """The (n, V) matrix, in ``dtype``, of the presence vectors of n
    documents' tokens."""
    column, rows, cols = vocab._columns, [], []
    for row, tokens in enumerate(token_lists):
        present = {column[t] for t in tokens if t in column}
        rows.extend([row] * len(present))
        cols.extend(present)
    x = np.zeros((len(token_lists), vocab.size), dtype)
    x[rows, cols] = 1
    return x


def predict_proba(model: LogisticModel, doc: str) -> float:
    return float(sigmoid(encode(doc, model.vocab) @ model.weights + model.bias))


def train_logistic(docs, labels, v_size: int, epochs: int = TrainConfig.epochs,
                   lr: float = 0.05, seed: int = 0,
                   batch_size: int = TrainConfig.batch_size) -> LogisticModel:
    """Fit the toy classifier; deterministic given the shuffle seed."""
    docs = list(docs)
    u = np.asarray(list(labels), dtype=np.float64)
    if len(docs) != len(u) or not docs:
        raise ValidationError("need equally many non-empty docs and labels")
    if not np.isin(u, (0, 1)).all():
        raise ValidationError("labels must be 0 or 1")
    cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=batch_size,
                      l2=0.0, seed=seed)
    token_lists = [tokenize(doc) for doc in docs]
    vocab = _ranked_vocab(token_lists, v_size)
    # one byte per entry: the loop widens each minibatch to float64
    x = _encode_rows(token_lists, vocab, np.uint8)
    w, b, _ = _fit(x[None], u[None], np.zeros(vocab.size), 0.0, [cfg], -np.inf)
    w = w[0]
    w.setflags(write=False)
    return LogisticModel(weights=w, bias=-float(b[0]), vocab=vocab)


def load_corpus(path) -> list[str]:
    """One document per line; trailing newlines stripped, blank lines kept."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]
