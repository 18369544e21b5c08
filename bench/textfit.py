"""Fit the toy text model on a generated corpus and export held-out predictions.

predfuse has no CLI command for its text path, so this script is the
process that runs it: ``textmodel.train_logistic`` on the first
``--train-docs`` documents, then ``predict_proba`` on the rest, written as a
standard ``id,prob`` prediction file keyed by 0-based line number.

    PYTHONPATH=src python3 bench/textfit.py --corpus c.txt --labels l.csv \
        --train-docs 3200 --vocab 400 --epochs 20 --seed 0 --out text.csv
"""

from __future__ import annotations

import argparse
import sys

from predfuse.core import ProbSeries
from predfuse.errors import PredfuseError
from predfuse.io_files import load_label_file, save_prediction_file
from predfuse.textmodel import load_corpus, predict_proba, train_logistic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--train-docs", type=int, required=True)
    parser.add_argument("--vocab", type=int, required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        docs = load_corpus(args.corpus)
        ids = tuple(str(j) for j in range(len(docs)))
        u = load_label_file(args.labels).align_to(ids)
        n = args.train_docs
        model = train_logistic(docs[:n], u[:n].tolist(), v_size=args.vocab,
                               epochs=args.epochs, seed=args.seed)
        save_prediction_file(args.out, ProbSeries(
            ids[n:], [predict_proba(model, doc) for doc in docs[n:]]))
    except PredfuseError as exc:
        print(f"textfit: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
