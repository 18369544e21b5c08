"""Spans around predfuse's layer boundaries, recorded from outside the program.

:meth:`Tracer.install` wraps every public function and public method that a
module under ``src/predfuse/`` defines, and rebinds the wrapper wherever a
module holds a reference to the original, so calls made across modules
(``cli`` -> ``io_files``, ``evaluate`` -> ``combiner``, ...) and within
them both land in a span.  :meth:`Tracer.uninstall` puts every original
back.  No file of the program changes.

A span is ``(name, start, end, parent, trace, rows)``: ``parent`` indexes
the span that was open when it started (-1 at the top), ``trace`` numbers
the operation it belongs to, and ``rows`` is a count taken at the same
boundary (rows parsed, written, predicted or combined) where one applies.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("cli", "io_files", "core", "rules", "hybrid", "combiner", "optim",
          "bounds", "evaluate", "synth", "textmodel")

# Rows counted at a boundary, from the call's arguments and result.
_ROWS = {
    "io_files.load_prediction_file": lambda args, res: len(res),
    "io_files.load_label_file": lambda args, res: len(res),
    "io_files.save_prediction_file": lambda args, res: len(args[1]),
    "io_files.save_label_file": lambda args, res: len(args[1]),
    "combiner.predict": lambda args, res: len(res),
    "rules.apply_rule": lambda args, res: args[1].n_samples,
}

_PARSE = ("io_files.load_prediction_file", "io_files.load_label_file")
_WRITE = ("io_files.atomic_write_text", "io_files.save_prediction_file",
          "io_files.save_label_file", "io_files.save_matrix_files",
          "io_files.save_weights", "io_files.save_report")
_RESTRICT = ("core.PredictionMatrix.restrict", "core.LabelVector.restrict")


def unit(metric: str) -> str:
    for suffix, name in (("_per_s", "rows/s"), ("_us", "us"), ("_s", "s")):
        if metric.endswith(suffix):
            return name
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, rows_of = self.spans, self._stack, _ROWS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rows = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if rows_of is not None:
                    rows = rows_of(args, result)
                return result
            finally:
                stack.pop()
                spans[idx] = (name, start, clock(), parent, self.trace, rows)
        return traced

    def install(self, extra_namespaces=()) -> None:
        """Wrap the layers' public callables; rebind them in every namespace."""
        modules = [importlib.import_module(f"predfuse.{m}") for m in LAYERS]
        namespaces = [vars(m) for m in modules] + [vars(m) for m in extra_namespaces]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                self._undo.append((ns, key, obj))
                                ns[key] = wrapped
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{prefix}.{attr}", raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{prefix}.{attr}", raw)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trace, rows in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trace": trace,
                                     "rows": rows}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer time, counts and rates from one traced round's spans.

    A time sums the outermost spans of its names, so a write that nests
    ``save_prediction_file`` -> ``atomic_write_text`` counts once.  A layer
    the round does not exercise reads 0.
    """
    names = [s[0] for s in spans]

    def outermost(wanted) -> list[int]:
        wanted = set(wanted)
        out = []
        for i, name in enumerate(names):
            if name not in wanted:
                continue
            p = spans[i][3]
            while p >= 0 and names[p] not in wanted:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def total(*wanted) -> tuple[float, int, int]:
        idx = outermost(wanted)
        return (sum(dur(i) for i in idx), len(idx), sum(spans[i][5] for i in idx))

    def rate(rows: int, seconds: float) -> float:
        return rows / seconds if seconds > 0 else 0.0

    parse_s, _, parse_rows = total(*_PARSE)
    write_s, _, write_rows = total(*_WRITE)
    restrict_s, restrict_calls, _ = total(*_RESTRICT)
    train = outermost(["combiner.train"])
    train_s = sum(dur(i) for i in train)
    train_set = set(train)
    adam = [i for i, n in enumerate(names) if n == "optim.Adam.step"]
    train_steps = sum(1 for i in adam if spans[i][3] in train_set)
    cv = outermost(["evaluate.cross_validate"])
    cv_set = set(cv)
    cv_children = [i for i, s in enumerate(spans) if s[3] in cv_set]
    predict_s, _, predict_rows = total("combiner.predict")
    rule_s, _, rule_rows = total("rules.apply_rule")
    return {
        "io_files.parse_s": parse_s,
        "io_files.parse_rows_per_s": rate(parse_rows, parse_s),
        "io_files.parse_rows": parse_rows,
        "io_files.write_s": write_s,
        "io_files.write_rows_per_s": rate(write_rows, write_s),
        "io_files.write_rows": write_rows,
        "core.join_s": total("core.PredictionMatrix.from_columns")[0],
        "core.restrict_s": restrict_s,
        "core.restrict_calls": restrict_calls,
        "evaluate.kfold_split_s": total("evaluate.kfold_split")[0],
        "evaluate.cross_validate_self_s": sum(dur(i) for i in cv)
        - sum(dur(i) for i in cv_children),
        "evaluate.report_render_s": total("evaluate.report_render")[0],
        "combiner.train_s": train_s,
        "combiner.train_calls": len(train),
        "combiner.train_p50_s": statistics.median(dur(i) for i in train) if train else 0.0,
        "combiner.step_us": 1e6 * train_s / train_steps if train_steps else 0.0,
        "optim.adam_steps": len(adam),
        "optim.adam_step_us": 1e6 * sum(dur(i) for i in adam) / len(adam) if adam else 0.0,
        "combiner.predict_s": predict_s,
        "combiner.predict_rows_per_s": rate(predict_rows, predict_s),
        "bounds.weight_sum_bounds_s": total("bounds.weight_sum_bounds")[0],
        "rules.apply_rule_s": rule_s,
        "rules.apply_rule_rows_per_s": rate(rule_rows, rule_s),
        "hybrid.hybrid_predict_s": total("hybrid.hybrid_predict")[0],
        "hybrid.theta_sweep_s": total("hybrid.theta_sweep")[0],
        "synth.generate_s": total("synth.generate")[0],
        "textmodel.train_logistic_s": total("textmodel.train_logistic")[0],
        "textmodel.encode_s": total("textmodel.encode")[0],
    }
