"""predfuse benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload cv-nn --seed 0 --seconds 20 --trace 0

Run it from the root of a predfuse checkout.  It builds the workload's
inputs from ``--seed`` (timed five times: ``setup_s``), then repeats whole
rounds of the workload's operations for about ``--seconds`` seconds and
checks the outputs.

``--trace 0`` runs every operation in its own process, the way a user runs
the CLI, and reports the end-to-end metrics: medians over the rounds.
``--trace 1`` runs the same operations in-process through
``predfuse.cli.main``, alternating a plain round with a round whose layer
boundaries are wrapped in spans (``tracer.py``), and reports the per-layer
metrics plus the tracing overhead (traced minus plain round time).

Either way the outputs of every round must be byte-identical, to each other
and to those of any earlier run of the same workload, seed and code in this
checkout (``.bench_work/digests.json``), traced or not.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORK_DIR, WORKLOADS, Op, Workload

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
HELP_STARTS = 5


class BenchError(Exception):
    """The benchmark itself could not run (not a fault of the program)."""


def _worker(env: dict, script: str, *args: str) -> dict:
    """Run a numpy helper script in its own process; return its JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / script), *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digests(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _fingerprint(root: Path) -> str:
    """Hash of the program and benchmark sources: outputs are compared only
    between runs of identical code."""
    h = hashlib.sha256()
    for p in sorted([*(root / "src" / "predfuse").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


class Round:
    """Results of one round: per operation exit code, seconds and peak RSS."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.codes: list[int] = []
        self.walls: list[float] = []
        self.rss_kib: list[int] = []
        self.digests: dict[str, str] = {}

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def rate(self, attr: str) -> float:
        """Count per second over the operations that contribute to it."""
        parts = [(getattr(op, attr), w) for op, w in zip(self.ops, self.walls)
                 if getattr(op, attr)]
        return sum(n for n, _ in parts) / sum(w for _, w in parts)


def _subprocess_op(op: Op, env: dict, log) -> tuple[int, float, int]:
    if op.kind == "cli":
        argv = [sys.executable, "-m", "predfuse", *op.args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "textfit.py"), *op.args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:   # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _inprocess_op(op: Op) -> tuple[int, float, int]:
    import predfuse.cli
    import textfit
    main = predfuse.cli.main if op.kind == "cli" else textfit.main
    start = time.perf_counter()
    try:
        code = main(list(op.args))
    except SystemExit as exc:   # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - start, 0


def _run_round(workload: Workload, ops: list[Op], execute) -> Round:
    out = Path(workload.root) / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = Round(ops)
    for op in ops:
        code, wall, rss = execute(op)
        result.codes.append(code)
        result.walls.append(wall)
        result.rss_kib.append(rss)
    result.digests = _digests(out)
    return result


def _repeat_for(seconds: float, step) -> list:
    """Call ``step`` at least once, and again while another call is expected
    to finish within ``seconds`` of the first one's start."""
    start = time.perf_counter()
    results = [step()]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(step())


def _end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, tuple[float, str]]:
    def median(values) -> float:
        return statistics.median(list(values))
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(r.wall for r in rounds), "s"),
        "peak_rss_mib": (max(max(r.rss_kib) for r in rounds) / 1024, "MiB"),
        "trained_runs_per_s": (median(r.rate("fits") for r in rounds), "runs/s"),
        "train_steps_per_s": (median(r.rate("steps") for r in rounds), "steps/s"),
        "rows_per_s": (median(r.rate("rows") for r in rounds), "rows/s"),
    }


def _per_layer(root: Path, env: dict, workload: Workload, ops: list[Op],
               seconds: float) -> tuple[list[Round], dict[str, tuple[float, str]]]:
    sys.path.insert(0, str(root / "src"))
    import predfuse
    if Path(predfuse.__file__).resolve().parent != root / "src" / "predfuse":
        raise BenchError(f"imported predfuse from {predfuse.__file__}, not this checkout")
    import textfit
    from tracer import Tracer, layer_metrics, unit

    help_walls = [_subprocess_op(Op("help", ("--help",)), env, subprocess.DEVNULL)[1]
                  for _ in range(HELP_STARTS)]
    tracer = Tracer()

    def traced(op: Op):
        tracer.trace = ops.index(op)
        return _inprocess_op(op)

    def pair() -> tuple[Round, Round, dict]:
        plain = _run_round(workload, ops, _inprocess_op)
        tracer.spans.clear()
        tracer.install(extra_namespaces=[textfit])
        try:
            traced_round = _run_round(workload, ops, traced)
        finally:
            tracer.uninstall()
        return plain, traced_round, layer_metrics(tracer.spans)

    pairs = _repeat_for(seconds, pair)
    tracer.dump(Path(WORK_DIR) / f"spans-{workload.name}.jsonl")
    metrics = {"cli.start_s": (statistics.median(help_walls), "s")}
    for key in pairs[0][2]:
        metrics[key] = (statistics.median(p[2][key] for p in pairs), unit(key))
    metrics["trace.overhead_s"] = (
        statistics.median(p[1].wall for p in pairs)
        - statistics.median(p[0].wall for p in pairs), "s")
    return [r for p in pairs for r in p[:2]], metrics


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "predfuse" / "cli.py").is_file():
        raise BenchError("run from the root of a predfuse checkout: no src/predfuse/cli.py")
    workload = WORKLOADS[args.workload]
    shutil.rmtree(workload.root, ignore_errors=True)
    Path(workload.root).mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    seed = str(args.seed)

    setup = _worker(env, "gen.py", "--workload", workload.name, "--seed", seed,
                    "--repeat", str(SETUP_REPEATS))["times"]
    ops = workload.ops(args.seed)
    if args.trace:
        rounds, metrics = _per_layer(root, env, workload, ops, args.seconds)
    else:
        with open(Path(workload.root) / "stderr.log", "wb") as log:
            rounds = _repeat_for(args.seconds, lambda: _run_round(
                workload, ops, lambda op: _subprocess_op(op, env, log)))
        metrics = _end_to_end(rounds, setup)

    errors = []
    for i, r in enumerate(rounds):
        for op, code in zip(ops, r.codes):
            if code not in (0, op.may_fail):
                errors.append(f"round {i + 1}: {op.name} exited {code} "
                              f"(stderr in {workload.root}/stderr.log)")
    errors += _worker(env, "check.py", "--workload", workload.name, "--seed", seed)["errors"]
    errors += _check_determinism(workload, seed, root, rounds)
    return {"rounds": rounds, "ops": ops, "errors": errors, "metrics": metrics}


def _check_determinism(workload: Workload, seed: str, root: Path,
                       rounds: list[Round]) -> list[str]:
    reference = rounds[0].digests
    errors = [f"round {i + 1}: outputs differ from round 1"
              for i, r in enumerate(rounds) if r.digests != reference]
    store = Path(WORK_DIR) / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload.name}/{seed}/{_fingerprint(root)}"
    if key in known and known[key] != reference:
        errors.append("outputs differ from an earlier run of this workload, seed and code")
    known[key] = reference
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        res = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    rounds, ops = res["rounds"], res["ops"]
    attempted = len(rounds) * len(ops)
    failed = sum(code != 0 for r in rounds for code in r.codes)
    mode = "traced in-process" if args.trace else "one process per operation"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: {len(rounds)} rounds "
          f"of {len(ops)} operations; attempted {attempted}, failed {failed}")
    print("  round times: " + " ".join(f"{r.wall:.3f}" for r in rounds) + " s")
    for op, wall in zip(ops, rounds[-1].walls):
        print(f"  {op.name:<18} {wall:9.3f} s (last round)")
    for name, digest in rounds[0].digests.items():
        print(f"  sha256 {digest}  {name}")
    for error in res["errors"]:
        print(f"  FAILED CHECK: {error}")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not res["errors"], "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
