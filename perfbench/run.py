"""Benchmark of ``shrinknet infer`` and ``shrinknet benchmark``.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infer-wide --seed 1 --seconds 30 \
        --trace 0

Each operation is one run of the command line in a fresh process
(perfbench/launch.py) with one BLAS/OpenMP thread and ``--threads 1``.
Operations repeat in whole rounds until ``--seconds`` have passed; the
first operation's outputs are checked in full, and every later one must
match it byte for byte. With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics (medians over operations); with
``--trace 1`` rounds alternate an untraced and a traced operation and the
JSON object carries the per-module metrics of the traced ones. Without
``--workload`` every workload runs, untraced and then traced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKLOADS = {
    # the p0 scan fits ~2P sub-models (P = p(p-1)/2 gene pairs)
    "infer-wide": workloads.InferWorkload(p=40, n=30, fixed_p0=False,
                                          pauc_floor=0.6),
    # the dense EM route; forward selection on a cold evidence cache
    "infer-tall": workloads.InferWorkload(p=80, n=160, fixed_p0=True,
                                          pauc_floor=0.8,
                                          fixed_point_sample=4),
    "replicate-sim": workloads.SimWorkload(p=15, n_list=(10, 40), reps=2),
}

#: every run makes at least this many rounds, so each run can compare
#: repeated outputs and report a median
MIN_ROUNDS = 2
#: no operation may run past this many seconds after the workload starts
DEADLINE_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: per-module metric -> unit; "_s" names are summed span self times
PER_LAYER = {
    "data.load_s": "s", "data.standardize_s": "s",
    "em.fit_s": "s", "em.iterations": "count", "em.iter_ms": "ms",
    "em.nonconverged": "count",
    "vb.workspace_s": "s", "vb.workspaces": "count",
    "selection.rank_s": "s", "selection.p0_s": "s",
    "selection.submodel_fits": "count", "selection.submodel_sweeps": "count",
    "selection.sweeps_per_fit": "count", "selection.submodel_ms": "ms",
    "selection.submodel_s": "s", "selection.submodel_nonconverged": "count",
    "selection.select_s": "s", "selection.cache_hit_ratio": "ratio",
    "selection.ranks_evaluated": "count",
    "simulate.structure_s": "s", "simulate.precision_s": "s",
    "simulate.sample_s": "s", "metrics.score_s": "s",
    "pipeline.self_s": "s", "benchmark.self_s": "s", "cli.write_s": "s",
    "trace.overhead_s": "s",
}

#: the spans (spans.py names) each per-module metric is read from; a
#: "span:result" entry is a count read from that span's result
_EM = ["em.fit", "em.fit:result"]
_SUBMODEL = ["selection.submodel"]
_SWEEPS = ["selection.submodel", "selection.submodel:result"]
METRIC_SPANS = {
    "data.load_s": ["data.load"],
    "data.standardize_s": ["data.standardize"],
    "em.fit_s": ["em.fit"], "em.iterations": _EM, "em.iter_ms": _EM,
    "em.nonconverged": _EM,
    "vb.workspace_s": ["vb.workspace"], "vb.workspaces": ["vb.workspace"],
    "selection.rank_s": ["selection.rank"],
    "selection.p0_s": ["selection.p0"],
    "selection.submodel_fits": _SUBMODEL,
    "selection.submodel_sweeps": _SWEEPS,
    "selection.sweeps_per_fit": _SWEEPS,
    "selection.submodel_ms": _SUBMODEL,
    "selection.submodel_s": _SUBMODEL,
    "selection.submodel_nonconverged": _SWEEPS,
    "selection.select_s": ["selection.select"],
    "selection.cache_hit_ratio": ["selection.select", "selection.submodel",
                                  "selection.lookup"],
    "selection.ranks_evaluated": ["selection.select",
                                  "selection.select:result"],
    "simulate.structure_s": ["simulate.structure"],
    "simulate.precision_s": ["simulate.precision"],
    "simulate.sample_s": ["simulate.sample"],
    "metrics.score_s": ["metrics.score"],
    "pipeline.self_s": ["pipeline"],
    "benchmark.self_s": ["benchmark"],
    "cli.write_s": ["pipeline", "benchmark"],
}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(src)
    env["PERFBENCH_SRC"] = str(src)
    return env


def run_op(argv_tail, out_dir: Path, trace: bool, env,
           timeout: float) -> dict:
    """Launch one command; return its timings, or an ``error``."""
    record = out_dir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "launch.py"), str(record),
           "1" if trace else "0", "--", *argv_tail]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not record.exists():
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    with open(record) as fh:
        rec = json.load(fh)
    return {
        "setup_s": rec["ready"] - launched,
        "wall_s": rec["done"] - rec["ready"],
        "peak_rss_mb": rec["maxrss_kb"] / 1024.0,
        "trace": rec.get("trace"),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-module metrics of one traced operation; None where missing."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    fits = calls.get("selection.submodel", 0)
    em_self = self_s.get("em.fit", 0.0)
    iterations = counts.get("em.iterations", 0)
    lookups = counts.get("selection.select_lookups", 0)
    values = {
        "em.iterations": iterations,
        "em.iter_ms": 1e3 * em_self / iterations if iterations else 0.0,
        "em.nonconverged": counts.get("em.nonconverged", 0),
        "vb.workspaces": calls.get("vb.workspace", 0),
        "selection.submodel_fits": fits,
        "selection.submodel_sweeps": counts.get(
            "selection.submodel_sweeps", 0),
        "selection.sweeps_per_fit": (counts.get(
            "selection.submodel_sweeps", 0) / fits if fits else 0.0),
        "selection.submodel_ms": (1e3 * self_s.get("selection.submodel", 0.0)
                                  / fits if fits else 0.0),
        "selection.submodel_nonconverged": counts.get(
            "selection.submodel_nonconverged", 0),
        "selection.cache_hit_ratio": (
            1.0 - counts.get("selection.select_misses", 0) / lookups
            if lookups else 0.0),
        "selection.ranks_evaluated": counts.get(
            "selection.ranks_evaluated", 0),
        "cli.write_s": trace["write_s"],
    }
    for name, spans in METRIC_SPANS.items():
        if name not in values:  # a span's self time
            values[name] = self_s.get(spans[0], 0.0)
        if set(trace["missing"]) & set(spans):
            values[name] = None
    return values


def measure(name: str, seed: int, seconds: float, trace: bool,
            root: Path) -> dict:
    """Run one workload for ``seconds``; return the result object."""
    started = time.monotonic()
    work = WORKLOADS[name]
    run_dir = root / ".perfbench-runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env(root / "src")
    work.prepare(seed, run_dir)
    # compile and cache the package's bytecode before anything is timed
    warm = subprocess.run([sys.executable, "-c", "import shrinknet.cli"],
                          env=env, capture_output=True, text=True)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import shrinknet.cli: {warm.stderr}")

    ops, failures, errors = [], [], []
    reference = None
    measuring = time.monotonic()
    rounds = 0
    while rounds < MIN_ROUNDS or time.monotonic() - measuring < seconds:
        for traced in ((False, True) if trace else (False,)):
            out = run_dir / f"op{len(ops) + len(failures)}"
            result = run_op(work.cli_args(out), out, traced, env,
                            timeout=started + DEADLINE_S - time.monotonic())
            if "error" in result:
                failures.append(result["error"])
                continue
            result["traced"] = traced
            outputs = [(out / f).read_bytes() for f in work.outputs]
            if reference is None:
                reference, reference_bytes = out, outputs
                try:
                    errors += work.check(out)
                except Exception as exc:  # a malformed output fails the run
                    errors.append(f"check failed: {type(exc).__name__}: "
                                  f"{exc}")
            else:
                if outputs != reference_bytes:
                    errors.append(f"{out.name}: outputs differ from "
                                  f"{reference.name} with the same input")
                shutil.rmtree(out)
            ops.append(result)
        rounds += 1

    if not errors and not failures:
        shutil.rmtree(run_dir)
        try:
            run_dir.parent.rmdir()  # left only if another run still uses it
        except OSError:
            pass
    metrics = summarize(ops, trace)
    return {
        "correct": not errors,
        "attempted": len(ops) + len(failures),
        "failed": len(failures),
        "metrics": metrics,
        "errors": errors + failures,
        "missing": sorted(set(PER_LAYER) - set(metrics)) if trace else [],
    }


def summarize(ops: list[dict], trace: bool) -> dict:
    """Medians over operations: end-to-end metrics of the untraced ones,
    or per-module metrics of the traced ones."""
    untraced = [op["wall_s"] for op in ops if not op["traced"]]
    if not trace:
        if not ops:
            return {}
        return {
            metric: {"value": statistics.median(op[metric] for op in ops),
                     "unit": unit}
            for metric, unit in END_TO_END.items()
        }
    traced = [op for op in ops if op["traced"]]
    per_op = [layer_metrics(op["trace"]) for op in traced]
    metrics = {}
    for metric, unit in PER_LAYER.items():
        if metric == "trace.overhead_s":
            if not (traced and untraced):
                continue
            value = (statistics.median(op["wall_s"] for op in traced)
                     - statistics.median(untraced))
        else:
            values = [v[metric] for v in per_op]
            if not values or None in values:
                continue  # a missing target: left out, listed as missing
            value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:34s} {m['value']:>12.6g} {m['unit']}")
    for metric in result["missing"]:
        print(f"  {metric:34s} {'missing':>12s}")
    for err in result["errors"][:20]:
        print(f"  error: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "shrinknet" / "cli.py").is_file():
        print(f"no shrinknet sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2

    if args.workload is not None:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), root)
        report(args.workload, result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0

    combined = {}
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, args.seed, args.seconds, trace, root)
            label = f"{name}{' (traced)' if trace else ''}"
            report(label, result)
            combined[label] = {k: result[k] for k in
                               ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(combined))
    return 0 if all(r["correct"] for r in combined.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
