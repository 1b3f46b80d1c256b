"""A traced benchmark operation runs to its end and records every span.

``perfbench/launch.py`` with TRACE=1 wraps the spans of
``perfbench/spans.py`` and writes their counts with ``json.dump``. A span
result field that is a NumPy scalar rather than a Python one makes that
dump fail in every traced operation, while untraced ones still pass, and
``tests/test_spans.py`` only checks that the targets exist. So this runs
two small commands through the launcher, as ``perfbench/run.py`` does,
and checks the record; and it checks the types of the result fields the
tracer counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_problem
from shrinknet.data import ExpressionMatrix, load_expression_matrix
from shrinknet.em import fit_sem
from shrinknet.pipeline import infer_network
from shrinknet.selection import forward_select, kappa_scores, rank_edges
from shrinknet.vb import HyperParameters, fit_local
from test_spans import SPAN_TARGETS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

INFER_SPANS = {"data.load", "data.standardize", "pipeline", "em.fit",
               "vb.workspace", "selection.rank", "selection.p0",
               "selection.select"}
BENCHMARK_SPANS = (INFER_SPANS - {"data.load"}) | {
    "benchmark", "simulate.structure", "simulate.precision",
    "simulate.sample", "metrics.score"}
#: spans whose targets must resolve but that a run need not call: forward
#: selection fits its sub-models ahead, in stacks, and reaches the lone
#: ``fit_local`` fit only on a lookup the look-ahead missed
UNCALLED_SPANS = {"selection.submodel"}


def _chain_values(p, n, seed):
    """n draws of a chain graph: precision I + 0.45 on the off-diagonals."""
    omega = np.eye(p)
    i = np.arange(p - 1)
    omega[i, i + 1] = omega[i + 1, i] = 0.45
    z = np.random.default_rng(seed).standard_normal((n, p))
    return np.linalg.solve(np.linalg.cholesky(omega).T, z.T).T


def _launch(tmp_path, cli_args):
    """Run one traced command as perfbench/run.py runs an operation;
    return its process and its record."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(record),
         "1", "--", *cli_args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(record) as fh:
        return json.load(fh)


def _assert_spans_called(record, spans):
    assert record["exit"] == 0
    trace = record["trace"]
    assert trace["missing"] == []
    called = {name for name, calls in trace["calls"].items() if calls > 0}
    assert spans <= called, sorted(spans - called)


def test_spans_cover_every_target():
    assert INFER_SPANS | BENCHMARK_SPANS | UNCALLED_SPANS == set(
        SPAN_TARGETS)


def test_traced_infer(tmp_path):
    """p0 is estimated, so the scan and forward selection both run."""
    values = _chain_values(12, 30, seed=0)
    data = tmp_path / "data.csv"
    with open(data, "w") as fh:
        fh.write(",".join(f"g{j + 1}" for j in range(12)) + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    record = _launch(tmp_path, ["infer", str(data), "--out-dir",
                                str(tmp_path / "out"), "--threads", "1"])
    _assert_spans_called(record, INFER_SPANS)
    # the manifest counts the scan's p^2 fits and the look-ahead's, which
    # the same input fitted in this process reproduces
    with open(tmp_path / "out" / "manifest.json") as fh:
        stats = json.load(fh)["stats"]
    result = infer_network(load_expression_matrix(data))
    assert {key: stats[key] for key in result.submodel_stats} == \
        result.submodel_stats
    assert stats["submodel_fits"] > 12 * 12


def test_traced_benchmark(tmp_path):
    record = _launch(tmp_path, ["benchmark", "--kinds", "band", "--p", "6",
                                "--n", "10", "--reps", "1", "--threads", "1",
                                "--out-dir", str(tmp_path / "out")])
    _assert_spans_called(record, BENCHMARK_SPANS)


@pytest.fixture(scope="module")
def chain_fit():
    values = _chain_values(8, 20, seed=1)
    m = ExpressionMatrix(values - values.mean(axis=0),
                         tuple(f"g{j}" for j in range(8)),
                         tuple(f"s{i}" for i in range(20)))
    return m, fit_sem(m)


def test_counted_fields_are_python_scalars(chain_fit):
    """The fields the tracer counts are Python ints and bools, which
    ``json`` writes; NumPy scalars it cannot."""
    vp = fit_local(*random_problem(12, 3, seed=4),
                   HyperParameters(a=0.5, b=6.0))
    assert type(vp.iterations) is int and type(vp.converged) is bool
    m, sem = chain_fit
    assert type(sem.em_iterations) is int and type(sem.converged) is bool
    ranking = rank_edges(kappa_scores(sem))
    result = forward_select(m, ranking, alpha=0.1, p0=0.5)
    assert type(result.ranks_evaluated) is int
