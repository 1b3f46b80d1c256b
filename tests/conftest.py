import sys
from pathlib import Path

import numpy as np
import pytest

from shrinknet.vb import (
    RATE_INIT,
    VariationalPosterior,
    _posterior_shapes,
    vb_sweep,
)

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable


def regressions(pairs):
    """The (values, genes, covariates) that ``vb.make_workspace`` takes for
    a stack of the (y, X) in ``pairs``, which share their shapes: each
    pair's ``[y, X]`` sits side by side in ``values``, y as the gene and
    the columns of X as its covariates."""
    values = np.column_stack([np.column_stack([y, X]) for y, X in pairs])
    k = pairs[0][1].shape[1]
    genes = np.arange(len(pairs)) * (1 + k)
    return values, genes, genes[:, None] + np.arange(1, k + 1)


def regression(y, X):
    """One regression of y on the columns of X as (values, gene,
    covariates): gene 0 of ``[y, X]`` on columns 1..k."""
    values, _, covariates = regressions([(y, X)])
    return values, 0, covariates[0]


def random_problem(n, k, seed=0, snr=1.0):
    """Random regression problem with a sparse true coefficient vector."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    beta = np.zeros(k)
    nz = rng.choice(k, size=max(1, k // 4), replace=False)
    beta[nz] = rng.standard_normal(nz.size) * snr
    y = X @ beta + rng.standard_normal(n)
    return regression(y, X)


def swept(prob, hp, sweeps):
    """The state after ``sweeps`` ``vb_sweep`` passes of the regression
    ``prob`` from both rates at ``RATE_INIT``: an early point of the
    coordinate-ascent trajectory."""
    values, gene, covariates = prob
    k = len(covariates)
    a_star, c_star = _posterior_shapes(hp, len(values), k)
    state = VariationalPosterior(np.zeros(k), np.zeros(k), a_star, RATE_INIT,
                                 c_star, RATE_INIT, np.nan, 0, False)
    for _ in range(sweeps):
        state = vb_sweep(state, values, gene, covariates, hp)
    return state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter):
    """Replay the end-to-end verdict lines past output capture."""
    lines = getattr(
        sys.modules.get("test_acceptance"), "VERDICT_LINES", None
    )
    if lines:
        terminalreporter.section("end-to-end verdicts")
        for line in lines:
            terminalreporter.write_line(line)
