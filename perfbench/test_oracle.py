"""Checks of the dense oracle against closed forms and exact quadrature.

Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import gammaln

from oracle import exact_log_evidence_no_covariates, vb_fit


def quadrature_log_evidence(y, x, a, b, c, d):
    """Exact log p(y) for one covariate, integrating tau^-2 numerically.

    beta and sigma^-2 integrate out in closed form given t = tau^-2:
    y | t ~ multivariate t with scale matrix I + x x' / t.
    """
    n = y.shape[0]
    yty, xty, xtx = float(y @ y), float(x @ y), float(x @ x)
    u = np.linspace(-150.0, 150.0, 30_001)  # u = log t
    t = np.exp(u)
    log_f = (a * u - b * t
             - 0.5 * np.log1p(xtx / t)
             - (c + 0.5 * n) * np.log(d + 0.5 * (yty - xty**2 / (t + xtx))))
    top = log_f.max()
    integral = np.sum(np.exp(log_f - top)) * (u[1] - u[0])
    return float(-0.5 * n * math.log(2.0 * math.pi) + c * math.log(d)
                 - gammaln(c) + gammaln(c + 0.5 * n)
                 + a * math.log(b) - gammaln(a) + top + math.log(integral))


@pytest.mark.parametrize("n", [10, 30])
def test_no_covariates_bound_is_exact(n):
    y = np.random.default_rng(n).standard_normal(n) * 1.7
    fit = vb_fit(y, np.zeros((n, 0)), a=0.5, b=n / 2.0)
    exact = exact_log_evidence_no_covariates(y, 0.001, 0.001)
    assert fit["elbo"] == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("n", [8, 20, 60])
@pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
def test_one_covariate_bound_below_quadrature(n, beta):
    rng = np.random.default_rng(100 * n + int(10 * beta))
    x = rng.standard_normal(n)
    y = beta * x + rng.standard_normal(n)
    fit = vb_fit(y, x[:, None], a=0.5, b=n / 2.0)
    exact = quadrature_log_evidence(y, x, 0.5, n / 2.0, 0.001, 0.001)
    gap = exact - fit["elbo"]
    # a lower bound, and a tight one: the factorization only loses the
    # coupling between the two precisions, which fades as n grows
    assert gap > 0.0
    assert gap < (0.5 if n < 20 else 0.05)


def test_fixed_point_is_stationary():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((25, 6))
    y = X @ np.array([1.0, -0.5, 0, 0, 0.2, 0]) + rng.standard_normal(25)
    fit = vb_fit(y, X, a=0.5, b=12.5)
    e_tau = fit["a_star"] / fit["b_star"]
    mu = np.linalg.solve(X.T @ X + e_tau * np.eye(6), X.T @ y)
    assert np.allclose(fit["mu"], mu, atol=1e-8)
    again = vb_fit(y, X, a=0.5, b=12.5, tol=1e-12)
    assert again["elbo"] >= fit["elbo"] - 1e-9
