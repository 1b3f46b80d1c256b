"""Per-gene variational fit for the shrinkage regression model.

Each gene's regression carries a Gaussian coefficient prior with variance
sigma^2 tau^2, gamma priors on tau^-2 and sigma^-2, and is fitted by
coordinate ascent on a factorized posterior. The evidence lower bound is
the convergence criterion and doubles as the model-evidence surrogate used
for Bayes factors downstream.

Every regression with at least one covariate is fitted in the SVD basis
of its design, where the coefficient posterior is diagonal: a sweep only
touches the squared singular values d^2, w = F^T y and y^T y, and the
coefficient covariance is never formed beyond its diagonal. The route is
exact for any shape: directions outside the design's row space keep their
conditional prior, and there are none when the design has full column
rank. A regression without covariates has a closed-form sigma posterior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .data import RegressionProblem, svd_reduce
from .errors import NumericalFailureError

#: Rate parameters are floored here to avoid division blowups.
RATE_FLOOR = 1e-12

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1000
DEFAULT_RATE_INIT = 0.001


@dataclass(frozen=True)
class HyperParameters:
    """Gamma prior parameters: (a, b) for tau^-2 and (c, d) for sigma^-2."""

    a: float
    b: float
    c: float = 0.001
    d: float = 0.001

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"hyperparameter {name} must be positive")


@dataclass(frozen=True)
class VariationalPosterior:
    """Fitted variational state for one regression equation."""

    beta_mean: np.ndarray
    beta_var: np.ndarray
    a_star: float
    b_star: float
    c_star: float
    d_star: float
    lower_bound: float
    iterations: int
    converged: bool
    sigma_trace: float
    sigma_logdet: float

    @property
    def e_beta_sq(self) -> float:
        """E[beta' beta] under the fitted posterior."""
        return float(self.beta_mean @ self.beta_mean) + self.sigma_trace


def expected_moments(vp: VariationalPosterior):
    """Posterior expectations used by the rate updates and the EB step.

    Returns (E[tau^-2], E[log tau^-2], E[sigma^-2], E[beta' beta]).
    """
    e_tau2inv = vp.a_star / vp.b_star
    e_log_tau2inv = digamma(vp.a_star) - np.log(vp.b_star)
    e_sig2inv = vp.c_star / vp.d_star
    return e_tau2inv, e_log_tau2inv, e_sig2inv, vp.e_beta_sq


@dataclass
class _SweepResult:
    beta_mean: np.ndarray
    beta_var: np.ndarray
    b_star: float
    d_star: float
    sigma_trace: float
    sigma_logdet: float


class _SvdPath:
    """Spectral route: diagonal algebra in the SVD basis of the design.

    The coefficient posterior decomposes into the span of the design's right
    singular vectors (data-informed, diagonal in that basis) and its
    orthogonal complement, where the posterior equals the conditional prior
    with variance 1/(E[sigma^-2] E[tau^-2]) per direction.
    """

    def __init__(self, prob: RegressionProblem):
        red = svd_reduce(prob)
        self.n = prob.n
        self.k = prob.n_covariates
        self.r = red.rank
        self.V = red.right_factors
        self.d2 = np.sum(red.reduced_design**2, axis=0)  # squared sing. values
        self.w = red.reduced_design.T @ prob.response
        self.yty = float(prob.response @ prob.response)
        self.row_norm_sq = np.sum(self.V**2, axis=1)

    def sweep(self, b_star, d_star, a_star, c_star, hp) -> _SweepResult:
        e_tau = a_star / b_star
        e_sig = c_star / d_star
        comp = self.k - self.r
        denom = self.d2 + e_tau
        theta = self.w / denom
        theta_var = 1.0 / (e_sig * denom)
        comp_var = 1.0 / (e_sig * e_tau)
        sigma_trace = float(np.sum(theta_var)) + comp * comp_var
        sigma_logdet = -float(np.sum(np.log(e_sig * denom))) - comp * np.log(
            e_sig * e_tau
        )
        beta = self.V @ theta
        beta_var = (self.V**2) @ theta_var + (
            1.0 - self.row_norm_sq
        ) * comp_var
        ebb = float(theta @ theta) + sigma_trace
        rss = self.yty - 2.0 * float(theta @ self.w) + float(
            self.d2 @ theta**2
        )
        tr_xtx_sigma = float(np.sum(self.d2 * theta_var))
        d_new = max(
            hp.d + 0.5 * (rss + tr_xtx_sigma) + 0.5 * e_tau * ebb, RATE_FLOOR
        )
        e_sig_new = c_star / d_new
        b_new = max(hp.b + 0.5 * e_sig_new * ebb, RATE_FLOOR)
        return _SweepResult(
            beta_mean=beta,
            beta_var=beta_var,
            b_star=b_new,
            d_star=d_new,
            sigma_trace=sigma_trace,
            sigma_logdet=sigma_logdet,
        )


class _EmptyPath:
    """No covariates: the sigma posterior is exact after one sweep."""

    def __init__(self, prob: RegressionProblem):
        self.n = prob.n
        self.k = 0
        self.yty = float(prob.response @ prob.response)

    def sweep(self, b_star, d_star, a_star, c_star, hp) -> _SweepResult:
        return _SweepResult(
            beta_mean=np.empty(0),
            beta_var=np.empty(0),
            b_star=hp.b,
            d_star=max(hp.d + 0.5 * self.yty, RATE_FLOOR),
            sigma_trace=0.0,
            sigma_logdet=0.0,
        )


def make_workspace(prob: RegressionProblem):
    """Precompute the per-problem spectral quantities reused across sweeps."""
    if prob.n_covariates == 0:
        return _EmptyPath(prob)
    return _SvdPath(prob)


def _bound(n, k, hp, a_star, b_star, c_star, d_star, sigma_logdet, ebb):
    return (
        -0.5 * n * np.log(2.0 * np.pi)
        + 0.5 * sigma_logdet
        + 0.5 * k
        + hp.a * np.log(hp.b)
        - gammaln(hp.a)
        - a_star * np.log(b_star)
        + gammaln(a_star)
        + hp.c * np.log(hp.d)
        - gammaln(hp.c)
        - c_star * np.log(d_star)
        + gammaln(c_star)
        + 0.5 * (c_star / d_star) * (a_star / b_star) * ebb
    )


def _swept_bound(n, k, hp, a_star, c_star, state) -> float:
    """Evidence lower bound of a swept state, via its E[beta' beta].

    ``state`` is a sweep result or a fitted posterior: both carry the two
    rates, the coefficient mean and the covariance trace and log-determinant.
    """
    ebb = float(state.beta_mean @ state.beta_mean) + state.sigma_trace
    return float(_bound(n, k, hp, a_star, state.b_star, c_star,
                        state.d_star, state.sigma_logdet, ebb))


def _posterior_from(res: _SweepResult, ws, hp, a_star, c_star, iterations,
                    converged) -> VariationalPosterior:
    lb = _swept_bound(ws.n, ws.k, hp, a_star, c_star, res)
    if not np.isfinite(lb):
        raise NumericalFailureError("non-finite lower bound")
    return VariationalPosterior(
        beta_mean=res.beta_mean,
        beta_var=res.beta_var,
        a_star=a_star,
        b_star=res.b_star,
        c_star=c_star,
        d_star=res.d_star,
        lower_bound=lb,
        iterations=iterations,
        converged=converged,
        sigma_trace=res.sigma_trace,
        sigma_logdet=res.sigma_logdet,
    )


def vb_sweep(
    state: VariationalPosterior,
    prob: RegressionProblem,
    hp: HyperParameters,
) -> VariationalPosterior:
    """One coordinate-ascent pass: covariance/mean, then the two rates.

    Each update uses the most recent expectations, so the pass is an exact
    cyclic ascent step and the lower bound cannot decrease.
    """
    if not (state.b_star > 0 and state.d_star > 0):
        raise ValueError("state rates must be positive")
    ws = make_workspace(prob)
    res = ws.sweep(state.b_star, state.d_star, state.a_star, state.c_star, hp)
    return _posterior_from(
        res, ws, hp, state.a_star, state.c_star, state.iterations + 1,
        state.converged,
    )


def lower_bound(
    state: VariationalPosterior,
    prob: RegressionProblem,
    hp: HyperParameters,
) -> float:
    """Evidence lower bound of a swept state (model-evidence surrogate)."""
    if state.sigma_logdet is None or not np.isfinite(state.sigma_logdet):
        raise NumericalFailureError("state has no valid covariance logdet")
    return _swept_bound(prob.n, prob.n_covariates, hp, state.a_star,
                       state.c_star, state)


def fit_local(
    prob: RegressionProblem,
    hp: HyperParameters,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    rate_init: float = DEFAULT_RATE_INIT,
) -> VariationalPosterior:
    """Iterate sweeps until the lower bound changes by less than ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    ws = make_workspace(prob)
    a_star = hp.a + 0.5 * ws.k
    c_star = hp.c + 0.5 * (ws.n + ws.k)
    b_star = d_star = rate_init
    prev = None
    converged = False
    for t in range(1, max_iter + 1):
        res = ws.sweep(b_star, d_star, a_star, c_star, hp)
        b_star, d_star = res.b_star, res.d_star
        lb = _swept_bound(ws.n, ws.k, hp, a_star, c_star, res)
        if not np.isfinite(lb):
            raise NumericalFailureError(
                f"non-finite lower bound at iteration {t}"
            )
        if prev is not None and abs(lb - prev) < tol:
            converged = True
            break
        prev = lb
    return _posterior_from(res, ws, hp, a_star, c_star, t, converged)
