"""Independent reference implementations used to validate the fast code.

Everything here is deliberately slow and simple: a Gibbs sampler for the
single-equation posterior, a dense variational fit that forms the full
coefficient covariance (in float64, and in ``mpmath`` at any precision),
numerical quadrature for the exact model evidence with one covariate, and
a grid maximizer and a root-finding maximizer for the pooled-prior
objective.
None of it shares code with the package internals.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy import integrate
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import digamma, gammaln


def gibbs_posterior_moments(
    y, X, a, b, c, d, n_draws=50_000, burn=5_000, seed=0
):
    """Gibbs sampler for the conjugate shrinkage regression.

    Model: y ~ N(X beta, sigma^2 I), beta ~ N(0, sigma^2 tau^2 I),
    tau^-2 ~ Gamma(a, b), sigma^-2 ~ Gamma(c, d). Returns the empirical
    mean and variance of beta over the retained draws.
    """
    rng = np.random.default_rng(seed)
    n, k = X.shape
    XtX = X.T @ X
    Xty = X.T @ y
    tau2inv = 1.0
    sig2inv = 1.0
    draws = np.empty((n_draws, k))
    for t in range(burn + n_draws):
        M = XtX + tau2inv * np.eye(k)
        Minv = np.linalg.inv(M)
        mean = Minv @ Xty
        cov = Minv / sig2inv
        beta = rng.multivariate_normal(mean, cov)
        bb = float(beta @ beta)
        tau2inv = rng.gamma(a + 0.5 * k, 1.0 / (b + 0.5 * sig2inv * bb))
        resid = y - X @ beta
        rate = d + 0.5 * float(resid @ resid) + 0.5 * tau2inv * bb
        sig2inv = rng.gamma(c + 0.5 * (n + k), 1.0 / rate)
        if t >= burn:
            draws[t - burn] = beta
    return draws.mean(axis=0), draws.var(axis=0, ddof=1)


def dense_vb_fit(y, X, a, b, c, d, tol, max_iter, rate_init=1e-3,
                 d_init=None):
    """Coordinate-ascent variational fit with the full covariance.

    Same model as ``gibbs_posterior_moments``. Each sweep sets the
    coefficient posterior N(M^-1 X'y, M^-1 / E[sigma^-2]) with
    M = X'X + E[tau^-2] I from a Cholesky factor of M, then the rates of
    tau^-2 and sigma^-2; sweeps start from both rates at ``rate_init`` (or
    the rate of sigma^-2 at ``d_init``) and stop when the evidence lower
    bound changes by less than ``tol``. Returns (mean, per-coefficient
    variance, bound).
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    XtX = X.T @ X
    Xty = X.T @ y
    yty = float(y @ y)
    a_star = a + 0.5 * k
    c_star = c + 0.5 * (n + k)
    b_star = rate_init
    d_star = rate_init if d_init is None else d_init
    prev = None
    for _ in range(max_iter):
        e_tau = a_star / b_star
        e_sig = c_star / d_star
        cho = cho_factor(XtX + e_tau * np.eye(k), lower=True)
        Minv = cho_solve(cho, np.eye(k))
        Sigma = Minv / e_sig
        beta = Minv @ Xty
        logdet = -2.0 * float(np.sum(np.log(np.diag(cho[0])))) - k * np.log(
            e_sig
        )
        ebb = float(beta @ beta) + float(np.trace(Sigma))
        rss = yty - 2.0 * float(beta @ Xty) + float(beta @ XtX @ beta)
        tr_xtx_sigma = float(np.sum(XtX * Sigma))
        d_star = d + 0.5 * (rss + tr_xtx_sigma) + 0.5 * e_tau * ebb
        b_star = b + 0.5 * (c_star / d_star) * ebb
        bound = (
            -0.5 * n * np.log(2.0 * np.pi)
            + 0.5 * logdet
            + 0.5 * k
            + a * np.log(b)
            - gammaln(a)
            - a_star * np.log(b_star)
            + gammaln(a_star)
            + c * np.log(d)
            - gammaln(c)
            - c_star * np.log(d_star)
            + gammaln(c_star)
            + 0.5 * (c_star / d_star) * (a_star / b_star) * ebb
        )
        if prev is not None and abs(bound - prev) < tol:
            break
        prev = bound
    return beta, np.diag(Sigma).copy(), float(bound)


def dense_fixed_point(y, X, a, b, c, d, step=0.1):
    """``dense_vb_fit`` at the largest fixed point of its sweeps, found as
    a root instead of by sweeping there, which under a vague prior takes
    some 1e5 sweeps.

    A sweep from E[tau^-2] = e^u leaves the rates d*(u) = (d + R/2) /
    (1 - k / (2 c*)), R = ||y - X theta||^2 + e^u ||theta||^2, and b*(u) =
    b + (c*/d*) ||theta||^2 / 2 + tr M^-1 / 2, with theta and M^-1 from a
    Cholesky factor of M = X'X + e^u I. Its fixed points are the roots of
    h(u) = log(a* / b*(u)) - u, which all lie below log(a* / b); the
    largest is bracketed by stepping down from there by ``step`` and closed
    by ``brentq``. Returns ``dense_vb_fit``'s (mean, per-coefficient
    variance, bound) of one sweep from the rates at that root.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    XtX = X.T @ X
    Xty = X.T @ y
    yty = float(y @ y)
    a_star = a + 0.5 * k
    c_star = c + 0.5 * (n + k)

    def rates(u):
        e = np.exp(u)
        cho = cho_factor(XtX + e * np.eye(k), lower=True)
        theta = cho_solve(cho, Xty)
        theta2 = float(theta @ theta)
        rss = yty - 2.0 * float(theta @ Xty) + float(theta @ XtX @ theta)
        d_star = (d + 0.5 * (rss + e * theta2)) / (1.0 - k / (2.0 * c_star))
        trace = float(np.trace(cho_solve(cho, np.eye(k))))
        return b + 0.5 * (c_star / d_star) * theta2 + 0.5 * trace, d_star

    def h(u):
        return np.log(a_star / rates(u)[0]) - u

    hi = np.log(a_star / b)
    while h(hi - step) < 0:
        hi -= step
    u = brentq(h, hi - step, hi, xtol=1e-15, rtol=1e-15)
    b_star, d_star = rates(u)
    return dense_vb_fit(y, X, a, b, c, d, tol=0.0, max_iter=1,
                        rate_init=b_star, d_init=d_star)


def mp_dense_vb_bound(y, X, a, b, c, d, sweeps, dps=50, rate_init=1e-3,
                      d_init=None):
    """The lower bound of ``dense_vb_fit``'s model after exactly ``sweeps``
    sweeps from both rates at ``rate_init`` (or the rate of sigma^-2 at
    ``d_init``), in ``dps``-digit ``mpmath`` arithmetic.

    The float64 inputs are taken exactly. Each sweep inverts the dense
    M = X'X + E[tau^-2] I by LU, so nothing is shared with the eigenbasis
    route. Returns the bound as an ``mpf``.
    """
    with mpmath.workdps(dps):
        y = mpmath.matrix([mpmath.mpf(float(v)) for v in y])
        X = mpmath.matrix([[mpmath.mpf(float(v)) for v in row]
                           for row in np.asarray(X, dtype=float)])
        n, k = X.rows, X.cols
        a, b, c, d = (mpmath.mpf(float(v)) for v in (a, b, c, d))
        XtX = X.T * X
        Xty = X.T * y
        yty = (y.T * y)[0]
        a_star = a + k / mpmath.mpf(2)
        c_star = c + (n + k) / mpmath.mpf(2)
        b_star = mpmath.mpf(float(rate_init))
        d_star = mpmath.mpf(float(rate_init if d_init is None else d_init))
        for _ in range(sweeps):
            e_tau, e_sig = a_star / b_star, c_star / d_star
            M = XtX + e_tau * mpmath.eye(k)
            Minv = mpmath.inverse(M)
            beta = Minv * Xty
            logdet = -mpmath.log(mpmath.det(M)) - k * mpmath.log(e_sig)
            trace = sum(Minv[i, i] for i in range(k))
            ebb = (beta.T * beta)[0] + trace / e_sig
            rss = yty - 2 * (beta.T * Xty)[0] + (beta.T * XtX * beta)[0]
            tr_xtx_sigma = sum(XtX[i, j] * Minv[j, i] for i in range(k)
                               for j in range(k)) / e_sig
            d_star = d + (rss + tr_xtx_sigma) / 2 + e_tau * ebb / 2
            b_star = b + (c_star / d_star) * ebb / 2
        return (-n * mpmath.log(2 * mpmath.pi) / 2 + logdet / 2 + k / 2
                + a * mpmath.log(b) - mpmath.loggamma(a)
                - a_star * mpmath.log(b_star) + mpmath.loggamma(a_star)
                + c * mpmath.log(d) - mpmath.loggamma(c)
                - c_star * mpmath.log(d_star) + mpmath.loggamma(c_star)
                + (c_star / d_star) * (a_star / b_star) * ebb / 2)


def quadrature_log_evidence(y, x, a, b, c, d):
    """Exact log marginal likelihood for a one-covariate regression.

    sigma^2 and beta integrate out analytically; the remaining integral
    over t = tau^-2 is done numerically on the log scale. With
    A = I + x x^T / t:  |A| = 1 + ||x||^2 / t and
    y' A^-1 y = y'y - (x'y)^2 / (t + ||x||^2).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    n = y.shape[0]
    yty = float(y @ y)
    xty = float(x @ y)
    xtx = float(x @ x)
    const = (
        -0.5 * n * np.log(2.0 * np.pi)
        + c * np.log(d)
        + gammaln(c + 0.5 * n)
        - gammaln(c)
        + a * np.log(b)
        - gammaln(a)
    )

    def log_integrand(u):
        t = np.exp(u)
        log_prior = a * u - b * t  # gamma density times the du Jacobian
        logdet_a = np.log1p(xtx / t)
        quad_form = yty - xty * xty / (t + xtx)
        return (
            log_prior
            - 0.5 * logdet_a
            - (c + 0.5 * n) * np.log(d + 0.5 * quad_form)
        )

    us = np.linspace(-200.0, 200.0, 20_001)
    vals = log_integrand(us)
    shift = vals.max()
    integral = integrate.trapezoid(np.exp(vals - shift), us)
    return const + shift + float(np.log(integral))


def pooled_prior_objective(a, b, e_tau2inv, e_log_tau2inv):
    """Expected complete-data log prior of the local precisions."""
    e_tau2inv = np.asarray(e_tau2inv, dtype=float)
    e_log_tau2inv = np.asarray(e_log_tau2inv, dtype=float)
    p = e_tau2inv.shape[0]
    return (
        p * (a * np.log(b) - gammaln(a))
        + (a - 1.0) * float(np.sum(e_log_tau2inv))
        - b * float(np.sum(e_tau2inv))
    )


def grid_maximizer(e_tau2inv, e_log_tau2inv, a_lo=1e-4, a_hi=1e4):
    """Grid + iterative refinement maximizer of the pooled objective.

    The rate profile b(a) = a p / sum(E[tau^-2]) is exact, so the search
    is one-dimensional in the shape.
    """
    e_tau2inv = np.asarray(e_tau2inv, dtype=float)
    p = e_tau2inv.shape[0]
    total = float(np.sum(e_tau2inv))

    def value(a):
        return pooled_prior_objective(a, a * p / total, e_tau2inv,
                                      e_log_tau2inv)

    lo, hi = np.log(a_lo), np.log(a_hi)
    for _ in range(40):
        grid = np.linspace(lo, hi, 201)
        vals = np.array([value(np.exp(g)) for g in grid])
        best = int(np.argmax(vals))
        step = grid[1] - grid[0]
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, len(grid) - 1)]
        if step < 1e-14:
            break
    a_hat = float(np.exp(0.5 * (lo + hi)))
    return a_hat, a_hat * p / total


def eb_maximizer(e_tau2inv, e_log_tau2inv, a_max=1e4):
    """Exact maximizer of the pooled objective in (a, b), the shape capped
    at ``a_max``.

    Profiling out b = a p / sum(E[tau^-2]) leaves digamma(a) - log(a) +
    gap = 0, gap = log(mean E[tau^-2]) - mean E[log tau^-2] >= 0, whose
    left side rises from -inf towards gap; Brent's method solves it to
    the last bit. Where the left side is still negative at ``a_max``
    (zero dispersion included), the shape is the cap.
    """
    e_tau2inv = np.asarray(e_tau2inv, dtype=float)
    p = e_tau2inv.shape[0]
    total = float(np.sum(e_tau2inv))
    gap = np.log(total / p) - float(np.mean(e_log_tau2inv))

    def f(a):
        return digamma(a) - np.log(a) + gap

    if f(a_max) <= 0:
        a_hat = a_max
    else:
        a_hat = brentq(f, 1e-10, a_max, xtol=1e-300,
                       rtol=4 * np.finfo(float).eps)
    return a_hat, a_hat * p / total
