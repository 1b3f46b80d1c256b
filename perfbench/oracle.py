"""Dense variational oracle for the shrinkage regression model.

Written from the model's update equations and nothing else; it imports
nothing from ``shrinknet``. The model for one regression equation is

    y | beta, sigma^2      ~ N(X beta, sigma^2 I_n)
    beta | sigma^2, tau^2  ~ N(0, sigma^2 tau^2 I_k)
    tau^-2                 ~ Gamma(a, b)
    sigma^-2               ~ Gamma(c, d)

fitted by coordinate ascent on q(beta) q(tau^-2) q(sigma^-2). Every step
works with the full k x k covariance, which is slow and simple; the
evidence lower bound is the general expectation formula, not a form
simplified at the fixed point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaln

LOG_2PI = math.log(2.0 * math.pi)


def _gamma_log_density_mean(shape, rate, q_shape, q_rate):
    """E_q[log Gamma(x; shape, rate)] for x ~ Gamma(q_shape, q_rate)."""
    e_x = q_shape / q_rate
    e_log_x = digamma(q_shape) - math.log(q_rate)
    return (shape * math.log(rate) - gammaln(shape)
            + (shape - 1.0) * e_log_x - rate * e_x)


def elbo(y, X, a, b, c, d, mu, Sigma, a_s, b_s, c_s, d_s) -> float:
    """Evidence lower bound E_q[log p(y, beta, tau^-2, sigma^-2)] + H[q]."""
    n, k = X.shape
    e_tau, e_log_tau = a_s / b_s, digamma(a_s) - math.log(b_s)
    e_sig, e_log_sig = c_s / d_s, digamma(c_s) - math.log(d_s)
    resid = y - X @ mu
    e_rss = float(resid @ resid) + float(np.sum((X.T @ X) * Sigma))
    e_bb = float(mu @ mu) + float(np.trace(Sigma))
    log_lik = 0.5 * n * (e_log_sig - LOG_2PI) - 0.5 * e_sig * e_rss
    log_beta = (0.5 * k * (e_log_sig + e_log_tau - LOG_2PI)
                - 0.5 * e_sig * e_tau * e_bb)
    log_tau = _gamma_log_density_mean(a, b, a_s, b_s)
    log_sig = _gamma_log_density_mean(c, d, c_s, d_s)
    if k:
        _, logdet = np.linalg.slogdet(Sigma)
    else:
        logdet = 0.0
    h_beta = 0.5 * k * (1.0 + LOG_2PI) + 0.5 * logdet
    h_tau = -_gamma_log_density_mean(a_s, b_s, a_s, b_s)
    h_sig = -_gamma_log_density_mean(c_s, d_s, c_s, d_s)
    return float(log_lik + log_beta + log_tau + log_sig
                 + h_beta + h_tau + h_sig)


def vb_fit(y, X, a, b, c=0.001, d=0.001, tol=1e-10, max_iter=100_000,
           rate_init=1e-3) -> dict:
    """Coordinate ascent to a fixed point; returns moments and the bound.

    One pass updates q(beta), then q(sigma^-2), then q(tau^-2), each with
    the latest expectations, and stops when the bound moves by < ``tol``.
    """
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float).reshape(y.shape[0], -1)
    n, k = X.shape
    XtX, Xty = X.T @ X, X.T @ y
    a_s = a + 0.5 * k
    c_s = c + 0.5 * (n + k)
    b_s = d_s = rate_init
    prev = -math.inf
    for it in range(1, max_iter + 1):
        e_tau, e_sig = a_s / b_s, c_s / d_s
        precision = XtX + e_tau * np.eye(k)
        inv = np.linalg.inv(precision)
        mu = inv @ Xty
        Sigma = inv / e_sig
        resid = y - X @ mu
        e_rss = float(resid @ resid) + float(np.sum(XtX * Sigma))
        e_bb = float(mu @ mu) + float(np.trace(Sigma))
        d_s = d + 0.5 * e_rss + 0.5 * e_tau * e_bb
        b_s = b + 0.5 * (c_s / d_s) * e_bb
        bound = elbo(y, X, a, b, c, d, mu, Sigma, a_s, b_s, c_s, d_s)
        if abs(bound - prev) < tol:
            break
        prev = bound
    return {"mu": mu, "Sigma": Sigma, "a_star": a_s, "b_star": b_s,
            "c_star": c_s, "d_star": d_s, "elbo": bound, "iterations": it}


def exact_log_evidence_no_covariates(y, c, d) -> float:
    """log p(y) with no covariates: sigma^-2 integrates out in closed form."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    return float(-0.5 * n * LOG_2PI + c * math.log(d) - gammaln(c)
                 + gammaln(c + 0.5 * n)
                 - (c + 0.5 * n) * math.log(d + 0.5 * float(y @ y)))
