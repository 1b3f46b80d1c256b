"""Whole-network fit: variational EM with shared shrinkage hyperparameters.

The p per-gene spectra are set up once, in the eigenbasis of each design's
cross-product, a bounded block of genes per call. The E-step sweeps them all
as one array update over their stack, after which the shape/rate (a, b) of the
shared gamma prior on the local precisions are re-estimated from the pooled
moments (M-step), in a closed approximate form or an exact fixed-point
variant. The fit is held as arrays with one row per gene (see ``SemFit``),
read off once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ExpressionMatrix
from .errors import NumericalFailureError
from .vb import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RATE_INIT,
    HyperParameters,
    _bound,
    _bound_constant,
    _posterior_shapes,
    _posteriors,
    _spectral_update,
    digamma,
    gene_blocks,
    make_workspace,
    stack_spectra,
)

#: Cap on the estimated shape when the pooled moments are degenerate
#: (zero dispersion would drive the shape to infinity, a point-mass prior).
A_MAX = 1e4

#: Starting (a, b) of the shared prior on the local precisions; the gamma
#: prior on the noise precision keeps the defaults of ``HyperParameters``.
A_INIT = B_INIT = 0.001

_DEGENERATE_EPS = 1e-8


@dataclass(frozen=True)
class EmConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    global_shrinkage: bool = True
    eb_update: str = "approx"  # "approx" or "exact"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 2:
            raise ValueError("max_iter must be at least 2")
        if self.eb_update not in ("approx", "exact"):
            raise ValueError("eb_update must be 'approx' or 'exact'")


@dataclass
class SemFit:
    """Joint fit: the final shared prior and each gene's posterior, one row
    per gene: ``beta_mean`` and ``beta_var`` (p, p - 1) on the other genes
    in index order, ``b_star``, ``d_star`` and ``lower_bound`` (p,) after
    the final sweep, scored under the (a, b) that sweep ran with, and
    ``lower_bounds`` (iterations, p), the bounds of every iteration."""

    beta_mean: np.ndarray = field(repr=False)
    beta_var: np.ndarray = field(repr=False)
    b_star: np.ndarray = field(repr=False)
    d_star: np.ndarray = field(repr=False)
    lower_bound: np.ndarray = field(repr=False)
    hyper: HyperParameters
    lower_bounds: np.ndarray = field(repr=False)
    em_iterations: int = 0
    converged: bool = False
    gene_ids: tuple[str, ...] = ()
    #: per EM iteration: the (a, b) its E-step ran under and the largest
    #: change in a gene's lower bound since the previous one (None at first)
    trajectory: list[dict] = field(default_factory=list, repr=False)

    @property
    def n_genes(self) -> int:
        return len(self.lower_bound)


def eb_update_approx_moments(e_tau2inv, e_log_tau2inv):
    """Closed-form hyperparameter update from pooled gamma moments.

    Uses the approximation digamma(x) ~ log(x) - 0.5/x; the bracketed
    log-moment gap is nonnegative by Jensen and zero only when all pooled
    moments coincide, in which case the shape is capped.
    """
    e_tau2inv = np.asarray(e_tau2inv, dtype=float)
    e_log_tau2inv = np.asarray(e_log_tau2inv, dtype=float)
    p = e_tau2inv.shape[0]
    total = float(np.sum(e_tau2inv))
    gap = np.log(total) - float(np.mean(e_log_tau2inv)) - np.log(p)
    if gap <= _DEGENERATE_EPS:
        a_hat = A_MAX
    else:
        a_hat = min(0.5 / gap, A_MAX)
    b_hat = a_hat * p / total
    return a_hat, b_hat


def eb_update_fixedpoint_moments(e_tau2inv, e_log_tau2inv):
    """Exact maximizer of the pooled prior likelihood in (a, b).

    Profiling out b = a * p / sum(E[tau^-2]) leaves a one-dimensional
    stationarity condition digamma(a) - log(a) = -gap, whose left side
    increases strictly to zero. It is solved by bisection on log(a) over
    [1e-10, A_MAX]: about 55 halvings, down to a bracket 1e-15 * max(1,
    |log a|) wide.
    """
    e_tau2inv = np.asarray(e_tau2inv, dtype=float)
    e_log_tau2inv = np.asarray(e_log_tau2inv, dtype=float)
    p = e_tau2inv.shape[0]
    total = float(np.sum(e_tau2inv))
    gap = np.log(total / p) - float(np.mean(e_log_tau2inv))
    if gap <= _DEGENERATE_EPS or digamma(A_MAX) - math.log(A_MAX) + gap <= 0:
        a_hat = A_MAX
    else:
        lo, hi = math.log(1e-10), math.log(A_MAX)
        while hi - lo > 1e-15 * max(1.0, abs(lo)):
            mid = 0.5 * (lo + hi)
            if digamma(math.exp(mid)) - mid + gap < 0:
                lo = mid
            else:
                hi = mid
        a_hat = math.exp(0.5 * (lo + hi))
    b_hat = a_hat * p / total
    return a_hat, b_hat


def _moments_from_rates(a_star: float, b_stars):
    b_stars = np.asarray(b_stars, dtype=float)
    if np.any(b_stars <= 0):
        raise ValueError("all rate parameters must be positive")
    e_tau = a_star / b_stars
    e_log = digamma(a_star) - np.log(b_stars)
    return e_tau, e_log


def eb_update_approx(a_star: float, b_stars):
    """Approximate (a, b) update from per-gene posterior gamma parameters."""
    return eb_update_approx_moments(*_moments_from_rates(a_star, b_stars))


def eb_update_fixedpoint(a_star: float, b_stars):
    """Exact (a, b) update from per-gene posterior gamma parameters."""
    return eb_update_fixedpoint_moments(*_moments_from_rates(a_star, b_stars))


def fit_sem(m: ExpressionMatrix, config: EmConfig = EmConfig()) -> SemFit:
    """EM over all gene regressions with shared-prior re-estimation.

    Each EM iteration sweeps every gene once under the current (a, b), as
    one array update over the gene spectra stacked and zero-padded past
    each gene's rank, then updates (a, b) from the pooled moments unless
    global shrinkage is disabled. Convergence is the max over genes of the
    per-gene lower-bound change. The posteriors are read off by one more
    sweep of each gene, from the rates its final sweep started from.
    """
    n, p = m.values.shape
    k = p - 1
    blocks = gene_blocks(p, n * k)
    # each gene against every other column, in index order
    others = np.arange(k) + (np.arange(k) >= np.arange(p)[:, None])
    setups = [make_workspace(m.values, genes, others[genes], m.gene_ids)
              for genes in blocks]
    stack = stack_spectra([spectra for spectra, _ in setups])
    rank = stack.mask.sum(axis=1)
    a, b = A_INIT, B_INIT
    b_stars = np.full(p, RATE_INIT)
    d_stars = np.full(p, RATE_INIT)
    updater = (
        eb_update_approx
        if config.eb_update == "approx"
        else eb_update_fixedpoint
    )
    history: list[np.ndarray] = []
    trajectory: list[dict] = []
    converged = False
    t = 0
    for t in range(1, config.max_iter + 1):
        hp = HyperParameters(a=a, b=b)
        a_star, c_star = _posterior_shapes(hp, n, k)
        up = _spectral_update(stack.d2, stack.w, stack.mask, stack.yty,
                              k - rank, b_stars, d_stars, a_star, c_star, hp)
        bounds = _bound(_bound_constant(n, k, hp, a_star, c_star), a_star,
                        up.b_star, c_star, up.d_star, up.sigma_logdet, up.ebb)
        if not np.isfinite(bounds).all():
            bad = m.gene_ids[int(np.argmax(~np.isfinite(bounds)))]
            raise NumericalFailureError(
                f"gene {bad}: non-finite lower bound at EM iteration {t}"
            )
        b_last, d_last = b_stars, d_stars
        b_stars, d_stars = up.b_star, up.d_star
        delta = (float(np.max(np.abs(bounds - history[-1]))) if history
                 else None)
        history.append(bounds)
        trajectory.append({"a": float(a), "b": float(b),
                           "max_abs_delta_bound": delta})
        # convergence is checked before the M-step, so on exit (a, b) are
        # exactly the values the final posteriors were swept with
        if delta is not None and delta < config.tol:
            converged = True
            break
        if config.global_shrinkage:
            a, b = updater(a_star, b_stars)
    beta_mean, beta_var = np.empty((2, p, k))
    b_star, d_star, lower_bound = np.empty((3, p))
    for genes, (spectra, V) in zip(blocks, setups):
        (beta_mean[genes], beta_var[genes], b_star[genes], d_star[genes],
         lower_bound[genes]) = _posteriors(spectra, V, b_last[genes],
                                           d_last[genes], a_star, c_star, hp)
    return SemFit(beta_mean, beta_var, b_star, d_star, lower_bound,
                  hyper=HyperParameters(a=a, b=b),
                  lower_bounds=np.array(history), em_iterations=t,
                  converged=converged, gene_ids=m.gene_ids,
                  trajectory=trajectory)
