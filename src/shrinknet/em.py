"""Whole-network fit: variational EM with shared shrinkage hyperparameters.

Every gene's regression is that gene on all the others, so the p designs
are leave-one-out column blocks of the one matrix X, and their
cross-products leave-one-out blocks of X^T X. The fit takes one spectrum of
X, through ``make_workspace``: the eigenvalues lambda of X^T X and the gene
loadings U (p, rank). At a gene's e = E[tau^-2], the ``vb.Moments`` of its
regression are Schur complements of M = X^T X + e I (see
``_leave_one_out``), so the E-step of all p genes is one array update over
(p, rank) arrays, finished by ``vb._estep`` as every sub-model's sweep is.
The shape/rate (a, b) of the shared gamma prior on the local precisions
are then re-estimated from the pooled moments (M-step) in one closed
form, ``eb_update_approx_moments``. The fit is held as arrays with one
row per gene (see ``SemFit``), read off once at the end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import ExpressionMatrix
from .errors import DegenerateDesignError, NumericalFailureError
from .vb import (
    RATE_INIT,
    HyperParameters,
    Moments,
    _bound_constant,
    _estep,
    _posterior_shapes,
    digamma,
    make_workspace,
)

#: Cap on the estimated shape when the pooled moments are degenerate
#: (zero dispersion would drive the shape to infinity, a point-mass prior).
A_MAX = 1e4

#: Starting (a, b) of the shared prior on the local precisions; the gamma
#: prior on the noise precision keeps the defaults of ``HyperParameters``.
A_INIT = B_INIT = 0.001

_DEGENERATE_EPS = 1e-8

#: Below full rank, each gene's weight nu = 1 - ||U_g||^2 outside X's row
#: space is known only to rounding, about 1e-15, and its f0 carries that
#: error times 1 / (e [M^-1]_gg). A fit in which that gain exceeds this
#: fails rather than read off coefficients with under 9 digits. Only an
#: unscaled rank-deficient X whose eigenvalues dwarf E[tau^-2] reaches it:
#: a duplicated gene among values near 1e5 does without global shrinkage,
#: and near 1e30 with it; standardized data do not.
NULL_GAIN_MAX = 1e6

#: Every sum the fit forms over the n samples (X^T X) or over the genes
#: (X X^T), and every eigenvalue of either, is at most the sum of all the
#: squares of X. A matrix whose squares sum past this, a sixteenth of the
#: largest double, fails rather than overflow in the few such sums that a
#: moment adds up.
SQUARES_MAX = 2.0**1020

#: The EM stops once no gene's bound moves by ``tol`` in an iteration, or
#: after ``max_iter`` iterations.
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class EmConfig:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    global_shrinkage: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 2:
            raise ValueError("max_iter must be at least 2")


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
    #: milliseconds spent on the one spectral setup of X
    spectrum_ms: float = 0.0

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


def _check_designs(m: ExpressionMatrix) -> None:
    """Raise ``DegenerateDesignError`` naming a gene whose other genes are
    all zero: a gene's design is all zero unless two genes are nonzero, or
    one other than it. Raise ``NumericalFailureError`` naming the gene of
    the largest squares if those of X sum past ``SQUARES_MAX``."""
    nonzero = np.any(m.values != 0.0, axis=0)
    if nonzero.sum() < 2:
        bad = m.gene_ids[int(np.argmax(nonzero))]
        raise DegenerateDesignError(f"design for gene {bad} is all zeros")
    with np.errstate(over="ignore"):
        squares = np.square(m.values).sum(axis=0)
        total = squares.sum()
    if not total <= SQUARES_MAX:
        bad = m.gene_ids[int(np.argmax(squares))]
        raise NumericalFailureError(
            f"gene {bad}: the squares of the data sum past {SQUARES_MAX:.3g},"
            " where cross-products overflow")


@dataclass(frozen=True)
class _Spectrum:
    """The spectrum of X as the EM reads it (see ``_gram_spectrum``): the
    eigenvalues ``lam`` of X^T X, descending, the gene loadings ``U``
    (p, rank), and per direction the squared loadings ``u2`` (p,
    directions) and the multiplicity ``mult``, by which every sum over
    directions is weighted. Below full rank, X's null space is one more
    direction, of eigenvalue 0 and multiplicity p - rank, on each copy of
    which gene g loads nu_g / (p - rank), nu_g = 1 - ||U_g||^2; ``nu_lam``
    is nu_g lambda_1, None at full rank."""

    lam: np.ndarray
    U: np.ndarray
    u2: np.ndarray
    mult: np.ndarray
    nu_lam: np.ndarray | None


def _gram_spectrum(values) -> _Spectrum:
    """The ``_Spectrum`` of the (n, p) matrix ``values``, from one
    ``make_workspace`` call: gene 0 on every gene, of which only the
    design's spectrum (eigenvalues above ``RANK_RTOL``) is used."""
    p = values.shape[1]
    spectra, U = make_workspace(values, 0, np.arange(p))
    lam, U = spectra.d2[0], U[0]
    r = lam.size
    u2 = U * U
    if r == p:
        return _Spectrum(lam, U, u2, np.ones(r), None)
    nu = np.maximum(1.0 - u2.sum(axis=1), 0.0)
    return _Spectrum(np.append(lam, 0.0), U,
                     np.column_stack([u2, nu / (p - r)]),
                     np.append(np.ones(r), p - r), nu * lam[0])


@dataclass
class _LeaveOneOut:
    """Every gene's E-step state (see ``_leave_one_out``). ``res`` holds
    the resolvents 1 / (lambda + e) of its directions in units of
    ``scale``: lambda_1 + e, M's largest eigenvalue, unless nu_g lambda_1
    > e, where X's null space carries f0 and the unit is e (1 + 1 / nu_g).
    Either way, at any scale of X, the resolvents that carry f0 are at
    least one, none exceeds the larger of 1 / RANK_RTOL and 1 + 1 / nu_g,
    and nu_g times the null resolvent is at most two. ``hat`` is
    lambda / (lambda + e), ``f0`` is scale [M^-1]_gg and ``moments`` are
    the gene's regression's ``Moments``."""

    scale: np.ndarray
    res: np.ndarray
    hat: np.ndarray
    f0: np.ndarray
    moments: Moments


def _leave_one_out(sp: _Spectrum, e) -> _LeaveOneOut:
    """The ``Moments`` of every gene's regression on all the others, at its
    own ``e`` = E[tau^-2].

    With M = X^T X + e I, f0 = [M^-1]_gg and f1 = [M^-2]_gg, the Schur
    complements of M give the moments of the gene's regression on its
    design D, with M_-g = D^T D + e I: ||theta||^2 = f1 / f0^2 - 1,
    tr M_-g^-1 = tr M^-1 - f1 / f0, log det M_-g = log det M + log f0,
    rss = (f0 - e f1) / f0^2 and tr(D^T D M_-g^-1) = sum hat - (f0 -
    e f1) / f0. f1 - f0^2 is summed as the spread of the resolvents about
    f0, weighted by the squared loadings (which sum to one), and f0 - e f1
    as the loadings' sum of hat * res, so no moment is a difference of
    near-equal numbers.
    """
    lam, u2, mult = sp.lam, sp.u2, sp.mult
    if sp.nu_lam is None:
        scale = lam[0] + e
    else:  # e + min(lambda_1, e / nu_g), without dividing by nu_g
        scale = e + lam[0] * (e / np.maximum(e, sp.nu_lam))
    den = lam + e[:, None]
    res = scale[:, None] / den
    hat = lam / den
    u2res = u2 * res
    f0 = u2res @ mult
    dev = res - f0[:, None]
    ratio = (u2 * dev * dev) @ mult / f0  # scale (f1 / f0 - f0)
    explained = (u2res * hat) @ mult / f0  # (f0 - e f1) / f0
    return _LeaveOneOut(scale, res, hat, f0, Moments(
        rss=explained * scale / f0,
        theta2=ratio / f0,
        trace=(res @ mult - f0 - ratio) / scale,
        logdet=np.log(den) @ mult + np.log(f0 / scale),
        dof=hat @ mult - explained))


def _coefficients(sp: _Spectrum, loo: _LeaveOneOut, e, e_sig):
    """Every gene's coefficient means and variances on the other genes,
    (p, p - 1) each: beta_j = -[M^-1]_jg / f0 and var_j = ([M^-1]_jj -
    [M^-1]_jg^2 / f0) / E[sigma^-2]. Off the gene, [M^-1]_jg sums the
    gene's resolvents over the directions of U, or their differences from
    the null resolvent scale / e, -(scale / e) hat, which needs no null
    space: the latter below full rank, and where e exceeds sqrt(lambda_1
    lambda_rank), where its terms are the smaller."""
    p, r = sp.U.shape
    shifted = e > np.sqrt(sp.lam[0]) * np.sqrt(sp.lam[-1])
    w = np.where(shifted[:, None], -(loo.scale / e)[:, None] * loo.hat,
                 loo.res)[:, :r]
    off = ~np.eye(p, dtype=bool)
    col = ((sp.U * w) @ sp.U.T)[off].reshape(p, p - 1)
    diag = ((loo.res * sp.mult) @ sp.u2.T)[off].reshape(p, p - 1)
    f0 = loo.f0[:, None]
    beta_mean = -col / f0
    beta_var = (diag - col * col / f0) / (loo.scale * e_sig)[:, None]
    return beta_mean, beta_var


def fit_sem(m: ExpressionMatrix, config: EmConfig = EmConfig()) -> SemFit:
    """EM over all gene regressions with shared-prior re-estimation.

    Each EM iteration sweeps every gene once under the current (a, b), as
    one array update over the spectrum of X, then updates (a, b) from the
    pooled moments unless global shrinkage is disabled. Convergence is the
    max over genes of the per-gene lower-bound change. The posteriors are
    read off the final sweep. A gene whose f0 rests on X's null space by
    more than ``NULL_GAIN_MAX`` raises ``NumericalFailureError``.
    """
    n, p = m.values.shape
    k = p - 1
    _check_designs(m)
    start = time.perf_counter()
    spectrum = _gram_spectrum(m.values)
    spectrum_ms = (time.perf_counter() - start) * 1000.0
    a, b = A_INIT, B_INIT
    b_stars = np.full(p, RATE_INIT)
    d_stars = np.full(p, RATE_INIT)
    history: list[np.ndarray] = []
    trajectory: list[dict] = []
    converged = False
    t = 0
    for t in range(1, config.max_iter + 1):
        hp = HyperParameters(a=a, b=b)
        a_star, c_star = _posterior_shapes(hp, n, k)
        e_tau, e_sig = a_star / b_stars, c_star / d_stars
        loo = _leave_one_out(spectrum, e_tau)
        b_stars, d_stars, bounds = _estep(
            hp, loo.moments, e_tau, e_sig, a_star, c_star, k,
            _bound_constant(n, k, hp, a_star, c_star))
        if not np.isfinite(bounds).all():
            bad = m.gene_ids[int(np.argmax(~np.isfinite(bounds)))]
            raise NumericalFailureError(
                f"gene {bad}: non-finite lower bound at EM iteration {t}"
            )
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
        if config.global_shrinkage:  # from E[tau^-2], E[log tau^-2]
            a, b = eb_update_approx_moments(
                a_star / b_stars, digamma(a_star) - np.log(b_stars))
    gain = loo.scale / (e_tau * loo.f0)  # null / f0 = 1 / (e [M^-1]_gg)
    if spectrum.nu_lam is not None and np.any(gain > NULL_GAIN_MAX):
        bad = m.gene_ids[int(np.argmax(gain))]
        raise NumericalFailureError(
            f"gene {bad}: its fit rests on directions outside the data's "
            "row space beyond working precision")
    beta_mean, beta_var = _coefficients(spectrum, loo, e_tau, e_sig)
    if not (np.isfinite(beta_mean).all() and np.isfinite(beta_var).all()):
        raise NumericalFailureError("non-finite posterior coefficients")
    return SemFit(beta_mean, beta_var, b_stars, d_stars, bounds,
                  hyper=HyperParameters(a=a, b=b),
                  lower_bounds=np.array(history), em_iterations=t,
                  converged=converged, gene_ids=m.gene_ids,
                  trajectory=trajectory, spectrum_ms=spectrum_ms)
