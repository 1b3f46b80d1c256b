"""Variational fit of the shrinkage regression model, one regression a row.

Each regression has a Gaussian coefficient prior of variance sigma^2
tau^2 and gamma priors on tau^-2 and sigma^-2, under a factorized
posterior whose lower bound stands in for the evidence. A fit is the
fixed point of the coordinate-ascent sweeps, one scalar root a row,
solved by ``solve_fixed_points`` from any provider of the regressions'
``RootSums``, one record per evaluation: a record of design spectra
(``Spectra``, set up by ``make_workspace`` and concatenated by ``join``)
provides them, each row's from its own directions alone, and
``em._leave_one_out`` from one spectrum of the whole matrix. ``_estep``
is one sweep, from the residual R(e), ||theta||^2, tr M^-1 and log det M
alone: the shared-prior EM's, and the one that scores a fit, whose
rates, bound and record the solve returns for the fit's posterior.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateDesignError, NumericalFailureError

#: Rate parameters are floored here to avoid division blowups.
RATE_FLOOR = 1e-12

#: Eigenvalues below this fraction of the largest count as zero; eigh
#: rounds to about 1e-16 of it. A direction with d^2 near 0 acts like one
#: outside the row space, so dropping it moves the fit by O(d^2/E[tau^-2]).
RANK_RTOL = 1e-12

#: Both rates start here in the EM's sweeps.
RATE_INIT = 0.001

#: ``solve_fixed_points`` steps at most this far in log E[tau^-2] past the
#: fixed-point step, so it cannot jump over a short interval where h >= 0.
STEP_PAST = 0.25
#: ``solve_fixed_points`` stops a row once its secant step or its bracket in
#: log E[tau^-2] is below this fraction of max(1, |log E[tau^-2]|).
STEP_RTOL = 1e-9
#: A solve that has not stopped after this many evaluations has failed.
MAX_EVALUATIONS = 100


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


@dataclass(frozen=True)
class Spectra:
    """The spectra of a block of regressions, flat by direction: the
    eigenvalues ``d2`` of each design's cross-product above its numerical
    rank, all positive, the matching ``w`` = V^T D^T y and the ``row``
    (regression) each belongs to, in row order. ``yty`` and the number of
    covariates ``k`` hold one value a row, with the sample count ``n``
    they share. A fit depends on its data only through these, by
    ``root_sums``.
    """

    d2: np.ndarray  # (directions,)
    w: np.ndarray  # as d2
    row: np.ndarray  # as d2
    yty: np.ndarray  # (rows,)
    k: np.ndarray  # as yty
    n: int

    def sum(self, x):
        """Each row's sum of ``x`` (one value per direction) in order, the
        bits of its lone fit's: no other row enters it."""
        return np.bincount(self.row, weights=x, minlength=len(self.k))

    @cached_property
    def comp(self):
        """Each row's number of directions outside its design's row
        space, counted once per record."""
        return self.k - np.bincount(self.row, minlength=len(self.k))

    def root_sums(self, e) -> RootSums:
        """Each row's ``RootSums`` at its own ``e``. With theta = w /
        (d^2 + e), R is summed as the difference y^T y - theta^T w, which
        can round below -2d on an unscaled rank-deficient design. Every
        product is formed theta-first, never w w, which would overflow on
        values near 1e150."""
        inv = 1.0 / (self.d2 + e[self.row])
        theta = self.w * inv
        return RootSums(self.yty - self.sum(theta * self.w),
                        self.sum(theta * theta), self.sum(inv) + self.comp / e,
                        lambda: (self.sum(np.log(self.d2 + e[self.row]))
                                 + self.comp * np.log(e)))


def join(blocks) -> Spectra:
    """The rows of the ``Spectra`` ``blocks``, which share ``n``, as one
    record, in order."""
    starts = np.cumsum([0] + [len(block.yty) for block in blocks])
    fields = zip(*[(b.d2, b.w, start + b.row, b.yty, b.k)
                   for start, b in zip(starts, blocks)])
    return Spectra(*map(np.concatenate, fields), blocks[0].n)


@dataclass
class RootSums:
    """What a sweep reads of each regression at its e = E[tau^-2], one
    value per regression. With M = D^T D + e I and theta = M^-1 D^T y:
    ``resid`` = R(e) = ||y - D theta||^2 + e ||theta||^2, ``theta2`` =
    ||theta||^2 and ``trace`` = tr M^-1 (a direction outside the design's
    row space adds 1 / e). ``logdet()`` forms log det M, which only a
    sweep reads, never a step of the root solve."""

    resid: np.ndarray
    theta2: np.ndarray
    trace: np.ndarray
    logdet: Callable[[], np.ndarray]


def _posterior_shapes(hp: HyperParameters, n, k):
    """Gamma shapes of the tau^-2 and sigma^-2 posteriors; fixed by (n, k)."""
    return hp.a + 0.5 * k, hp.c + 0.5 * (n + k)


def _estep(hp: HyperParameters, n, k, sums: RootSums, e_sig):
    """One coordinate-ascent pass of every regression, with ``n`` samples
    and ``k`` covariates, given its ``RootSums`` at the e = E[tau^-2] the
    pass starts from, and ``e_sig`` = E[sigma^-2]. The coefficient
    posterior N(theta, M^-1 / e_sig) gives E[beta^T beta] = theta2 +
    trace / e_sig and, as tr(D^T D M^-1) + e tr M^-1 = k, E||y - D
    beta||^2 + e E[beta^T beta] = R + k / e_sig.
    Returns the updated rates (b*, d*), d* first and b* from it, and the
    lower bound after the pass."""
    a_star, c_star = _posterior_shapes(hp, n, k)
    ebb = sums.theta2 + sums.trace / e_sig
    d_new = np.maximum(hp.d + 0.5 * sums.resid + 0.5 * k / e_sig, RATE_FLOOR)
    b_new = np.maximum(hp.b + 0.5 * (c_star / d_new) * ebb, RATE_FLOOR)
    return b_new, d_new, (
        -0.5 * n * np.log(2.0 * np.pi) + 0.5 * k
        + hp.a * np.log(hp.b) - gammaln(hp.a) + gammaln(a_star)
        + hp.c * np.log(hp.d) - gammaln(hp.c) + gammaln(c_star)
        + 0.5 * (-k * np.log(e_sig) - sums.logdet())
        - a_star * np.log(b_new) - c_star * np.log(d_new)
        + 0.5 * (c_star / d_new) * (a_star / b_new) * ebb)


def make_workspace(values, gene, covariates):
    """Spectral setup of a block of regressions.

    Every regression is gene ``gene`` of the (n, p) matrix ``values`` on
    the genes ``covariates``: an array of genes with one row of covariates
    each, or one index with a 1-D index array, a block of one. The
    design's columns follow ``covariates``, and callers list them in
    sorted order: so a ranking prefix in the p0 scan's table and the same
    set fitted by ``fit_local`` are the same regression, to the last bit.
    Designs and responses are gathered here. One ``eigh`` call takes the
    eigenbasis of each design's cross-product, the smaller of D^T D and
    D D^T: d^2 are its eigenvalues above ``RANK_RTOL`` of the largest, V
    the eigenvectors of D^T D (D^T U / d from those U of D D^T), and
    w = V^T D^T y. Returns the spectra, each row's directions alone, and
    V, (rows, k, width), as wide as the block's largest rank: only its
    first rank columns of a row are that row's. A regression without
    covariates has an empty spectrum; an all-zero design raises
    ``DegenerateDesignError`` naming its gene by index.
    """
    genes = np.atleast_1d(gene)
    covariates = np.asarray(covariates, dtype=np.intp).reshape(
        len(genes), -1)
    designs = values.T[covariates].swapaxes(1, 2)
    responses = values.T[genes]
    rows, n, k = designs.shape
    dt = designs.swapaxes(1, 2)
    lam, v = np.linalg.eigh(designs @ dt if k > n else dt @ designs)
    lam, v = lam[:, ::-1], v[..., ::-1]  # descending
    if k and not np.all(lam[:, 0] > 0.0):
        bad = int(genes[np.argmin(lam[:, 0] > 0.0)])
        raise DegenerateDesignError(f"design for gene {bad} is all zeros")
    mask = lam > RANK_RTOL * lam[:, :1]
    width = int(mask.sum(axis=1).max(initial=0))
    lam, v, mask = lam[:, :width], v[..., :width], mask[:, :width]
    if k > n:  # from the eigenvectors U of D D^T
        v = dt @ v / np.sqrt(np.where(mask, lam, 1.0))[:, None, :]
    w = (responses[:, None, :] @ designs @ v)[:, 0]
    yty = (responses[:, None, :] @ responses[:, :, None])[:, 0, 0]
    return Spectra(lam[mask], w[mask], np.nonzero(mask)[0], yty,
                   np.full(rows, k), n), v


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def gammaln(x):
    """log Gamma(x) for x > 0 by ``math.lgamma``: a float for a scalar,
    elementwise for an array (such as the shapes of a block's rows)."""
    if getattr(x, "ndim", 0):
        return _lgamma(x).astype(float)
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) for a scalar x > 0: the recurrence psi(x) = psi(x + 1) - 1/x
    up to x >= 10, then the asymptotic series in the Bernoulli numbers
    through its 691 / (32760 x^12) term."""
    x = float(x)
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (
        1 / 252 - inv2 * (1 / 240 - inv2 * (1 / 132 - inv2 * 691 / 32760)))))
    return math.log(x) - 0.5 / x - series - shift


def _posterior(spectra: Spectra, V, e_tau, e_sig, sweep,
               hp: HyperParameters, iterations, converged):
    """The one regression of ``spectra``, read off after one sweep from
    ``e_tau`` = E[tau^-2] and ``e_sig`` = E[sigma^-2] as one record: its
    coefficient means and variances, and the two rates and lower bound of
    ``sweep``, that sweep's checked ``_estep``. The coefficient moments
    come back from the eigenbasis through the ``V`` returned with the
    spectra; directions outside the design's row space add their
    conditional prior variance.
    """
    b_new, d_new, lower_bound = sweep
    e_tau, e_sig = e_tau[:, None], e_sig[:, None]
    denom = spectra.d2 + e_tau
    v = np.ascontiguousarray(V)  # a block of one is as wide as its rank
    v2 = v**2
    beta_mean = (v @ (spectra.w / denom)[..., None])[..., 0]
    beta_var = ((v2 @ (1.0 / denom)[..., None])[..., 0]
                + (1.0 - v2.sum(axis=-1)) / e_tau) / e_sig
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k[0])
    return VariationalPosterior(beta_mean[0], beta_var[0], a_star,
                                float(b_new[0]), c_star, float(d_new[0]),
                                float(lower_bound[0]), iterations, converged)


def vb_sweep(
    state: VariationalPosterior,
    values: np.ndarray,
    gene: int,
    covariates,
    hp: HyperParameters,
) -> VariationalPosterior:
    """One coordinate-ascent pass of gene ``gene`` of ``values`` on the
    genes ``covariates`` (as ``make_workspace`` takes them): covariance/
    mean, then the two rates: one ``_estep`` from the rates of ``state``.

    Each update uses the most recent expectations, so the pass is an exact
    cyclic ascent step and the lower bound cannot decrease.
    """
    if not (state.b_star > 0 and state.d_star > 0):
        raise ValueError("state rates must be positive")
    spectra, V = make_workspace(values, gene, covariates)
    e_tau = np.array([state.a_star / state.b_star])
    e_sig = np.array([state.c_star / state.d_star])
    sweep = _estep(hp, spectra.n, spectra.k, spectra.root_sums(e_tau), e_sig)
    if not np.isfinite(sweep[2]).all():
        raise NumericalFailureError("non-finite lower bound")
    return _posterior(spectra, V, e_tau, e_sig, sweep, hp,
                      state.iterations + 1, state.converged)


@dataclass
class SpectraFit:
    """Per-row outcome of ``solve_fixed_points``: the fixed point's
    rates, the rates ``b_swept``, ``d_swept`` and ``bound`` of one sweep
    from them, the evaluations the row's solve took and ``root``, the
    provider's record at the E[tau^-2] of those rates, which it scored."""

    bound: np.ndarray
    b_star: np.ndarray
    d_star: np.ndarray
    b_swept: np.ndarray
    d_swept: np.ndarray
    evaluations: np.ndarray
    root: RootSums


def solve_fixed_points(hp: HyperParameters, n, k, sums) -> SpectraFit:
    """Fit every regression, with ``n`` samples and ``k`` (one per
    regression) covariates, at the fixed point of its sweeps, from
    ``sums(e)``, its ``RootSums``.

    At e = E[tau^-2] the fixed point's rates have closed forms, d*(e) =
    (d + R/2) / (1 - k / (2 c*)) and b*(e) = b + (c*/d*) ||theta||^2 / 2 +
    tr M^-1 / 2, so a fit is a root of h(u) = log(a* / b*(e^u)) - u, all
    below u_hi = log(a* / b). The solve comes down from u_hi to the largest
    root, as the sweeps from ``RATE_INIT`` do: secant steps, whose slope
    -h'(u) is taken from the row's last two evaluations (1 at its first,
    where the step is the fixed-point step u + h(u)), of at least the
    fixed-point step and at most ``STEP_PAST`` past it, then, once a probe
    has h >= 0, secant steps inside the bracket while each step halves,
    else bisection. A row stops once its secant step or bracket is below
    ``STEP_RTOL`` max(1, |u|); its evidence is the bound of one
    ``_estep`` from its rates, read from one more ``sums`` call, the
    only one whose log det is formed, returned as ``root``. A row whose
    d* rounds to <= 0 raises ``NumericalFailureError``.
    """
    a_star, c_star = _posterior_shapes(hp, n, k)
    scale = 1.0 / (1.0 - k / (2.0 * c_star))
    u = np.log(a_star / hp.b) + np.zeros(len(k))
    lo, hi = np.full(u.shape, -np.inf), u
    last = np.full(u.shape, np.inf)  # the step before, once bracketed
    u_prev, h_prev = u, np.zeros(u.shape)
    done = np.zeros(u.shape, dtype=bool)
    counts = np.zeros(u.shape, dtype=int)
    for evaluations in range(1, MAX_EVALUATIONS + 1):
        e = np.exp(u)
        s = sums(e)
        d_star = scale * (hp.d + 0.5 * s.resid)
        if np.any(d_star <= 0):
            raise NumericalFailureError(
                "precision lost: a sub-model's residual sum of squares "
                "rounds below zero")
        b_star = hp.b + 0.5 * (c_star / d_star) * s.theta2 + 0.5 * s.trace
        if done.all():
            break
        h = np.log(a_star / b_star) - u
        # -h'(u) from the row's last two evaluations, 1 at its first
        falling = np.divide(h_prev - h, u - u_prev, out=np.ones_like(h),
                            where=u != u_prev)
        u_prev, h_prev = u, h
        secant = u + np.divide(h, falling, out=np.full_like(h, np.nan),
                               where=falling != 0)
        lo, hi = np.where(h >= 0, u, lo), np.where(h >= 0, hi, u)
        inside = ((secant > lo) & (secant < hi)
                  & (np.abs(secant - u) <= 0.5 * last))
        bracketed = lo > -np.inf
        step = np.where(bracketed,
                        np.where(inside, secant, 0.5 * (lo + hi)),
                        np.clip(np.where(falling > 0, secant, -np.inf),
                                u + h - STEP_PAST, u + h))
        last = np.where(bracketed, np.abs(step - u), np.inf)
        tol = STEP_RTOL * np.maximum(1.0, np.abs(u))
        settled = np.abs(secant - u) < tol
        u = np.where(done, u, np.where(settled, secant, step))
        counts = np.where(done, counts, evaluations + 1)
        done |= settled | (hi - lo < tol)
    else:
        raise NumericalFailureError(
            f"fixed point not found in {MAX_EVALUATIONS} evaluations")
    root = sums(a_star / b_star)
    b_swept, d_swept, bound = _estep(hp, n, k, root, c_star / d_star)
    if not np.isfinite(bound).all():
        raise NumericalFailureError("non-finite lower bound")
    return SpectraFit(bound, b_star, d_star, b_swept, d_swept, counts, root)


def fit_spectra(spectra: Spectra, hp: HyperParameters) -> SpectraFit:
    """Fit every row of ``spectra`` by one ``solve_fixed_points`` on its
    ``root_sums``, one result per row in row order, each with the bits of
    its lone fit."""
    return solve_fixed_points(hp, spectra.n, spectra.k, spectra.root_sums)


def fit_local(
    values: np.ndarray,
    gene: int,
    covariates,
    hp: HyperParameters,
) -> VariationalPosterior:
    """Fit gene ``gene`` of ``values`` on the genes ``covariates`` (as
    ``make_workspace`` takes them) by ``fit_spectra``, and read off the
    posterior of the sweep that scored it."""
    spectra, V = make_workspace(values, gene, covariates)
    fit = fit_spectra(spectra, hp)
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k[0])
    return _posterior(spectra, V, a_star / fit.b_star, c_star / fit.d_star,
                      (fit.b_swept, fit.d_swept, fit.bound), hp,
                      int(fit.evaluations[0]), True)
