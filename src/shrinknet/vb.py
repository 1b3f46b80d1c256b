"""Per-gene variational fit for the shrinkage regression model.

Each gene's regression carries a Gaussian coefficient prior with variance
sigma^2 tau^2, gamma priors on tau^-2 and sigma^-2, and is fitted by
coordinate ascent on a factorized posterior. The evidence lower bound is
the convergence criterion and doubles as the model-evidence surrogate used
for Bayes factors downstream.

A sweep reads each regression's data only through five ``Moments`` at its
e = E[tau^-2], and two routes provide them: ``_spectral_moments`` from a
stack of design spectra (the selection's sub-models) and
``em._leave_one_out`` from one spectrum of the whole matrix (every gene of
the EM). ``_estep`` is the rest of the sweep for both: expected fit,
E[beta^T beta] and log determinant, then the rates (``_rates``) and the
lower bound (``_bound``).

The spectral route works in the eigenbasis of each design's
cross-product, where the coefficient posterior is diagonal, and is exact
for any shape: directions outside the row space keep their conditional
prior. A regression without covariates has an empty spectrum. Callers
name a regression by gene indices alone, the response and its sorted
covariates; ``make_workspace`` gathers the designs and responses and
takes the eigenbasis of one design's cross-product, or of a stack of
them, with one ``eigh`` call. ``fit_spectra`` sweeps the rows of one
stack, all started together and each stopped by its own rule, and a
row's evidence is the bound of its last sweep; ``fit_local`` is that
recursion on one regression, and its ``lower_bound`` is that bound to the
bit. Many regressions are fitted in groups within ``STACK_DOUBLES``, each
padded into one stack by ``stack_spectra``. ``_posteriors`` reads the
posteriors off the eigenbasis after one more ``_estep``, a row per
regression; ``fit_local`` and ``vb_sweep`` return one regression's as a
``VariationalPosterior``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesignError, NumericalFailureError

#: Rate parameters are floored here to avoid division blowups.
RATE_FLOOR = 1e-12

#: Eigenvalues below this fraction of the largest count as zero; eigh
#: rounds to about 1e-16 of it. A direction with d^2 near 0 acts like one
#: outside the row space, so dropping it moves the fit by O(d^2/E[tau^-2]).
RANK_RTOL = 1e-12

DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1000
#: Both rates start here in every fit.
RATE_INIT = 0.001

#: Working-memory budget of a stacked computation, in doubles: it bounds
#: the designs factored in one setup call (``gene_blocks``) and the
#: directions of a group fitted as one stack (``stack_groups``), in the
#: p0 scan and forward selection's look-ahead alike (the EM sets up the
#: one spectrum of the whole matrix, outside it). Both read it here, so
#: it is set in this one place. At 2^14 (128 KiB) the p0 scan at (p, n) =
#: (40, 30) factors 13 responses per setup call; at 2^12 it factored 3,
#: and per-call overhead took about a fifth of the run.
STACK_DOUBLES = 1 << 14


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
    """Stacked regression spectra, one row per regression.

    ``d2`` holds the eigenvalues of each design's cross-product and ``w``
    the matching V^T D^T y; past a row's numerical rank both are zero
    and ``mask`` is zero. A fit depends on its data only through these,
    ``y^T y``, the number of covariates ``k`` and the sample count ``n``.
    The spectrum of a single regression may leave out the row axis; its
    numpy arithmetic then runs on scalars, which costs less.
    """

    d2: np.ndarray  # (rows, width), or (width,) for a single regression
    w: np.ndarray  # as d2
    mask: np.ndarray  # as d2, 1.0 on a direction, 0.0 on padding
    yty: np.ndarray  # (rows,), or a scalar for a single regression
    k: np.ndarray  # as yty
    n: int


class Moments(NamedTuple):
    """What one E-step reads of each regression at its e = E[tau^-2], one
    value per regression. With M = D^T D + e I and theta = M^-1 D^T y:
    ``rss`` = ||y - D theta||^2, ``theta2`` = ||theta||^2, ``trace`` =
    tr M^-1 (a direction outside the design's row space adds 1 / e),
    ``logdet`` = log det M and ``dof`` = tr(D^T D M^-1)."""

    rss: np.ndarray
    theta2: np.ndarray
    trace: np.ndarray
    logdet: np.ndarray
    dof: np.ndarray


def _rowdot(x, y):
    """Dot products along the last axis: one per regression.

    Each row takes the BLAS product that a single design takes, so a row
    of a stack sums in the same order as the design swept on its own.
    """
    if x.ndim == 1:
        return x @ y
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _col(x):
    """Per-regression values, lined up against the direction axis."""
    return x[..., None] if getattr(x, "ndim", 0) else x


def _spectral_moments(d2, w, mask, yty, comp, e) -> Moments:
    """The ``Moments`` of each regression of a stack of spectra (see
    ``Spectra``; the last axis runs over directions) at its own ``e``.
    ``comp`` counts the directions outside each row space. In the
    eigenbasis theta = w / (d^2 + e), and rss is summed as y^T y -
    2 theta^T w + sum d^2 theta^2."""
    denom = d2 + _col(e)
    theta = w / denom
    inv = 1.0 / denom
    return Moments(
        rss=yty - 2.0 * _rowdot(theta, w) + _rowdot(d2, theta * theta),
        theta2=_rowdot(theta, theta),
        trace=_rowdot(mask, inv) + comp / e,
        logdet=_rowdot(mask, np.log(denom)) + comp * np.log(e),
        dof=_rowdot(d2, inv))


def _estep(hp, moments: Moments, e_tau, e_sig, a_star, c_star, k, constant):
    """One coordinate-ascent pass of every regression, given its
    ``Moments`` at ``e_tau`` = E[tau^-2] and ``e_sig`` = E[sigma^-2] from
    the rates the pass starts from: the coefficient posterior
    N(theta, M^-1 / e_sig) gives E||y - D beta||^2 = rss + dof / e_sig,
    E[beta^T beta] = theta2 + trace / e_sig and the log determinant of its
    covariance, -k log e_sig - logdet, for k coefficients. Returns the
    updated rates (b*, d*) and the lower bound after the pass, given
    ``_bound_constant`` of the regression."""
    ebb = moments.theta2 + moments.trace / e_sig
    b_new, d_new = _rates(hp, c_star, e_tau,
                          moments.rss + moments.dof / e_sig, ebb)
    sigma_logdet = -k * np.log(e_sig) - moments.logdet
    return b_new, d_new, _bound(constant, a_star, b_new, c_star, d_new,
                                sigma_logdet, ebb)


def _rates(hp, c_star, e_tau, fit, ebb):
    """The updated rates (b*, d*) of tau^-2 and sigma^-2, d* first and b*
    from it, given E[tau^-2], ``fit`` = E||y - D beta||^2 and ``ebb`` =
    E[beta^T beta] under the coefficient posterior just set; one value
    per regression."""
    d_new = np.maximum(hp.d + 0.5 * fit + 0.5 * e_tau * ebb, RATE_FLOOR)
    b_new = np.maximum(hp.b + 0.5 * (c_star / d_new) * ebb, RATE_FLOOR)
    return b_new, d_new


def make_workspace(values, gene, covariates, names=None):
    """Spectral setup of one regression, or of a stack of them.

    Every regression is gene ``gene`` of the (n, p) matrix ``values`` on
    the genes ``covariates``: one index with a 1-D index array, or an
    array of genes with one row of covariates each. The design's columns
    follow ``covariates``, and callers list them in sorted order: so a
    ranking prefix in the p0 scan's table and the same set fitted by
    ``fit_local`` are the same regression, to the last bit. Designs and
    responses are gathered here. One ``eigh`` call takes the
    eigenbasis of each design's cross-product, the smaller of D^T D and
    D D^T: d^2 are its eigenvalues above ``RANK_RTOL`` of the largest, V
    the eigenvectors of D^T D (D^T U / d from those U of D D^T), and
    w = V^T D^T y. A stack is as wide as its largest rank, and the
    directions of a row past its own rank are masked; a single
    regression's spectrum leaves out the row axis (see ``Spectra``).
    Returns the spectra and V, (k, rank) for one regression and
    (rows, k, width) for a stack. A regression without covariates has an
    empty spectrum; an all-zero design raises ``DegenerateDesignError``
    naming its gene, by ``names[gene]`` if ``names`` is given and by
    index if not.
    """
    single = np.ndim(gene) == 0
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
        bad = bad if names is None else names[bad]
        raise DegenerateDesignError(f"design for gene {bad} is all zeros")
    mask = lam > RANK_RTOL * lam[:, :1]
    width = int(mask.sum(axis=1).max(initial=0))
    lam, v, mask = lam[:, :width], v[..., :width], mask[:, :width]
    if k > n:  # from the eigenvectors U of D D^T
        v = dt @ v / np.sqrt(np.where(mask, lam, 1.0))[:, None, :]
    d2 = np.where(mask, lam, 0.0)
    w = np.where(mask, (responses[:, None, :] @ designs @ v)[:, 0], 0.0)
    yty = _rowdot(responses, responses)
    if single:
        return Spectra(d2[0], w[0], mask[0].astype(float), yty[0], k,
                       n), v[0].copy()
    return Spectra(d2, w, mask.astype(float), yty, np.full(rows, k), n), v


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def gammaln(x):
    """log Gamma(x) for x > 0 by ``math.lgamma``: a float for a scalar,
    elementwise for an array (such as the shapes of a stack's rows)."""
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


def _bound_constant(n, k, hp, a_star, c_star):
    """The terms of the lower bound that do not move between sweeps."""
    return (
        -0.5 * n * np.log(2.0 * np.pi)
        + 0.5 * k
        + hp.a * np.log(hp.b)
        - gammaln(hp.a)
        + gammaln(a_star)
        + hp.c * np.log(hp.d)
        - gammaln(hp.c)
        + gammaln(c_star)
    )


def _bound(constant, a_star, b_star, c_star, d_star, sigma_logdet, ebb):
    """Evidence lower bound, given ``_bound_constant`` of the regression."""
    return (
        constant
        + 0.5 * sigma_logdet
        - a_star * np.log(b_star)
        - c_star * np.log(d_star)
        + 0.5 * (c_star / d_star) * (a_star / b_star) * ebb
    )


def _posteriors(spectra: Spectra, V, b_star, d_star, a_star, c_star,
                hp: HyperParameters):
    """Every regression of ``spectra`` read off after one sweep from the
    rates ``(b_star, d_star)``: coefficient means and variances, one row
    per regression, then its two rates and lower bound (a spectrum without
    the row axis reads off without it). The rates and bound are those of
    ``_estep``, as in ``fit_spectra``'s sweeps. The coefficient moments
    come back from the eigenbasis through the ``V`` returned with the
    spectra, its columns past a row's rank dropped; directions outside a
    design's row space add their conditional prior variance.
    """
    e_tau, e_sig = a_star / b_star, c_star / d_star
    b_new, d_new, lower_bound = _estep(
        hp, _spectral_moments(spectra.d2, spectra.w, spectra.mask,
                              spectra.yty,
                              spectra.k - spectra.mask.sum(axis=-1), e_tau),
        e_tau, e_sig, a_star, c_star, spectra.k,
        _bound_constant(spectra.n, spectra.k, hp, a_star, c_star))
    if not np.isfinite(lower_bound).all():
        raise NumericalFailureError("non-finite lower bound")
    denom = spectra.d2 + _col(e_tau)
    # zero past each row's rank, in a C-contiguous copy that goes to BLAS
    v = V * spectra.mask[..., None, :]
    v2 = v**2
    beta_mean = (v @ (spectra.w / denom)[..., None])[..., 0]
    beta_var = ((v2 @ (spectra.mask / denom)[..., None])[..., 0]
                + (1.0 - v2.sum(axis=-1)) / _col(e_tau)) / _col(e_sig)
    return beta_mean, beta_var, b_new, d_new, lower_bound


def _posterior(spectra: Spectra, V, b_star, d_star, a_star, c_star,
               hp: HyperParameters, iterations, converged):
    """``_posteriors`` of a single regression's spectrum, as one record."""
    beta_mean, beta_var, b_star, d_star, lower_bound = _posteriors(
        spectra, V, b_star, d_star, a_star, c_star, hp)
    return VariationalPosterior(beta_mean, beta_var, a_star, float(b_star),
                                c_star, float(d_star), float(lower_bound),
                                iterations, converged)


def vb_sweep(
    state: VariationalPosterior,
    values: np.ndarray,
    gene: int,
    covariates,
    hp: HyperParameters,
) -> VariationalPosterior:
    """One coordinate-ascent pass of gene ``gene`` of ``values`` on the
    genes ``covariates`` (as ``make_workspace`` takes them): covariance/
    mean, then the two rates.

    Each update uses the most recent expectations, so the pass is an exact
    cyclic ascent step and the lower bound cannot decrease.
    """
    if not (state.b_star > 0 and state.d_star > 0):
        raise ValueError("state rates must be positive")
    spectra, V = make_workspace(values, gene, covariates)
    return _posterior(spectra, V, state.b_star, state.d_star, state.a_star,
                      state.c_star, hp, state.iterations + 1, state.converged)


@dataclass
class SpectraFit:
    """Per-row outcome of ``fit_spectra``.

    ``b_last`` and ``d_last`` are the rates the final sweep started from:
    one sweep from them reproduces each row's final state.
    """

    bound: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    b_last: np.ndarray
    d_last: np.ndarray


def _posterior_shapes(hp: HyperParameters, n, k):
    """Gamma shapes of the tau^-2 and sigma^-2 posteriors; fixed by (n, k)."""
    return hp.a + 0.5 * k, hp.c + 0.5 * (n + k)


def gene_blocks(p: int, doubles_per_gene: int) -> list[np.ndarray]:
    """Genes 0..p-1 in order, split into blocks whose designs, of
    ``doubles_per_gene`` doubles each, fit one ``make_workspace`` call
    within ``STACK_DOUBLES`` (a block holds one gene at least)."""
    size = max(1, STACK_DOUBLES // doubles_per_gene)
    return [np.arange(start, min(start + size, p))
            for start in range(0, p, size)]


def stack_spectra(blocks: list[Spectra]) -> Spectra:
    """The rows of ``blocks``, which share a sample count, as one stack:
    the direction arrays are zero-padded out to the widest block, and a
    single regression's spectrum becomes one row."""
    ends = np.cumsum([0] + [np.size(block.yty) for block in blocks])
    width = max(block.d2.shape[-1] for block in blocks)
    d2, w, mask = np.zeros((3, ends[-1], width))
    for block, start, stop in zip(blocks, ends, ends[1:]):
        for out, x in ((d2, block.d2), (w, block.w), (mask, block.mask)):
            out[start:stop, :x.shape[-1]] = x
    return Spectra(d2, w, mask, np.hstack([block.yty for block in blocks]),
                   np.hstack([block.k for block in blocks]), blocks[0].n)


def stack_groups(blocks):
    """Consecutive runs of ``blocks`` whose stack holds at most
    ``STACK_DOUBLES`` directions, padding included; a block larger than
    that is a run of its own. Yields each run as a list."""
    group, rows, width = [], 0, 0
    for block in blocks:
        size, cols = np.size(block.yty), max(1, block.d2.shape[-1])
        if group and (rows + size) * max(width, cols) > STACK_DOUBLES:
            yield group
            group, rows, width = [], 0, 0
        group.append(block)
        rows, width = rows + size, max(width, cols)
    if group:
        yield group


def fit_spectra(
    spectra: Spectra,
    hp: HyperParameters,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectraFit:
    """Fit every row of ``spectra`` by the sweeps of one fit, sweeping all
    live rows at once.

    All rows start together. Each stops on its own once its lower bound
    changes by less than ``tol`` in a sweep, or after ``max_iter`` sweeps,
    keeps the bound of its last sweep and leaves the live arrays. Results
    follow the row order, one entry per row (one in all for a spectrum
    without the row axis).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    shape = np.shape(spectra.yty)
    rows = np.size(spectra.yty)
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k)
    live = dict(
        d2=spectra.d2, w=spectra.w, mask=spectra.mask, yty=spectra.yty,
        comp=spectra.k - spectra.mask.sum(axis=-1),  # outside row space
        k=spectra.k, a_star=a_star, c_star=c_star,
        constant=_bound_constant(spectra.n, spectra.k, hp, a_star, c_star),
        b=np.full(shape, RATE_INIT), d=np.full(shape, RATE_INIT),
        prev=np.full(shape, np.nan), row=np.arange(rows).reshape(shape),
    )
    fit = SpectraFit(np.empty(rows), np.empty(rows, dtype=int),
                     np.empty(rows, dtype=bool), np.empty(rows),
                     np.empty(rows))
    for sweep in range(1, max_iter + 1):
        e_tau = live["a_star"] / live["b"]
        b, d, lb = _estep(
            hp, _spectral_moments(live["d2"], live["w"], live["mask"],
                                  live["yty"], live["comp"], e_tau),
            e_tau, live["c_star"] / live["d"], live["a_star"],
            live["c_star"], live["k"], live["constant"])
        if not np.isfinite(lb).all():
            raise NumericalFailureError(
                f"non-finite lower bound at iteration {sweep}"
            )
        settled = np.abs(lb - live["prev"]) < tol
        done = settled | (sweep == max_iter)
        if not done.any():
            live.update(b=b, d=d, prev=lb)
            continue
        row = live["row"][done]
        fit.bound[row], fit.converged[row] = lb[done], settled[done]
        fit.b_last[row], fit.d_last[row] = live["b"][done], live["d"][done]
        fit.iterations[row] = sweep
        if done.all():
            break
        keep = ~done
        live.update(b=b, d=d, prev=lb)
        live = {key: value[keep] for key, value in live.items()}
    return fit


def fit_local(
    values: np.ndarray,
    gene: int,
    covariates,
    hp: HyperParameters,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> VariationalPosterior:
    """Fit gene ``gene`` of ``values`` on the genes ``covariates`` (as
    ``make_workspace`` takes them): sweeps until the lower bound changes
    by less than ``tol``."""
    spectra, V = make_workspace(values, gene, covariates)
    fit = fit_spectra(spectra, hp, tol=tol, max_iter=max_iter)
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k)
    return _posterior(spectra, V, fit.b_last[0], fit.d_last[0], a_star,
                      c_star, hp, int(fit.iterations[0]),
                      bool(fit.converged[0]))
