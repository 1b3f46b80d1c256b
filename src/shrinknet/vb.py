"""Per-gene variational fit for the shrinkage regression model.

Each gene's regression carries a Gaussian coefficient prior with variance
sigma^2 tau^2 and gamma priors on tau^-2 and sigma^-2, under a factorized
posterior. Its evidence lower bound is the model-evidence surrogate used
for Bayes factors downstream.

A coordinate-ascent sweep reads each regression's data only through five
``Moments`` at its e = E[tau^-2]: ``_spectral_moments`` provides them
from a stack of design spectra, ``em._leave_one_out`` from one spectrum of
the whole matrix, and ``_estep`` is the rest of the sweep for both.

Every regression is a row of a stack (``Spectra``), named by gene
indices: ``make_workspace`` gathers the designs and takes their
eigenbases with one ``eigh`` call, ``stack_spectra`` pads blocks into one
stack, and ``fit_spectra`` fits every row at the fixed point of its
sweeps by one scalar root solve. ``fit_local`` and ``vb_sweep`` fit a
stack of one, and ``_posterior`` reads its posterior off the eigenbasis
as a ``VariationalPosterior``.
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

#: Both rates start here in the EM's sweeps.
RATE_INIT = 0.001

#: ``fit_spectra`` steps at most this far in log E[tau^-2] past the
#: fixed-point step, so it cannot jump over a short interval where h >= 0.
STEP_PAST = 0.25
#: ``fit_spectra`` stops a row once its Newton step or its bracket in
#: log E[tau^-2] is below this fraction of max(1, |log E[tau^-2]|).
STEP_RTOL = 1e-9
#: A solve that has not stopped after this many evaluations has failed.
MAX_EVALUATIONS = 100

#: Working-memory budget of a stacked computation, in doubles: it bounds
#: the designs factored in one setup call (``gene_blocks``) and the
#: directions of a group fitted as one stack (``stack_groups``) of the
#: selection's sub-models (the EM's one spectrum of the whole matrix is
#: outside it). At 2^14 (128 KiB) the p0 scan at (p, n) = (40, 30) makes
#: 78 setup calls.
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

    ``d2`` holds the eigenvalues of each design's cross-product, all
    positive, and ``w`` the matching V^T D^T y; past a row's numerical
    rank both are zero, so ``d2 > 0`` marks the row's directions. A fit
    depends on its data only through these, ``y^T y``, the number of
    covariates ``k`` and the sample count ``n``.
    """

    d2: np.ndarray  # (rows, width)
    w: np.ndarray  # as d2
    yty: np.ndarray  # (rows,)
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
    """Dot products along the last axis of two stacks: one per row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _spectral_moments(d2, w, mask, yty, comp, e) -> Moments:
    """The ``Moments`` of each regression of a stack of spectra (see
    ``Spectra``; the last axis runs over directions) at its own ``e``.
    ``mask`` is 1.0 where ``d2 > 0`` and ``comp`` counts the directions
    outside each row space. In the eigenbasis theta = w / (d^2 + e), and
    rss is summed as y^T y - 2 theta^T w + sum d^2 theta^2."""
    denom = d2 + e[:, None]
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


def make_workspace(values, gene, covariates):
    """Spectral setup of a stack of regressions.

    Every regression is gene ``gene`` of the (n, p) matrix ``values`` on
    the genes ``covariates``: an array of genes with one row of covariates
    each, or one index with a 1-D index array, a stack of one. The
    design's columns follow ``covariates``, and callers list them in
    sorted order: so a ranking prefix in the p0 scan's table and the same
    set fitted by ``fit_local`` are the same regression, to the last bit.
    Designs and responses are gathered here. One ``eigh`` call takes the
    eigenbasis of each design's cross-product, the smaller of D^T D and
    D D^T: d^2 are its eigenvalues above ``RANK_RTOL`` of the largest, V
    the eigenvectors of D^T D (D^T U / d from those U of D D^T), and
    w = V^T D^T y. A stack is as wide as its largest rank, and the
    directions of a row past its own rank are zero. Returns the spectra
    and V, (rows, k, width). A regression without covariates has an empty
    spectrum; an all-zero design raises ``DegenerateDesignError`` naming
    its gene by index.
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
    d2 = np.where(mask, lam, 0.0)
    w = np.where(mask, (responses[:, None, :] @ designs @ v)[:, 0], 0.0)
    yty = _rowdot(responses, responses)
    return Spectra(d2, w, yty, np.full(rows, k), n), v


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


def _posterior(spectra: Spectra, V, b_star, d_star, a_star, c_star,
               hp: HyperParameters, iterations, converged):
    """The regression of a stack of one, read off after one sweep from the
    rates ``(b_star, d_star)`` as one record: its coefficient means and
    variances, two rates and lower bound. The rates and bound are those of
    ``_estep``, as in ``fit_spectra``'s sweeps. The coefficient moments
    come back from the eigenbasis through the ``V`` returned with the
    spectra, its columns past the design's rank dropped; directions
    outside the design's row space add their conditional prior variance.
    """
    mask = (spectra.d2 > 0).astype(float)
    e_tau, e_sig = a_star / b_star, c_star / d_star
    b_new, d_new, lower_bound = _estep(
        hp, _spectral_moments(spectra.d2, spectra.w, mask, spectra.yty,
                              spectra.k - mask.sum(axis=-1), e_tau),
        e_tau, e_sig, a_star, c_star, spectra.k,
        _bound_constant(spectra.n, spectra.k, hp, a_star, c_star))
    if not np.isfinite(lower_bound).all():
        raise NumericalFailureError("non-finite lower bound")
    e_tau, e_sig = e_tau[:, None], e_sig[:, None]
    denom = spectra.d2 + e_tau
    # zero past the rank, in a C-contiguous copy that goes to BLAS
    v = V * mask[..., None, :]
    v2 = v**2
    beta_mean = (v @ (spectra.w / denom)[..., None])[..., 0]
    beta_var = ((v2 @ (mask / denom)[..., None])[..., 0]
                + (1.0 - v2.sum(axis=-1)) / e_tau) / e_sig
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
    mean, then the two rates.

    Each update uses the most recent expectations, so the pass is an exact
    cyclic ascent step and the lower bound cannot decrease.
    """
    if not (state.b_star > 0 and state.d_star > 0):
        raise ValueError("state rates must be positive")
    spectra, V = make_workspace(values, gene, covariates)
    return _posterior(spectra, V, np.array([state.b_star]),
                      np.array([state.d_star]), state.a_star, state.c_star,
                      hp, state.iterations + 1, state.converged)


@dataclass
class SpectraFit:
    """Per-row outcome of ``fit_spectra``: the fixed point's rates, the
    bound of one sweep from them and the evaluations the row's solve
    took."""

    bound: np.ndarray
    b_star: np.ndarray
    d_star: np.ndarray
    evaluations: np.ndarray


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
    the direction arrays are zero-padded out to the widest block."""
    ends = np.cumsum([0] + [len(block.yty) for block in blocks])
    width = max(block.d2.shape[1] for block in blocks)
    d2, w = np.zeros((2, ends[-1], width))
    for block, start, stop in zip(blocks, ends, ends[1:]):
        for out, x in ((d2, block.d2), (w, block.w)):
            out[start:stop, :x.shape[1]] = x
    return Spectra(d2, w, np.hstack([block.yty for block in blocks]),
                   np.hstack([block.k for block in blocks]), blocks[0].n)


def stack_groups(blocks):
    """Consecutive runs of ``blocks`` whose stack holds at most
    ``STACK_DOUBLES`` directions, padding included; a block larger than
    that is a run of its own. Yields each run as a list."""
    group, rows, width = [], 0, 0
    for block in blocks:
        size, cols = block.d2.shape[0], max(1, block.d2.shape[1])
        if group and (rows + size) * max(width, cols) > STACK_DOUBLES:
            yield group
            group, rows, width = [], 0, 0
        group.append(block)
        rows, width = rows + size, max(width, cols)
    if group:
        yield group


def fit_spectra(spectra: Spectra, hp: HyperParameters) -> SpectraFit:
    """Fit every row of ``spectra`` at the fixed point of its sweeps.

    At e = E[tau^-2] the fixed point's rates have closed forms: with
    R(e) = rss + e ||theta||^2, d*(e) = (d + R/2) / (1 - k / (2 c*)) and
    b*(e) = b + (c*/d*) ||theta||^2 / 2 + tr M^-1 / 2. A fit is thus a
    root of h(u) = log(a* / b*(e^u)) - u; b* falls as e rises, and every
    root lies below u_hi = log(a* / b). The sweeps from ``RATE_INIT`` come
    down to the largest root, and so does this solve: Newton steps down
    from u_hi, each at least the fixed-point step u + h(u), which cannot
    cross the largest root, and at most ``STEP_PAST`` past it; once a
    probe has h >= 0, Newton inside the bracket while each step is at most
    half the one before, else bisection, so a row whose h is only known to
    rounding near its root still closes in on it. A row stops once its
    Newton step or its bracket is below ``STEP_RTOL`` max(1, |u|), and its
    evidence is the bound of one ``_estep`` from its rates. Results follow
    the row order, one entry per row. R is a difference, y^T y -
    theta^T w; a row on which it rounds below -2d, so that d* <= 0, has no
    fit at working precision and raises ``NumericalFailureError``.
    """
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k)
    d2, w, k = spectra.d2, spectra.w, spectra.k
    mask = (d2 > 0).astype(float)
    comp = k - mask.sum(axis=-1)  # directions outside the row space
    scale = 1.0 / (1.0 - k / (2.0 * c_star))
    u = np.log(a_star / hp.b) + np.zeros(len(spectra.yty))
    lo, hi = np.full(u.shape, -np.inf), u
    last = np.full(u.shape, np.inf)  # the step before, once bracketed
    done = np.zeros(u.shape, dtype=bool)
    counts = np.zeros(u.shape, dtype=int)
    for evaluations in range(1, MAX_EVALUATIONS + 1):
        e = np.exp(u)
        inv = 1.0 / (d2 + e[:, None])
        theta = w * inv
        theta2 = _rowdot(theta, theta)
        d_star = scale * (hp.d + 0.5 * (spectra.yty - _rowdot(theta, w)))
        if np.any(d_star <= 0):
            raise NumericalFailureError(
                "precision lost: a sub-model's residual sum of squares "
                "rounds below zero")
        b_star = (hp.b + 0.5 * (c_star / d_star) * theta2
                  + 0.5 * (_rowdot(mask, inv) + comp / e))
        if done.all():
            break
        h = np.log(a_star / b_star) - u
        # db*/de, from dR/de = ||theta||^2, d||theta||^2/de =
        # -2 sum w^2 / (d^2 + e)^3 and d tr M^-1/de = -sum 1 / (d^2 + e)^2
        # - comp / e^2
        slope = (0.5 * c_star / d_star * (
            -2.0 * _rowdot(theta * inv, theta)
            - 0.5 * scale * theta2 * theta2 / d_star)
            - 0.5 * (_rowdot(mask, inv * inv) + comp / (e * e)))
        falling = 1.0 + e * slope / b_star  # -h'(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u + h / falling
        lo, hi = np.where(h >= 0, u, lo), np.where(h >= 0, hi, u)
        inside = ((newton > lo) & (newton < hi)
                  & (np.abs(newton - u) <= 0.5 * last))
        bracketed = lo > -np.inf
        step = np.where(bracketed,
                        np.where(inside, newton, 0.5 * (lo + hi)),
                        np.clip(np.where(falling > 0, newton, -np.inf),
                                u + h - STEP_PAST, u + h))
        last = np.where(bracketed, np.abs(step - u), np.inf)
        tol = STEP_RTOL * np.maximum(1.0, np.abs(u))
        settled = np.abs(newton - u) < tol
        u = np.where(done, u, np.where(settled, newton, step))
        counts = np.where(done, counts, evaluations + 1)
        done |= settled | (hi - lo < tol)
    else:
        raise NumericalFailureError(
            f"fixed point not found in {MAX_EVALUATIONS} evaluations")
    e_tau = a_star / b_star
    bound = _estep(hp, _spectral_moments(d2, w, mask, spectra.yty, comp,
                                         e_tau),
                   e_tau, c_star / d_star, a_star, c_star, k,
                   _bound_constant(spectra.n, k, hp, a_star, c_star))[2]
    if not np.isfinite(bound).all():
        raise NumericalFailureError("non-finite lower bound")
    return SpectraFit(bound, b_star, d_star, counts)


def fit_local(
    values: np.ndarray,
    gene: int,
    covariates,
    hp: HyperParameters,
) -> VariationalPosterior:
    """Fit gene ``gene`` of ``values`` on the genes ``covariates`` (as
    ``make_workspace`` takes them) by ``fit_spectra``, and read off the
    posterior of one sweep from its rates."""
    spectra, V = make_workspace(values, gene, covariates)
    fit = fit_spectra(spectra, hp)
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k[0])
    return _posterior(spectra, V, fit.b_star, fit.d_star, a_star, c_star,
                      hp, int(fit.evaluations[0]), True)
