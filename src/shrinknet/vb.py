"""Per-gene variational fit for the shrinkage regression model.

Each gene's regression carries a Gaussian coefficient prior with variance
sigma^2 tau^2, gamma priors on tau^-2 and sigma^-2, and is fitted by
coordinate ascent on a factorized posterior. The evidence lower bound is
the convergence criterion and doubles as the model-evidence surrogate used
for Bayes factors downstream.

Every regression is fitted in the eigenbasis of its design's
cross-product, where the coefficient posterior is diagonal: a sweep only
touches the eigenvalues d^2, w = V^T D^T y and y^T y, and the coefficient
covariance is never formed beyond its diagonal. The route is exact for
any shape: directions outside the design's row space keep their
conditional prior, and there are none when the design has full column
rank. A regression without covariates has an empty spectrum, and its
sigma posterior is exact after one sweep.

The spectral setup is written once: ``make_workspace`` takes the
eigenbasis of one design's cross-product, or of a stack of them, with
one ``eigh`` call. The sweep is written once too, as array code over a
stack of spectra with one row per regression: ``fit_spectra`` sweeps
many regressions at once, each with its own stopping rule, and
``fit_local`` is that recursion on a single regression. Coefficient
means and variances come back from that basis in ``_posteriors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data import RegressionProblem
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
#: the designs factored in one setup call of a block of regressions, and
#: the directions of the regressions ``fit_spectra`` sweeps at once.
STACK_DOUBLES = 1 << 12


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


@dataclass
class _Update:
    theta: np.ndarray
    theta_var: np.ndarray
    comp_var: np.ndarray
    b_star: np.ndarray
    d_star: np.ndarray
    sigma_trace: np.ndarray
    sigma_logdet: np.ndarray
    ebb: np.ndarray


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


def _spectral_update(d2, w, mask, yty, comp, b_star, d_star, a_star, c_star,
                     hp) -> _Update:
    """One coordinate-ascent pass in each design's eigenbasis.

    The last axis of ``d2``, ``w`` and ``mask`` runs over directions (see
    ``Spectra``); ``yty``, ``comp`` (directions outside the row space),
    the rates and the shapes hold one value per regression. Directions
    outside the row space keep their conditional prior variance
    ``comp_var``. Returns the coefficient mean and variance in that basis,
    then the two rates updated in turn.
    """
    e_tau = a_star / b_star
    e_sig = c_star / d_star
    denom = d2 + _col(e_tau)
    theta = w / denom
    precision = _col(e_sig) * denom
    theta_var = mask / precision
    comp_precision = e_sig * e_tau
    comp_var = 1.0 / comp_precision
    sigma_trace = _rowdot(mask, theta_var) + comp * comp_var
    sigma_logdet = -_rowdot(mask, np.log(precision)) - (
        comp * np.log(comp_precision)
    )
    ebb = _rowdot(theta, theta) + sigma_trace
    rss = yty - 2.0 * _rowdot(theta, w) + _rowdot(d2, theta * theta)
    tr_xtx_sigma = _rowdot(d2, theta_var)
    d_new = np.maximum(
        hp.d + 0.5 * (rss + tr_xtx_sigma) + 0.5 * e_tau * ebb, RATE_FLOOR
    )
    b_new = np.maximum(hp.b + 0.5 * (c_star / d_new) * ebb, RATE_FLOOR)
    return _Update(theta, theta_var, comp_var, b_new, d_new, sigma_trace,
                   sigma_logdet, ebb)


def make_workspace(designs, responses, genes):
    """Spectral setup of one regression design, or of a stack of them.

    ``designs`` is one (n, k) design with its (n,) response, or a stack of
    (n, k) designs with one response per row. One ``eigh`` call takes the
    eigenbasis of each design's cross-product, the smaller of D^T D and
    D D^T: d^2 are its eigenvalues above ``RANK_RTOL`` of the largest, V
    the eigenvectors of D^T D (D^T U / d from those U of D D^T), and
    w = V^T D^T y. A stack is as wide as its largest rank, and the
    directions of a row past its own rank are masked; a single design's
    spectrum leaves out the row axis (see ``Spectra``). Returns the
    spectra and V, (k, rank) for one design and (rows, k, width) for a
    stack. A design without columns has an empty spectrum; an all-zero
    design raises ``DegenerateDesignError`` naming its entry of ``genes``.
    """
    single = np.ndim(designs) == 2
    if single:
        designs, responses, genes = designs[None], responses[None], [genes]
    rows, n, k = designs.shape
    dt = designs.swapaxes(1, 2)
    lam, v = np.linalg.eigh(designs @ dt if k > n else dt @ designs)
    lam, v = lam[:, ::-1], v[..., ::-1]  # descending
    if k and not np.all(lam[:, 0] > 0.0):
        gene = genes[int(np.argmin(lam[:, 0] > 0.0))]
        raise DegenerateDesignError(f"design for gene {gene} is all zeros")
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
                hp: HyperParameters, iterations,
                converged) -> list[VariationalPosterior]:
    """The posterior of each regression of ``spectra`` after one sweep
    from the rates ``(b_star, d_star)``, one per row (one in all for a
    spectrum without the row axis).

    The coefficient means and variances come back from the eigenbasis
    through the ``V`` returned with the spectra; directions
    outside a design's row space add their conditional prior variance.
    """
    rank = spectra.mask.sum(axis=-1)
    up = _spectral_update(spectra.d2, spectra.w, spectra.mask, spectra.yty,
                          spectra.k - rank, b_star, d_star, a_star, c_star,
                          hp)
    rows = np.size(spectra.yty)
    theta, theta_var = (x.reshape(rows, -1) for x in (up.theta,
                                                       up.theta_var))
    V = V.reshape(rows, *V.shape[-2:])
    constant = _bound_constant(spectra.n, spectra.k, hp, a_star, c_star)
    per_row = np.array([rank, up.comp_var, up.b_star, up.d_star,
                        up.sigma_trace, up.sigma_logdet, constant])
    posteriors = []
    for j, (r, comp_var, b, d, trace, logdet, const) in enumerate(
            per_row.reshape(-1, rows).T.tolist()):
        r = int(r)
        v = np.ascontiguousarray(V[j, :, :r])
        v2 = v**2
        beta = v @ theta[j, :r]
        lb = float(_bound(const, a_star, b, c_star, d, logdet,
                          float(beta @ beta) + trace))
        if not np.isfinite(lb):
            raise NumericalFailureError("non-finite lower bound")
        posteriors.append(VariationalPosterior(
            beta_mean=beta,
            beta_var=v2 @ theta_var[j, :r] + (1.0 - v2.sum(axis=1)) * comp_var,
            a_star=a_star,
            b_star=b,
            c_star=c_star,
            d_star=d,
            lower_bound=lb,
            iterations=iterations,
            converged=converged,
        ))
    return posteriors


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
    spectra, V = make_workspace(prob.design, prob.response, prob.target_gene)
    return _posteriors(spectra, V, state.b_star, state.d_star, state.a_star,
                       state.c_star, hp, state.iterations + 1,
                       state.converged)[0]


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


def _widen(name: str, x, width: int) -> np.ndarray:
    """The per-row values ``name`` as a stack of rows, with the direction
    arrays zero-padded out to ``width``."""
    if name not in ("d2", "w", "mask"):
        return np.atleast_1d(x)
    x = np.atleast_2d(x)
    if x.shape[1] == width:
        return x
    out = np.zeros((x.shape[0], width))
    out[:, :x.shape[1]] = x
    return out


def _joined_size(live: dict, block: Spectra) -> int:
    """Directions the live rows would hold with ``block`` joined."""
    rows = np.size(live["yty"]) + np.size(block.yty)
    return rows * max(live["d2"].shape[-1], block.d2.shape[-1])


def fit_spectra(
    blocks,
    hp: HyperParameters,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    capacity: int = 0,
) -> SpectraFit:
    """Fit every row of a stream of ``Spectra`` blocks by the sweeps of one
    fit, sweeping all live rows at once.

    Each row stops on its own once its lower bound changes by less than
    ``tol`` in a sweep, or after ``max_iter`` sweeps, and keeps the bound
    of its last sweep. A block joins the live rows when they would then
    hold at most ``capacity`` directions (padding included), or when no
    row is live, so the working memory stays bounded however long the
    stream is. Results follow the rows' order in the stream.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    blocks = iter(blocks)
    live: dict[str, np.ndarray] = {}
    ended = []
    total = sweep = 0
    block = next(blocks, None)
    while block is not None or live:
        if block is not None and (not live or _joined_size(live, block)
                                  <= capacity):
            shape = np.shape(block.yty)
            count = np.size(block.yty)
            a_star, c_star = _posterior_shapes(hp, block.n, block.k)
            joined = dict(
                d2=block.d2, w=block.w, mask=block.mask, yty=block.yty,
                comp=block.k - block.mask.sum(axis=-1),  # outside row space
                a_star=a_star, c_star=c_star,
                constant=_bound_constant(block.n, block.k, hp, a_star,
                                         c_star),
                b=np.full(shape, RATE_INIT), d=np.full(shape, RATE_INIT),
                prev=np.full(shape, np.nan), start=np.full(shape, sweep),
                row=np.arange(total, total + count).reshape(shape),
            )
            total += count
            if live:
                width = max(live["d2"].shape[-1], block.d2.shape[-1])
                joined = {key: np.concatenate([_widen(key, live[key], width),
                                               _widen(key, value, width)])
                          for key, value in joined.items()}
            live = joined
            block = next(blocks, None)
            continue
        sweep += 1
        up = _spectral_update(live["d2"], live["w"], live["mask"],
                              live["yty"], live["comp"], live["b"],
                              live["d"], live["a_star"], live["c_star"], hp)
        lb = _bound(live["constant"], live["a_star"], up.b_star,
                    live["c_star"], up.d_star, up.sigma_logdet, up.ebb)
        if not np.isfinite(lb).all():
            age = sweep - live["start"][~np.isfinite(lb)][0]
            raise NumericalFailureError(
                f"non-finite lower bound at iteration {age}"
            )
        settled = np.abs(lb - live["prev"]) < tol
        done = settled | (live["start"] <= sweep - max_iter)
        if not done.any():
            live.update(b=up.b_star, d=up.d_star, prev=lb)
            continue
        ended.append((live["row"][done], lb[done],
                      sweep - live["start"][done], settled[done],
                      live["b"][done], live["d"][done]))
        if len(ended) > 32:  # a few long arrays, not one set per sweep
            ended = [tuple(map(np.concatenate, zip(*ended)))]
        keep = ~done
        live.update(b=up.b_star, d=up.d_star, prev=lb)
        live = {key: value[keep] for key, value in live.items()
                } if keep.any() else {}
    columns = ended[0] if len(ended) == 1 else [
        np.concatenate(column) for column in zip(*ended)]
    order = np.argsort(columns[0])
    return SpectraFit(*(column[order] for column in columns[1:]))


def fit_local(
    prob: RegressionProblem,
    hp: HyperParameters,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> VariationalPosterior:
    """Iterate sweeps until the lower bound changes by less than ``tol``."""
    spectra, V = make_workspace(prob.design, prob.response, prob.target_gene)
    fit = fit_spectra([spectra], hp, tol=tol, max_iter=max_iter)
    a_star, c_star = _posterior_shapes(hp, spectra.n, spectra.k)
    return _posteriors(spectra, V, fit.b_last[0], fit.d_last[0], a_star,
                       c_star, hp, int(fit.iterations[0]),
                       bool(fit.converged[0]))[0]
