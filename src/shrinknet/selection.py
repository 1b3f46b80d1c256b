"""Edge scoring, ranking, Bayes factors and forward selection.

Edges are ranked by the symmetrized posterior mean-to-sd ratio of the two
directed coefficients. The ranking is held as three arrays in rank order,
so rank r is entry r - 1 of each. Selection then walks the ranking and
accepts an edge when the larger of its two directed Bayes factors clears a
threshold tied to a bound on the posterior probability that both
coefficients are zero; its decisions are arrays over the ranks it
evaluated. Sub-model evidences are variational lower bounds under a fixed
unit-information prior on the local precision. The evidences of every
prefix of every gene's partners in ranking order fill one table, whose
steps along a row are the rank-conditioned Bayes factors that estimate
the null fraction. Forward selection keeps its own store: it fits the
sub-models it can reach before its next acceptance ahead of use. Both set
up and fit their sub-models by one rule, ``EvidenceCache._fit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vb
from .data import ExpressionMatrix
from .em import SemFit
from .errors import NumericalFailureError
from .vb import HyperParameters, fit_spectra, make_workspace

fit_local = vb.fit_local  # the name perfbench's selection.submodel span wraps

#: Working-memory budget of the sub-model fits, in doubles: it bounds the
#: designs gathered by one ``make_workspace`` call of ``_fit`` and the
#: rows and directions fitted by one of its solves. It bounds memory
#: only: no result depends on it. At 2^14 (128 KiB) the p0 scan at (p, n)
#: = (40, 30) makes 78 setup calls.
STACK_DOUBLES = 1 << 14


@dataclass(frozen=True)
class EdgeRanking:
    """Gene pairs (i < j) strongest first: rank r is entry r - 1."""

    i: np.ndarray
    j: np.ndarray
    kappa_bar: np.ndarray

    def __len__(self) -> int:
        return len(self.kappa_bar)


@dataclass(frozen=True)
class StopConfig:
    """Early-exit rules for the forward pass."""

    patience: int = 100
    use_rmax: bool = True

    def __post_init__(self):
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass
class SelectionResult:
    """The selected pairs, and per evaluated rank r (entry r - 1) the larger
    directed Bayes factor, the bound on the null probability and whether
    the edge was accepted."""

    selected: frozenset
    bayes_factor_max: np.ndarray
    p0_posterior_bound: np.ndarray
    accepted: np.ndarray
    p0_hat: float
    gamma: float
    alpha: float

    @property
    def ranks_evaluated(self) -> int:
        return len(self.accepted)


def kappa_scores(fit: SemFit) -> np.ndarray:
    """p x p matrix of |posterior mean| / posterior sd, zero diagonal."""
    p = fit.n_genes
    mean, var = fit.beta_mean, fit.beta_var
    if np.any(var <= 0.0):
        j, col = np.argwhere(var <= 0.0)[0]
        k = col + (col >= j)  # the design of gene j skips column j
        raise NumericalFailureError(
            f"zero posterior variance for pair ({j}, {k})"
        )
    kappa = np.zeros((p, p))
    kappa[~np.eye(p, dtype=bool)] = (np.abs(mean) / np.sqrt(var)).ravel()
    return kappa


def rank_edges(kappa: np.ndarray) -> EdgeRanking:
    """Average the two directions and sort every pair descending.

    Ties break on (min index, max index) so runs are reproducible.
    """
    kappa = np.asarray(kappa, dtype=float)
    p = kappa.shape[0]
    if kappa.shape != (p, p):
        raise ValueError("kappa matrix must be square")
    i, j = np.triu_indices(p, 1)
    kappa_bar = 0.5 * (kappa[i, j] + kappa[j, i])
    order = np.lexsort((j, i, -kappa_bar))
    return EdgeRanking(i=i[order], j=j[order], kappa_bar=kappa_bar[order])


def selection_prior(n: int) -> HyperParameters:
    """Unit-information prior on the local precision for sub-model evidence."""
    return HyperParameters(a=0.5, b=n / 2.0, c=0.001, d=0.001)


class EvidenceCache:
    """Memoized sub-model evidences on a fixed (centered) matrix.

    Sub-models get an intercept by centering response and covariates, which
    matches an unpenalized intercept in the conjugate updates. The one
    store is keyed by (response gene, frozenset of covariate genes); every
    sub-model in it is fitted by ``fit_ahead``, ahead of use or when a
    lookup finds it missing. ``fill_prefixes`` returns the p0 scan's table
    and stores none of it. Every evidence, by ``_fit``, has the bits of a
    lone ``fit_local`` fit. ``stats`` counts the fits of both and their
    solver evaluations, ``submodel_unused`` the fits ahead that no lookup
    has read, ``submodel_lookups`` the calls of ``log_evidence`` and
    ``submodel_misses`` those that found no fit.
    """

    def __init__(self, m: ExpressionMatrix):
        self.values = m.values - m.values.mean(axis=0)
        self.n = m.n_samples
        self.p = m.n_genes
        self.prior = selection_prior(self.n)
        self._cache: dict[tuple[int, frozenset], float] = {}
        self._unread = set()  # keys fitted ahead and not yet looked up
        self.stats = {"submodel_fits": 0, "submodel_evaluations": 0,
                      "submodel_unused": 0, "submodel_lookups": 0,
                      "submodel_misses": 0}

    def _fit(self, requests):
        """Bounds of the sub-models of ``requests``, in order: each request
        pairs an array of genes with their covariates (sorted, k per row).
        A request's rows are set up a block at a time, as many per
        ``make_workspace`` call as ``STACK_DOUBLES`` holds of their designs
        (one at least). The blocks are ``vb.join``ed as they come into
        runs of at most ``STACK_DOUBLES`` rows and directions (a larger
        block is a run of its own), and each run is fitted by one
        ``fit_spectra`` solve, counted in ``stats``."""
        bounds, run, size = [np.empty(0)], [], 0  # a call may fit nothing

        def solve():
            fit = fit_spectra(vb.join(run), self.prior)
            self.stats["submodel_fits"] += len(fit.bound)
            self.stats["submodel_evaluations"] += int(fit.evaluations.sum())
            bounds.append(fit.bound)
            run.clear()

        for genes, covariates in requests:
            rows = max(1, STACK_DOUBLES
                       // (self.n * max(covariates.shape[1], 1)))
            for start in range(0, len(genes), rows):
                block = make_workspace(self.values, genes[start:start + rows],
                                       covariates[start:start + rows])[0]
                more = len(block.yty) + len(block.d2)
                if run and size + more > STACK_DOUBLES:
                    solve()
                    size = 0
                run.append(block)
                size += more
        if run:
            solve()
        return np.concatenate(bounds)

    def fill_prefixes(self, ranking: EdgeRanking) -> np.ndarray:
        """Fit, in one batched pass, every sub-model that regresses a gene
        on a prefix of its partners in ranking order, and return their
        log-evidences as a (p, p) table: entry [g, t] is gene g on its
        first t partners.

        The ranking must hold every gene pair exactly once, as
        ``rank_edges`` makes it; otherwise ``ValueError`` is raised. The
        scan walks the prefix lengths in order, and ``_fit`` sets up and
        fits each one's sub-models.
        """
        p = self.p
        response = np.concatenate([ranking.i, ranking.j])
        partner = np.concatenate([ranking.j, ranking.i])
        pairs = np.zeros((p, p), dtype=int)
        np.add.at(pairs, (response, partner), 1)
        if not np.array_equal(pairs, 1 - np.eye(p, dtype=int)):
            raise ValueError("the ranking must hold every gene pair once")
        rank = np.tile(np.arange(len(ranking)), 2)
        order = partner[np.lexsort((rank, response))].reshape(p, p - 1)
        genes = np.arange(p)
        bound = self._fit((genes, np.sort(order[:, :t], axis=1))
                          for t in range(p))
        return bound.reshape(p, p).T  # rows in (t, gene) order

    def fit_ahead(self, submodels) -> None:
        """Fit every sub-model of ``submodels`` (pairs of a response gene
        and a frozenset of covariate genes) that the store does not hold,
        and store its evidence. Sub-models with the same number k of
        covariates are one request to ``_fit``, which sets up and fits
        them all.
        """
        wanted = {}
        for key in submodels:
            if key not in self._cache:
                wanted.setdefault(len(key[1]), {})[key] = None
        requests = [(np.array([g for g, _ in group]),
                     np.array([sorted(c) for _, c in group],
                              dtype=np.intp).reshape(len(group), k))
                    for k, group in wanted.items()]
        keys = [key for group in wanted.values() for key in group]
        self._cache.update(zip(keys, self._fit(requests).tolist()))
        self._unread.update(keys)
        self.stats["submodel_unused"] += len(keys)

    def log_evidence(self, response: int, covariates: frozenset) -> float:
        self.stats["submodel_lookups"] += 1
        key = (response, covariates)
        if key not in self._cache:
            self.stats["submodel_misses"] += 1
            self.fit_ahead([key])
        if key in self._unread:
            self._unread.remove(key)
            self.stats["submodel_unused"] -= 1
        return self._cache[key]

    def bayes_factor(self, response: int, candidate: int,
                     conditioning: frozenset) -> float:
        if candidate in conditioning:
            raise ValueError(
                f"candidate gene {candidate} already in conditioning set"
            )
        if response in conditioning or response == candidate:
            raise ValueError(
                f"response gene {response} cannot appear among covariates"
            )
        l0 = self.log_evidence(response, conditioning)
        l1 = self.log_evidence(response, conditioning | {candidate})
        return float(_bayes_factor(l1 - l0))


def _bayes_factor(log_ratio):
    """Bayes factor of a log-evidence difference, or of an array of them;
    infinite past 700, where exp nears overflow."""
    return np.where(log_ratio > 700.0, np.inf,
                    np.exp(np.minimum(log_ratio, 700.0)))


def estimate_p0(
    m: ExpressionMatrix,
    ranking: EdgeRanking,
    cache: EvidenceCache | None = None,
) -> float:
    """Fraction of rank-conditioned Bayes factors at or below one.

    At rank r each direction conditions on all partners of the response
    among edges ranked <= r (the candidate itself excluded from the null).
    Both evidences of that Bayes factor are consecutive prefixes of the
    response's partners, so the 2P factors are the steps along the rows
    of the table ``EvidenceCache.fill_prefixes`` returns. The estimate is
    clamped away from 0 and 1 so the selection threshold stays finite.
    """
    if cache is None:
        cache = EvidenceCache(m)
    prefix = cache.fill_prefixes(ranking)
    big_p = len(ranking)
    count = np.count_nonzero(_bayes_factor(np.diff(prefix, axis=1)) <= 1.0)
    p0 = count / (2.0 * big_p)
    lo = 1.0 / (2.0 * big_p)
    return float(min(max(p0, lo), 1.0 - lo))


def threshold_gamma(alpha: float, p0: float) -> float:
    """Bayes-factor cutoff equivalent to bounding the null probability."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    return (1.0 - alpha) * p0 / (alpha * (1.0 - p0))


def _null_probability(bf: float, p0: float) -> float:
    return p0 / (p0 + (1.0 - p0) * bf)


def forward_select(
    m: ExpressionMatrix,
    ranking: EdgeRanking,
    alpha: float,
    p0: float,
    stop: StopConfig = StopConfig(),
    cache: EvidenceCache | None = None,
) -> SelectionResult:
    """Walk the ranking, conditioning each test on edges selected so far.

    An edge enters when the larger directed Bayes factor exceeds the
    threshold derived from (alpha, p0). The walk stops at the rank budget
    implied by p0 or after ``stop.patience`` consecutive rejections; the
    result's decision arrays cover the ranks walked.

    Partner sets change only on an acceptance, and the walk never goes
    more than ``stop.patience`` ranks past the last one, so until the next
    acceptance the ranks it can reach (its horizon), and the sub-models
    they look up, are known. At the start, and after each acceptance, it
    hands them to ``cache.fit_ahead`` in one call: both genes' sub-models
    for each rank that enters the horizon, and for each accepted gene its
    new partner set, alone and with each of its candidates inside the old
    horizon.
    """
    gamma = threshold_gamma(alpha, p0)
    if cache is None:
        cache = EvidenceCache(m)
    big_p = len(ranking)
    r_max = math.ceil((1.0 - p0) * big_p) if stop.use_rmax else big_p
    edges = list(zip(ranking.i[:r_max].tolist(), ranking.j[:r_max].tolist()))
    partners = [set() for _ in range(cache.p)]

    def submodels(gene, candidates):
        base = frozenset(partners[gene])
        return [(gene, base)] + [(gene, base | {c}) for c in candidates]

    def entering(lo, hi):  # ranks lo + 1..hi join the horizon
        return [key for i, j in edges[lo:hi]
                for key in submodels(i, [j]) + submodels(j, [i])]

    horizon = min(r_max, stop.patience)
    cache.fit_ahead(entering(0, horizon))
    selected = set()
    bf_max, bound, accepted = [], [], []
    since_last = 0
    for r, (i, j) in enumerate(edges):
        if since_last >= stop.patience:
            break
        bf_dir = [
            cache.bayes_factor(i, j, frozenset(partners[i])),
            cache.bayes_factor(j, i, frozenset(partners[j])),
        ]
        bf = max(bf_dir)
        take = bf > gamma
        bf_max.append(bf)
        bound.append(min(_null_probability(v, p0) for v in bf_dir))
        accepted.append(take)
        if take:
            selected.add((i, j))
            partners[i].add(j)
            partners[j].add(i)
            since_last = 0
            wanted = []
            for gene in (i, j):
                wanted += submodels(gene, [b if a == gene else a
                                           for a, b in edges[r + 1:horizon]
                                           if gene in (a, b)])
            new_horizon = min(r_max, r + 1 + stop.patience)
            cache.fit_ahead(wanted + entering(horizon, new_horizon))
            horizon = new_horizon
        else:
            since_last += 1
    return SelectionResult(
        selected=frozenset(selected),
        bayes_factor_max=np.array(bf_max, dtype=float),
        p0_posterior_bound=np.array(bound, dtype=float),
        accepted=np.array(accepted, dtype=bool),
        p0_hat=p0,
        gamma=gamma,
        alpha=alpha,
    )
