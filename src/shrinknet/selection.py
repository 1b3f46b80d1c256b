"""Edge scoring, ranking, Bayes factors and forward selection.

Edges are ranked by the symmetrized posterior mean-to-sd ratio of the two
directed coefficients. Selection then walks the ranking and accepts an edge
when the larger of its two directed Bayes factors clears a threshold tied
to a bound on the posterior probability that both coefficients are zero.
Sub-model evidences are variational lower bounds computed under a fixed
unit-information prior on the local precision. The evidences of every
prefix of every gene's partners in ranking order are computed together in
one batched pass, into a table whose steps along a row are exactly the
rank-conditioned Bayes factors that estimate the null fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix
from .em import SemFit
from .errors import NumericalFailureError
from .vb import (
    HyperParameters,
    fit_local,
    fit_spectra,
    gene_blocks,
    make_workspace,
    stack_groups,
    stack_spectra,
)


@dataclass(frozen=True)
class RankedEdge:
    i: int
    j: int
    kappa_bar: float
    rank: int  # 1-based


@dataclass(frozen=True)
class EdgeRanking:
    edges: tuple[RankedEdge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


@dataclass(frozen=True)
class StopConfig:
    """Early-exit rules for the forward pass."""

    patience: int = 100
    use_rmax: bool = True


@dataclass(frozen=True)
class EdgeDecision:
    i: int
    j: int
    rank: int
    kappa_bar: float
    bayes_factor_max: float
    p0_posterior_bound: float
    selected: bool


@dataclass
class SelectionResult:
    selected: frozenset
    decisions: list[EdgeDecision]
    p0_hat: float
    gamma: float
    alpha: float
    ranks_evaluated: int = 0


def kappa_scores(fit: SemFit) -> np.ndarray:
    """p x p matrix of |posterior mean| / posterior sd, zero diagonal."""
    p = fit.n_genes
    mean = np.array([vp.beta_mean for vp in fit.posteriors])
    var = np.array([vp.beta_var for vp in fit.posteriors])
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
    """Average the two directions and sort descending.

    Ties break on (min index, max index) so runs are reproducible.
    """
    kappa = np.asarray(kappa, dtype=float)
    p = kappa.shape[0]
    if kappa.shape != (p, p):
        raise ValueError("kappa matrix must be square")
    i, j = np.triu_indices(p, 1)
    kappa_bar = 0.5 * (kappa[i, j] + kappa[j, i])
    order = np.lexsort((j, i, -kappa_bar))
    edges = tuple(
        RankedEdge(i=a, j=b, kappa_bar=kb, rank=r + 1)
        for r, (a, b, kb) in enumerate(zip(i[order].tolist(),
                                           j[order].tolist(),
                                           kappa_bar[order].tolist()))
    )
    return EdgeRanking(edges=edges)


def selection_prior(n: int) -> HyperParameters:
    """Unit-information prior on the local precision for sub-model evidence."""
    return HyperParameters(a=0.5, b=n / 2.0, c=0.001, d=0.001)


class EvidenceCache:
    """Memoized sub-model evidences on a fixed (centered) matrix.

    Sub-models get an intercept by centering response and covariates, which
    matches an unpenalized intercept in the conjugate updates. Evidences of
    the ranking prefixes, filled in one batched pass by ``fill_prefixes``,
    are kept by (response gene, prefix length); any other sub-model is
    fitted on first use and kept by (response gene, frozenset of covariate
    genes). Every fit stops at the defaults of ``fit_local``. ``stats``
    counts the fits, their sweeps and the fits that hit the sweep cap, from
    both routes.
    """

    def __init__(self, m: ExpressionMatrix):
        self.values = m.values - m.values.mean(axis=0)
        self.n = m.n_samples
        self.p = m.n_genes
        self.prior = selection_prior(self.n)
        self._cache: dict[tuple[int, frozenset], float] = {}
        # _partner_rank[g, h]: position of h among g's ranked partners (p
        # for h = g); _prefix[g, t]: evidence of g on its first t partners
        self._partner_rank = None
        self._prefix = None
        self.stats = {"submodel_fits": 0, "submodel_sweeps": 0,
                      "submodel_nonconverged": 0}

    def _count(self, iterations, converged) -> None:
        self.stats["submodel_fits"] += np.size(iterations)
        self.stats["submodel_sweeps"] += int(np.sum(iterations))
        self.stats["submodel_nonconverged"] += int(
            np.size(converged) - np.count_nonzero(converged))

    def fill_prefixes(self, ranking: EdgeRanking) -> np.ndarray:
        """Fit, in one batched pass, every sub-model that regresses a gene
        on a prefix of its partners in ranking order, and return their
        log-evidences as a (p, p) table: entry [g, t] is gene g on its
        first t partners.

        The ranking must hold every gene pair exactly once, as
        ``rank_edges`` makes it; otherwise ``ValueError`` is raised. The
        scan walks the prefix lengths in order, factors each one's designs
        a block of responses at a time, and fits groups of blocks to
        completion as one stack; ``vb.STACK_DOUBLES`` bounds both the
        setup calls and the groups, whatever the number of genes.
        """
        p, n = self.p, self.n
        i, j, rank = np.array([(e.i, e.j, e.rank) for e in ranking],
                              dtype=int).reshape(-1, 3).T
        response, partner = np.concatenate([i, j]), np.concatenate([j, i])
        pairs = np.zeros((p, p), dtype=int)
        np.add.at(pairs, (response, partner), 1)
        if not np.array_equal(pairs, 1 - np.eye(p, dtype=int)):
            raise ValueError("the ranking must hold every gene pair once")
        order = partner[np.lexsort((np.concatenate([rank, rank]), response))
                        ].reshape(p, p - 1)
        partner_rank = np.full((p, p), p)
        partner_rank[np.arange(p)[:, None], order] = np.arange(p - 1)
        self._partner_rank = partner_rank.tolist()  # read per lookup
        blocks = gene_blocks(p, n * p)
        fits = [fit_spectra(stack_spectra(group), self.prior)
                for group in stack_groups(
                    make_workspace(self.values, genes,
                                   np.sort(order[genes, :t], axis=1))[0]
                    for t in range(p) for genes in blocks)]
        bound, iterations, converged = (
            np.concatenate([getattr(fit, name) for fit in fits])
            for name in ("bound", "iterations", "converged"))
        self._prefix = bound.reshape(p, p).T  # rows in (t, gene) order
        self._count(iterations, converged)
        return self._prefix

    def _prefix_length(self, response: int, covariates: frozenset):
        """Length of the ranking prefix ``covariates`` is, or None."""
        if self._prefix is None:
            return None
        t = len(covariates)
        rank = self._partner_rank[response]
        if t and max(map(rank.__getitem__, covariates)) != t - 1:
            return None
        return t

    def log_evidence(self, response: int, covariates: frozenset) -> float:
        t = self._prefix_length(response, covariates)
        if t is not None:
            return float(self._prefix[response, t])
        key = (response, covariates)
        got = self._cache.get(key)
        if got is not None:
            return got
        vp = fit_local(self.values, response, sorted(covariates), self.prior)
        self._count(vp.iterations, vp.converged)
        self._cache[key] = vp.lower_bound
        return vp.lower_bound

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
    if math.isinf(bf):
        return 0.0
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
    implied by p0 or after ``stop.patience`` consecutive rejections.
    """
    gamma = threshold_gamma(alpha, p0)
    if cache is None:
        cache = EvidenceCache(m)
    big_p = len(ranking)
    r_max = math.ceil((1.0 - p0) * big_p) if stop.use_rmax else big_p
    partners: dict[int, set] = {g: set() for g in range(cache.p)}
    selected = set()
    decisions: list[EdgeDecision] = []
    since_last = 0
    evaluated = 0
    for edge in ranking:
        if edge.rank > r_max or since_last >= stop.patience:
            break
        i, j = edge.i, edge.j
        bf_dir = [
            cache.bayes_factor(i, j, frozenset(partners[i])),
            cache.bayes_factor(j, i, frozenset(partners[j])),
        ]
        bf = max(bf_dir)
        bound = min(_null_probability(v, p0) for v in bf_dir)
        take = bf > gamma
        if take:
            selected.add((i, j))
            partners[i].add(j)
            partners[j].add(i)
            since_last = 0
        else:
            since_last += 1
        evaluated += 1
        decisions.append(
            EdgeDecision(
                i=i, j=j, rank=edge.rank, kappa_bar=edge.kappa_bar,
                bayes_factor_max=bf, p0_posterior_bound=bound, selected=take,
            )
        )
    return SelectionResult(
        selected=frozenset(selected),
        decisions=decisions,
        p0_hat=p0,
        gamma=gamma,
        alpha=alpha,
        ranks_evaluated=evaluated,
    )
