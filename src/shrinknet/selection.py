"""Edge scoring, ranking, Bayes factors and forward selection.

Edges are ranked by the symmetrized posterior mean-to-sd ratio of the two
directed coefficients. Selection then walks the ranking and accepts an edge
when the larger of its two directed Bayes factors clears a threshold tied
to a bound on the posterior probability that both coefficients are zero.
Sub-model evidences are variational lower bounds computed under a fixed
unit-information prior on the local precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ExpressionMatrix, RegressionProblem
from .em import SemFit
from .errors import NumericalFailureError
from .vb import HyperParameters, fit_local

#: Posterior-sd denominators below this are treated as numerically zero.
_VAR_FLOOR = 0.0


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
    kappa = np.zeros((p, p))
    for j, vp in enumerate(fit.posteriors):
        partners = [k for k in range(p) if k != j]
        if np.any(vp.beta_var <= _VAR_FLOOR):
            k = partners[int(np.argmax(vp.beta_var <= _VAR_FLOOR))]
            raise NumericalFailureError(
                f"zero posterior variance for pair ({j}, {k})"
            )
        kappa[j, partners] = np.abs(vp.beta_mean) / np.sqrt(vp.beta_var)
    return kappa


def rank_edges(kappa: np.ndarray) -> EdgeRanking:
    """Average the two directions and sort descending.

    Ties break on (min index, max index) so runs are reproducible.
    """
    kappa = np.asarray(kappa, dtype=float)
    p = kappa.shape[0]
    if kappa.shape != (p, p):
        raise ValueError("kappa matrix must be square")
    pairs = []
    for i in range(p):
        for j in range(i + 1, p):
            pairs.append((0.5 * (kappa[i, j] + kappa[j, i]), i, j))
    pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
    edges = tuple(
        RankedEdge(i=i, j=j, kappa_bar=kb, rank=r + 1)
        for r, (kb, i, j) in enumerate(pairs)
    )
    return EdgeRanking(edges=edges)


def selection_prior(n: int) -> HyperParameters:
    """Unit-information prior on the local precision for sub-model evidence."""
    return HyperParameters(a=0.5, b=n / 2.0, c=0.001, d=0.001)


class EvidenceCache:
    """Memoized sub-model evidences on a fixed (centered) matrix.

    Sub-models get an intercept by centering response and covariates, which
    matches an unpenalized intercept in the conjugate updates. Keys are
    (response gene, frozenset of covariate genes).
    """

    def __init__(self, m: ExpressionMatrix, tol: float = 1e-3,
                 max_iter: int = 1000):
        self.values = m.values - m.values.mean(axis=0)
        self.n = m.n_samples
        self.p = m.n_genes
        self.prior = selection_prior(self.n)
        self.tol = tol
        self.max_iter = max_iter
        self._cache: dict[tuple[int, frozenset], float] = {}

    def log_evidence(self, response: int, covariates: frozenset) -> float:
        key = (response, covariates)
        got = self._cache.get(key)
        if got is not None:
            return got
        cols = sorted(covariates)
        prob = RegressionProblem(
            response=self.values[:, response],
            design=self.values[:, cols],
            target_gene=response,
        )
        vp = fit_local(prob, self.prior, tol=self.tol,
                       max_iter=self.max_iter)
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
        delta = l1 - l0
        if delta > 700.0:
            return math.inf
        return math.exp(delta)


def estimate_p0(
    m: ExpressionMatrix,
    ranking: EdgeRanking,
    cache: EvidenceCache | None = None,
) -> float:
    """Fraction of rank-conditioned Bayes factors at or below one.

    At rank r each direction conditions on all partners of the response
    among edges ranked <= r (the candidate itself excluded from the null).
    The estimate is clamped away from 0 and 1 so the selection threshold
    stays finite.
    """
    if cache is None:
        cache = EvidenceCache(m)
    partners: dict[int, set] = {g: set() for g in range(cache.p)}
    big_p = len(ranking)
    count = 0
    for edge in ranking:
        i, j = edge.i, edge.j
        partners[i].add(j)
        partners[j].add(i)
        for resp, cand in ((i, j), (j, i)):
            cond = frozenset(partners[resp] - {cand})
            if cache.bayes_factor(resp, cand, cond) <= 1.0:
                count += 1
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
