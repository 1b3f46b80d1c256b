"""Evaluation metrics: confusion counts, F-score, partial ROC, rank
correlation, random splits and the stability-selection bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix
from .errors import (
    UndefinedCorrelationError,
    UndefinedMetricError,
    VacuousBoundError,
)
from .selection import EdgeRanking
from .simulate import GraphSpec


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _norm_pairs(pairs) -> set:
    return {(min(i, j), max(i, j)) for i, j in pairs}


def confusion(selected, truth, p: int) -> ConfusionCounts:
    """Counts over all unordered pairs of ``p`` genes, against the edge
    set ``truth``."""
    sel = _norm_pairs(selected)
    true_edges = _norm_pairs(truth)
    big_p = p * (p - 1) // 2
    tp = len(sel & true_edges)
    fp = len(sel - true_edges)
    fn = len(true_edges - sel)
    tn = big_p - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def scores(c: ConfusionCounts):
    """(tpr, fpr, precision, f_score) with zero-denominator conventions."""
    tpr = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    fpr = c.fp / (c.fp + c.tn) if c.fp + c.tn else 0.0
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    f = (
        2.0 * precision * tpr / (precision + tpr)
        if precision + tpr
        else 0.0
    )
    return tpr, fpr, precision, f


def partial_roc(ranking: EdgeRanking, truth: GraphSpec, fpr_max: float = 0.2):
    """Step ROC of the ranking against the true adjacency, truncated.

    Each run of equal ``kappa_bar`` advances together (a diagonal segment).
    The partial area is normalized by fpr_max so a perfect ranking scores 1.
    """
    if not 0.0 < fpr_max <= 1.0:
        raise ValueError("fpr_max must lie in (0, 1]")
    n_pos = truth.edge_count
    n_neg = truth.p * (truth.p - 1) // 2 - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            "partial ROC needs at least one edge and one non-edge"
        )
    kappa_bar = ranking.kappa_bar
    ends = np.r_[np.flatnonzero(kappa_bar[1:] != kappa_bar[:-1]) + 1,
                 len(ranking)]
    tp = np.cumsum(truth.adjacency[ranking.i, ranking.j])[ends - 1]
    curve = [(0.0, 0.0), *zip(((ends - tp) / n_neg).tolist(),
                              (tp / n_pos).tolist())]
    pauc = 0.0
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        if x0 >= fpr_max:
            break
        if x1 <= fpr_max:
            pauc += (x1 - x0) * (y0 + y1) / 2.0
        else:
            # interpolate the segment at the truncation point
            yt = y0 + (y1 - y0) * (fpr_max - x0) / (x1 - x0)
            pauc += (fpr_max - x0) * (y0 + yt) / 2.0
            break
    return curve, pauc / fpr_max


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, each run of ties given the mean of its ranks."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def rank_correlation(kappa_bars_a, kappa_bars_b) -> float:
    """Spearman rho: the Pearson correlation of average ranks."""
    a = np.asarray(kappa_bars_a, dtype=float)
    b = np.asarray(kappa_bars_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("inputs must be equal-length vectors of size >= 2")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise UndefinedCorrelationError(
            "rank correlation undefined for constant input"
        )
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1])


def random_split(m: ExpressionMatrix, n_small: int, rng=None):
    """Disjoint row partition into (n_small, n - n_small) sub-matrices."""
    n = m.n_samples
    if not 2 <= n_small <= n - 2:
        raise ValueError(
            f"n_small must lie in [2, {n - 2}], got {n_small}"
        )
    rng = np.random.default_rng(rng)
    perm = rng.permutation(n)
    small_idx = np.sort(perm[:n_small])
    large_idx = np.sort(perm[n_small:])

    def take(idx):
        return ExpressionMatrix(
            values=m.values[idx],
            gene_ids=m.gene_ids,
            sample_ids=tuple(m.sample_ids[i] for i in idx),
        )

    return take(small_idx), take(large_idx)


def stability_threshold(q: float, e_v: float, big_p: int) -> float:
    """Selection-frequency cutoff implied by the expected-false-edge bound.

    Inverts E(V) <= q^2 / ((2 pi - 1) P) for pi at the target E(V),
    capping at 1.
    """
    if q < 0 or e_v <= 0 or big_p < 1:
        raise ValueError("need q >= 0, e_v > 0, P >= 1")
    if q == 0:
        raise VacuousBoundError(
            "q = 0: the bound holds for any threshold and fixes none"
        )
    return min(1.0, (q * q / (e_v * big_p) + 1.0) / 2.0)


@dataclass
class StabilityReport:
    selection_frequency: dict
    pi_thr: float
    stable_edges: frozenset
    q_hat: float
    e_v: float
    n_resamples: int


def stability_report(selections, e_v: float, big_p: int) -> StabilityReport:
    """Edge selection frequencies over resamples plus the stable-edge set."""
    selections = [_norm_pairs(s) for s in selections]
    if len(selections) < 2:
        raise ValueError("need at least 2 resamples")
    counts: dict = {}
    for sel in selections:
        for pair in sel:
            counts[pair] = counts.get(pair, 0) + 1
    n_res = len(selections)
    freq = {pair: c / n_res for pair, c in counts.items()}
    q_hat = float(np.mean([len(s) for s in selections]))
    pi_thr = stability_threshold(q_hat, e_v, big_p)
    stable = frozenset(p for p, f in freq.items() if f >= pi_thr)
    return StabilityReport(
        selection_frequency=freq,
        pi_thr=pi_thr,
        stable_edges=stable,
        q_hat=q_hat,
        e_v=e_v,
        n_resamples=n_res,
    )
