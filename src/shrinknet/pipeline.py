"""End-to-end inference: fit, rank, estimate the null fraction, select."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix, standardize
from .em import EmConfig, SemFit, fit_sem
from .selection import (
    EdgeRanking,
    EvidenceCache,
    SelectionResult,
    StopConfig,
    estimate_p0,
    forward_select,
    kappa_scores,
    rank_edges,
)


@dataclass
class InferenceResult:
    fit: SemFit
    kappa: np.ndarray
    ranking: EdgeRanking
    p0_hat: float
    selection: SelectionResult
    #: sub-model fits, sweeps and non-converged fits of the evidence cache,
    #: and its look-ahead fits that no lookup used
    submodel_stats: dict
    #: milliseconds per stage: standardize, spectrum (the EM's one
    #: spectral setup), em (the rest of the EM), rank, p0 and select
    timings_ms: dict


def infer_network(
    m: ExpressionMatrix,
    em_config: EmConfig = EmConfig(),
    alpha: float = 0.1,
    p0: float | None = None,
    stop: StopConfig = StopConfig(),
    pre_standardized: bool = False,
    scale: bool = True,
) -> InferenceResult:
    """Run the full pipeline on an expression matrix.

    When ``p0`` is given the rank-wise estimation pass is skipped. Each
    stage is timed; ``standardize`` reads 0 when ``pre_standardized``.
    """
    timings_ms = {}
    mark = time.perf_counter()

    def stage(name):
        nonlocal mark
        now = time.perf_counter()
        timings_ms[name] = (now - mark) * 1000.0
        mark = now

    if not pre_standardized:
        m = standardize(m, scale=scale)
    stage("standardize")
    fit = fit_sem(m, em_config)
    timings_ms["spectrum"] = fit.spectrum_ms
    stage("em")
    timings_ms["em"] -= fit.spectrum_ms
    kappa = kappa_scores(fit)
    ranking = rank_edges(kappa)
    stage("rank")
    cache = EvidenceCache(m)
    p0_hat = estimate_p0(m, ranking, cache=cache) if p0 is None else p0
    stage("p0")
    selection = forward_select(
        m, ranking, alpha=alpha, p0=p0_hat, stop=stop, cache=cache
    )
    stage("select")
    return InferenceResult(
        fit=fit,
        kappa=kappa,
        ranking=ranking,
        p0_hat=p0_hat,
        selection=selection,
        submodel_stats=dict(cache.stats),
        timings_ms=timings_ms,
    )
