"""Simulation drivers: the model-based benchmark over synthetic graphs and
the random-splitting reproducibility/stability harness.

Every task derives its own RNG stream from (master seed, task index), so
results are bit-reproducible and independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .data import ExpressionMatrix, standardize
from .em import EmConfig
from .errors import GenerationFailureError, InvalidParamsError
from .metrics import (
    confusion,
    partial_roc,
    random_split,
    rank_correlation,
    scores,
    stability_report,
)
from .pipeline import infer_network
from .simulate import (
    check_dof,
    check_seed,
    default_structure_params,
    make_structure,
    sample_mvn,
    sample_precision,
)

#: Expected-false-edge budget used by the stability harness by default.
DEFAULT_EV = 30.0

METHODS = ("shrinknet", "noshrink")

#: Columns of ``metrics.csv``, one row per (kind, n, rep, method).
METRICS_FIELDS = ("kind", "n", "rep", "method", "tpr", "fpr", "precision",
                  "f_score", "pauc", "n_selected", "p0_true", "p0_hat", "a",
                  "b", "em_iterations", "em_converged", "error")

_PRECISION_RETRIES = 10


def _check_methods(methods) -> None:
    for meth in methods:
        if meth not in METHODS:
            raise InvalidParamsError(
                f"unknown method {meth!r}; valid methods: "
                f"{', '.join(METHODS)}"
            )


def _map_tasks(fn, tasks, threads: int) -> list:
    """``fn`` of each task, in task order: in this process at one thread,
    else on a pool of ``threads`` worker processes, whose module is
    imported only then, to keep it out of the command line's start-up."""
    if threads == 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks))


@dataclass(frozen=True)
class SimConfig:
    kinds: tuple = ("band",)
    p: int = 50
    n_list: tuple = (25, 50, 100)
    reps: int = 10
    seed: int = 0
    alpha: float = 0.1
    dof: float = 4.0
    methods: tuple = METHODS
    threads: int = 1

    def __post_init__(self):
        check_dof(self.dof)
        check_seed(self.seed)
        if not (self.kinds and self.n_list and self.reps >= 1
                and self.threads >= 1 and self.p >= 2
                and all(n >= 2 for n in self.n_list)
                and 0.0 < self.alpha < 1.0):
            raise InvalidParamsError(
                "kinds and n_list must be nonempty, reps and threads at "
                "least 1, p and every n at least 2 and alpha in (0, 1)")
        for kind in self.kinds:  # a kind unknown, or that cannot tile p
            default_structure_params(kind, self.p)
        _check_methods(self.methods)


def em_config_for(method: str) -> EmConfig:
    """The EM settings of ``method``: the ``EmConfig`` defaults, with global
    shrinkage for ``shrinknet`` only."""
    return EmConfig(global_shrinkage=(method == "shrinknet"))


def _simulate_dataset(kind: str, p: int, n: int, dof: float, rng):
    """Structure, precision (with retries on rare completion failures), data."""
    g = make_structure(kind, p, rng=rng)
    last_err = None
    for _ in range(_PRECISION_RETRIES):
        try:
            omega = sample_precision(g, dof=dof, rng=rng)
            break
        except GenerationFailureError as err:
            last_err = err
    else:
        raise GenerationFailureError(
            f"precision generation failed after {_PRECISION_RETRIES} "
            f"attempts: {last_err}"
        )
    data = sample_mvn(omega, n, rng=rng)
    return g, omega, data


def _run_sim_task(args):
    config, kind, n, rep, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    rows = []
    try:
        g, _, data = _simulate_dataset(kind, config.p, n, config.dof, rng)
        std = standardize(data)
        p0_true = 1.0 - g.edge_count / (config.p * (config.p - 1) / 2)
        for method in config.methods:
            result = infer_network(
                std,
                em_config=em_config_for(method),
                alpha=config.alpha,
                pre_standardized=True,
            )
            _, pauc = partial_roc(result.ranking, g)
            tpr, fpr, precision, f = scores(
                confusion(result.selection.selected, g.edges, g.p)
            )
            rows.append(
                {
                    "kind": kind,
                    "n": n,
                    "rep": rep,
                    "method": method,
                    "tpr": tpr,
                    "fpr": fpr,
                    "precision": precision,
                    "f_score": f,
                    "pauc": pauc,
                    "n_selected": len(result.selection.selected),
                    "p0_true": p0_true,
                    "p0_hat": result.p0_hat,
                    "a": result.fit.hyper.a,
                    "b": result.fit.hyper.b,
                    "em_iterations": result.fit.em_iterations,
                    "em_converged": result.fit.converged,
                    "error": "",
                }
            )
    except Exception as err:  # record failed replicates, never drop them
        rows.append(
            {
                "kind": kind,
                "n": n,
                "rep": rep,
                "method": "",
                "error": f"{type(err).__name__}: {err}",
            }
        )
    return rows


@dataclass
class SimResult:
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    n_failed: int = 0


def run_model_sim(config: SimConfig) -> SimResult:
    """Benchmark both fit modes over replicated synthetic networks."""
    tasks = []
    root = np.random.SeedSequence(config.seed)
    combos = [
        (kind, n, rep)
        for kind in config.kinds
        for n in config.n_list
        for rep in range(config.reps)
    ]
    children = root.spawn(len(combos))
    for (kind, n, rep), child in zip(combos, children):
        tasks.append((config, kind, n, rep, child))
    chunks = _map_tasks(_run_sim_task, tasks, config.threads)
    rows = [row for chunk in chunks for row in chunk]
    ok = [r for r in rows if not r["error"]]
    failed = [r for r in rows if r["error"]]
    summary = []
    for kind in config.kinds:
        for n in config.n_list:
            for method in config.methods:
                cell = [
                    r
                    for r in ok
                    if r["kind"] == kind and r["n"] == n
                    and r["method"] == method
                ]
                if not cell:
                    continue
                entry = {"kind": kind, "n": n, "method": method,
                         "reps": len(cell)}
                for key in ("tpr", "fpr", "f_score", "pauc"):
                    vals = np.array([r[key] for r in cell])
                    entry[f"{key}_mean"] = float(vals.mean())
                    entry[f"{key}_sd"] = float(vals.std(ddof=1)) if len(
                        vals
                    ) > 1 else 0.0
                summary.append(entry)
    return SimResult(rows=rows, summary=summary, n_failed=len(failed))


@dataclass(frozen=True)
class SplitConfig:
    n_small: int
    resamples: int = 100
    seed: int = 0
    alpha: float = 0.1
    e_v: float = DEFAULT_EV
    methods: tuple = METHODS
    threads: int = 1
    validate_on_large: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        _check_methods(self.methods)
        # written so that NaN fails each comparison
        if not (self.e_v > 0 and 0.0 < self.alpha < 1.0
                and self.resamples >= 2 and self.threads >= 1):
            raise InvalidParamsError(
                "e_v must be positive, alpha in (0, 1), resamples at "
                "least 2 and threads at least 1")


def _run_split_task(args):
    values, gene_ids, sample_ids, cfg, seed_seq = args
    m = ExpressionMatrix(values, gene_ids, sample_ids)
    rng = np.random.default_rng(seed_seq)
    small, large = random_split(m, cfg.n_small, rng=rng)
    out = {}
    for method in cfg.methods:
        em = em_config_for(method)
        res_small = infer_network(standardize(small), em_config=em,
                                  alpha=cfg.alpha, pre_standardized=True)
        ranking = res_small.ranking
        entry = {
            "selected_small": sorted(res_small.selection.selected),
            # scores in (i, j)-ascending order, alike across splits
            "kappa_bar_small": ranking.kappa_bar[
                np.lexsort((ranking.j, ranking.i))],
        }
        if cfg.validate_on_large:
            res_large = infer_network(standardize(large), em_config=em,
                                      alpha=cfg.alpha, pre_standardized=True)
            entry["selected_large"] = sorted(res_large.selection.selected)
        out[method] = entry
    return out


@dataclass
class SplitHarnessResult:
    stability: dict  # method -> StabilityReport
    per_split: list  # list of per-split dicts, split order
    validation: dict  # method -> list of (tpr, fpr) vs own large-split set


def run_split_harness(m: ExpressionMatrix, cfg: SplitConfig) -> SplitHarnessResult:
    """Repeated random splits: stability frequencies and, optionally,
    small-split selections validated against the method's own large-split
    selection."""
    p = m.n_genes
    big_p = p * (p - 1) // 2
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.resamples)
    tasks = [(m.values, m.gene_ids, m.sample_ids, cfg, child)
             for child in children]
    per_split = _map_tasks(_run_split_task, tasks, cfg.threads)
    stability = {}
    validation = {}
    for method in cfg.methods:
        selections = [out[method]["selected_small"] for out in per_split]
        stability[method] = stability_report(selections, cfg.e_v, big_p)
        if cfg.validate_on_large:
            validation[method] = [
                scores(confusion(out[method]["selected_small"],
                                 out[method]["selected_large"], p))[:2]
                for out in per_split
            ]
    return SplitHarnessResult(
        stability=stability,
        per_split=per_split,
        validation=validation,
    )


def mean_pairwise_rank_correlation(per_split, method: str) -> float:
    """Average Spearman correlation of the edge scores across split pairs;
    every split holds its scores in the same (i, j) order."""
    vectors = [out[method]["kappa_bar_small"] for out in per_split]
    rhos = [rank_correlation(a, b) for a, b in combinations(vectors, 2)]
    return float(np.mean(rhos))
