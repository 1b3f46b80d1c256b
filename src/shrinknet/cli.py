"""Command-line front end: infer, simulate, benchmark, stability.

Every command writes a manifest alongside its outputs and derives all
randomness from a single master seed, so runs are reproducible from the
manifest alone. Exit codes: 0 ok, 2 input error, 3 numerical failure,
4 configuration error.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .benchmark import (
    METRICS_FIELDS,
    SimConfig,
    SplitConfig,
    mean_pairwise_rank_correlation,
    run_model_sim,
    run_split_harness,
)
from .data import load_expression_matrix
from .em import A_MAX, EmConfig
from .errors import (
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    ConfigError,
    GenerationFailureError,
    InputError,
    NumericalFailureError,
    ShrinkNetError,
)
from .manifest import RunManifest
from .pipeline import infer_network
from .selection import StopConfig
from .simulate import make_structure, sample_mvn, sample_precision


def default_threads() -> int:
    env = os.environ.get("SHRINKNET_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"SHRINKNET_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, FileNotFoundError) as err:
            click.echo(f"input error: {err}", err=True)
            sys.exit(EXIT_INPUT)
        except (NumericalFailureError, GenerationFailureError,
                np.linalg.LinAlgError) as err:
            click.echo(f"numerical failure: {err}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (ConfigError, ValueError) as err:
            click.echo(f"configuration error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
        except ShrinkNetError as err:  # an undefined metric or bound
            click.echo(f"undefined result: {err}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_kinds(text: str) -> tuple:
    return tuple(k.strip() for k in text.split(",") if k.strip())


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


@click.group()
@click.version_option()
def main():
    """Reconstruct gene networks with global-local shrinkage."""


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--out-dir", default=".", show_default=True,
              help="Directory for edges.tsv, fit.json and manifest.json.")
@click.option("--format", "fmt", type=click.Choice(["csv", "tsv"]),
              default=None, help="Input format (default: by extension).")
@click.option("--transpose", is_flag=True,
              help="Input has genes in rows instead of columns.")
@click.option("--no-scale", is_flag=True,
              help="Center gene columns but skip unit-variance scaling.")
@click.option("--tol", default=1e-3, show_default=True)
@click.option("--max-iter", default=1000, show_default=True)
@click.option("--no-global-shrinkage", is_flag=True,
              help="Keep the fixed non-informative shared prior.")
@click.option("--eb", type=click.Choice(["approx", "exact"]),
              default="approx", show_default=True,
              help="Hyperparameter update rule.")
@click.option("--alpha", default=0.1, show_default=True,
              help="Bound on the posterior null probability per edge.")
@click.option("--p0", default=None, type=float,
              help="Null fraction override (default: estimated).")
@click.option("--patience", default=100, show_default=True,
              help="Stop after this many consecutive rejections.")
@click.option("--no-rmax", is_flag=True,
              help="Disable the rank budget implied by the null fraction.")
@click.option("--threads", default=None, type=int,
              help="Has no effect: infer runs in one process.")
@handle_errors
def infer(input_path, out_dir, fmt, transpose, no_scale, tol, max_iter,
          no_global_shrinkage, eb, alpha, p0, patience, no_rmax, threads):
    """Infer a network from an expression matrix CSV/TSV."""
    t0 = time.monotonic()
    out = _out_dir(out_dir)
    if not Path(input_path).exists():
        raise InputError(f"no such file: {input_path}")
    if p0 is not None and not 0.0 < p0 < 1.0:
        raise ConfigError("--p0 must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("--alpha must lie in (0, 1)")
    em_config = EmConfig(tol=tol, max_iter=max_iter, eb_update=eb,
                         global_shrinkage=not no_global_shrinkage)
    stop = StopConfig(patience=patience, use_rmax=not no_rmax)
    m = load_expression_matrix(input_path, format=fmt, transpose=transpose)
    t_load = time.monotonic()
    result = infer_network(m, em_config=em_config, alpha=alpha, p0=p0,
                           stop=stop, scale=not no_scale)
    t_fit = time.monotonic()

    ranking, sel = result.ranking, result.selection
    with open(out / "edges.tsv", "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t")
        w.writerow(["gene_a", "gene_b", "rank", "kappa_bar", "bf_max",
                    "p0_bound", "selected"])
        for r, (i, j, kappa_bar) in enumerate(zip(
                ranking.i.tolist(), ranking.j.tolist(),
                ranking.kappa_bar.tolist())):
            d = r < sel.ranks_evaluated  # decided: rank r + 1 was walked
            w.writerow([
                m.gene_ids[i],
                m.gene_ids[j],
                r + 1,
                f"{kappa_bar:.10g}",
                f"{sel.bayes_factor_max[r]:.10g}" if d else "",
                f"{sel.p0_posterior_bound[r]:.10g}" if d else "",
                int(d and sel.accepted[r]),
            ])
    fit = result.fit
    fit_payload = {
        **asdict(fit.hyper),
        "global_shrinkage": not no_global_shrinkage,
        "em_iterations": fit.em_iterations,
        "converged": fit.converged,
        "p0_hat": result.p0_hat,
        "gamma": result.selection.gamma,
        "alpha": alpha,
        "n_selected": len(result.selection.selected),
        "per_gene_lower_bound": dict(zip(m.gene_ids,
                                         fit.lower_bound.tolist())),
        "em_trajectory": fit.trajectory,
    }
    with open(out / "fit.json", "w") as fh:
        json.dump(fit_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = RunManifest(
        command="infer",
        config={
            "input": str(input_path), "format": fmt, "transpose": transpose,
            "scale": not no_scale, "tol": tol, "max_iter": max_iter,
            "global_shrinkage": not no_global_shrinkage, "eb": eb,
            "alpha": alpha, "p0": p0, "patience": patience,
            "rmax": not no_rmax,
        },
    )
    manifest.add_input(input_path)
    manifest.timings_ms = {
        "load": round((t_load - t0) * 1000, 3),
        "fit_and_select": round((t_fit - t_load) * 1000, 3),
    }
    manifest.stats = stats = {
        "em_iterations": fit.em_iterations,
        "em_converged": fit.converged,
        "em_a_at_cap": bool(fit.hyper.a >= A_MAX),
        **result.submodel_stats,
    }
    manifest.write(out)
    if not fit.converged or stats["submodel_nonconverged"]:
        click.echo("warning: EM converged={em_converged} after {em_iterations} "
                   "iterations; {submodel_nonconverged} of {submodel_fits} "
                   "sub-model fits hit the sweep cap".format(**stats), err=True)
    click.echo(
        f"selected {len(result.selection.selected)} of {len(result.ranking)} "
        f"edges (p0_hat={result.p0_hat:.4f}, gamma={result.selection.gamma:.4g})"
    )


@main.command()
@click.option("--kind", required=True, help="band, cluster, hub or random.")
@click.option("--p", "n_genes", default=100, show_default=True)
@click.option("--n", "n_samples", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--dof", default=4.0, show_default=True,
              help="Degrees of freedom of the precision draw.")
@click.option("--bandwidth", default=None, type=int)
@click.option("--blocks", default=None,
              help="Comma-separated block sizes for cluster/hub.")
@click.option("--density", default=None, type=float,
              help="Edge probability for the random kind.")
@click.option("--out-dir", default=".", show_default=True)
@handle_errors
def simulate(kind, n_genes, n_samples, seed, dof, bandwidth, blocks, density,
             out_dir):
    """Generate a synthetic network, precision matrix and data matrix."""
    t0 = time.monotonic()
    params = {}
    if bandwidth is not None:
        params["bandwidth"] = bandwidth
    if blocks is not None:
        params["block_sizes"] = _parse_int_list(blocks)
    if density is not None:
        params["density"] = density
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = make_structure(kind, n_genes, params=params, rng=rng)
    omega = sample_precision(g, dof=dof, rng=rng)
    data = sample_mvn(omega, n_samples, rng=rng)
    out = _out_dir(out_dir)
    np.savetxt(out / "precision.csv", omega.omega, delimiter=",",
               fmt="%.12g")
    with open(out / "adjacency.tsv", "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t")
        w.writerow(["gene_a", "gene_b"])
        for i, j in sorted(g.edges):
            w.writerow([data.gene_ids[i], data.gene_ids[j]])
    with open(out / "data.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(data.gene_ids)
        for row in data.values:
            w.writerow([f"{x:.12g}" for x in row])
    manifest = RunManifest(
        command="simulate",
        config={
            "kind": kind, "p": n_genes, "n": n_samples, "dof": dof,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in g.params.items()},
            "edge_count": g.edge_count, "density": g.density,
        },
        seed=seed,
    )
    manifest.timings_ms = {"total": round((time.monotonic() - t0) * 1000, 3)}
    manifest.write(out)
    click.echo(
        f"{kind} graph: p={n_genes}, |E|={g.edge_count} "
        f"(density {g.density:.4f}), n={n_samples}"
    )


@main.command()
@click.option("--kinds", default="band", show_default=True,
              help="Comma-separated graph kinds.")
@click.option("--p", "n_genes", default=50, show_default=True)
@click.option("--n", "n_list", default="25,50,100", show_default=True,
              help="Comma-separated sample sizes.")
@click.option("--reps", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--alpha", default=0.1, show_default=True)
@click.option("--dof", default=4.0, show_default=True)
@click.option("--threads", default=None, type=int)
@click.option("--out-dir", default=".", show_default=True)
@handle_errors
def benchmark(kinds, n_genes, n_list, reps, seed, alpha, dof, threads,
              out_dir):
    """Run the model-based benchmark over synthetic networks."""
    t0 = time.monotonic()
    config = SimConfig(
        kinds=_parse_kinds(kinds),
        p=n_genes,
        n_list=_parse_int_list(n_list),
        reps=reps,
        seed=seed,
        alpha=alpha,
        dof=dof,
        threads=threads if threads is not None else default_threads(),
    )
    out = _out_dir(out_dir)
    result = run_model_sim(config)
    with open(out / "metrics.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=METRICS_FIELDS, restval="")
        w.writeheader()
        w.writerows(result.rows)
    with open(out / "summary.json", "w") as fh:
        json.dump(
            {"cells": result.summary, "n_failed": result.n_failed},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    manifest = RunManifest(
        command="benchmark",
        config={
            "kinds": list(config.kinds), "p": config.p,
            "n_list": list(config.n_list), "reps": reps, "alpha": alpha,
            "dof": dof, "threads": config.threads,
        },
        seed=seed,
    )
    manifest.timings_ms = {"total": round((time.monotonic() - t0) * 1000, 3)}
    manifest.write(out)
    click.echo(
        f"{len(result.rows)} metric rows ({result.n_failed} failed reps) "
        f"-> {out / 'metrics.csv'}"
    )


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--n-small", required=True, type=int,
              help="Rows in the small half of each split.")
@click.option("--resamples", default=100, show_default=True)
@click.option("--ev", default=30.0, show_default=True,
              help="Expected-false-edge budget of the stability bound.")
@click.option("--seed", default=0, show_default=True)
@click.option("--alpha", default=0.1, show_default=True)
@click.option("--no-validate", is_flag=True,
              help="Skip the large-split validation fits.")
@click.option("--threads", default=None, type=int)
@click.option("--format", "fmt", type=click.Choice(["csv", "tsv"]),
              default=None)
@click.option("--transpose", is_flag=True)
@click.option("--out-dir", default=".", show_default=True)
@handle_errors
def stability(input_path, n_small, resamples, ev, seed, alpha, no_validate,
              threads, fmt, transpose, out_dir):
    """Random-split stability and reproducibility of edge selection."""
    t0 = time.monotonic()
    out = _out_dir(out_dir)
    if not Path(input_path).exists():
        raise InputError(f"no such file: {input_path}")
    m = load_expression_matrix(input_path, format=fmt, transpose=transpose)
    cfg = SplitConfig(
        n_small=n_small,
        resamples=resamples,
        seed=seed,
        alpha=alpha,
        e_v=ev,
        threads=threads if threads is not None else default_threads(),
        validate_on_large=not no_validate,
    )
    result = run_split_harness(m, cfg)
    payload = {}
    for method in cfg.methods:
        rep = result.stability[method]
        entry = {
            "pi_thr": rep.pi_thr,
            "q_hat": rep.q_hat,
            "e_v": rep.e_v,
            "n_resamples": rep.n_resamples,
            "stable_edges": sorted(
                [m.gene_ids[i], m.gene_ids[j]] for i, j in rep.stable_edges
            ),
            "mean_rank_correlation": mean_pairwise_rank_correlation(
                result.per_split, method
            ),
        }
        if not no_validate:
            pairs = result.validation[method]
            entry["validation_tpr_mean"] = float(
                np.mean([t for t, _ in pairs])
            )
            entry["validation_fpr_mean"] = float(
                np.mean([f for _, f in pairs])
            )
        payload[method] = entry
    with open(out / "stability.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "frequencies.tsv", "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t")
        w.writerow(["method", "gene_a", "gene_b", "frequency", "stable"])
        for method in cfg.methods:
            rep = result.stability[method]
            for (i, j), f in sorted(rep.selection_frequency.items()):
                w.writerow([
                    method, m.gene_ids[i], m.gene_ids[j], f"{f:.6g}",
                    int((i, j) in rep.stable_edges),
                ])
    manifest = RunManifest(
        command="stability",
        config={
            "input": str(input_path), "format": fmt, "transpose": transpose,
            "n_small": n_small, "resamples": resamples, "e_v": ev,
            "alpha": alpha, "validate": not no_validate, "threads": cfg.threads,
        },
        seed=seed,
    )
    manifest.add_input(input_path)
    manifest.timings_ms = {"total": round((time.monotonic() - t0) * 1000, 3)}
    manifest.write(out)
    for method in cfg.methods:
        rep = result.stability[method]
        click.echo(
            f"{method}: pi_thr={rep.pi_thr:.4f}, q_hat={rep.q_hat:.2f}, "
            f"{len(rep.stable_edges)} stable edges"
        )


if __name__ == "__main__":
    main()
