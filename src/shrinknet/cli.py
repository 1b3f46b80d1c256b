"""Command-line front end: infer, simulate, benchmark, stability.

Every command runs one skeleton (``command``): validate every setting,
check and load the input, create ``--out-dir`` (``infer`` does so after
its fit, which can still reject the input), run, write the outputs,
write ``manifest.json``. The manifest's ``config`` holds every parameter
of the command under its own name, and all randomness derives from one
master seed, so ``manifest_argv`` rebuilds a command line that reruns the
run with byte-identical outputs; ``tests/test_cli.py`` checks both.
Exit codes: 0 ok, 2 input error, 3 numerical failure, 4 configuration
error.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .benchmark import (
    DEFAULT_EV,
    METRICS_FIELDS,
    SimConfig,
    SplitConfig,
    mean_pairwise_rank_correlation,
    run_model_sim,
    run_split_harness,
)
from .data import load_expression_matrix
from .em import A_MAX, DEFAULT_MAX_ITER, DEFAULT_TOL, EmConfig
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
from .manifest import write_json, write_manifest
from .metrics import check_split_size
from .pipeline import infer_network
from .selection import StopConfig
from .simulate import (check_seed, make_structure, sample_mvn,
                       sample_precision)


def default_threads() -> int:
    """``SHRINKNET_THREADS`` when set, else the CPU count."""
    env = os.environ.get("SHRINKNET_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not (env.strip().isdigit() and int(env) >= 1):
        raise ConfigError(
            f"SHRINKNET_THREADS must be a positive integer, got {env!r}")
    return int(env)


class Run:
    """One command's run: its output directory, its stage clock and the
    values it resolved and counted, which go into its manifest."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.start = self._mark = time.monotonic()
        self.timings_ms = {}
        self.resolved = {}
        self.stats = {}

    def stage(self, name):
        """Record the time since the last stage ended as stage ``name``."""
        now = time.monotonic()
        self.timings_ms[name] = round((now - self._mark) * 1000, 3)
        self._mark = now

    def load(self, path, fmt, transpose):
        m = load_expression_matrix(path, format=fmt, transpose=transpose)
        self.stage("load")
        return m

    def create_out_dir(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir


def command(fn):
    """The skeleton of every command. ``fn(run, **params)`` validates every
    setting, loads its input with ``run.load``, creates ``--out-dir`` with
    ``run.create_out_dir``, runs, writes its outputs and returns the line
    to print. Then the manifest is written from the command's parameters
    and what ``run`` collected; any error exits with its code."""

    @functools.wraps(fn)
    def wrapper(out_dir, **params):
        try:
            run = Run(out_dir)
            message = fn(run, **params)
            run.timings_ms["total"] = round(
                (time.monotonic() - run.start) * 1000, 3)
            ctx = click.get_current_context()
            write_manifest(run.out_dir, ctx.command.name, ctx.params,
                           resolved=run.resolved, timings_ms=run.timings_ms,
                           stats=run.stats)
            click.echo(message)
        except (InputError, OSError) as err:
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


def manifest_argv(manifest: dict, out_dir=None) -> list:
    """The command line that reruns the run ``manifest`` records, writing
    into ``out_dir`` if given. Relative input paths resolve against the
    directory the run started in. A ``config`` key that the command no
    longer has raises ``ConfigError``: the run could not be repeated."""
    config = dict(manifest["config"])
    if out_dir is not None:
        config["out_dir"] = str(out_dir)
    params = main.commands[manifest["command"]].params
    unknown = sorted(config.keys() - {p.name for p in params} - {"resolved"})
    if unknown:
        raise ConfigError(f"{manifest['command']} has no parameter "
                          f"{', '.join(unknown)} of the recorded run")
    argv = [manifest["command"]]
    for param in params:
        value = config[param.name]
        if isinstance(param, click.Argument):
            argv.append(str(value))
        elif param.is_flag:
            argv += [param.opts[0]] if value else []
        elif value is not None:
            argv += [param.opts[0], str(value)]
    return argv


def _write_table(path: Path, header, rows):
    """A header and rows, tab-separated in a .tsv file, else comma."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, delimiter="\t" if path.suffix == ".tsv" else ",")
        w.writerow(header)
        w.writerows(rows)


def _parse_list(text: str, item=str) -> tuple:
    try:
        return tuple(item(x.strip()) for x in text.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"expected comma-separated {item.__name__} values, "
                          f"got {text!r}") from None


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
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
@click.option("--max-iter", default=DEFAULT_MAX_ITER, show_default=True)
@click.option("--no-global-shrinkage", is_flag=True,
              help="Keep the fixed non-informative shared prior.")
@click.option("--alpha", default=0.1, show_default=True,
              help="Bound on the posterior null probability per edge.")
@click.option("--p0", default=None, type=float,
              help="Null fraction override (default: estimated).")
@click.option("--patience", default=StopConfig().patience, show_default=True,
              help="Stop after this many consecutive rejections.")
@click.option("--no-rmax", is_flag=True,
              help="Disable the rank budget implied by the null fraction.")
@click.option("--threads", default=None, type=int,
              help="Has no effect: infer runs in one process.")
@command
def infer(run, input_path, fmt, transpose, no_scale, tol, max_iter,
          no_global_shrinkage, alpha, p0, patience, no_rmax, threads):
    """Infer a network from an expression matrix CSV/TSV."""
    if p0 is not None and not 0.0 < p0 < 1.0:
        raise ConfigError("--p0 must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ConfigError("--alpha must lie in (0, 1)")
    em_config = EmConfig(tol=tol, max_iter=max_iter,
                         global_shrinkage=not no_global_shrinkage)
    stop = StopConfig(patience=patience, use_rmax=not no_rmax)
    m = run.load(input_path, fmt, transpose)
    result = infer_network(m, em_config=em_config, alpha=alpha, p0=p0,
                           stop=stop, scale=not no_scale)
    run.stage("fit_and_select")
    # created once the fit succeeds, so a failed fit leaves no --out-dir
    out = run.create_out_dir()

    ranking, sel, fit = result.ranking, result.selection, result.fit

    def edge_rows():  # streamed: there are p(p - 1)/2 of them
        for r, (i, j, kappa_bar) in enumerate(zip(
                ranking.i.tolist(), ranking.j.tolist(),
                ranking.kappa_bar.tolist())):
            d = r < sel.ranks_evaluated  # decided: rank r + 1 was walked
            yield [
                m.gene_ids[i],
                m.gene_ids[j],
                r + 1,
                f"{kappa_bar:.10g}",
                f"{sel.bayes_factor_max[r]:.10g}" if d else "",
                f"{sel.p0_posterior_bound[r]:.10g}" if d else "",
                int(d and sel.accepted[r]),
            ]

    _write_table(out / "edges.tsv", ["gene_a", "gene_b", "rank", "kappa_bar",
                                     "bf_max", "p0_bound", "selected"],
                 edge_rows())
    write_json(out / "fit.json", {
        **asdict(fit.hyper),
        "global_shrinkage": not no_global_shrinkage,
        "em_iterations": fit.em_iterations,
        "converged": fit.converged,
        "p0_hat": result.p0_hat,
        "gamma": sel.gamma,
        "alpha": alpha,
        "n_selected": len(sel.selected),
        "per_gene_lower_bound": dict(zip(m.gene_ids,
                                         fit.lower_bound.tolist())),
        "em_trajectory": fit.trajectory,
    })
    run.stage("write")
    run.timings_ms.update((name, round(ms, 3))
                          for name, ms in result.timings_ms.items())
    run.stats = stats = {
        "em_iterations": fit.em_iterations,
        "em_converged": fit.converged,
        "em_a_at_cap": bool(fit.hyper.a >= A_MAX),
        **result.submodel_stats,
    }
    if not fit.converged:
        click.echo(f"warning: EM converged=False after {fit.em_iterations} "
                   "iterations", err=True)
    return (f"selected {len(sel.selected)} of {len(ranking)} edges "
            f"(p0_hat={result.p0_hat:.4f}, gamma={sel.gamma:.4g})")


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
@command
def simulate(run, kind, n_genes, n_samples, seed, dof, bandwidth, blocks,
             density):
    """Generate a synthetic network, precision matrix and data matrix."""
    params = {}
    if bandwidth is not None:
        params["bandwidth"] = bandwidth
    if blocks is not None:
        params["block_sizes"] = _parse_list(blocks, int)
    if density is not None:
        params["density"] = density
    # the draw is this command's input: any setting it rejects, and any
    # failed draw, leaves --out-dir uncreated
    check_seed(seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    g = make_structure(kind, n_genes, params=params, rng=rng)
    omega = sample_precision(g, dof=dof, rng=rng)
    data = sample_mvn(omega, n_samples, rng=rng)
    run.resolved = {"structure_params": g.params,
                    "edge_count": g.edge_count, "graph_density": g.density}
    out = run.create_out_dir()
    np.savetxt(out / "precision.csv", omega.omega, delimiter=",",
               fmt="%.12g")
    _write_table(out / "adjacency.tsv", ["gene_a", "gene_b"],
                 ([data.gene_ids[i], data.gene_ids[j]]
                  for i, j in sorted(g.edges)))
    _write_table(out / "data.csv", data.gene_ids,
                 ([f"{x:.12g}" for x in row] for row in data.values))
    return (f"{kind} graph: p={n_genes}, |E|={g.edge_count} "
            f"(density {g.density:.4f}), n={n_samples}")


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
@command
def benchmark(run, kinds, n_genes, n_list, reps, seed, alpha, dof, threads):
    """Run the model-based benchmark over synthetic networks."""
    config = SimConfig(
        kinds=_parse_list(kinds),
        p=n_genes,
        n_list=_parse_list(n_list, int),
        reps=reps,
        seed=seed,
        alpha=alpha,
        dof=dof,
        threads=threads if threads is not None else default_threads(),
    )
    run.resolved = {"kinds": config.kinds, "n_list": config.n_list,
                    "threads": config.threads}
    out = run.create_out_dir()
    result = run_model_sim(config)
    _write_table(out / "metrics.csv", METRICS_FIELDS,
                 ([row.get(f, "") for f in METRICS_FIELDS]
                  for row in result.rows))
    write_json(out / "summary.json",
               {"cells": result.summary, "n_failed": result.n_failed})
    return (f"{len(result.rows)} metric rows ({result.n_failed} failed reps) "
            f"-> {out / 'metrics.csv'}")


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--n-small", required=True, type=int,
              help="Rows in the small half of each split.")
@click.option("--resamples", default=100, show_default=True)
@click.option("--ev", default=DEFAULT_EV, show_default=True,
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
@command
def stability(run, input_path, n_small, resamples, ev, seed, alpha,
              no_validate, threads, fmt, transpose):
    """Random-split stability and reproducibility of edge selection."""
    cfg = SplitConfig(
        n_small=n_small,
        resamples=resamples,
        seed=seed,
        alpha=alpha,
        e_v=ev,
        threads=threads if threads is not None else default_threads(),
        validate_on_large=not no_validate,
    )
    run.resolved = {"threads": cfg.threads}
    m = run.load(input_path, fmt, transpose)
    check_split_size(m.n_samples, n_small)
    out = run.create_out_dir()
    result = run_split_harness(m, cfg)
    payload = {}
    for method, rep in result.stability.items():
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
    write_json(out / "stability.json", payload)
    _write_table(out / "frequencies.tsv",
                 ["method", "gene_a", "gene_b", "frequency", "stable"],
                 ([method, m.gene_ids[i], m.gene_ids[j], f"{f:.6g}",
                   int((i, j) in rep.stable_edges)]
                  for method, rep in result.stability.items()
                  for (i, j), f in sorted(rep.selection_frequency.items())))
    return "\n".join(
        f"{method}: pi_thr={rep.pi_thr:.4f}, q_hat={rep.q_hat:.2f}, "
        f"{len(rep.stable_edges)} stable edges"
        for method, rep in result.stability.items())

if __name__ == "__main__":
    main()
