"""Seeded inputs for each workload and the checks on the program's outputs.

The ``infer-*`` inputs come from a chain (band of width 1) precision
matrix built here, so the true graph is known without shrinknet.simulate.
Every check recomputes what it compares against: the dense oracle for
evidences and the EM fixed point, this file's own ROC and confusion counts
for quality and consistency.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle

#: off-diagonal precision entry of the chain graph; partial correlation
#: between neighbours is -CHAIN_OMEGA (the matrix is PD for |omega| < 0.5)
CHAIN_OMEGA = 0.45
#: each sub-model fit stops once its bound moves by < 1e-3 in a sweep; the
#: oracle runs to 1e-10. Both evidences of a log Bayes factor sit within a
#: few such steps of their fixed points (3.5e-5 apart at most, measured).
LOG_BF_TOL = 5e-3
#: the EM stops once no gene's bound moves by < 1e-3 in an iteration while
#: the prior shape a is still rising, so each gene's state lags the fixed
#: point at the final (a, b) by one sweep: kappa_bar reads ~0.25% low
KAPPA_REL_TOL = 0.01
#: evaluated rows, drawn with the seed, whose bf_max the oracle recomputes
#: on top of every selected row
EVIDENCE_SAMPLE = 12
EDGES_HEADER = ["gene_a", "gene_b", "rank", "kappa_bar", "bf_max",
                "p0_bound", "selected"]


def chain_data(p: int, n: int, seed: int) -> np.ndarray:
    """n draws from N(0, Omega^-1), Omega = I + omega on the first
    off-diagonals."""
    omega = np.eye(p)
    i = np.arange(p - 1)
    omega[i, i + 1] = omega[i + 1, i] = CHAIN_OMEGA
    chol = np.linalg.cholesky(omega)
    z = np.random.default_rng(seed).standard_normal((n, p))
    # x = L^-T z has covariance (L L^T)^-1 = Omega^-1
    return np.linalg.solve(chol.T, z.T).T


def standardize(x: np.ndarray) -> np.ndarray:
    x = x - x.mean(axis=0)
    return x / x.std(axis=0, ddof=1)


def write_csv(path: Path, x: np.ndarray, gene_ids) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(gene_ids)
        for row in x:
            w.writerow([repr(float(v)) for v in row])


def partial_auc(labels_by_rank, kappa_by_rank, fpr_max=0.2) -> float:
    """Area under the ROC of a ranking up to fpr_max, divided by fpr_max.

    Tied scores enter together, as one diagonal step.
    """
    labels = np.asarray(labels_by_rank, dtype=bool)
    kappa = np.asarray(kappa_by_rank, dtype=float)
    n_pos, n_neg = int(labels.sum()), int((~labels).sum())
    ends = np.flatnonzero(np.append(kappa[1:] != kappa[:-1], True))
    tpr = np.concatenate([[0.0], np.cumsum(labels)[ends] / n_pos])
    fpr = np.concatenate([[0.0], np.cumsum(~labels)[ends] / n_neg])
    cut = np.searchsorted(fpr, fpr_max, side="right")
    xs, ys = list(fpr[:cut]), list(tpr[:cut])
    if cut < len(fpr) and xs[-1] < fpr_max:
        x0, x1, y0, y1 = fpr[cut - 1], fpr[cut], tpr[cut - 1], tpr[cut]
        xs.append(fpr_max)
        ys.append(y0 + (y1 - y0) * (fpr_max - x0) / (x1 - x0))
    return float(np.trapezoid(ys, xs) / fpr_max)


def _read_edges(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    return rows[0], rows[1:]


def _close(x: float, y: float, rel: float) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=0.0)


@dataclass
class InferWorkload:
    """``shrinknet infer`` on a chain-graph matrix of p genes, n samples.

    With ``fixed_p0`` the true null fraction is passed as ``--p0``, which
    skips the rank-wise p0 scan.
    """

    p: int
    n: int
    fixed_p0: bool
    pauc_floor: float
    #: top edges whose kappa_bar the oracle recomputes at the fitted (a, b)
    fixed_point_sample: int = 0

    outputs = ("edges.tsv", "fit.json")

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.x = chain_data(self.p, self.n, seed)
        self.gene_ids = [f"g{i + 1:03d}" for i in range(self.p)]
        self.input_path = workdir / "data.csv"
        write_csv(self.input_path, self.x, self.gene_ids)
        big_p = self.p * (self.p - 1) // 2
        self.null_fraction = 1.0 - (self.p - 1) / big_p

    def cli_args(self, out_dir: Path) -> list[str]:
        args = ["infer", str(self.input_path), "--out-dir", str(out_dir),
                "--threads", "1"]
        if self.fixed_p0:
            args += ["--p0", repr(self.null_fraction)]
        return args

    def check(self, out_dir: Path) -> list[str]:
        errors: list[str] = []
        header, rows = _read_edges(out_dir / "edges.tsv")
        with open(out_dir / "fit.json") as fh:
            fit = json.load(fh)
        if header != EDGES_HEADER:
            return [f"edges.tsv header {header}"]
        index = {g: k for k, g in enumerate(self.gene_ids)}
        big_p = self.p * (self.p - 1) // 2
        edges = []
        for r in rows:
            i, j = sorted((index[r[0]], index[r[1]]))
            edges.append({
                "i": i, "j": j, "rank": int(r[2]), "kappa": float(r[3]),
                "bf": float(r[4]) if r[4] else None,
                "bound": float(r[5]) if r[5] else None,
                "selected": r[6] == "1",
            })
        edges.sort(key=lambda e: e["rank"])
        pairs = {(e["i"], e["j"]) for e in edges}
        if len(edges) != big_p or len(pairs) != big_p or any(
                e["i"] == e["j"] for e in edges):
            errors.append("edges.tsv does not list every unordered pair once")
        if [e["rank"] for e in edges] != list(range(1, big_p + 1)):
            errors.append("edges.tsv ranks are not 1..P")
        kappas = [e["kappa"] for e in edges]
        if any(b > a for a, b in zip(kappas, kappas[1:])):
            errors.append("kappa_bar increases with rank")

        p0, alpha = fit["p0_hat"], fit["alpha"]
        if self.fixed_p0 and p0 != self.null_fraction:
            errors.append(f"p0_hat {p0} is not the given {self.null_fraction}")
        if not 0.0 < p0 < 1.0:
            return errors + [f"p0_hat {p0} outside (0, 1)"]
        gamma = (1.0 - alpha) * p0 / (alpha * (1.0 - p0))
        if not _close(gamma, fit["gamma"], 1e-12):
            errors.append(f"gamma {fit['gamma']} != recomputed {gamma}")
        evaluated = [e for e in edges if e["bf"] is not None]
        if [e["rank"] for e in evaluated] != list(
                range(1, len(evaluated) + 1)):
            errors.append("evaluated rows are not a prefix of the ranking")
        for e in edges:
            if e["bf"] is None:
                if e["selected"]:
                    errors.append(f"rank {e['rank']} selected, not evaluated")
                continue
            # bf_max is printed to 10 digits: decide only where that
            # rounding cannot flip the comparison
            if not _close(e["bf"], gamma, 1e-9) and (
                    e["selected"] != (e["bf"] > gamma)):
                errors.append(f"rank {e['rank']}: selected={e['selected']} "
                              f"but bf_max={e['bf']}, gamma={gamma}")
            if e["selected"] and e["bound"] > alpha * (1 + 1e-9):
                errors.append(f"rank {e['rank']}: selected with p0_bound "
                              f"{e['bound']} > alpha")
            bound = (0.0 if math.isinf(e["bf"])
                     else p0 / (p0 + (1.0 - p0) * e["bf"]))
            if not math.isclose(e["bound"], bound, rel_tol=1e-8,
                                abs_tol=1e-300):
                errors.append(f"rank {e['rank']}: p0_bound {e['bound']} "
                              f"!= p0/(p0+(1-p0)bf) = {bound}")
        selected = [e for e in edges if e["selected"]]
        if fit["n_selected"] != len(selected):
            errors.append("fit.json n_selected disagrees with edges.tsv")
        errors += self._check_evidence(evaluated, fit)
        if self.fixed_point_sample:
            errors += self._check_fixed_point(edges, fit)
        errors += self._check_quality(edges, selected)
        return errors

    def _check_evidence(self, evaluated, fit) -> list[str]:
        """Recompute bf_max of sampled rows with the dense oracle.

        Sub-models centre the standardized data and use the unit-information
        prior a = 1/2, b = n/2 on tau^-2. Each direction conditions on the
        response's partners selected at earlier ranks.
        """
        z = standardize(self.x)
        z = z - z.mean(axis=0)
        rng = np.random.default_rng(self.seed)
        picks = set(rng.choice(len(evaluated),
                               size=min(EVIDENCE_SAMPLE, len(evaluated)),
                               replace=False).tolist())
        picks |= {k for k, e in enumerate(evaluated) if e["selected"]}
        partners = {g: [] for g in range(self.p)}
        errors = []
        evidences = {}

        def log_evidence(resp, cond):
            key = (resp, tuple(sorted(cond)))
            if key not in evidences:
                evidences[key] = oracle.vb_fit(
                    z[:, resp], z[:, list(key[1])], a=0.5, b=self.n / 2.0,
                )["elbo"]
            return evidences[key]

        for k, e in enumerate(evaluated):
            i, j = e["i"], e["j"]
            if k in picks:
                log_bf = max(
                    log_evidence(i, partners[i] + [j])
                    - log_evidence(i, partners[i]),
                    log_evidence(j, partners[j] + [i])
                    - log_evidence(j, partners[j]),
                )
                got = math.inf if math.isinf(e["bf"]) else math.log(e["bf"])
                if log_bf > 700.0:
                    ok = math.isinf(got) or got > 690.0
                else:
                    ok = abs(got - log_bf) <= LOG_BF_TOL
                if not ok:
                    errors.append(f"rank {e['rank']}: log bf_max {got:.8g} "
                                  f"differs from the oracle's by "
                                  f"{got - log_bf:.3g}")
            if e["selected"]:
                partners[i].append(j)
                partners[j].append(i)
        return errors

    def _check_fixed_point(self, edges, fit) -> list[str]:
        """kappa_bar of the top edges from dense fits at the fitted (a, b)."""
        z = standardize(self.x)
        kappa = {}

        def directed(resp, other):
            if resp not in kappa:
                rest = [g for g in range(self.p) if g != resp]
                f = oracle.vb_fit(z[:, resp], z[:, rest], a=fit["a"],
                                  b=fit["b"], c=fit["c"], d=fit["d"])
                sd = np.sqrt(np.diag(f["Sigma"]))
                kappa[resp] = dict(zip(rest, np.abs(f["mu"]) / sd))
            return kappa[resp][other]

        errors = []
        for e in edges[: self.fixed_point_sample]:
            want = 0.5 * (directed(e["i"], e["j"]) + directed(e["j"], e["i"]))
            if not _close(e["kappa"], want, KAPPA_REL_TOL):
                errors.append(f"rank {e['rank']}: kappa_bar {e['kappa']:.8g} "
                              f"differs from the oracle fixed point by a "
                              f"factor {e['kappa'] / want - 1:.3g}")
        return errors

    def _check_quality(self, edges, selected) -> list[str]:
        labels = [e["j"] - e["i"] == 1 for e in edges]
        pauc = partial_auc(labels, [e["kappa"] for e in edges])
        false_pos = sum(1 for e in selected if e["j"] - e["i"] != 1)
        errors = []
        if pauc < self.pauc_floor:
            errors.append(f"partial ROC area {pauc:.3f} below "
                          f"{self.pauc_floor}")
        # at chance, 1 - (p-1)/P of the selections would be false (95% and
        # more here); the method at alpha = 0.1 made up to 27% on 40 seeds
        if false_pos > max(2, len(selected) // 2):
            errors.append(f"{false_pos} false positives among "
                          f"{len(selected)} selected edges")
        if not selected:
            errors.append("no edge selected")
        return errors


def band_edge_count(p: int, bandwidth: int = 4) -> int:
    """Edges of the program's default band graph (bandwidth 4)."""
    return sum(p - k for k in range(1, min(bandwidth, p - 1) + 1))


def hub_edge_count(p: int) -> int:
    """Edges of the default hub graph: blocks of 10 and 5 genes, each a
    star around its first gene, so a block of s genes has s - 1 edges."""
    if p % 5:
        raise ValueError("default hub blocks need p divisible by 5")
    return p - (p // 10 + (p % 10) // 5)


@dataclass
class SimWorkload:
    """``shrinknet benchmark`` over replicates of small band and hub graphs,
    at one small and one large sample size, with and without global
    shrinkage. The workload seed is the command's ``--seed``."""

    p: int
    n_list: tuple
    reps: int
    kinds = ("band", "hub")
    methods = ("shrinknet", "noshrink")
    outputs = ("metrics.csv",)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def cli_args(self, out_dir: Path) -> list[str]:
        return ["benchmark", "--kinds", ",".join(self.kinds),
                "--p", str(self.p),
                "--n", ",".join(str(n) for n in self.n_list),
                "--reps", str(self.reps), "--seed", str(self.seed),
                "--threads", "1", "--out-dir", str(out_dir)]

    def check(self, out_dir: Path) -> list[str]:
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if summary["n_failed"] != 0:
            errors.append(f"n_failed = {summary['n_failed']}")
        want = {(k, n, r, m) for k in self.kinds for n in self.n_list
                for r in range(self.reps) for m in self.methods}
        got = [(r["kind"], int(r["n"]), int(r["rep"]), r["method"])
               for r in rows]
        if len(got) != len(want) or set(got) != want:
            errors.append("metrics.csv rows are not one per kind, n, rep "
                          "and method")
        big_p = self.p * (self.p - 1) // 2
        n_edges = {"band": band_edge_count(self.p),
                   "hub": hub_edge_count(self.p)}
        for r in rows:
            where = f"{r['kind']} n={r['n']} rep={r['rep']} {r['method']}"
            if r["error"]:
                errors.append(f"{where}: {r['error']}")
                continue
            errors += [f"{where}: {e}" for e in _row_consistency(
                r, n_edges[r["kind"]], big_p)]
            if r["method"] == "noshrink" and (
                    float(r["a"]) != 0.001 or float(r["b"]) != 0.001):
                errors.append(f"{where}: unshrunk prior moved to "
                              f"a={r['a']}, b={r['b']}")
        return errors


def _row_consistency(r, n_edges: int, big_p: int) -> list[str]:
    """tp and fp implied by tpr and fpr are whole numbers that agree with
    n_selected, precision and f_score."""
    tpr, fpr = float(r["tpr"]), float(r["fpr"])
    tp, fp = tpr * n_edges, fpr * (big_p - n_edges)
    errors = []
    if abs(tp - round(tp)) > 1e-6 or abs(fp - round(fp)) > 1e-6:
        return [f"tpr*|E| = {tp}, fpr*(P-|E|) = {fp} are not counts"]
    tp, fp = round(tp), round(fp)
    if tp + fp != int(r["n_selected"]):
        errors.append(f"tp {tp} + fp {fp} != n_selected {r['n_selected']}")
    precision = tp / (tp + fp) if tp + fp else 0.0
    if not math.isclose(float(r["precision"]), precision, abs_tol=1e-12):
        errors.append(f"precision {r['precision']} != {precision}")
    f = (2 * precision * tpr / (precision + tpr)) if precision + tpr else 0.0
    if not math.isclose(float(r["f_score"]), f, abs_tol=1e-12):
        errors.append(f"f_score {r['f_score']} != {f}")
    if not 0.0 <= float(r["pauc"]) <= 1.0:
        errors.append(f"pauc {r['pauc']} outside [0, 1]")
    if not 0.0 < float(r["p0_hat"]) < 1.0:
        errors.append(f"p0_hat {r['p0_hat']} outside (0, 1)")
    return errors
