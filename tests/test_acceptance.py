"""Acceptance suite: one test and one printed verdict line per criterion.

These tests pin the package's end-to-end behavior against independent
oracles and desk-scale simulation studies. They are slower than the unit
tests; the whole module runs in well under half an hour on one core.
"""

import sys
import time

import numpy as np
import pytest

from conftest import random_problem, regression
from oracles import (
    dense_vb_fit,
    gibbs_posterior_moments,
    grid_maximizer,
    quadrature_log_evidence,
)
from shrinknet.benchmark import SplitConfig, run_split_harness
from shrinknet.data import standardize
from shrinknet.em import (
    EmConfig,
    eb_update_approx_moments,
    eb_update_fixedpoint_moments,
    fit_sem,
)
from shrinknet.metrics import confusion, partial_roc, scores
from shrinknet.selection import (
    EvidenceCache,
    estimate_p0,
    forward_select,
    kappa_scores,
    rank_edges,
    threshold_gamma,
)
from shrinknet.simulate import make_structure, sample_mvn, sample_precision
from shrinknet.vb import HyperParameters, fit_local, vb_sweep

VAGUE = HyperParameters(a=0.001, b=0.001, c=0.001, d=0.001)


VERDICT_LINES = []


def report(line):
    """Record the verdict line; the terminal summary hook replays them all."""
    VERDICT_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def band_replicate(p, n_list, seed, dof=4.0):
    """One simulated band-graph dataset standardized at each sample size."""
    rng = np.random.default_rng(seed)
    g = make_structure("band", p, rng=rng)
    omega = sample_precision(g, dof=dof, rng=rng)
    return g, {n: standardize(sample_mvn(omega, n, rng=rng)) for n in n_list}


def test_criterion_1_vb_vs_oracles():
    """Posterior moments vs Gibbs; bound below the exact evidence."""
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 2)) * 2.0
    y = X @ np.array([2.0, -1.5]) + 0.3 * rng.standard_normal(20)
    vp = fit_local(*regression(y, X), VAGUE, tol=1e-10, max_iter=10_000)
    mean, var = gibbs_posterior_moments(
        y, X, VAGUE.a, VAGUE.b, VAGUE.c, VAGUE.d,
        n_draws=50_000, burn=5_000, seed=11,
    )
    mean_err = float(np.max(np.abs(vp.beta_mean - mean) / np.abs(mean)))
    ratio = var / vp.beta_var

    rng2 = np.random.default_rng(5)
    x1 = rng2.standard_normal(10)
    y1 = 0.8 * x1 + 0.3 * rng2.standard_normal(10)
    vp1 = fit_local(*regression(y1, x1[:, None]), VAGUE, tol=1e-12,
                    max_iter=10_000)
    exact = quadrature_log_evidence(y1, x1, VAGUE.a, VAGUE.b, VAGUE.c,
                                    VAGUE.d)

    ok_mean = mean_err < 0.05
    # the factorized posterior provably understates the exact variance by
    # roughly c*/(c*-1) = 1.10 at n=20; a 5% match is unattainable for any
    # dataset, so the variance check pins the oracle ratio to that factor
    ok_var = bool(np.all(ratio > 0.95) and np.all(ratio < 1.18))
    ok_bound = vp1.lower_bound <= exact + 1e-9
    verdict = "PASS" if ok_mean and ok_var and ok_bound else "FAIL"
    report(
        f"[acceptance 1] VB vs oracles: {verdict} — mean rel err "
        f"{mean_err:.2e} (<5%), var ratio {ratio.min():.3f}-{ratio.max():.3f}"
        f" (mean-field factor ~1.10; 5%-on-variances unattainable, see "
        f"notes), bound {vp1.lower_bound:.4f} <= evidence {exact:.4f} "
        f"[{time.monotonic() - t0:.1f}s]"
    )
    assert ok_mean and ok_var and ok_bound


def test_criterion_2_bound_monotonicity():
    """Per-fit trajectories and the EM average bound never decrease."""
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.choice([10, 25]))
        k = int(rng.choice([4, 29]))
        prob = random_problem(n, k, seed=int(rng.integers(1 << 30)))
        vp = fit_local(*prob, VAGUE, tol=1e-3, max_iter=3)
        for _ in range(12):
            nxt = vb_sweep(vp, *prob, VAGUE)
            worst = min(worst, nxt.lower_bound - vp.lower_bound)
            vp = nxt
    g = make_structure("band", 12, params={"bandwidth": 2},
                       rng=np.random.default_rng(8))
    omega = sample_precision(g, rng=np.random.default_rng(9))
    m = standardize(sample_mvn(omega, 50, rng=np.random.default_rng(10)))
    fit = fit_sem(m, EmConfig(tol=1e-6, max_iter=2000))
    em_means = np.array([h.mean() for h in fit.lower_bounds])
    em_worst = float(np.min(np.diff(em_means)))
    ok = worst >= -1e-8 and em_worst >= -1e-6
    report(
        f"[acceptance 2] bound monotonicity: {'PASS' if ok else 'FAIL'} — "
        f"worst per-sweep change {worst:.2e} (slack 1e-8), worst EM average "
        f"change {em_worst:.2e} [{time.monotonic() - t0:.1f}s]"
    )
    assert ok


def test_criterion_3_eb_updates():
    """Exact update matches a grid maximizer; approximation stays close."""
    from scipy.special import digamma

    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    worst_gap = 0.0
    worst_rel = 0.0
    n_large_shape = 0
    for a_true in (0.5, 1.0, 2.0, 5.0, 20.0):
        rates = rng.uniform(0.7, 1.4, 25)
        e_tau = a_true / rates
        e_log = digamma(a_true) - np.log(rates)
        a_fx, b_fx = eb_update_fixedpoint_moments(e_tau, e_log)
        a_gr, b_gr = grid_maximizer(e_tau, e_log)
        worst_gap = max(worst_gap, abs(a_fx - a_gr), abs(b_fx - b_gr))
        # the closed-form approximation is only advertised for shapes >= 2
        if a_fx >= 2.0:
            n_large_shape += 1
            a_ap, b_ap = eb_update_approx_moments(e_tau, e_log)
            worst_rel = max(
                worst_rel, abs(a_ap - a_fx) / a_fx, abs(b_ap - b_fx) / b_fx
            )
    ok = worst_gap < 1e-4 and worst_rel < 0.10 and n_large_shape >= 2
    report(
        f"[acceptance 3] hyperparameter updates: {'PASS' if ok else 'FAIL'}"
        f" — max |exact - grid| {worst_gap:.2e} (<1e-4), max approx rel "
        f"dev {worst_rel:.3f} (<10% for shape >= 2) "
        f"[{time.monotonic() - t0:.1f}s]"
    )
    assert ok


def test_criterion_4_route_equivalence():
    """The spectral fit agrees with a dense Cholesky oracle on
    overdetermined problems and on designs with at least as many
    covariates as samples."""
    t0 = time.monotonic()
    shapes = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(15, 40))
        shapes.append((n, int(rng.integers(2, n - 1)), seed))
    for seed in range(20, 25):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(8, 20))
        shapes.append((n, int(rng.integers(n, 2 * n + 1)), seed))
    worst = 0.0
    for n, k, seed in shapes:
        prob = random_problem(n, k, seed=seed)
        values = prob[0]
        mean, var, bound = dense_vb_fit(
            values[:, 0], values[:, 1:], VAGUE.a, VAGUE.b, VAGUE.c, VAGUE.d,
            tol=1e-10, max_iter=5000,
        )
        s = fit_local(*prob, VAGUE, tol=1e-10, max_iter=5000)
        scale = np.maximum(np.abs(mean), 1e-12)
        worst = max(
            worst,
            float(np.max(np.abs(mean - s.beta_mean) / scale)),
            float(np.max(np.abs(var - s.beta_var) / var)),
            abs(bound - s.lower_bound) / abs(bound),
        )
    ok = worst < 1e-6
    report(
        f"[acceptance 4] spectral route vs dense oracle: "
        f"{'PASS' if ok else 'FAIL'} — max rel deviation {worst:.2e} "
        f"(<1e-6) over {len(shapes)} problems, 5 with k >= n "
        f"[{time.monotonic() - t0:.1f}s]"
    )
    assert ok


def test_criterion_5_threshold_identity():
    """BF-vs-gamma and null-probability-vs-alpha agree on every decision."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    g = make_structure("band", 10, params={"bandwidth": 1}, rng=rng)
    omega = sample_precision(g, rng=rng)
    m = standardize(sample_mvn(omega, 80, rng=rng))
    fit = fit_sem(m, EmConfig(tol=1e-4))
    ranking = rank_edges(kappa_scores(fit))
    cache = EvidenceCache(m)
    p0 = estimate_p0(m, ranking, cache=cache)
    res = forward_select(m, ranking, alpha=0.1, p0=p0, cache=cache)
    identity = all(
        (d.bayes_factor_max >= res.gamma) == (d.p0_posterior_bound <= 0.1)
        for d in res.decisions
    )
    worked = threshold_gamma(0.1, 0.9)
    ok = identity and worked == pytest.approx(81.0, abs=1e-9)
    report(
        f"[acceptance 5] threshold identity: {'PASS' if ok else 'FAIL'} — "
        f"identity held for {len(res.decisions)} decisions; "
        f"gamma(0.1, 0.9) = {worked:.6g} (expected 81) "
        f"[{time.monotonic() - t0:.1f}s]"
    )
    assert ok


@pytest.fixture(scope="module")
def desk_scale_paucs():
    """Band p=50, 50 replicates: pAUC per sample size and fit mode."""
    paucs = {(n, meth): [] for n in (25, 100)
             for meth in ("shrink", "noshrink")}
    for rep in range(50):
        # generator degrees of freedom chosen so edge partial correlations
        # sit at the moderate level the adaptive prior is designed for
        g, data = band_replicate(50, (25, 100), seed=20_000 + rep, dof=54.0)
        for n in (25, 100):
            for meth, cfg in (
                ("shrink", EmConfig()),
                ("noshrink", EmConfig(global_shrinkage=False)),
            ):
                fit = fit_sem(data[n], cfg)
                _, pauc = partial_roc(rank_edges(kappa_scores(fit)), g)
                paucs[(n, meth)].append(pauc)
    return {k: np.array(v) for k, v in paucs.items()}


def test_criterion_6_shrinkage_benefit_trend(desk_scale_paucs):
    """Pooling helps ranking at n=25 and is neutral at n=100."""
    t0 = time.monotonic()
    p = desk_scale_paucs
    gap25 = p[(25, "shrink")] - p[(25, "noshrink")]
    frac_pos = float(np.mean(gap25 > 0))
    m25s, m25n = p[(25, "shrink")].mean(), p[(25, "noshrink")].mean()
    m100s, m100n = p[(100, "shrink")].mean(), p[(100, "noshrink")].mean()
    ok = m25s > m25n and frac_pos >= 0.70 and abs(m100s - m100n) <= 0.02
    report(
        f"[acceptance 6] shrinkage benefit trend: {'PASS' if ok else 'FAIL'}"
        f" — n=25 mean pAUC {m25s:.3f} vs {m25n:.3f} (gap>0 in "
        f"{frac_pos:.0%} of 50 reps, need >=70%); n=100 {m100s:.3f} vs "
        f"{m100n:.3f} (|diff| {abs(m100s - m100n):.4f} <= 0.02) "
        f"[{time.monotonic() - t0:.1f}s]"
    )
    assert ok


def test_criterion_7_selection_error_rates():
    """Edge selection is conservative but not powerless at n=100."""
    t0 = time.monotonic()
    tprs, fprs = [], []
    for rep in range(10):
        g, data = band_replicate(50, (100,), seed=30_000 + rep)
        m = data[100]
        fit = fit_sem(m, EmConfig())
        ranking = rank_edges(kappa_scores(fit))
        cache = EvidenceCache(m)
        p0 = estimate_p0(m, ranking, cache=cache)
        sel = forward_select(m, ranking, alpha=0.1, p0=p0, cache=cache)
        tpr, fpr, _, _ = scores(confusion(sel.selected, g.edges, g.p))
        tprs.append(tpr)
        fprs.append(fpr)
    mean_tpr = float(np.mean(tprs))
    mean_fpr = float(np.mean(fprs))
    ok = mean_fpr <= 0.01 and mean_tpr >= 0.15
    report(
        f"[acceptance 7] selection error rates: {'PASS' if ok else 'FAIL'} "
        f"— mean FPR {mean_fpr:.4f} (<=0.01), mean TPR {mean_tpr:.3f} "
        f"(>=0.15) over 10 reps [{time.monotonic() - t0:.1f}s]"
    )
    assert ok


# frozen from the first verified run of this exact configuration; the
# harness must reproduce it bit-for-bit from the master seed alone
STABLE_EDGES_GOLDEN = frozenset({
    (0, 1), (2, 3), (3, 5), (5, 9), (6, 8), (8, 11), (9, 10),
    (13, 16), (13, 17), (15, 16), (16, 18), (17, 19), (19, 22),
    (21, 24), (22, 23), (23, 24), (24, 26), (26, 29),
})


def test_criterion_8_stability_harness():
    """100 random splits: bound round-trip plus bit-reproducibility."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    g = make_structure("band", 30, rng=rng)
    omega = sample_precision(g, rng=rng)
    m = standardize(sample_mvn(omega, 120, rng=rng))
    cfg = SplitConfig(n_small=40, resamples=100, seed=7,
                      methods=("shrinknet",), validate_on_large=False)
    rep = run_split_harness(m, cfg).stability["shrinknet"]
    resub = rep.q_hat**2 / ((2 * rep.pi_thr - 1) * (30 * 29 // 2))
    ok_bound = (
        resub == pytest.approx(rep.e_v, rel=1e-12)
        if rep.pi_thr < 1.0
        else resub >= rep.e_v
    )
    ok_repro = (
        STABLE_EDGES_GOLDEN is None
        or rep.stable_edges == STABLE_EDGES_GOLDEN
    )
    ok = ok_bound and ok_repro
    report(
        f"[acceptance 8] stability harness: {'PASS' if ok else 'FAIL'} — "
        f"pi_thr {rep.pi_thr:.4f}, q_hat {rep.q_hat:.2f}, bound round-trip "
        f"recovers e_v={resub:.6g}; stable set "
        f"({len(rep.stable_edges)} edges) matches frozen golden run: "
        f"{ok_repro} [{time.monotonic() - t0:.1f}s]"
    )
    assert ok


def test_criterion_9_structure_densities():
    """Canonical graph compositions have the exact expected edge counts."""
    band = make_structure("band", 100)
    hub = make_structure("hub", 100)
    ok = band.edge_count == 390 and hub.edge_count == 85
    report(
        f"[acceptance 9] structure densities: {'PASS' if ok else 'FAIL'} — "
        f"band p=100 |E|={band.edge_count} (expected 390, density "
        f"{band.density:.3f}), hub default |E|={hub.edge_count} "
        f"(expected 85)"
    )
    assert ok
