from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from oracles import grid_maximizer, pooled_prior_objective
from shrinknet.data import ExpressionMatrix, standardize
from shrinknet.em import (
    A_MAX,
    EmConfig,
    eb_update_approx,
    eb_update_approx_moments,
    eb_update_fixedpoint,
    eb_update_fixedpoint_moments,
    fit_sem,
)
from shrinknet.simulate import make_structure, sample_mvn, sample_precision
from shrinknet.vb import (
    RATE_INIT,
    HyperParameters,
    VariationalPosterior,
    vb_sweep,
)


def gamma_moments(a, rates):
    """E[t] and E[log t] for gamma(a, rate) across a vector of rates."""
    rates = np.asarray(rates, dtype=float)
    return a / rates, special.digamma(a) - np.log(rates)


def small_dataset(p=8, n=40, seed=0):
    rng = np.random.default_rng(seed)
    g = make_structure("band", p, params={"bandwidth": 2}, rng=rng)
    omega = sample_precision(g, rng=rng)
    return standardize(sample_mvn(omega, n, rng=rng))


class TestEbUpdates:
    def test_fixedpoint_matches_grid_maximizer(self):
        e_tau, e_log = gamma_moments(3.0, [1.0, 2.0, 0.5, 4.0, 1.5])
        a_hat, b_hat = eb_update_fixedpoint_moments(e_tau, e_log)
        a_grid, b_grid = grid_maximizer(e_tau, e_log)
        assert a_hat == pytest.approx(a_grid, abs=1e-4)
        assert b_hat == pytest.approx(b_grid, abs=1e-4)

    def test_fixedpoint_matches_brentq(self):
        # The reference runs Brent's method to the last bit: an xtol of
        # 1e-12 is absolute, 1e-9 relative at a = 1e-3. For large a the
        # root itself is set only to within the rounding of digamma(a) -
        # log(a), about eps (|digamma a| + |log a|), over that side's
        # slope a trigamma(a) - 1 ~ 1/(2a) in log a: 2e-12 at a = 1e3.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)
        gaps = np.r_[10.0 ** rng.uniform(-4.0, 3.0, 200), 1e-5]
        capped = 0
        for gap in gaps:
            p = int(rng.integers(2, 50))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            e_tau = np.full(p, scale)
            e_log = np.full(p, np.log(scale) - gap)
            exact_gap = np.log(e_tau.sum() / p) - np.mean(e_log)

            def f(x):
                return special.digamma(x) - np.log(x) + exact_gap

            if f(A_MAX) <= 0:
                want = A_MAX
                capped += 1
            else:
                want = optimize.brentq(f, 1e-10, A_MAX, xtol=1e-300,
                                       rtol=4 * eps)
            rounding = eps * (abs(special.digamma(want)) + abs(np.log(want)))
            slope = want * special.polygamma(1, want) - 1.0
            rel = 1e-12 + 64 * rounding / slope
            a_hat, b_hat = eb_update_fixedpoint_moments(e_tau, e_log)
            assert a_hat == pytest.approx(want, rel=rel, abs=0)
            assert b_hat == pytest.approx(want / scale, rel=rel, abs=0)
        assert capped == 1

    def test_fixedpoint_is_stationary(self):
        e_tau, e_log = gamma_moments(1.7, np.linspace(0.3, 3.0, 10))
        a_hat, b_hat = eb_update_fixedpoint_moments(e_tau, e_log)
        # no nearby (a, b) improves the pooled objective
        best = pooled_prior_objective(a_hat, b_hat, e_tau, e_log)
        for da in (-1e-4, 1e-4):
            for db in (-1e-4, 1e-4):
                assert pooled_prior_objective(
                    a_hat * (1 + da), b_hat * (1 + db), e_tau, e_log
                ) <= best + 1e-10

    @pytest.mark.parametrize("a_true", [2.0, 5.0, 20.0])
    def test_approx_close_to_exact_for_large_shape(self, a_true):
        rng = np.random.default_rng(int(a_true))
        e_tau, e_log = gamma_moments(a_true, rng.uniform(0.5, 2.0, 30))
        a_ap, b_ap = eb_update_approx_moments(e_tau, e_log)
        a_ex, b_ex = eb_update_fixedpoint_moments(e_tau, e_log)
        assert a_ap == pytest.approx(a_ex, rel=0.10)
        assert b_ap == pytest.approx(b_ex, rel=0.10)

    def test_degenerate_moments_hit_cap(self):
        # all moments identical: zero dispersion, point-mass limit
        e_tau = np.full(5, 2.0)
        e_log = np.full(5, np.log(2.0))
        a_hat, b_hat = eb_update_approx_moments(e_tau, e_log)
        assert a_hat == 1e4
        assert b_hat == pytest.approx(a_hat / 2.0)
        a_fx, _ = eb_update_fixedpoint_moments(e_tau, e_log)
        assert a_fx == 1e4

    def test_rate_wrappers_match_moment_forms(self):
        a_star = 4.5
        b_stars = np.array([0.8, 1.2, 2.0, 0.3])
        e_tau, e_log = gamma_moments(a_star, b_stars)
        assert eb_update_approx(a_star, b_stars) == pytest.approx(
            eb_update_approx_moments(e_tau, e_log)
        )
        assert eb_update_fixedpoint(a_star, b_stars) == pytest.approx(
            eb_update_fixedpoint_moments(e_tau, e_log)
        )

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError, match="positive"):
            eb_update_approx(2.0, [1.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.05, 50.0),
        seed=st.integers(0, 1000),
        p=st.integers(3, 40),
    )
    def test_fixedpoint_never_beaten_by_grid(self, a, seed, p):
        rng = np.random.default_rng(seed)
        e_tau, e_log = gamma_moments(a, rng.uniform(0.1, 5.0, p))
        a_hat, b_hat = eb_update_fixedpoint_moments(e_tau, e_log)
        a_grid, b_grid = grid_maximizer(e_tau, e_log)
        assert pooled_prior_objective(a_hat, b_hat, e_tau, e_log) >= \
            pooled_prior_objective(a_grid, b_grid, e_tau, e_log) - 1e-8


class TestEmConfig:
    def test_validation(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                EmConfig(tol=tol)
        with pytest.raises(ValueError):
            EmConfig(max_iter=1)
        with pytest.raises(ValueError):
            EmConfig(eb_update="nope")


class TestFitSem:
    def test_basic_fit(self):
        m = small_dataset()
        fit = fit_sem(m, EmConfig(tol=1e-4))
        p = m.n_genes
        assert fit.n_genes == p
        assert fit.converged
        assert fit.gene_ids == m.gene_ids
        assert fit.beta_mean.shape == fit.beta_var.shape == (p, p - 1)
        assert np.all(fit.beta_var > 0)
        assert fit.b_star.shape == fit.d_star.shape == (p,)
        assert fit.lower_bound.shape == (p,)
        assert fit.lower_bounds.shape == (fit.em_iterations, p)

    def test_final_hyper_matches_final_sweep(self):
        # on convergence the reported prior is the one the final sweep ran
        # under, and each gene's bound is scored under it
        m = small_dataset(seed=1)
        fit = fit_sem(m, EmConfig(tol=1e-4))
        last = fit.trajectory[-1]
        assert fit.converged
        assert (fit.hyper.a, fit.hyper.b) == (last["a"], last["b"])
        np.testing.assert_allclose(fit.lower_bound, fit.lower_bounds[-1],
                                   rtol=1e-10)

    def test_mean_bound_nondecreasing(self):
        m = small_dataset(seed=2)
        fit = fit_sem(m, EmConfig(tol=1e-6, max_iter=2000))
        means = np.array([h.mean() for h in fit.lower_bounds])
        assert np.all(np.diff(means) >= -1e-6)

    def test_no_shrinkage_keeps_prior_fixed(self):
        m = small_dataset(seed=3)
        fit = fit_sem(m, EmConfig(global_shrinkage=False))
        assert fit.hyper.a == 0.001
        assert fit.hyper.b == 0.001

    def test_shrinkage_moves_prior(self):
        m = small_dataset(seed=3)
        fit = fit_sem(m, EmConfig(tol=1e-4))
        assert fit.hyper.a != 0.001 or fit.hyper.b != 0.001

    def test_exact_and_approx_updates_land_close(self):
        m = small_dataset(seed=4)
        f_ap = fit_sem(m, EmConfig(tol=1e-5, eb_update="approx"))
        f_ex = fit_sem(m, EmConfig(tol=1e-5, eb_update="exact"))
        assert f_ap.hyper.a == pytest.approx(f_ex.hyper.a, rel=0.25)
        assert f_ap.hyper.b == pytest.approx(f_ex.hyper.b, rel=0.25)

    def test_wide_matrix(self):
        # more genes than samples: every design is rank deficient
        rng = np.random.default_rng(7)
        m = standardize(
            ExpressionMatrix(
                rng.standard_normal((10, 15)),
                tuple(f"g{i}" for i in range(15)),
                tuple(f"s{i}" for i in range(10)),
            )
        )
        fit = fit_sem(m, EmConfig(tol=1e-3))
        assert fit.n_genes == 15
        assert np.isfinite(fit.lower_bound).all()

    def test_deterministic(self):
        m = small_dataset(seed=5)
        f1 = fit_sem(m, EmConfig(tol=1e-4))
        f2 = fit_sem(m, EmConfig(tol=1e-4))
        assert f1.hyper == f2.hyper
        np.testing.assert_array_equal(f1.beta_mean, f2.beta_mean)


def _with_genes(m: ExpressionMatrix, column) -> ExpressionMatrix:
    """``m`` with one more gene, ``column(values)``, standardized."""
    return standardize(ExpressionMatrix(
        np.column_stack([m.values, column(m.values)]),
        m.gene_ids + ("extra",), m.sample_ids))


def _wide(seed=7, n=8, p=12):
    rng = np.random.default_rng(seed)
    return ExpressionMatrix(rng.standard_normal((n, p)),
                            tuple(f"g{i}" for i in range(p)),
                            tuple(f"s{i}" for i in range(n)))


#: name -> (matrix, EM settings) of the stacked E-step's replay cases
REPLAY_CASES = {
    "tall": lambda: (small_dataset(), EmConfig(tol=1e-4)),
    "wide": lambda: (standardize(_wide()), EmConfig()),
    # duplicated genes give designs of lower rank, so rows are padded
    "duplicate": lambda: (_with_genes(small_dataset(seed=1), lambda v:
                                      v[:, 2]), EmConfig(tol=1e-4)),
    "affine_duplicate": lambda: (_with_genes(small_dataset(seed=1), lambda v:
                                             3.0 * v[:, 4] + 1.0),
                                 EmConfig(tol=1e-4)),
    "no_shrinkage": lambda: (standardize(_wide(seed=3, n=10, p=8)),
                             EmConfig(global_shrinkage=False)),
    "exact_update": lambda: (small_dataset(seed=4),
                             EmConfig(tol=1e-5, eb_update="exact")),
}


class TestStackedEStep:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_matches_per_gene_replay(self, case):
        """Replay the EM gene by gene with ``vb_sweep`` at each iteration's
        (a, b) from the trajectory: same bounds, stopping iteration, next
        (a, b) and final coefficients."""
        m, config = REPLAY_CASES[case]()
        fit = fit_sem(m, config)
        trajectory = fit.trajectory
        assert len(trajectory) == len(fit.lower_bounds) == fit.em_iterations
        p, n = m.n_genes, m.n_samples
        k = p - 1
        problems = [(m.values, j, np.delete(np.arange(p), j))
                    for j in range(p)]
        c_star = HyperParameters(a=1.0, b=1.0).c + 0.5 * (n + k)
        states = [
            VariationalPosterior(
                beta_mean=np.zeros(k), beta_var=np.zeros(k), a_star=1.0,
                b_star=RATE_INIT, c_star=c_star,
                d_star=RATE_INIT, lower_bound=np.nan, iterations=0,
                converged=False,
            )
            for _ in range(p)
        ]
        updater = (eb_update_approx if config.eb_update == "approx"
                   else eb_update_fixedpoint)
        prev = None
        for t, row in enumerate(trajectory, start=1):
            hp = HyperParameters(a=row["a"], b=row["b"])
            a_star = row["a"] + 0.5 * k
            states = [vb_sweep(replace(state, a_star=a_star), *prob, hp)
                      for state, prob in zip(states, problems)]
            bounds = np.array([state.lower_bound for state in states])
            np.testing.assert_allclose(bounds, fit.lower_bounds[t - 1],
                                       rtol=0, atol=1e-8)
            if prev is None:
                assert row["max_abs_delta_bound"] is None
                stop = False
            else:
                delta = np.max(np.abs(bounds - prev))
                assert row["max_abs_delta_bound"] == pytest.approx(
                    delta, rel=0, abs=1e-8)
                stop = delta < config.tol
            assert stop == (t == fit.em_iterations and fit.converged)
            prev = bounds
            if t < len(trajectory):
                want = (updater(a_star, [s.b_star for s in states])
                        if config.global_shrinkage else (row["a"], row["b"]))
                nxt = trajectory[t]
                assert (nxt["a"], nxt["b"]) == pytest.approx(want,
                                                             rel=1e-10)
        assert fit.converged
        assert (fit.hyper.a, fit.hyper.b) == (row["a"], row["b"])
        np.testing.assert_allclose(
            fit.beta_mean, [s.beta_mean for s in states], rtol=1e-10,
            atol=1e-14)
        np.testing.assert_allclose(
            fit.beta_var, [s.beta_var for s in states], rtol=1e-10, atol=0)
        for name in ("b_star", "d_star"):
            np.testing.assert_allclose(
                getattr(fit, name), [getattr(s, name) for s in states],
                rtol=1e-10, atol=0)
        np.testing.assert_allclose(
            fit.lower_bound, [s.lower_bound for s in states], rtol=0,
            atol=1e-8)

    def test_trajectory_at_iteration_cap(self):
        # stopped by max_iter: one row per iteration, and the reported
        # (a, b) is the update after the last one
        m = small_dataset(seed=2)
        fit = fit_sem(m, EmConfig(max_iter=5))
        rows = fit.trajectory
        assert not fit.converged and len(rows) == 5
        assert rows[0] == {"a": 0.001, "b": 0.001,
                           "max_abs_delta_bound": None}
        assert all(r["max_abs_delta_bound"] > 0 for r in rows[1:])
        assert (fit.hyper.a, fit.hyper.b) != (rows[-1]["a"], rows[-1]["b"])
        # each gene's bound is scored under the prior of its final sweep,
        # as the last row of lower_bounds is, not under fit.hyper
        np.testing.assert_allclose(fit.lower_bound, fit.lower_bounds[-1],
                                   rtol=1e-10)
