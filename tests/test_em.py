import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy import special

from oracles import eb_maximizer
from shrinknet import em
from shrinknet.data import ExpressionMatrix, standardize
from shrinknet.em import (
    A_MAX,
    EmConfig,
    eb_update_approx_moments,
    fit_sem,
)
from shrinknet.simulate import make_structure, sample_mvn, sample_precision
from test_traced_run import _chain_values
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
    @pytest.mark.parametrize("a_true", [2.0, 5.0, 20.0])
    def test_approx_close_to_exact_for_large_shape(self, a_true):
        rng = np.random.default_rng(int(a_true))
        e_tau, e_log = gamma_moments(a_true, rng.uniform(0.5, 2.0, 30))
        a_ap, b_ap = eb_update_approx_moments(e_tau, e_log)
        a_ex, b_ex = eb_maximizer(e_tau, e_log)
        assert a_ap == pytest.approx(a_ex, rel=0.10)
        assert b_ap == pytest.approx(b_ex, rel=0.10)

    def test_degenerate_moments_hit_cap(self):
        # all moments identical: zero dispersion, point-mass limit
        e_tau = np.full(5, 2.0)
        e_log = np.full(5, np.log(2.0))
        a_hat, b_hat = eb_update_approx_moments(e_tau, e_log)
        assert a_hat == 1e4
        assert b_hat == pytest.approx(a_hat / 2.0)
        assert eb_maximizer(e_tau, e_log, a_max=A_MAX)[0] == A_MAX


class TestEmConfig:
    def test_validation(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                EmConfig(tol=tol)
        with pytest.raises(ValueError):
            EmConfig(max_iter=1)


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

    def test_setup_is_one_call_in_bounded_memory(self):
        """One spectral setup of the whole matrix serves all p regressions,
        and nothing of size p * p * min(n, p) is held: at (p, n) = (400,
        50) that would be 61 MB."""
        values = _chain_values(400, 50, seed=1)
        m = standardize(ExpressionMatrix(
            values, tuple(f"g{j}" for j in range(400)),
            tuple(f"s{i}" for i in range(50))))
        with mock.patch.object(em, "make_workspace",
                               wraps=em.make_workspace) as setup:
            tracemalloc.start()
            try:
                fit_sem(m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert setup.call_count == 1
        assert peak < 16 * 2**20, peak / 2**20

    def test_unscaled_wide_fit_is_scale_free(self):
        """Once the data dwarf the prior's rates, scaling a wide X leaves
        every coefficient's posterior where it was, also at 1e100, where
        X's eigenvalues exceed E[tau^-2] by 1e200 and its null space
        carries most of each gene's f0."""
        x = np.random.default_rng(11).standard_normal((8, 60))
        fits = [fit_sem(standardize(ExpressionMatrix(
            x * scale, tuple(f"g{j}" for j in range(60)),
            tuple(f"s{i}" for i in range(8))), scale=False),
            EmConfig(global_shrinkage=False)) for scale in (1e4, 1e100)]
        assert fits[0].em_iterations == fits[1].em_iterations
        for name in ("beta_mean", "beta_var"):
            np.testing.assert_allclose(getattr(fits[1], name),
                                       getattr(fits[0], name), rtol=1e-8,
                                       atol=0)


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
    # centered, so X has rank n - 1 < p
    "square": lambda: (small_dataset(p=10, n=10, seed=6), EmConfig(tol=1e-4)),
    "wide": lambda: (standardize(_wide()), EmConfig()),
    "wide_duplicate": lambda: (_with_genes(standardize(_wide(seed=9)),
                                           lambda v: v[:, 3]), EmConfig()),
    # duplicated genes give designs of lower rank, so rows are padded
    "duplicate": lambda: (_with_genes(small_dataset(seed=1), lambda v:
                                      v[:, 2]), EmConfig(tol=1e-4)),
    "affine_duplicate": lambda: (_with_genes(small_dataset(seed=1), lambda v:
                                             3.0 * v[:, 4] + 1.0),
                                 EmConfig(tol=1e-4)),
    "no_shrinkage": lambda: (standardize(_wide(seed=3, n=10, p=8)),
                             EmConfig(global_shrinkage=False)),
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
                want = (eb_update_approx_moments(*gamma_moments(
                    a_star, [s.b_star for s in states]))
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
