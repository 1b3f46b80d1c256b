import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import random_problem, regression, regressions, swept
from oracles import (
    dense_vb_fit,
    gibbs_posterior_moments,
    quadrature_log_evidence,
)
from shrinknet.data import ExpressionMatrix
from shrinknet.em import fit_sem
from shrinknet import vb
from shrinknet.errors import DegenerateDesignError, NumericalFailureError
from shrinknet.selection import EvidenceCache, rank_edges, selection_prior
from shrinknet.vb import (
    HyperParameters,
    digamma,
    fit_local,
    fit_spectra,
    gammaln,
    make_workspace,
    vb_sweep,
)

VAGUE = HyperParameters(a=0.001, b=0.001, c=0.001, d=0.001)


class TestHyperParameters:
    def test_defaults(self):
        hp = HyperParameters(a=1.0, b=2.0)
        assert hp.c == 0.001 and hp.d == 0.001

    @pytest.mark.parametrize("bad", [dict(a=0.0, b=1), dict(a=1, b=-1),
                                     dict(a=1, b=1, c=0), dict(a=1, b=1, d=0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="must be positive"):
            HyperParameters(**bad)


class TestSpecialFunctions:
    """``gammaln`` and ``digamma`` against SciPy's, scaled by max(1, |f|):
    near the zeros of log Gamma at 1 and 2 the error is absolute."""

    def test_gammaln_matches_scipy(self):
        # a grid, and the lattice a + k/2 of the posterior shapes
        x = np.concatenate([
            np.geomspace(1e-3, 1e4, 20001),
            [a + 0.5 * k for a in (1e-3, 0.5, 1.0, 2.0, 3.7)
             for k in range(20000)],
        ])
        want = special.gammaln(x)
        got = gammaln(x)
        assert got.dtype == float and got.shape == x.shape
        assert np.all(np.abs(got - want)
                      <= 1e-14 * np.maximum(1.0, np.abs(want)))
        scalars = [gammaln(v) for v in x[::101]]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(scalars, got[::101])

    def test_digamma_matches_scipy(self):
        # through the recurrence, the switch to the series at 10, the
        # root near 1.4616 and the -1/x pole
        x = np.concatenate([np.geomspace(1e-10, 1e4, 20001),
                            np.linspace(0.5, 12.0, 4601)])
        want = special.digamma(x)
        got = np.array([digamma(v) for v in x])
        assert np.all(np.abs(got - want)
                      <= 1e-14 * np.maximum(1.0, np.abs(want)))


class TestFitLocal:
    def test_shapes_and_flags(self):
        prob = random_problem(15, 4, seed=1)
        vp = fit_local(*prob, VAGUE)
        assert vp.beta_mean.shape == (4,)
        assert vp.beta_var.shape == (4,)
        assert vp.converged
        assert vp.a_star == pytest.approx(VAGUE.a + 2.0)
        assert vp.c_star == pytest.approx(VAGUE.c + 0.5 * (15 + 4))

    def test_posterior_mean_is_ridge(self):
        # at the fixed point the mean solves (X'X + E[tau^-2] I) beta = X'y
        prob = random_problem(30, 5, seed=2)
        vp = fit_local(*prob, VAGUE)
        e_tau = vp.a_star / vp.b_star
        X, y = prob[0][:, 1:], prob[0][:, 0]
        expect = np.linalg.solve(X.T @ X + e_tau * np.eye(5), X.T @ y)
        np.testing.assert_allclose(vp.beta_mean, expect, rtol=1e-6)

    def test_matches_gibbs_sampler(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 2)) * 2.0
        y = X @ np.array([2.0, -1.5]) + 0.3 * rng.standard_normal(20)
        vp = fit_local(*regression(y, X), VAGUE)
        mean, var = gibbs_posterior_moments(
            y, X, VAGUE.a, VAGUE.b, VAGUE.c, VAGUE.d,
            n_draws=20_000, burn=2_000, seed=11,
        )
        np.testing.assert_allclose(vp.beta_mean, mean, rtol=0.02)
        # the factorized posterior understates the exact variance by about
        # c*/(c*-1); check agreement up to that known discrepancy
        ratio = var / vp.beta_var
        assert np.all(ratio > 0.98)
        assert np.all(ratio < 1.20)

    def test_bound_below_exact_evidence(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10)
        y = 0.8 * x + 0.3 * rng.standard_normal(10)
        vp = fit_local(*regression(y, x[:, None]), VAGUE)
        exact = quadrature_log_evidence(
            y, x, VAGUE.a, VAGUE.b, VAGUE.c, VAGUE.d
        )
        assert vp.lower_bound <= exact + 1e-9
        assert vp.lower_bound > exact - 5.0  # and not absurdly loose

    def test_strong_prior_shrinks_harder(self):
        prob = random_problem(25, 6, seed=3)
        loose = fit_local(*prob, VAGUE)
        tight = fit_local(*prob, HyperParameters(a=100.0, b=0.1))
        assert np.linalg.norm(tight.beta_mean) < np.linalg.norm(
            loose.beta_mean
        )

    def test_invalid_args(self):
        """A fit is a root solve that ends by construction: neither entry
        point takes a stopping tolerance or a sweep cap."""
        prob = random_problem(10, 3)
        spectra = make_workspace(*prob)[0]
        for name, value in (("tol", 1e-3), ("max_iter", 1000)):
            with pytest.raises(TypeError, match=name):
                fit_local(*prob, VAGUE, **{name: value})
            with pytest.raises(TypeError, match=name):
                fit_spectra(spectra, VAGUE, **{name: value})


    # (n, k, seed) -> evaluations of the root solve, recorded when its
    # slope came from its last two evaluations
    PINNED_RUNS = {
        (15, 4, 1): 19,
        (30, 5, 2): 16,
        (25, 6, 3): 10,
        (12, 3, 4): 16,
        (12, 3, 5): 18,
        (10, 3, 0): 12,
        (15, 4, 6): 11,
        (15, 4, 8): 16,
        (20, 6, 0): 21,
        (20, 6, 1): 21,
        (20, 6, 2): 12,
        (20, 6, 3): 18,
        (20, 6, 4): 19,
        (8, 20, 9): 26,
        (8, 8, 9): 22,
    }

    @pytest.mark.parametrize("run", sorted(PINNED_RUNS))
    def test_iteration_counts_pinned(self, run):
        n, k, seed = run
        vp = fit_local(*random_problem(n, k, seed=seed), VAGUE)
        assert (vp.iterations, vp.converged) == (self.PINNED_RUNS[run], True)


class TestSweep:
    def test_increments_iteration_count(self):
        prob = random_problem(12, 3, seed=4)
        v0 = fit_local(*prob, VAGUE)
        v1 = vb_sweep(v0, *prob, VAGUE)
        assert v1.iterations == v0.iterations + 1

    def test_sweep_monotone_in_bound(self):
        prob = random_problem(12, 3, seed=4)
        vp = swept(prob, VAGUE, 2)
        for _ in range(20):
            nxt = vb_sweep(vp, *prob, VAGUE)
            assert nxt.lower_bound >= vp.lower_bound - 1e-8
            vp = nxt

    def test_rejects_bad_state_rates(self):
        prob = random_problem(12, 3)
        vp = fit_local(*prob, VAGUE)
        bad = type(vp)(**{**vp.__dict__, "b_star": -1.0})
        with pytest.raises(ValueError, match="positive"):
            vb_sweep(bad, *prob, VAGUE)


def _assert_matches_dense_oracle(prob):
    s = fit_local(*prob, VAGUE)
    values = prob[0]
    mean, var, bound = dense_vb_fit(
        values[:, 0], values[:, 1:], VAGUE.a, VAGUE.b, VAGUE.c, VAGUE.d,
        tol=1e-12, max_iter=100_000,
    )
    np.testing.assert_allclose(s.beta_mean, mean, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(s.beta_var, var, rtol=1e-8)
    assert s.lower_bound == pytest.approx(bound, rel=1e-10)
    return s


class TestPaths:
    @pytest.mark.parametrize("seed", range(5))
    def test_direct_and_reduced_agree(self, seed):
        # the spectral fit against the dense Cholesky formula
        _assert_matches_dense_oracle(random_problem(20, 6, seed=seed))

    def test_reduced_handles_wide_designs(self):
        for n, k in ((8, 20), (8, 8)):
            vp = _assert_matches_dense_oracle(random_problem(n, k, seed=9))
            assert vp.beta_mean.shape == (k,)
            assert np.all(vp.beta_var > 0)
            assert np.isfinite(vp.lower_bound)

    @pytest.mark.parametrize("kind", ["graded", "near_duplicate",
                                      "centred_wide"])
    def test_ill_conditioned_designs_match_dense_oracle(self, kind):
        """The cross-product squares the design's condition number; the
        fit still matches the dense Cholesky formula on the design."""
        rng = np.random.default_rng(7)
        if kind == "graded":  # singular values from 1 down to 1e-5
            q1, _ = np.linalg.qr(rng.standard_normal((30, 6)))
            q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            X = 5.0 * (q1 * np.logspace(0, -5, 6)) @ q2.T
        elif kind == "near_duplicate":
            X = rng.standard_normal((20, 5))
            X[:, 4] = X[:, 0] + 1e-9 * rng.standard_normal(20)
        else:  # k >= n on centred data: rank n - 1
            X = rng.standard_normal((8, 12))
            X -= X.mean(axis=0)
        y = X @ rng.standard_normal(X.shape[1]) + rng.standard_normal(len(X))
        if kind == "centred_wide":
            y -= y.mean()
        vp = fit_local(*regression(y, X), VAGUE)
        mean, _, bound = dense_vb_fit(y, X, VAGUE.a, VAGUE.b, VAGUE.c,
                                      VAGUE.d, tol=1e-12, max_iter=100_000)
        assert abs(vp.lower_bound - bound) <= 1e-8
        assert np.linalg.norm(vp.beta_mean - mean) <= 1e-6 * np.linalg.norm(
            mean)

    def test_zero_covariate_bound_closed_form(self):
        y = np.random.default_rng(2).standard_normal(12)
        vp = fit_local(*regression(y, np.empty((12, 0))), VAGUE)
        n, c, d = 12, VAGUE.c, VAGUE.d
        expect = (
            -0.5 * n * np.log(2 * np.pi)
            + c * np.log(d)
            - special.gammaln(c)
            - (c + 0.5 * n) * np.log(d + 0.5 * float(y @ y))
            + special.gammaln(c + 0.5 * n)
        )
        assert vp.lower_bound == pytest.approx(expect, rel=1e-12)


def _design(kind, seed=0):
    """A design of the named shape with a response."""
    rng = np.random.default_rng(seed)
    n, k = {"tall": (12, 4), "wide": (5, 9), "rank_deficient": (12, 5),
            "duplicated_wide": (6, 10)}[kind]
    X = rng.standard_normal((n, k))
    if kind == "rank_deficient":
        X[:, 4] = X[:, 0] - 2.0 * X[:, 1]
    if kind == "duplicated_wide":
        X[:, 5:] = X[:, :5]  # rank 5, below n = 6
    return X, rng.standard_normal(n)


class TestSpectralSetup:
    KINDS = ("tall", "wide", "rank_deficient", "duplicated_wide")

    @pytest.mark.parametrize("kind", KINDS)
    def test_factors_reproduce_gram(self, kind):
        """X'X = V diag(d^2) V' and X'y = V w, in a stack of one and as a
        row of a larger stack, from the row's own directions and the first
        as many columns of its V."""
        X, y = _design(kind)
        spectra, V = make_workspace(*regression(y, X))
        np.testing.assert_allclose(V[0] @ np.diag(spectra.d2) @ V[0].T,
                                   X.T @ X, atol=1e-10)
        np.testing.assert_allclose(V[0] @ spectra.w, X.T @ y, atol=1e-10)
        assert spectra.yty[0] == pytest.approx(y @ y, rel=1e-14)
        rng = np.random.default_rng(1)
        other, y2 = rng.standard_normal(X.shape), rng.standard_normal(len(y))
        stack, Vs = make_workspace(*regressions([(y2, other), (y, X)]))
        for j, (design, response) in enumerate(((other, y2), (X, y))):
            mine = stack.row == j
            v = Vs[j][:, :np.count_nonzero(mine)]
            np.testing.assert_allclose(v @ np.diag(stack.d2[mine]) @ v.T,
                                       design.T @ design, atol=1e-10)
            np.testing.assert_allclose(v @ stack.w[mine],
                                       design.T @ response, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mask_counts_rank(self, kind):
        X, y = _design(kind)
        rank = np.linalg.matrix_rank(X)
        spectra, V = make_workspace(*regression(y, X))
        assert spectra.d2.shape == spectra.w.shape == (rank,)
        np.testing.assert_array_equal(spectra.row, [0] * rank)
        assert np.all(spectra.d2 > 0)
        assert V.shape == (1, X.shape[1], rank)
        # each row holds its own directions; V is as wide as the largest
        full = np.random.default_rng(3).standard_normal(X.shape)
        stack, Vs = make_workspace(*regressions([(y, X), (y, full)]))
        np.testing.assert_array_equal(
            stack.row, [0] * rank + [1] * min(X.shape))
        assert stack.d2.shape == stack.w.shape == stack.row.shape
        assert np.all(stack.d2 > 0)
        assert Vs.shape == (2, X.shape[1], min(X.shape))
        np.testing.assert_array_equal(stack.k, [X.shape[1]] * 2)

    def test_empty_design_gives_empty_spectrum(self):
        y = np.random.default_rng(2).standard_normal(7)
        spectra, V = make_workspace(*regression(y, np.empty((7, 0))))
        assert spectra.d2.shape == spectra.w.shape == (0,)
        assert spectra.row.shape == (0,)
        assert V.shape == (1, 0, 0)
        assert (spectra.k[0], spectra.n) == (0, 7)
        assert spectra.yty[0] == pytest.approx(y @ y, rel=1e-14)
        stack, Vs = make_workspace(*regressions([(y, np.empty((7, 0)))] * 3))
        assert stack.d2.shape == (0,) and Vs.shape == (3, 0, 0)
        assert stack.yty.shape == stack.k.shape == (3,)
        vp = fit_local(*regression(y, np.empty((7, 0))), VAGUE)
        assert vp.beta_mean.shape == vp.beta_var.shape == (0,)

    def test_all_zero_design_names_the_gene(self):
        """From each caller: a single fit, the EM and the p0 scan."""
        rng = np.random.default_rng(4)
        y = rng.standard_normal(6)
        with pytest.raises(DegenerateDesignError, match="gene 7 "):
            fit_local(np.column_stack([np.zeros((6, 7)), y]), 7, [0, 1],
                      VAGUE)
        values = rng.standard_normal((6, 3))
        values[:, 1] = 0.0
        m = ExpressionMatrix(values, ("a", "b", "c"), tuple("stuvwx"))
        two = ExpressionMatrix(values[:, :2], ("a", "b"), tuple("stuvwx"))
        with pytest.raises(DegenerateDesignError, match="gene a "):
            fit_sem(two)
        kappa = np.array([[0, 3, 1], [3, 0, 2], [1, 2, 0]], dtype=float)
        ranking = rank_edges(kappa)  # (0, 1) first: gene 0 on gene 1 alone
        with pytest.raises(DegenerateDesignError, match="gene 0 "):
            EvidenceCache(m).fill_prefixes(ranking)


class TestFitSpectra:
    def test_single_regression_form(self):
        """A single regression is a record of one, rows of different
        ranks fitted as one joined record fit as they do alone, to the bit,
        and ``fit_local``'s bound is the fit's, to the bit."""
        problems = [random_problem(20, k, seed=seed)
                    for k, seed in ((4, 1), (3, 4), (6, 2), (30, 9))]
        rows = [make_workspace(*prob)[0] for prob in problems]
        assert len({len(row.d2) for row in rows}) == len(rows)
        alone = [fit_spectra(row, VAGUE) for row in rows]
        for prob, got in zip(problems, alone):
            assert got.bound.shape == got.evaluations.shape == (1,)
            vp = fit_local(*prob, VAGUE)
            assert vp.lower_bound == got.bound[0]
            assert vp.iterations == got.evaluations[0]
        joined = fit_spectra(vb.join(rows), VAGUE)
        np.testing.assert_array_equal(
            joined.evaluations, [f.evaluations[0] for f in alone])
        np.testing.assert_array_equal(joined.bound,
                                      [f.bound[0] for f in alone])

    def test_mixed_ranks_fit_as_alone(self):
        """One solve over joined blocks that mix full-rank rows, rows on at
        least n - 1 centred covariates and a row on a duplicated gene, of
        lower rank than its block's others, gives each row its lone
        ``fit_local`` fit."""
        rng = np.random.default_rng(7)
        values = rng.standard_normal((8, 12))
        values[:, 11] = values[:, 10]  # a duplicated gene
        values -= values.mean(axis=0)
        hp = HyperParameters(a=0.5, b=4.0)
        rows = [(0, [10, 11]), (1, [3, 4]), (2, [5, 6]),
                (0, list(range(1, 10))), (1, [0, *range(2, 10)]),
                (2, [0, 1, 3])]
        by_k = {}
        for gene, covariates in rows:
            by_k.setdefault(len(covariates), []).append((gene, covariates))
        order = [row for group in by_k.values() for row in group]
        blocks = [make_workspace(values, [g for g, _ in group],
                                 [c for _, c in group])[0]
                  for group in by_k.values()]
        # each row's directions count its rank: the duplicated gene's is 1
        np.testing.assert_array_equal(np.bincount(blocks[0].row), [1, 2, 2])
        np.testing.assert_array_equal(np.bincount(blocks[1].row), [7, 7])
        fit = fit_spectra(vb.join(blocks), hp)
        for row, (gene, covariates) in enumerate(order):
            vp = fit_local(values, gene, covariates, hp)
            assert fit.bound[row] == vp.lower_bound, (gene, covariates)
            assert fit.evaluations[row] == vp.iterations, (gene, covariates)


    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
    @pytest.mark.parametrize("k", [3, 11, 15, 19])
    def test_scoring_sweep_keeps_the_root_rate(self, k, scale):
        """The sweep that scores a fit reads the residual R the root was
        solved on, so ``fit_local``'s d* is the root's within the solve's
        tolerance on centred designs of any scale, with fewer covariates
        than n = 12 samples and more; a design whose R rounds below -2d
        fails alike in both."""
        n = 12
        hp = selection_prior(n)
        for seed in range(40):
            values = np.random.default_rng(seed).standard_normal(
                (n, k + 1)) * scale
            values -= values.mean(axis=0)
            covariates = np.arange(1, k + 1)
            try:
                root = fit_spectra(make_workspace(values, 0, covariates)[0],
                                   hp).d_star[0]
            except NumericalFailureError:
                with pytest.raises(NumericalFailureError):
                    fit_local(values, 0, covariates, hp)
                continue
            vp = fit_local(values, 0, covariates, hp)
            assert abs(vp.d_star - root) <= 1e-8 * root, seed

    def test_unsettled_solve_fails(self, monkeypatch):
        """A solve that has not settled within ``MAX_EVALUATIONS`` raises
        rather than return a fit short of its fixed point."""
        spectra = make_workspace(*random_problem(20, 4, seed=1))[0]
        monkeypatch.setattr(vb, "MAX_EVALUATIONS", 2)
        with pytest.raises(NumericalFailureError, match="2 evaluations"):
            fit_spectra(spectra, VAGUE)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 25),
    k=st.integers(1, 10),
    seed=st.integers(0, 10_000),
)
def test_trajectory_never_decreases(n, k, seed):
    # the reported bound uses the simplified fixed-point expression, whose
    # monotonicity is guaranteed in the vague-prior regime the fit runs in
    prob = random_problem(n, k, seed=seed)
    vp = swept(prob, VAGUE, 3)
    for _ in range(10):
        nxt = vb_sweep(vp, *prob, VAGUE)
        assert nxt.lower_bound >= vp.lower_bound - 1e-8
        vp = nxt


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(0, 15),
    a=st.floats(0.01, 10.0),
    b=st.floats(0.01, 10.0),
)
def test_extra_sweeps_at_fixed_point_change_nothing(seed, k, a, b):
    """``fit_local`` ends at a fixed point of the sweeps, with fewer
    covariates than samples, as many, and more (n = 12): one more sweep
    moves neither rate."""
    values, gene, covariates = random_problem(12, max(k, 1), seed=seed)
    prob = values, gene, covariates[:k]
    hp = HyperParameters(a=a, b=b)
    vp = fit_local(*prob, hp)
    nxt = vb_sweep(vp, *prob, hp)
    assert abs(nxt.b_star - vp.b_star) < 1e-9 * vp.b_star
    assert abs(nxt.d_star - vp.d_star) < 1e-9 * vp.d_star
    assert nxt.lower_bound >= vp.lower_bound - 1e-8
    np.testing.assert_allclose(nxt.beta_mean, vp.beta_mean, atol=1e-6)
