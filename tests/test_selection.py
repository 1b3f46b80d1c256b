import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinknet.data import standardize
from shrinknet.em import EmConfig, fit_sem
from shrinknet.selection import (
    EvidenceCache,
    StopConfig,
    estimate_p0,
    forward_select,
    kappa_scores,
    rank_edges,
    selection_prior,
    threshold_gamma,
)
from shrinknet.simulate import make_structure, sample_mvn, sample_precision


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(42)
    g = make_structure("band", 10, params={"bandwidth": 1}, rng=rng)
    omega = sample_precision(g, rng=rng)
    m = standardize(sample_mvn(omega, 80, rng=rng))
    return g, m


@pytest.fixture(scope="module")
def fitted(dataset):
    _, m = dataset
    return fit_sem(m, EmConfig(tol=1e-4))


class TestKappa:
    def test_shape_and_diagonal(self, fitted):
        kappa = kappa_scores(fitted)
        p = fitted.n_genes
        assert kappa.shape == (p, p)
        np.testing.assert_array_equal(np.diag(kappa), 0.0)
        assert np.all(kappa >= 0)

    def test_values_match_posteriors(self, fitted):
        kappa = kappa_scores(fitted)
        vp = fitted.posteriors[0]
        expect = np.abs(vp.beta_mean) / np.sqrt(vp.beta_var)
        np.testing.assert_allclose(kappa[0, 1:], expect)


class TestRanking:
    def test_orders_descending_with_deterministic_ties(self):
        kappa = np.array(
            [[0.0, 2.0, 1.0], [4.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        ranking = rank_edges(kappa)
        assert [(e.i, e.j) for e in ranking] == [(0, 1), (0, 2), (1, 2)]
        assert [e.kappa_bar for e in ranking] == [3.0, 1.0, 1.0]
        assert [e.rank for e in ranking] == [1, 2, 3]

    def test_covers_all_pairs(self, fitted):
        ranking = rank_edges(kappa_scores(fitted))
        p = fitted.n_genes
        assert len(ranking) == p * (p - 1) // 2

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            rank_edges(np.zeros((2, 3)))


class TestBayesFactors:
    def test_prior_scales_with_n(self):
        hp = selection_prior(50)
        assert hp.a == 0.5
        assert hp.b == 25.0

    def test_strong_edge_outscores_absent_edge(self, dataset):
        g, m = dataset
        cache = EvidenceCache(m)
        # (3, 4) has the largest partial correlation among band edges in
        # this draw; (0, 9) is off-graph
        bf_edge = cache.bayes_factor(3, 4, frozenset())
        bf_far = cache.bayes_factor(0, 9, frozenset())
        assert bf_edge > 1.0 > bf_far

    def test_cache_hits_are_exact(self, dataset):
        _, m = dataset
        cache = EvidenceCache(m)
        first = cache.bayes_factor(0, 1, frozenset())
        again = cache.bayes_factor(0, 1, frozenset())
        assert first == again

    def test_precondition_checks(self, dataset):
        _, m = dataset
        cache = EvidenceCache(m)
        with pytest.raises(ValueError, match="already in conditioning"):
            cache.bayes_factor(0, 1, frozenset({1}))
        with pytest.raises(ValueError, match="response"):
            cache.bayes_factor(0, 0, frozenset())
        with pytest.raises(ValueError, match="response"):
            cache.bayes_factor(0, 2, frozenset({0}))


class TestThreshold:
    def test_worked_value(self):
        assert threshold_gamma(0.1, 0.9) == pytest.approx(81.0)

    def test_monotone_in_p0(self):
        assert threshold_gamma(0.1, 0.95) > threshold_gamma(0.1, 0.5)

    @pytest.mark.parametrize("alpha,p0", [(0.0, 0.5), (1.0, 0.5),
                                          (0.1, 0.0), (0.1, 1.0)])
    def test_rejects_boundary(self, alpha, p0):
        with pytest.raises(ValueError):
            threshold_gamma(alpha, p0)

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(0.01, 0.5),
        p0=st.floats(0.01, 0.99),
        log_bf=st.floats(-20, 20),
    )
    def test_rule_equivalence(self, alpha, p0, log_bf):
        # comparing BF to gamma is the same as bounding the null probability
        gamma = threshold_gamma(alpha, p0)
        bf = math.exp(log_bf)
        bound = p0 / (p0 + (1 - p0) * bf)
        assert (bf >= gamma) == (bound <= alpha)


class TestP0AndSelection:
    def test_estimate_p0_clamped(self, dataset):
        _, m = dataset
        ranking = rank_edges(kappa_scores(fit_sem(m, EmConfig(tol=1e-3))))
        p0 = estimate_p0(m, ranking)
        big_p = len(ranking)
        assert 1 / (2 * big_p) <= p0 <= 1 - 1 / (2 * big_p)

    def test_forward_select_identity_holds(self, dataset, fitted):
        _, m = dataset
        ranking = rank_edges(kappa_scores(fitted))
        cache = EvidenceCache(m)
        p0 = estimate_p0(m, ranking, cache=cache)
        res = forward_select(m, ranking, alpha=0.1, p0=p0, cache=cache)
        assert res.p0_hat == p0
        for d in res.decisions:
            assert d.selected == (d.bayes_factor_max > res.gamma)
            assert (d.bayes_factor_max >= res.gamma) == (
                d.p0_posterior_bound <= 0.1
            )

    def test_bayes_factor_at_threshold_is_rejected(self, dataset):
        # at alpha = 0.05, p0 = 0.5 a Bayes factor of exactly gamma maps to
        # a null-probability bound a rounding step above alpha; the edge
        # must be rejected by the one rule, with no exception
        _, m = dataset
        alpha, p0 = 0.05, 0.5
        gamma = threshold_gamma(alpha, p0)

        class AtThreshold:
            p = 3

            def bayes_factor(self, response, candidate, conditioning):
                return gamma

        ranking = rank_edges(np.ones((3, 3)) - np.eye(3))
        res = forward_select(m, ranking, alpha=alpha, p0=p0,
                             stop=StopConfig(use_rmax=False),
                             cache=AtThreshold())
        assert res.ranks_evaluated == 3
        assert res.selected == frozenset()
        assert not any(d.selected for d in res.decisions)
        assert all(d.bayes_factor_max == gamma for d in res.decisions)

    def test_selected_edges_recover_band_neighbors(self, dataset, fitted):
        g, m = dataset
        ranking = rank_edges(kappa_scores(fitted))
        cache = EvidenceCache(m)
        p0 = estimate_p0(m, ranking, cache=cache)
        res = forward_select(m, ranking, alpha=0.1, p0=p0, cache=cache)
        true_edges = g.edges
        hits = len(res.selected & true_edges)
        assert hits >= len(res.selected) // 2  # mostly true positives

    def test_rank_budget_limits_walk(self, dataset, fitted):
        _, m = dataset
        ranking = rank_edges(kappa_scores(fitted))
        res = forward_select(
            m, ranking, alpha=0.1, p0=0.99,
            stop=StopConfig(use_rmax=True),
        )
        # with p0 = 0.99 the rank budget is ceil(0.45) = 1 edge
        assert res.ranks_evaluated <= 1

    def test_patience_stops_after_rejections(self, dataset, fitted):
        _, m = dataset
        ranking = rank_edges(kappa_scores(fitted))
        res = forward_select(
            m, ranking, alpha=0.1, p0=0.5,
            stop=StopConfig(patience=2, use_rmax=False),
        )
        trailing = [d.selected for d in res.decisions[-2:]]
        assert trailing == [False, False] or res.ranks_evaluated == len(
            ranking
        )
