import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import dense_vb_fit
from shrinknet.data import ExpressionMatrix, standardize
from shrinknet.em import EmConfig, fit_sem
from shrinknet.errors import NumericalFailureError
from shrinknet.pipeline import infer_network
from shrinknet.selection import (
    EdgeRanking,
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
from shrinknet import vb
from shrinknet.vb import SpectraFit, fit_local, fit_spectra, stack_spectra


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
        expect = np.abs(fitted.beta_mean[0]) / np.sqrt(fitted.beta_var[0])
        np.testing.assert_allclose(kappa[0, 1:], expect)


    def test_matches_per_gene_loop(self, fitted):
        p = fitted.n_genes
        expect = np.zeros((p, p))
        for j, (mean, var) in enumerate(zip(fitted.beta_mean,
                                            fitted.beta_var)):
            partners = [k for k in range(p) if k != j]
            expect[j, partners] = np.abs(mean) / np.sqrt(var)
        np.testing.assert_array_equal(kappa_scores(fitted), expect)

    def test_zero_variance_names_the_pair(self, fitted):
        var = fitted.beta_var.copy()
        var[3, 4] = 0.0  # gene 3's design skips column 3: entry 4 is gene 5
        bad = dataclasses.replace(fitted, beta_var=var)
        with pytest.raises(NumericalFailureError, match=r"pair \(3, 5\)"):
            kappa_scores(bad)


def _rows(ranking):
    """The ranking as (i, j, kappa_bar) tuples in rank order."""
    return list(zip(ranking.i.tolist(), ranking.j.tolist(),
                    ranking.kappa_bar.tolist()))


def _rank_by_sort(kappa):
    """The ranking as a sort of (-kappa_bar, i, j) tuples."""
    p = kappa.shape[0]
    pairs = sorted(
        (-(0.5 * (kappa[i, j] + kappa[j, i])), i, j)
        for i in range(p) for j in range(i + 1, p)
    )
    return [(i, j, -neg) for neg, i, j in pairs]


class TestRanking:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_tuple_sort(self, seed):
        # rounded entries make many ties, broken on (i, j)
        kappa = np.round(np.random.default_rng(seed).random((9, 9)), 1)
        ranking = rank_edges(kappa)
        assert _rows(ranking) == _rank_by_sort(kappa)
        # rank r is entry r - 1 of each array
        assert len(ranking) == ranking.i.size == ranking.j.size == 36

    def test_orders_descending_with_deterministic_ties(self):
        kappa = np.array(
            [[0.0, 2.0, 1.0], [4.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        )
        ranking = rank_edges(kappa)
        assert [row[:2] for row in _rows(ranking)] == [(0, 1), (0, 2),
                                                       (1, 2)]
        assert ranking.kappa_bar.tolist() == [3.0, 1.0, 1.0]
        assert len(ranking) == ranking.i.size == ranking.j.size == 3

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
        # comparing BF to gamma is the same as bounding the null probability;
        # at an exact tie the two sides may round apart, so ties are left to
        # test_bayes_factor_at_threshold_is_rejected
        gamma = threshold_gamma(alpha, p0)
        bf = math.exp(log_bf)
        assume(abs(bf / gamma - 1.0) > 1e-12)
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
        for bf, bound, accepted in zip(res.bayes_factor_max,
                                       res.p0_posterior_bound, res.accepted):
            assert accepted == (bf > res.gamma)
            assert (bf >= res.gamma) == (bound <= 0.1)

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
        assert not any(res.accepted)
        assert all(res.bayes_factor_max == gamma)

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
        trailing = res.accepted[-2:].tolist()
        assert trailing == [False, False] or res.ranks_evaluated == len(
            ranking
        )


def _ranked_partners(ranking, p):
    partners = [[] for _ in range(p)]
    for i, j, _ in _rows(ranking):
        partners[i].append(j)
        partners[j].append(i)
    return partners


def _scan_input(p, n, seed, duplicate):
    """Correlated standardized data and a random ranking of its pairs."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x[:, 1:] += 0.6 * x[:, :-1]
    if duplicate:
        x[:, -1] = x[:, 0]  # every design holding both is rank-deficient
    m = standardize(ExpressionMatrix(
        x, [f"g{i}" for i in range(p)], [f"s{i}" for i in range(n)]
    ))
    return m, rank_edges(rng.random((p, p)))


SCAN_CASES = {
    "tall": (12, 30, 0, False),
    "wide": (20, 8, 1, False),  # prefixes of 8 or more genes have k >= n
    "duplicate": (10, 15, 2, True),
}


def _replayed_p0(m, ranking):
    """p0 by walking the ranking with a ``fit_local`` evidence for every
    prefix: at each rank, each direction's Bayes factor conditions on the
    response's partners ranked so far. Returns p0, the fits by (gene,
    covariates) and their sweeps in all."""
    cache = EvidenceCache(m)
    fits = {}

    def evidence(g, covariates):
        if (g, covariates) not in fits:
            fits[g, covariates] = fit_local(cache.values, g,
                                            sorted(covariates), cache.prior)
        return fits[g, covariates].lower_bound

    partners = {g: set() for g in range(m.n_genes)}
    count = 0
    for i, j, _ in _rows(ranking):
        partners[i].add(j)
        partners[j].add(i)
        for resp, cand in ((i, j), (j, i)):
            cond = frozenset(partners[resp] - {cand})
            delta = evidence(resp, cond | {cand}) - evidence(resp, cond)
            count += (math.inf if delta > 700.0 else math.exp(delta)) <= 1.0
    lo = 1.0 / (2.0 * len(ranking))
    p0 = min(max(count / (2.0 * len(ranking)), lo), 1.0 - lo)
    return p0, fits, sum(vp.iterations for vp in fits.values())


class TestBatchedScan:
    @pytest.mark.parametrize("max_iter", [1000, 2])
    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_matches_fit_local_on_every_prefix(self, case, max_iter,
                                               monkeypatch):
        m, ranking = _scan_input(*SCAN_CASES[case])
        p = m.n_genes
        cache = EvidenceCache(m)
        partners = _ranked_partners(ranking, p)
        order = np.array(partners)
        # two blocks of responses per prefix length; a small budget makes
        # groups that join blocks of different widths and prefix lengths
        plan = [(genes, t) for t in range(p)
                for genes in np.array_split(np.arange(p), 2)]
        monkeypatch.setattr(vb, "STACK_DOUBLES", 150)
        groups = list(vb.stack_groups(
            vb.make_workspace(cache.values, genes,
                              np.sort(order[genes, :t], axis=1))[0]
            for genes, t in plan))
        assert 1 < len(groups) < len(plan)
        fits = [fit_spectra(stack_spectra(group), cache.prior,
                            max_iter=max_iter) for group in groups]
        fit = SpectraFit(*(np.concatenate([getattr(f, name) for f in fits])
                           for name in ("bound", "iterations", "converged",
                                        "b_last", "d_last")))
        keys = [(g, t) for genes, t in plan for g in genes]
        assert len(fit.bound) == len(keys) == p * p
        for row, (g, t) in enumerate(keys):
            vp = fit_local(cache.values, g, sorted(partners[g][:t]),
                           cache.prior, max_iter=max_iter)
            assert abs(fit.bound[row] - vp.lower_bound) <= 1e-8, (g, t)
            assert fit.iterations[row] == vp.iterations, (g, t)
            assert fit.converged[row] == vp.converged, (g, t)
        if max_iter == 2:  # only the closed-form empty prefixes settle
            assert (fit.converged == [t == 0 for _, t in keys]).all()

    @pytest.mark.parametrize("budget", [1, 1 << 30])
    def test_budget_moves_no_result(self, budget, monkeypatch):
        """The working-memory budget only sets how the EM setup and the
        scan are split: one gene per block and one block per group, or
        the whole scan in one group, gives the default's results."""
        m, ranking = _scan_input(24, 20, 4, False)
        p, n = m.n_genes, m.n_samples
        order = np.array(_ranked_partners(ranking, p))

        def splits():
            blocks = vb.gene_blocks(p, n * p)
            groups = vb.stack_groups(
                vb.make_workspace(m.values, genes,
                                  np.sort(order[genes, :t], axis=1))[0]
                for t in range(p) for genes in blocks)
            return (len(vb.gene_blocks(p, n * (p - 1))), len(blocks),
                    sum(1 for _ in groups))

        assert all(1 < count < p for count in splits())  # the default
        sem, cache = fit_sem(m), EvidenceCache(m)
        table = cache.fill_prefixes(ranking).copy()
        monkeypatch.setattr(vb, "STACK_DOUBLES", budget)
        assert splits() == ((p, p, p * p) if budget == 1 else (1, 1, 1))
        other, patched = fit_sem(m), EvidenceCache(m)
        np.testing.assert_allclose(patched.fill_prefixes(ranking), table,
                                   rtol=0, atol=1e-12)
        assert patched.stats == cache.stats
        np.testing.assert_allclose(other.lower_bounds[-1],
                                   sem.lower_bounds[-1], rtol=0, atol=1e-12)
        assert other.em_iterations == sem.em_iterations
        np.testing.assert_allclose(other.beta_mean, sem.beta_mean,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(other.beta_var, sem.beta_var, rtol=1e-12)

    def test_table_matches_dense_oracle(self):
        """Every prefix evidence against the dense Cholesky fit, with
        prefixes shorter than, equal to and longer than the n - 1 centred
        samples can span."""
        m, ranking = _scan_input(12, 10, 3, False)
        cache = EvidenceCache(m)
        table = cache.fill_prefixes(ranking)
        prior = cache.prior
        for g, partners in enumerate(_ranked_partners(ranking, m.n_genes)):
            for t in range(m.n_genes):
                *_, bound = dense_vb_fit(
                    cache.values[:, g], cache.values[:, sorted(partners[:t])],
                    prior.a, prior.b, prior.c, prior.d, tol=1e-3,
                    max_iter=1000,
                )
                assert abs(table[g, t] - bound) <= 1e-8, (g, t)

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_estimate_p0_matches_ranking_replay(self, case):
        m, ranking = _scan_input(*SCAN_CASES[case])
        p = m.n_genes
        cache = EvidenceCache(m)
        p0, fits, sweeps = _replayed_p0(m, ranking)
        assert estimate_p0(m, ranking, cache=cache) == p0
        assert len(fits) == cache.stats["submodel_fits"] == p * p
        assert cache.stats["submodel_sweeps"] == sweeps
        for (g, covariates), vp in fits.items():
            assert abs(cache.log_evidence(g, covariates)
                       - vp.lower_bound) <= 1e-8

    @pytest.mark.parametrize("cut", ["incomplete", "duplicated"])
    def test_rejects_a_ranking_without_every_pair_once(self, cut):
        m, ranking = _scan_input(*SCAN_CASES["tall"])
        keep = np.arange(len(ranking) - 1)
        if cut == "duplicated":  # as many edges, one pair twice
            keep = np.r_[keep, 0]
        with pytest.raises(ValueError, match="every gene pair once"):
            estimate_p0(m, EdgeRanking(ranking.i[keep], ranking.j[keep],
                                       ranking.kappa_bar[keep]))

    def test_stats_count_scan_and_selection_misses(self):
        m, _ = _scan_input(16, 30, 4, False)
        res = infer_network(m, pre_standardized=True)
        p = m.n_genes
        prefixes = {
            (g, frozenset(got[:t]))
            for g, got in enumerate(_ranked_partners(res.ranking, p))
            for t in range(p)
        }
        # the sub-models forward selection looks up, replayed from its
        # decisions: each direction conditions on the partners selected
        # at earlier ranks
        chosen = {g: set() for g in range(p)}
        looked_up = set()
        for (i, j, _), accepted in zip(_rows(res.ranking),
                                       res.selection.accepted.tolist()):
            for resp, cand in ((i, j), (j, i)):
                cond = frozenset(chosen[resp])
                looked_up |= {(resp, cond), (resp, cond | {cand})}
            if accepted:
                chosen[i].add(j)
                chosen[j].add(i)
        misses = len(looked_up - prefixes)
        assert misses > 0
        stats = res.submodel_stats
        assert stats["submodel_fits"] == p * p + misses
        assert stats["submodel_sweeps"] >= 2 * stats["submodel_fits"]
        assert stats["submodel_nonconverged"] == 0


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), perm=st.permutations(range(8)))
def test_relabelling_genes_relabels_kappa_and_selection(seed, perm):
    """Permuting the genes permutes kappa and relabels the selected set:
    the model gives no gene a special place."""
    m, _ = _scan_input(8, 40, seed, False)
    perm = np.array(perm)
    moved = ExpressionMatrix(m.values[:, perm],
                             [m.gene_ids[g] for g in perm], m.sample_ids)
    before = infer_network(m, pre_standardized=True)
    after = infer_network(moved, pre_standardized=True)
    # gene c of the permuted matrix is gene perm[c] of the original
    np.testing.assert_allclose(after.kappa, before.kappa[np.ix_(perm, perm)],
                               rtol=1e-8, atol=0)
    assert after.p0_hat == before.p0_hat
    assert {tuple(sorted((int(perm[i]), int(perm[j]))))
            for i, j in after.selection.selected} == before.selection.selected
