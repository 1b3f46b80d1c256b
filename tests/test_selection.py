import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dense_vb_fit, mp_dense_vb_bound, quadrature_log_evidences
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
from shrinknet import em, selection, vb
from shrinknet.vb import fit_local, fit_spectra
from test_traced_run import _chain_values


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
    # bf past exp's range: the bound is 0.0 for any p0 in (0, 1)
    @example(alpha=0.1, p0=0.99, log_bf=math.inf)
    @example(alpha=0.1, p0=1e-300, log_bf=math.inf)
    def test_rule_equivalence(self, alpha, p0, log_bf):
        # comparing BF to gamma is the same as bounding the null probability;
        # at an exact tie the two sides may round apart, so ties are left to
        # test_bayes_factor_at_threshold_is_rejected
        gamma = threshold_gamma(alpha, p0)
        bf = math.exp(log_bf)
        assume(abs(bf / gamma - 1.0) > 1e-12)
        bound = p0 / (p0 + (1 - p0) * bf)
        assert (bf >= gamma) == (bound <= alpha)
        assert selection._null_probability(bf, p0) == bound
        if math.isinf(bf):
            assert bound == 0.0


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

            def fit_ahead(self, submodels):
                pass

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


def _chain_matrix(p, n, seed):
    return ExpressionMatrix(_chain_values(p, n, seed),
                            [f"g{i}" for i in range(p)],
                            [f"s{i}" for i in range(n)])


SCAN_CASES = {
    "tall": (12, 30, 0, False),
    "wide": (20, 8, 1, False),  # prefixes of 8 or more genes have k >= n
    "duplicate": (10, 15, 2, True),
}


def _replayed_p0(m, ranking):
    """p0 by walking the ranking with a ``fit_local`` evidence for every
    prefix: at each rank, each direction's Bayes factor conditions on the
    response's partners ranked so far. Returns p0, the fits by (gene,
    covariates) and their solver evaluations in all."""
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
    @pytest.mark.parametrize("budget", [1000, 2])
    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_matches_fit_local_on_every_prefix(self, case, budget,
                                               monkeypatch):
        """Prefix sub-models fitted by the scan have the bits and the
        evaluation counts of lone ``fit_local`` fits, whether a budget of
        1000 doubles joins blocks of different widths and prefix lengths
        into one solve or a budget of 2 fits about a block a solve."""
        m, ranking = _scan_input(*SCAN_CASES[case])
        p = m.n_genes
        cache = EvidenceCache(m)
        partners = _ranked_partners(ranking, p)
        monkeypatch.setattr(selection, "STACK_DOUBLES", budget)
        fits = []

        def fit(spectra, hp):
            fits.append(vb.fit_spectra(spectra, hp))
            return fits[-1]

        monkeypatch.setattr(selection, "fit_spectra", fit)
        with mock.patch.object(selection, "make_workspace",
                               wraps=vb.make_workspace) as setup:
            table = cache.fill_prefixes(ranking)
        if budget == 1000:
            assert len(fits) < setup.call_count
        evaluations = np.concatenate([got.evaluations for got in fits])
        assert len(evaluations) == p * p
        for row, (t, g) in enumerate(np.ndindex(p, p)):
            vp = fit_local(cache.values, g, sorted(partners[g][:t]),
                           cache.prior)
            assert table[g, t] == vp.lower_bound, (g, t)
            assert evaluations[row] == vp.iterations, (g, t)

    @pytest.mark.parametrize("budget", [1, 1 << 30])
    def test_budget_moves_no_result(self, budget, monkeypatch):
        """The working-memory budget only sets how the scan is split: one
        gene per setup call and one block per solve, or one setup call per
        prefix length and the whole scan in one solve, gives the default's
        results to the bit, and the EM does not read it."""
        m, ranking = _scan_input(30, 20, 4, False)
        p = m.n_genes

        def scan():
            """The table, the stats and (setup calls, solves)."""
            cache = EvidenceCache(m)
            with mock.patch.object(selection, "make_workspace",
                                   wraps=vb.make_workspace) as setup, \
                    mock.patch.object(selection, "fit_spectra",
                                      wraps=vb.fit_spectra) as fit:
                table = cache.fill_prefixes(ranking).copy()
            return table, cache.stats, (setup.call_count, fit.call_count)

        table, stats, split = scan()
        # the default: more than one setup call for some prefix lengths,
        # and every row and direction of the scan in one solve
        assert split == (32, 1)
        sem = fit_sem(m)
        monkeypatch.setattr(selection, "STACK_DOUBLES", budget)
        other_table, other_stats, split = scan()
        assert split == ((p * p, p * p) if budget == 1 else (p, 1))
        np.testing.assert_array_equal(other_table, table)
        assert other_stats == stats
        other = fit_sem(m)
        np.testing.assert_allclose(other.lower_bounds[-1],
                                   sem.lower_bounds[-1], rtol=0, atol=1e-12)
        assert other.em_iterations == sem.em_iterations
        np.testing.assert_allclose(other.beta_mean, sem.beta_mean,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(other.beta_var, sem.beta_var, rtol=1e-12)

    def test_setup_calls_fill_the_budget(self, monkeypatch):
        """Each setup call of the scan gathers at most
        ``selection.STACK_DOUBLES`` design doubles, as many as its own
        prefix length's designs fit: 78 calls at (p, n) = (40, 30), where
        blocks sized for the widest design, n p doubles a response, took
        160."""
        m, ranking = _scan_input(40, 30, 0, False)
        gathered = []

        def setup(values, genes, covariates):
            gathered.append(np.size(covariates) * len(values))
            return vb.make_workspace(values, genes, covariates)

        monkeypatch.setattr(selection, "make_workspace", setup)
        EvidenceCache(m).fill_prefixes(ranking)
        assert len(gathered) == 78
        assert max(gathered) <= selection.STACK_DOUBLES

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
                    prior.a, prior.b, prior.c, prior.d, tol=1e-12,
                    max_iter=100_000,
                )
                assert abs(table[g, t] - bound) <= 1e-8 * abs(bound), (g, t)

    def test_table_accurate_at_the_data_rank(self):
        """At n - 1 partners a gene's centred design spans its response
        and its cross-product's smallest eigenvalue is below 1e-7 of the
        largest. Two such prefix evidences of the default ranking of a
        chain input agree to 1e-12 with one sweep of a 50-digit dense fit
        from the rates of their fixed points."""
        p, n = 60, 20
        m = standardize(_chain_matrix(p, n, 3))
        ranking = rank_edges(kappa_scores(fit_sem(m)))
        cache = EvidenceCache(m)
        table = cache.fill_prefixes(ranking)
        partners = _ranked_partners(ranking, p)
        prior = cache.prior
        for g in (13, 38):
            covariates = sorted(partners[g][:n - 1])
            fit = fit_spectra(vb.make_workspace(cache.values, g,
                                                covariates)[0], prior)
            want = mp_dense_vb_bound(
                cache.values[:, g], cache.values[:, covariates], prior.a,
                prior.b, prior.c, prior.d, 1, rate_init=fit.b_star[0],
                d_init=fit.d_star[0])
            assert abs(table[g, n - 1] - want) <= 1e-12 * abs(want), g

    def test_table_matches_eigenvalue_oracle(self, monkeypatch):
        """Every prefix evidence, with prefixes shorter than, at and past
        the n - 1 centred samples, against one from eigenvalues alone: the
        lambda of G = D^T D (all k, so directions outside the row space
        enter as 0) and the nu of G_aug, the cross-product of [D y]. At
        the entry's root e = a*/b*, R(e) + e is det(G_aug + eI) /
        det(G + eI), and its log-derivative gives ||theta||^2 = (R + e)
        (sum 1/(nu + e) - sum 1/(lambda + e)) - 1. The route's R is read
        off its fitted d* = (d + R/2) / (1 - k/(2c*)). One sweep from the
        fitted rates gives d_new = d + R/2 + k / (2 E[sigma^-2]), since
        tr(G M^-1) + e tr M^-1 = k, and b_new from it; the bound of those
        rates, with the terms of ``dense_vb_fit``'s, is the entry's, and
        e is a root: a*/b_new returns it to the solve's tolerance. On a
        random ranking of a full-rank and of a duplicated-gene input, and
        on a chain input ranked by the default EM."""
        fits = []

        def fit(spectra, hp):
            fits.append(vb.fit_spectra(spectra, hp))
            return fits[-1]

        monkeypatch.setattr(selection, "fit_spectra", fit)
        chain = standardize(_chain_matrix(40, 30, 1))
        for m, ranking in (_scan_input(12, 10, 3, False),
                           _scan_input(10, 15, 2, True),
                           (chain, rank_edges(kappa_scores(fit_sem(chain))))):
            p, n = m.n_genes, m.n_samples
            cache = EvidenceCache(m)
            fits.clear()
            table = cache.fill_prefixes(ranking)
            b_star, d_star = (np.concatenate([getattr(got, name)
                                              for got in fits])
                              for name in ("b_star", "d_star"))
            a, b, c, d = dataclasses.astuple(cache.prior)
            partners = _ranked_partners(ranking, p)
            for row, (t, g) in enumerate(np.ndindex(p, p)):
                a_star, c_star = a + 0.5 * t, c + 0.5 * (n + t)
                e, e_sig = a_star / b_star[row], c_star / d_star[row]
                resid = 2.0 * (d_star[row] * (1.0 - t / (2.0 * c_star)) - d)
                design = cache.values[:, sorted(partners[g][:t])]
                augmented = np.column_stack([design, cache.values[:, g]])
                lam = np.linalg.eigvalsh(design.T @ design) + e
                nu = np.linalg.eigvalsh(augmented.T @ augmented) + e
                r_e = np.exp(np.log(nu).sum() - np.log(lam).sum())
                assert abs(resid + e - r_e) <= 1e-10 * r_e, (g, t)
                theta2 = r_e * ((1.0 / nu).sum() - (1.0 / lam).sum()) - 1.0
                ebb = theta2 + (1.0 / lam).sum() / e_sig
                d_new = d + 0.5 * (r_e - e) + 0.5 * t / e_sig
                b_new = b + 0.5 * (c_star / d_new) * ebb
                bound = (-0.5 * n * math.log(2.0 * math.pi)
                         + 0.5 * (-t * math.log(e_sig) - np.log(lam).sum())
                         + 0.5 * t + a * math.log(b) - math.lgamma(a)
                         - a_star * math.log(b_new) + math.lgamma(a_star)
                         + c * math.log(d) - math.lgamma(c)
                         - c_star * math.log(d_new) + math.lgamma(c_star)
                         + 0.5 * (c_star / d_new) * (a_star / b_new) * ebb)
                assert abs(table[g, t] - bound) <= 1e-10 * abs(bound), (g, t)
                assert abs(math.log(a_star / b_new) - math.log(e)) <= \
                    vb.STEP_RTOL * max(1.0, abs(math.log(e))), (g, t)

    def test_table_below_exact_evidence(self):
        """Every prefix evidence is a lower bound on the sub-model's exact
        log evidence, within the quadrature's stated error, and equals it
        at t = 0, where the factorized posterior is exact. The exact
        evidence integrates sigma and beta out of the model and takes the
        integral over log tau^-2 by quadrature, from the spectrum of each
        design's cross-product by ``np.linalg.eigh``. On a random ranking
        of a full-rank and of a duplicated-gene input, and on a chain
        input ranked by the default EM."""
        chain = standardize(_chain_matrix(40, 30, 1))
        for m, ranking in (_scan_input(12, 10, 3, False),
                           _scan_input(10, 15, 2, True),
                           (chain, rank_edges(kappa_scores(fit_sem(chain))))):
            p, n = m.n_genes, m.n_samples
            cache = EvidenceCache(m)
            table = cache.fill_prefixes(ranking)
            partners = _ranked_partners(ranking, p)
            d2, w = np.zeros((2, p * p, n))  # rank <= n - 1, centred
            yty = np.empty(p * p)
            for row, (t, g) in enumerate(np.ndindex(p, p)):
                design = cache.values[:, sorted(partners[g][:t])]
                y = cache.values[:, g]
                lam, v = np.linalg.eigh(design.T @ design)
                # below 1e-12 of the largest, an eigenvalue is the rounding
                # of an exact zero: a centred design has rank < n
                keep = lam > 1e-12 * lam.max(initial=0.0)
                d2[row, :keep.sum()] = lam[keep]
                w[row, :keep.sum()] = (v.T @ (design.T @ y))[keep]
                yty[row] = y @ y
            exact, error = (x.reshape(p, p).T
                            for x in quadrature_log_evidences(
                                d2, w, yty, n,
                                *dataclasses.astuple(cache.prior)))
            assert np.all(np.abs(table[:, 0] - exact[:, 0]) <= error[:, 0])
            assert np.all(table[:, 1:] <= exact[:, 1:] + error[:, 1:])

    @pytest.mark.parametrize("p, n, duplicate", [
        (40, 30, False), (60, 20, False), (30, 60, False), (20, 12, True),
        (12, 30, True)])
    def test_last_column_matches_the_em_provider(self, p, n, duplicate):
        """The table's last column, each gene on all p - 1 others, is the
        regression whose sums the EM forms from Schur complements of one
        spectrum of the whole matrix (``em._leave_one_out``). The root
        solve on that provider at the selection prior gives every entry to
        1e-10, on chain inputs with p < n, p > n and a duplicated gene,
        and shares no sub-design eigenvector with the scan."""
        x = _chain_values(p, n, 1)
        if duplicate:
            x[:, -1] = x[:, 0]
        m = standardize(ExpressionMatrix(x, [f"g{i}" for i in range(p)],
                                         [f"s{i}" for i in range(n)]))
        cache = EvidenceCache(m)
        table = cache.fill_prefixes(
            rank_edges(np.random.default_rng(0).random((p, p))))
        sp = em._gram_spectrum(cache.values)
        fit = vb.solve_fixed_points(cache.prior, n, np.full(p, p - 1),
                                    lambda e: em._leave_one_out(sp, e))
        np.testing.assert_allclose(fit.bound, table[:, p - 1], rtol=1e-10,
                                   atol=0)

    @pytest.mark.parametrize("p, n, seed", [(40, 30, 1), (60, 20, 3)])
    def test_table_bits_do_not_depend_on_the_budget(self, p, n, seed,
                                                    monkeypatch):
        """The whole p0 table of a chain input, ranked by the default EM,
        is the same bytes under a budget of one double, the default and
        2^30: each sub-model's sums run over its own directions only."""
        m = standardize(_chain_matrix(p, n, seed))
        ranking = rank_edges(kappa_scores(fit_sem(m)))
        want = EvidenceCache(m).fill_prefixes(ranking).tobytes()
        for budget in (1, 1 << 30):
            monkeypatch.setattr(selection, "STACK_DOUBLES", budget)
            got = EvidenceCache(m).fill_prefixes(ranking)
            assert got.tobytes() == want, budget

    @pytest.mark.parametrize("case", sorted(SCAN_CASES))
    def test_estimate_p0_matches_ranking_replay(self, case):
        m, ranking = _scan_input(*SCAN_CASES[case])
        p = m.n_genes
        cache = EvidenceCache(m)
        p0, fits, evaluations = _replayed_p0(m, ranking)
        assert estimate_p0(m, ranking, cache=cache) == p0
        assert len(fits) == cache.stats["submodel_fits"] == p * p
        assert cache.stats["submodel_evaluations"] == evaluations
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
        r_max = math.ceil((1.0 - res.p0_hat) * len(res.ranking))
        looked_up, asked = _replay_walk(res.ranking,
                                        res.selection.accepted.tolist(),
                                        r_max, StopConfig().patience, p)
        assert looked_up <= asked  # no lookup fits alone
        # ranking prefixes the walk looks up are fitted again
        assert looked_up & prefixes
        stats = res.submodel_stats
        assert stats["submodel_fits"] == p * p + len(asked)
        assert stats["submodel_unused"] == len(asked - looked_up) > 0
        assert stats["submodel_evaluations"] >= 2 * stats["submodel_fits"]
        # two Bayes factors of two evidences per rank walked, none fitted
        # alone
        assert stats["submodel_lookups"] == 4 * res.selection.ranks_evaluated
        assert stats["submodel_misses"] == 0


@pytest.mark.parametrize("p, n, seed, gene, t", [
    (60, 20, 3, 8, 18), (60, 20, 3, 23, 18), (30, 20, 1, 14, 19)])
def test_multi_root_submodels_take_the_sweeps_root(p, n, seed, gene, t):
    """Prefix sub-models of chain inputs, ranked by the default EM, whose
    fixed-point equation has three roots. The sweeps from ``RATE_INIT``
    reach the largest, which is not always the one with the best bound
    (gene 8: roots -4.711, -2.584 and -2.087 in log E[tau^-2], bounds
    -39.943 at the smallest and -40.108 at the largest), and so must the
    solve: the scan's evidence and ``fit_local``'s agree with the dense
    sweeps run to 1e-12 within 1e-8."""
    m = standardize(_chain_matrix(p, n, seed))
    ranking = rank_edges(kappa_scores(fit_sem(m)))
    cache = EvidenceCache(m)
    table = cache.fill_prefixes(ranking)
    covariates = sorted(_ranked_partners(ranking, p)[gene][:t])
    prior = cache.prior
    *_, want = dense_vb_fit(cache.values[:, gene], cache.values[:, covariates],
                            prior.a, prior.b, prior.c, prior.d, tol=1e-12,
                            max_iter=100_000)
    vp = fit_local(cache.values, gene, covariates, prior)
    assert abs(vp.lower_bound - want) <= 1e-8 * abs(want)
    assert abs(table[gene, t] - want) <= 1e-8 * abs(want)


class TestLookAhead:
    def test_fits_have_the_bits_of_lone_fits(self, monkeypatch):
        """``fit_ahead`` on sub-models of 0 to 25 covariates, under a
        budget that splits them: every setup call and every solve stays
        within it, and every evidence has the bits of ``fit_local``'s."""
        m, _ = _scan_input(40, 30, 5, False)
        p, n = m.n_genes, m.n_samples
        rng = np.random.default_rng(0)
        keys = []
        for _ in range(150):
            g, k = int(rng.integers(p)), int(rng.integers(26))
            others = np.delete(np.arange(p), g)
            keys.append((g, frozenset(
                rng.choice(others, k, replace=False).tolist())))
        monkeypatch.setattr(selection, "STACK_DOUBLES", 3000)
        setups, groups = [], []

        def setup(values, genes, covariates):
            setups.append(np.size(covariates) * n)
            return vb.make_workspace(values, genes, covariates)

        def fit(spectra, hp):
            groups.append(len(spectra.yty) + len(spectra.d2))
            return vb.fit_spectra(spectra, hp)

        monkeypatch.setattr(selection, "make_workspace", setup)
        monkeypatch.setattr(selection, "fit_spectra", fit)
        cache = EvidenceCache(m)
        cache.fit_ahead(keys)
        assert len(setups) > len({len(c) for _, c in keys})  # split
        assert max(setups) <= 3000 and max(groups) <= 3000
        unique = set(keys)
        assert cache.stats["submodel_fits"] == len(unique)
        assert cache.stats["submodel_unused"] == len(unique)
        for g, covariates in unique:
            lone = fit_local(cache.values, g, sorted(covariates),
                             cache.prior)
            assert cache.log_evidence(g, covariates) == lone.lower_bound
        assert cache.stats["submodel_unused"] == 0
        assert cache.stats["submodel_fits"] == len(unique)  # no lone fit

    def test_counts_lookups_and_misses(self):
        """Every ``log_evidence`` call is a lookup, and one the look-ahead
        did not fit is a miss, fitted by ``fit_ahead`` on its own and read
        back."""
        m, _ = _scan_input(40, 30, 5, False)
        p = m.n_genes
        rng = np.random.default_rng(0)
        keys = []
        for _ in range(150):
            g, k = int(rng.integers(p)), int(rng.integers(26))
            others = np.delete(np.arange(p), g)
            keys.append((g, frozenset(
                rng.choice(others, k, replace=False).tolist())))
        cache = EvidenceCache(m)
        cache.fit_ahead(keys)
        unique = set(keys)
        for key in unique:
            cache.log_evidence(*key)
        assert cache.stats["submodel_lookups"] == len(unique)
        assert cache.stats["submodel_misses"] == 0
        missing = next((g, frozenset([h])) for g in range(p)
                       for h in range(p)
                       if h != g and (g, frozenset([h])) not in unique)
        cache.log_evidence(*missing)
        assert cache.stats["submodel_lookups"] == len(unique) + 1
        assert cache.stats["submodel_misses"] == 1
        assert cache.stats["submodel_fits"] == len(unique) + 1
        assert cache.stats["submodel_unused"] == 0
        lone = fit_local(cache.values, missing[0], sorted(missing[1]),
                         cache.prior)
        assert cache.log_evidence(*missing) == lone.lower_bound
        assert cache.stats["submodel_misses"] == 1


def _replay_walk(ranking, accepted, r_max, patience, p):
    """Forward selection replayed from its decisions: the sub-models it
    looks up, and those its look-ahead asks for. At the start that is both
    genes' sub-models at ranks 1..min(r_max, patience); after accepting
    rank r, each accepted gene's new partner set, alone and with each of
    its candidates up to the old horizon, and both genes' sub-models at
    the ranks that join the horizon, up to min(r_max, r + patience)."""
    edges = [(i, j) for i, j, _ in _rows(ranking)][:r_max]
    chosen = [set() for _ in range(p)]

    def keys(gene, candidates):
        cond = frozenset(chosen[gene])
        return {(gene, cond)} | {(gene, cond | {c}) for c in candidates}

    def entering(lo, hi):
        return set().union(*(keys(i, [j]) | keys(j, [i])
                             for i, j in edges[lo:hi]))

    horizon = min(r_max, patience)
    looked_up, asked = set(), entering(0, horizon)
    for r, ((i, j), take) in enumerate(zip(edges, accepted)):
        looked_up |= keys(i, [j]) | keys(j, [i])
        if take:
            chosen[i].add(j)
            chosen[j].add(i)
            for gene in (i, j):
                asked |= keys(gene, [b if a == gene else a
                                     for a, b in edges[r + 1:horizon]
                                     if gene in (a, b)])
            new_horizon = min(r_max, r + 1 + patience)
            asked |= entering(horizon, new_horizon)
            horizon = new_horizon
    return looked_up, asked


def _lone_walk(ranking, alpha, p0, stop, cache):
    """Forward selection replayed rank by rank without a look-ahead: every
    Bayes factor goes through ``cache.bayes_factor``, which fits each
    sub-model on its own when it is first looked up. Returns the larger
    Bayes factor and the decision per rank walked, and the selected
    pairs."""
    gamma = threshold_gamma(alpha, p0)
    big_p = len(ranking)
    r_max = math.ceil((1.0 - p0) * big_p) if stop.use_rmax else big_p
    chosen = [set() for _ in range(cache.p)]
    bf_max, accepted, selected = [], [], set()
    since_last = 0
    for i, j, _ in _rows(ranking)[:r_max]:
        if since_last >= stop.patience:
            break
        bf = max(cache.bayes_factor(i, j, frozenset(chosen[i])),
                 cache.bayes_factor(j, i, frozenset(chosen[j])))
        bf_max.append(bf)
        accepted.append(bf > gamma)
        if bf > gamma:
            selected.add((i, j))
            chosen[i].add(j)
            chosen[j].add(i)
            since_last = 0
        else:
            since_last += 1
    return np.array(bf_max, dtype=float), accepted, frozenset(selected)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(3, 14),
       n=st.integers(4, 40), mixing=st.floats(0.0, 1.0),
       alpha=st.floats(0.05, 0.5), p0=st.none() | st.floats(0.05, 0.95),
       use_rmax=st.booleans(), patience=st.integers(1, 5))
def test_lookahead_matches_lone_fits(seed, p, n, mixing, alpha, p0,
                                     use_rmax, patience):
    """The look-ahead's stacked fits give every Bayes factor the bits of
    lone ``fit_local`` fits, so the walk decides as one without it; and
    the working-memory budget splits the look-ahead's setup and groups
    without moving a result or a fit count. Genes are mixed at random, by
    ``mixing``, and ranked by absolute correlation, so that many edges
    are accepted and partner sets grow. The walk reads none of the p0
    table's entries, so where p0 is estimated the table only sets the
    threshold; ``test_table_budget_moves_no_selection_bit`` checks that
    the table's own budget moves no selection bit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (
        np.eye(p) + mixing * rng.standard_normal((p, p)))
    m = standardize(ExpressionMatrix(
        x, [f"g{i}" for i in range(p)], [f"s{i}" for i in range(n)]))
    ranking = rank_edges(np.abs(np.corrcoef(m.values, rowvar=False)))
    stop = StopConfig(patience=patience, use_rmax=use_rmax)

    def select(budget=selection.STACK_DOUBLES):
        cache = EvidenceCache(m)
        given = estimate_p0(m, ranking, cache=cache) if p0 is None else p0
        with mock.patch.object(selection, "STACK_DOUBLES", budget):
            return forward_select(m, ranking, alpha, given, stop,
                                  cache), cache.stats

    res, stats = select()
    lone = EvidenceCache(m)
    given = estimate_p0(m, ranking, cache=lone) if p0 is None else p0
    bf_max, accepted, selected = _lone_walk(ranking, alpha, given, stop,
                                            lone)
    assert res.bayes_factor_max.tobytes() == bf_max.tobytes()
    assert res.accepted.tolist() == accepted
    assert res.selected == selected
    for budget in (1, 1 << 30):
        other, other_stats = select(budget)
        assert other.bayes_factor_max.tobytes() == \
            res.bayes_factor_max.tobytes()
        assert other.p0_posterior_bound.tobytes() == \
            res.p0_posterior_bound.tobytes()
        assert other.accepted.tolist() == res.accepted.tolist()
        assert (other.selected, other.p0_hat, other.gamma, other.alpha) == (
            res.selected, res.p0_hat, res.gamma, res.alpha)
        assert other_stats["submodel_fits"] == stats["submodel_fits"]


def test_table_budget_moves_no_selection_bit():
    """Forward selection fits every sub-model it reads, so the budget the
    p0 table was filled under, one gene per setup call, the default or
    the whole scan in one group, moves none of its Bayes factors or null
    bounds by a bit on a chain (40, 30) input."""
    m = standardize(_chain_matrix(40, 30, 1))
    ranking = rank_edges(kappa_scores(fit_sem(m)))
    p0 = estimate_p0(m, ranking)

    def select(budget):
        cache = EvidenceCache(m)
        with mock.patch.object(selection, "STACK_DOUBLES", budget):
            cache.fill_prefixes(ranking)
        return forward_select(m, ranking, 0.1, p0, cache=cache)

    want = select(selection.STACK_DOUBLES)
    assert want.ranks_evaluated > 0
    for budget in (1, 1 << 30):
        got = select(budget)
        assert got.bayes_factor_max.tobytes() == \
            want.bayes_factor_max.tobytes(), budget
        assert got.p0_posterior_bound.tobytes() == \
            want.p0_posterior_bound.tobytes(), budget


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), perm=st.permutations(range(8)),
       n=st.sampled_from([40, 6]), global_shrinkage=st.booleans())
@example(seed=1, perm=[3, 7, 0, 5, 2, 6, 1, 4], n=6, global_shrinkage=True)
@example(seed=1, perm=[3, 7, 0, 5, 2, 6, 1, 4], n=6, global_shrinkage=False)
def test_relabelling_genes_relabels_kappa_and_selection(seed, perm, n,
                                                        global_shrinkage):
    """Permuting the genes permutes kappa and relabels the selected set:
    the model gives no gene a special place, under the shared prior and
    the fixed one. With n = 6 there are more genes than samples."""
    m, _ = _scan_input(8, n, seed, False)
    perm = np.array(perm)
    moved = ExpressionMatrix(m.values[:, perm],
                             [m.gene_ids[g] for g in perm], m.sample_ids)
    config = EmConfig(global_shrinkage=global_shrinkage)
    before = infer_network(m, config, pre_standardized=True)
    after = infer_network(moved, config, pre_standardized=True)
    # gene c of the permuted matrix is gene perm[c] of the original
    np.testing.assert_allclose(after.kappa, before.kappa[np.ix_(perm, perm)],
                               rtol=1e-8, atol=0)
    assert after.p0_hat == before.p0_hat
    assert {tuple(sorted((int(perm[i]), int(perm[j]))))
            for i, j in after.selection.selected} == before.selection.selected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(3, 14),
       n=st.integers(4, 40), global_shrinkage=st.booleans(), data=st.data())
def test_flipping_gene_signs_changes_nothing(seed, p, n, global_shrinkage,
                                             data):
    """The model sees a gene only through products of its values with
    another's or its own, so negating genes leaves kappa, the ranking, p0
    and the selected set as they were, to the bit, under the shared prior
    and the fixed one."""
    m = _chain_matrix(p, n, seed)
    flip = np.array(data.draw(st.lists(st.booleans(), min_size=p,
                                       max_size=p)))
    flipped = ExpressionMatrix(np.where(flip, -m.values, m.values),
                               m.gene_ids, m.sample_ids)
    config = EmConfig(global_shrinkage=global_shrinkage)
    before, after = infer_network(m, config), infer_network(flipped, config)
    assert after.kappa.tobytes() == before.kappa.tobytes()
    for name in ("i", "j", "kappa_bar"):
        assert getattr(after.ranking, name).tobytes() == \
            getattr(before.ranking, name).tobytes()
    assert after.p0_hat == before.p0_hat
    assert after.selection.selected == before.selection.selected


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(3, 14),
       n=st.integers(4, 40), data=st.data())
def test_permuting_samples_changes_no_decision(seed, p, n, data):
    """Samples are exchangeable: permuting them moves kappa only by
    rounding, and leaves the ranking, p0 and the selected set as they
    were. Inputs with a tie within that rounding, between two kappa or at
    a Bayes factor's threshold, are skipped."""
    m = _chain_matrix(p, n, seed)
    perm = np.array(data.draw(st.permutations(range(n))))
    moved = ExpressionMatrix(m.values[perm], m.gene_ids,
                             [m.sample_ids[s] for s in perm])
    before = infer_network(m)
    kappa = before.ranking.kappa_bar
    assume(np.all(np.abs(np.diff(kappa)) > 1e-9 * np.abs(kappa[1:])))
    steps = np.diff(EvidenceCache(standardize(m)).fill_prefixes(
        before.ranking), axis=1)
    assume(np.all(np.abs(steps) > 1e-9))
    gamma = before.selection.gamma
    assume(np.all(np.abs(before.selection.bayes_factor_max - gamma)
                  > 1e-9 * gamma))
    after = infer_network(moved)
    np.testing.assert_allclose(after.kappa, before.kappa, rtol=1e-10, atol=0)
    np.testing.assert_array_equal(after.ranking.i, before.ranking.i)
    np.testing.assert_array_equal(after.ranking.j, before.ranking.j)
    assert after.p0_hat == before.p0_hat
    assert after.selection.selected == before.selection.selected
