import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shrinknet.data import ExpressionMatrix
from shrinknet.errors import (
    UndefinedCorrelationError,
    UndefinedMetricError,
    VacuousBoundError,
)
from shrinknet.metrics import (
    ConfusionCounts,
    confusion,
    partial_roc,
    random_split,
    rank_correlation,
    scores,
    stability_report,
    stability_threshold,
)
from shrinknet.selection import rank_edges
from shrinknet.simulate import make_structure


def ranking_from_scores(p, score_of):
    """Build a ranking over all pairs from a pair -> score function."""
    kappa = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            if i != j:
                kappa[i, j] = score_of(min(i, j), max(i, j))
    return rank_edges(kappa)


class TestConfusion:
    def test_counts(self):
        g = make_structure("band", 5, params={"bandwidth": 1})  # 4 edges
        sel = {(0, 1), (1, 2), (0, 4)}
        c = confusion(sel, g.edges, g.p)
        assert (c.tp, c.fp, c.fn) == (2, 1, 2)
        assert c.total == 10

    def test_orientation_insensitive(self):
        g = make_structure("band", 4, params={"bandwidth": 1})
        assert confusion({(1, 0)}, g.edges, g.p).tp == 1

    def test_scores_conventions(self):
        assert scores(ConfusionCounts(0, 0, 0, 10)) == (0, 0, 0, 0)
        tpr, fpr, prec, f = scores(ConfusionCounts(3, 1, 1, 5))
        assert tpr == pytest.approx(0.75)
        assert fpr == pytest.approx(1 / 6)
        assert prec == pytest.approx(0.75)
        assert f == pytest.approx(0.75)


class TestPartialRoc:
    def test_perfect_ranking_scores_one(self):
        g = make_structure("band", 6, params={"bandwidth": 1})
        edges = g.edges
        ranking = ranking_from_scores(
            6, lambda i, j: 2.0 if (i, j) in edges else 1.0
        )
        _, pauc = partial_roc(ranking, g)
        assert pauc == pytest.approx(1.0)

    def test_uniform_scores_give_chance_level(self):
        g = make_structure("band", 12, params={"bandwidth": 2})
        ranking = ranking_from_scores(12, lambda i, j: 1.0)
        _, pauc = partial_roc(ranking, g, fpr_max=0.2)
        # one all-tied diagonal segment: area 0.5 * 0.2^2 over 0.2
        assert pauc == pytest.approx(0.1)

    def test_inverted_ranking_scores_zero(self):
        g = make_structure("band", 8, params={"bandwidth": 1})
        edges = g.edges
        ranking = ranking_from_scores(
            8, lambda i, j: 1.0 if (i, j) in edges else 2.0
        )
        _, pauc = partial_roc(ranking, g, fpr_max=0.2)
        assert pauc < 0.05

    def test_curve_endpoints(self):
        g = make_structure("band", 6, params={"bandwidth": 1})
        ranking = ranking_from_scores(6, lambda i, j: float(i + j))
        curve, _ = partial_roc(ranking, g)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (1.0, 1.0)

    def test_requires_both_classes(self):
        g = make_structure("cluster", 4, params={"block_sizes": [4]})
        ranking = ranking_from_scores(4, lambda i, j: 1.0)
        with pytest.raises(UndefinedMetricError):
            partial_roc(ranking, g)  # complete graph: no negatives

    def test_fpr_max_validation(self):
        g = make_structure("band", 5, params={"bandwidth": 1})
        ranking = ranking_from_scores(5, lambda i, j: float(i))
        with pytest.raises(ValueError):
            partial_roc(ranking, g, fpr_max=0.0)


class TestRankCorrelation:
    def test_perfect_and_inverted(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert rank_correlation(a, a * 10) == pytest.approx(1.0)
        assert rank_correlation(a, -a) == pytest.approx(-1.0)

    @pytest.mark.parametrize("decimals", [None, 0])
    def test_matches_scipy_spearman(self, decimals):
        # rounding to whole numbers leaves runs of ties in both inputs
        rng = np.random.default_rng(0)
        compared = 0
        for _ in range(300):
            n = int(rng.integers(2, 80))
            a = rng.standard_normal(n)
            b = a + rng.standard_normal(n)
            if decimals is not None:
                a, b = a.round(decimals), b.round(decimals)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            want = stats.spearmanr(a, b).statistic
            assert abs(rank_correlation(a, b) - want) <= 1e-12
            compared += 1
        assert compared > 250

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestRandomSplit:
    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        m = ExpressionMatrix(
            rng.standard_normal((20, 3)),
            ("g1", "g2", "g3"),
            tuple(f"s{i}" for i in range(20)),
        )
        small, large = random_split(m, 6, rng=rng)
        assert small.n_samples == 6
        assert large.n_samples == 14
        assert set(small.sample_ids).isdisjoint(large.sample_ids)
        assert set(small.sample_ids) | set(large.sample_ids) == set(
            m.sample_ids
        )

    def test_bounds(self):
        m = ExpressionMatrix(
            np.random.default_rng(1).standard_normal((10, 2)),
            ("g1", "g2"),
            tuple(f"s{i}" for i in range(10)),
        )
        for bad in (1, 9):
            with pytest.raises(ValueError):
                random_split(m, bad)

    def test_deterministic(self):
        m = ExpressionMatrix(
            np.random.default_rng(2).standard_normal((12, 2)),
            ("g1", "g2"),
            tuple(f"s{i}" for i in range(12)),
        )
        a = random_split(m, 5, rng=np.random.default_rng(7))
        b = random_split(m, 5, rng=np.random.default_rng(7))
        assert a[0].sample_ids == b[0].sample_ids


class TestStability:
    def test_threshold_worked_value(self):
        assert stability_threshold(62.5, 30.0, 3081) == pytest.approx(
            0.5211, abs=5e-4
        )

    def test_threshold_caps_at_one(self):
        assert stability_threshold(1000.0, 1.0, 10) == 1.0

    def test_zero_q_is_vacuous(self):
        with pytest.raises(VacuousBoundError):
            stability_threshold(0.0, 30.0, 100)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            stability_threshold(-1.0, 30.0, 100)
        for e_v in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                stability_threshold(5.0, e_v, 100)

    @settings(max_examples=50, deadline=None)
    @given(
        q=st.floats(0.5, 200.0),
        e_v=st.floats(0.5, 100.0),
        big_p=st.integers(10, 10_000),
    )
    def test_bound_roundtrip(self, q, e_v, big_p):
        pi = stability_threshold(q, e_v, big_p)
        if pi < 1.0:
            # substituting back recovers the expected-false-edge budget
            assert q * q / ((2 * pi - 1) * big_p) == pytest.approx(e_v)
        else:
            # capped: even a unanimous edge cannot certify the budget
            assert q * q / ((2 * pi - 1) * big_p) >= e_v - 1e-9

    def test_report_frequencies(self):
        sels = [{(0, 1), (1, 2)}, {(0, 1)}, {(0, 1), (2, 3)}, {(0, 1)}]
        rep = stability_report(sels, e_v=30.0, big_p=100)
        assert rep.selection_frequency[(0, 1)] == 1.0
        assert rep.selection_frequency[(1, 2)] == 0.25
        assert rep.q_hat == pytest.approx(1.5)
        assert (0, 1) in rep.stable_edges
        assert (1, 2) not in rep.stable_edges

    def test_report_needs_resamples(self):
        with pytest.raises(ValueError):
            stability_report([{(0, 1)}], e_v=30.0, big_p=10)
