import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg, stats

from shrinknet.errors import InvalidParamsError
from shrinknet.simulate import (
    GraphSpec,
    PrecisionMatrix,
    default_structure_params,
    make_structure,
    sample_mvn,
    sample_precision,
)


class TestStructures:
    def test_band_edge_count(self):
        g = make_structure("band", 100)
        assert g.kind == "band"
        assert g.edge_count == 390
        assert g.density == pytest.approx(390 / 4950)

    def test_hub_default_composition(self):
        g = make_structure("hub", 100)
        # hubs contribute (size - 1) edges each
        assert g.edge_count == 85

    def test_cluster_default_composition(self):
        g = make_structure("cluster", 100)
        # complete blocks of 10 and 5
        assert g.edge_count == 6 * 45 + 8 * 10

    def test_random_density(self):
        g = make_structure("random", 200, rng=np.random.default_rng(0))
        assert g.density == pytest.approx(0.096, abs=0.02)

    def test_band_small(self):
        g = make_structure("band", 6, params={"bandwidth": 1})
        assert g.edge_count == 5

    def test_hub_star_shape(self):
        g = make_structure("hub", 10, params={"block_sizes": [5, 5]})
        deg = g.adjacency.sum(axis=0)
        assert sorted(deg)[-2:] == [4, 4]  # two hub centers
        assert g.edge_count == 8

    def test_unknown_kind(self):
        with pytest.raises(InvalidParamsError, match="valid kinds"):
            make_structure("ring", 10)

    def test_block_sizes_must_sum(self):
        with pytest.raises(InvalidParamsError, match="sum to"):
            make_structure("cluster", 10, params={"block_sizes": [4, 4]})

    def test_default_params_cover_all_kinds(self):
        for kind in ("band", "cluster", "hub", "random"):
            assert default_structure_params(kind, 100)

    def test_adjacency_validation(self):
        bad = np.zeros((3, 3), dtype=bool)
        bad[0, 1] = True  # asymmetric
        with pytest.raises(InvalidParamsError, match="symmetric"):
            GraphSpec(p=3, adjacency=bad, kind="band", params={})


class TestPrecision:
    @pytest.mark.parametrize("kind", ["band", "cluster", "hub"])
    def test_zero_pattern_exact(self, kind):
        rng = np.random.default_rng(1)
        g = make_structure(kind, 20, rng=rng)
        omega = sample_precision(g, rng=rng).omega
        non_edge = ~g.adjacency & ~np.eye(20, dtype=bool)
        assert np.max(np.abs(omega[non_edge])) <= 1e-8
        # and edges carry signal
        assert np.max(np.abs(omega[g.adjacency])) > 1e-4

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        g = make_structure("band", 15, rng=rng)
        omega = sample_precision(g, rng=rng).omega
        assert np.min(np.linalg.eigvalsh(omega)) > 0

    def test_consistency_with_covariance_on_graph(self):
        # the inverse of the completed precision matches the Wishart draw's
        # covariance at every edge and the diagonal
        rng = np.random.default_rng(3)
        g = make_structure("band", 10, params={"bandwidth": 2}, rng=rng)
        omega = sample_precision(g, rng=rng).omega
        sigma = np.linalg.inv(omega)
        assert np.allclose(sigma, sigma.T)

    @pytest.mark.parametrize("p", [2, 3, 5, 15, 40, 100])
    def test_wishart_draw_matches_scipy(self, p):
        # on a complete graph the precision is the unconstrained draw
        g = GraphSpec(p=p, adjacency=~np.eye(p, dtype=bool), kind="cluster",
                      params={})
        for seed in range(300):
            ours, theirs = (np.random.default_rng(seed) for _ in range(2))
            omega = sample_precision(g, rng=ours).omega
            draw = stats.wishart.rvs(df=4.0 + p - 1, scale=np.eye(p),
                                     random_state=theirs)
            assert np.array_equal(omega, draw)
            assert ours.bit_generator.state == theirs.bit_generator.state

    # sha256 of omega's bytes for make_structure(kind, p, rng=0) drawn by
    # sample_precision(g, rng=1), recorded before the completion gathered
    # only neighbour columns; pins its rounding bit for bit
    COMPLETION_DIGESTS = {
        ("band", 15): "947880fb3b7b529fe9178c915aa221ac"
                      "03b6740f051eeed1e85409c45edf57eb",
        ("cluster", 15): "aea904446822c329d6227c1a785086b4"
                         "118d98a0cd37b05c0af7a8e558edb3ee",
        ("hub", 15): "e903c61d037ff1bde60d285e6b661dc4"
                     "77379cd4d31753d7c5983a99b6514b62",
        ("random", 15): "acaf000b230015ba6024567071151fc5"
                        "cae1e2aa1537540a8c306cfa0d3bcdfd",
        ("band", 40): "e67021d25afb71087ae6aa63472ca9cf"
                      "ce43d91ad68e4fe2c1c1cc29da91cda4",
    }

    @pytest.mark.parametrize("kind, p", sorted(COMPLETION_DIGESTS))
    def test_completion_bits_pinned(self, kind, p):
        g = make_structure(kind, p, rng=0)
        omega = sample_precision(g, rng=1).omega
        digest = hashlib.sha256(omega.tobytes()).hexdigest()
        assert digest == self.COMPLETION_DIGESTS[kind, p]

    def test_dof_validation(self):
        g = make_structure("band", 5, params={"bandwidth": 1})
        for dof in (2.0, np.nan, np.inf):
            with pytest.raises(InvalidParamsError, match="dof"):
                sample_precision(g, dof=dof)

    def test_not_pd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            PrecisionMatrix(omega=np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSampling:
    @pytest.mark.parametrize("p", [2, 3, 5, 15, 40])
    def test_solve_matches_triangular_solver(self, p):
        for seed in range(60):
            w = np.random.default_rng(seed).standard_normal((p, p))
            omega = PrecisionMatrix(omega=w @ w.T + p * np.eye(p))
            n = 1 + seed % 50
            x = sample_mvn(omega, n, rng=np.random.default_rng(seed)).values
            z = np.random.default_rng(seed).standard_normal((n, p))
            L = np.linalg.cholesky(omega.omega)
            want = linalg.solve_triangular(L.T, z.T, lower=False).T
            assert np.array_equal(x, want)

    def test_shapes_and_labels(self):
        g = make_structure("band", 5, params={"bandwidth": 1})
        omega = sample_precision(g, rng=np.random.default_rng(5))
        m = sample_mvn(omega, 7, rng=np.random.default_rng(6))
        assert m.values.shape == (7, 5)
        assert m.gene_ids == ("g1", "g2", "g3", "g4", "g5")

    def test_empirical_covariance_converges(self):
        g = make_structure("band", 4, params={"bandwidth": 1})
        omega = sample_precision(g, rng=np.random.default_rng(7))
        m = sample_mvn(omega, 200_000, rng=np.random.default_rng(8))
        emp = np.cov(m.values.T)
        np.testing.assert_allclose(
            emp, np.linalg.inv(omega.omega), atol=0.05
        )

    def test_deterministic_under_seed(self):
        g = make_structure("band", 5, params={"bandwidth": 1})
        omega = sample_precision(g, rng=np.random.default_rng(9))
        a = sample_mvn(omega, 10, rng=np.random.default_rng(11))
        b = sample_mvn(omega, 10, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.values, b.values)

    def test_rejects_zero_samples(self):
        g = make_structure("band", 4, params={"bandwidth": 1})
        omega = sample_precision(g, rng=np.random.default_rng(10))
        with pytest.raises(InvalidParamsError):
            sample_mvn(omega, 0)


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(4, 30),
    bw=st.integers(1, 5),
)
def test_band_edge_count_formula(p, bw):
    g = make_structure("band", p, params={"bandwidth": bw})
    expect = sum(max(p - d, 0) for d in range(1, bw + 1))
    assert g.edge_count == expect
