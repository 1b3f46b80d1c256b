import numpy as np
import pytest

from shrinknet.benchmark import (
    SimConfig,
    SplitConfig,
    em_config_for,
    mean_pairwise_rank_correlation,
    run_model_sim,
    run_split_harness,
)
from shrinknet.data import standardize
from shrinknet.errors import InvalidParamsError
from shrinknet.simulate import make_structure, sample_mvn, sample_precision


def tiny_sim_config(**kw):
    base = dict(kinds=("band",), p=8, n_list=(20,), reps=2, seed=5,
                threads=1)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def split_input():
    rng = np.random.default_rng(17)
    g = make_structure("band", 8, params={"bandwidth": 1}, rng=rng)
    omega = sample_precision(g, rng=rng)
    return standardize(sample_mvn(omega, 60, rng=rng))


class TestSimConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidParamsError, match="valid kinds"):
            SimConfig(kinds=("ring",))

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParamsError, match="valid methods"):
            SimConfig(methods=("oracle",))

    @pytest.mark.parametrize("kind", ["hub", "cluster"])
    def test_rejects_a_kind_that_cannot_tile_p(self, kind):
        with pytest.raises(InvalidParamsError, match="cannot tile p=7"):
            tiny_sim_config(kinds=("band", kind), p=7)
        tiny_sim_config(kinds=(kind,), p=15)

    @pytest.mark.parametrize("bad", [
        {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": float("nan")},
        {"n_list": (20, 1)}, {"n_list": (0,)}, {"p": 1}, {"threads": 0},
        {"dof": float("inf")}, {"dof": float("nan")}, {"dof": 2.0},
    ], ids=str)
    def test_rejects_settings_a_replicate_would_fail_on(self, bad):
        with pytest.raises(InvalidParamsError):
            tiny_sim_config(**bad)

    def test_em_config_for_methods(self):
        assert em_config_for("shrinknet").global_shrinkage
        assert not em_config_for("noshrink").global_shrinkage


class TestModelSim:
    def test_row_and_summary_shape(self):
        cfg = tiny_sim_config()
        res = run_model_sim(cfg)
        ok = [r for r in res.rows if not r["error"]]
        assert len(ok) == 2 * 2  # reps x methods
        assert res.n_failed == 0
        cell = res.summary[0]
        assert {"kind", "n", "method", "tpr_mean", "pauc_mean"} <= set(cell)
        for r in ok:
            assert 0.0 <= r["tpr"] <= 1.0
            assert 0.0 <= r["fpr"] <= 1.0
            assert 0.0 <= r["pauc"] <= 1.0

    def test_p0_hat_against_p0_true_pinned(self):
        # p0_hat is pinned as it stands, so any change to the estimator is
        # deliberate: on this band graph it reads 0.83 where the true null
        # fraction is 0.52
        cfg = tiny_sim_config(p=15, n_list=(40,), reps=1, seed=1,
                              methods=("shrinknet",))
        (row,) = run_model_sim(cfg).rows
        big_p = 15 * 14 // 2
        assert row["p0_true"] == 1.0 - 50 / big_p  # band width 4: 50 edges
        assert row["p0_hat"] == 175 / (2.0 * big_p)

    def test_bit_reproducible(self):
        cfg = tiny_sim_config()
        a = run_model_sim(cfg)
        b = run_model_sim(cfg)
        assert a.rows == b.rows

    def test_seed_changes_results(self):
        a = run_model_sim(tiny_sim_config(seed=1))
        b = run_model_sim(tiny_sim_config(seed=2))
        assert a.rows != b.rows

    def test_replicates_differ(self):
        # distinct per-task streams: replicates must not be identical
        res = run_model_sim(tiny_sim_config(reps=2))
        ok = [r for r in res.rows if r["method"] == "shrinknet"]
        assert ok[0]["pauc"] != ok[1]["pauc"] or ok[0]["tpr"] != ok[1]["tpr"]

    def test_parallel_matches_serial(self):
        cfg_serial = tiny_sim_config()
        cfg_par = tiny_sim_config(threads=2)
        assert run_model_sim(cfg_serial).rows == run_model_sim(cfg_par).rows


class TestSplitHarness:
    @pytest.mark.parametrize("bad", [
        {"e_v": 0.0}, {"e_v": -1.0}, {"e_v": float("nan")},
        {"alpha": 0.0}, {"alpha": 1.5}, {"alpha": float("nan")},
        {"resamples": 1}, {"threads": 0},
    ], ids=str)
    def test_config_rejects_bad_settings(self, bad):
        with pytest.raises(InvalidParamsError):
            SplitConfig(n_small=20, **bad)

    def test_config_rejects_unknown_method(self):
        """A name ``em_config_for`` does not know would run as noshrink."""
        with pytest.raises(InvalidParamsError, match="valid methods"):
            SplitConfig(n_small=20, methods=("shrinknet", "oracle"))

    def test_report_structure(self, split_input):
        cfg = SplitConfig(n_small=20, resamples=3, seed=2,
                          methods=("shrinknet",), validate_on_large=True)
        res = run_split_harness(split_input, cfg)
        rep = res.stability["shrinknet"]
        assert rep.n_resamples == 3
        assert 0.5 <= rep.pi_thr <= 1.0
        assert len(res.per_split) == 3
        assert len(res.validation["shrinknet"]) == 3
        for tpr, fpr in res.validation["shrinknet"]:
            assert 0.0 <= tpr <= 1.0
            assert 0.0 <= fpr <= 1.0

    def test_bit_reproducible(self, split_input):
        cfg = SplitConfig(n_small=20, resamples=3, seed=9,
                          methods=("shrinknet",), validate_on_large=False)
        a = run_split_harness(split_input, cfg)
        b = run_split_harness(split_input, cfg)
        assert a.stability["shrinknet"].stable_edges == \
            b.stability["shrinknet"].stable_edges
        assert a.stability["shrinknet"].selection_frequency == \
            b.stability["shrinknet"].selection_frequency

    def test_rank_correlation_summary(self, split_input):
        cfg = SplitConfig(n_small=20, resamples=3, seed=4,
                          methods=("shrinknet",), validate_on_large=False)
        res = run_split_harness(split_input, cfg)
        rho = mean_pairwise_rank_correlation(res.per_split, "shrinknet")
        assert -1.0 <= rho <= 1.0
