import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from oracles import dense_fixed_point
from shrinknet.benchmark import SplitConfig
from shrinknet.cli import main, manifest_argv
from shrinknet.data import (ExpressionMatrix, load_expression_matrix,
                            standardize)
from shrinknet.em import DEFAULT_MAX_ITER, DEFAULT_TOL, EmConfig, fit_sem
from shrinknet.errors import ConfigError
from shrinknet.pipeline import infer_network
from shrinknet.selection import (EvidenceCache, StopConfig, estimate_p0,
                                 rank_edges)
from test_traced_run import _chain_values


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One shared simulated dataset for the file-consuming commands."""
    out = tmp_path_factory.mktemp("sim")
    result = CliRunner().invoke(
        main,
        ["simulate", "--kind", "band", "--p", "10", "--n", "50",
         "--seed", "3", "--out-dir", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


class TestSimulate:
    def test_outputs_and_manifest(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["simulate", "--kind", "hub", "--p", "10", "--n", "20",
             "--seed", "1", "--blocks", "5,5", "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        for name in ("precision.csv", "adjacency.tsv", "data.csv",
                     "manifest.json"):
            assert (tmp_path / name).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 1
        assert manifest["config"]["resolved"]["edge_count"] == 8
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()

    def test_precision_matches_adjacency(self, sim_dir):
        omega = np.loadtxt(sim_dir / "precision.csv", delimiter=",")
        pairs = {
            tuple(line.split("\t"))
            for line in (sim_dir / "adjacency.tsv").read_text().splitlines()[1:]
        }
        p = omega.shape[0]
        for i in range(p):
            for j in range(i + 1, p):
                on_graph = (f"g{i + 1}", f"g{j + 1}") in pairs
                assert (abs(omega[i, j]) > 1e-8) == on_graph

    def test_unknown_kind_exit_4(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--kind", "ring", "--out-dir", str(tmp_path)]
        )
        assert res.exit_code == 4
        assert "valid kinds" in res.output

    @pytest.mark.parametrize("kind, options, unused", [
        ("band", ["--blocks", "10,10"], "block_sizes"),
        ("cluster", ["--bandwidth", "3"], "bandwidth"),
        ("hub", ["--bandwidth", "3", "--density", "0.5"],
         "bandwidth, density"),
        ("random", ["--blocks", "10,10"], "block_sizes"),
    ])
    def test_another_kinds_option_exit_4(self, runner, tmp_path, kind,
                                         options, unused):
        """Each kind takes its own option alone: another kind's is named
        rather than recorded and ignored, and no --out-dir is made."""
        out = tmp_path / "out"
        res = runner.invoke(main, ["simulate", "--kind", kind, "--p", "20",
                                   *options, "--out-dir", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stderr.endswith(f"not {unused}\n")
        assert not out.exists()

    def test_deterministic(self, runner, tmp_path):
        for sub in ("a", "b"):
            res = runner.invoke(
                main,
                ["simulate", "--kind", "band", "--p", "8", "--n", "10",
                 "--seed", "5", "--out-dir", str(tmp_path / sub)],
            )
            assert res.exit_code == 0
        assert (tmp_path / "a" / "data.csv").read_text() == (
            tmp_path / "b" / "data.csv"
        ).read_text()


class TestInfer:
    def test_end_to_end(self, runner, sim_dir, tmp_path):
        res = runner.invoke(
            main,
            ["infer", str(sim_dir / "data.csv"), "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "edges.tsv").read_text().splitlines()
        assert lines[0].split("\t") == [
            "gene_a", "gene_b", "rank", "kappa_bar", "bf_max", "p0_bound",
            "selected",
        ]
        assert len(lines) == 1 + 45  # header + all pairs at p=10
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["converged"] is True
        assert 0.0 < fit["p0_hat"] < 1.0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stats = manifest["stats"]
        assert stats["em_iterations"] == fit["em_iterations"]
        assert stats["em_converged"] is True
        # the p0 scan fits every ranking prefix: p^2 sub-models at p=10
        assert stats["submodel_fits"] >= 100
        assert stats["submodel_evaluations"] >= 2 * stats["submodel_fits"]
        assert "submodel_nonconverged" not in stats
        assert stats["submodel_lookups"] >= 4
        assert stats["submodel_misses"] == 0
        assert "stats" not in fit
        assert stats["em_a_at_cap"] is (fit["a"] == 1e4)
        trajectory = fit["em_trajectory"]
        assert len(trajectory) == fit["em_iterations"]
        assert trajectory[0]["max_abs_delta_bound"] is None
        assert 0 < trajectory[-1]["max_abs_delta_bound"] < 1e-3
        assert (trajectory[-1]["a"], trajectory[-1]["b"]) == (fit["a"],
                                                              fit["b"])
        assert res.stderr == ""  # no non-convergence warning

    def test_manifest_times_each_stage(self, runner, sim_dir, tmp_path):
        res = runner.invoke(
            main,
            ["infer", str(sim_dir / "data.csv"), "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        timings = json.loads(
            (tmp_path / "manifest.json").read_text())["timings_ms"]
        stages = ["standardize", "spectrum", "em", "rank", "p0", "select",
                  "write"]
        assert set(timings) == {"load", "fit_and_select", "total", *stages}
        assert all(timings[name] >= 0 for name in timings)
        assert sum(timings[name] for name in stages) <= timings["total"]

    def test_edges_tsv_joins_the_decisions_by_rank(self, runner, sim_dir,
                                                   tmp_path):
        """Rows 1..ranks_evaluated carry that rank's decision, replayed
        here from the evidence cache; later rows are blank and unselected."""
        m = load_expression_matrix(sim_dir / "data.csv")
        res = infer_network(m)
        std = standardize(m)
        cache = EvidenceCache(std)
        assert estimate_p0(std, rank_edges(res.kappa), cache=cache) \
            == res.p0_hat
        out = runner.invoke(main, ["infer", str(sim_dir / "data.csv"),
                                   "--out-dir", str(tmp_path)])
        assert out.exit_code == 0, out.output
        rows = [line.split("\t") for line in
                (tmp_path / "edges.tsv").read_text().splitlines()[1:]]
        index = {g: k for k, g in enumerate(m.gene_ids)}
        evaluated = res.selection.ranks_evaluated
        assert 0 < evaluated < len(rows)
        partners = {g: set() for g in range(m.n_genes)}
        for r, (a, b, rank, _, bf_max, bound, selected) in enumerate(rows):
            i, j = index[a], index[b]
            assert int(rank) == r + 1
            if r >= evaluated:
                assert (bf_max, bound, selected) == ("", "", "0")
                continue
            bf_dir = [cache.bayes_factor(i, j, frozenset(partners[i])),
                      cache.bayes_factor(j, i, frozenset(partners[j]))]
            take = max(bf_dir) > res.selection.gamma
            null = min(0.0 if math.isinf(bf) else
                       res.p0_hat / (res.p0_hat + (1.0 - res.p0_hat) * bf)
                       for bf in bf_dir)
            assert (bf_max, bound, selected) == (
                f"{max(bf_dir):.10g}", f"{null:.10g}", str(int(take)))
            assert take == ((i, j) in res.selection.selected)
            if take:
                partners[i].add(j)
                partners[j].add(i)
        chosen = {(index[a], index[b]) for a, b, *_, sel in rows if sel == "1"}
        assert chosen == res.selection.selected
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert len(chosen) == fit["n_selected"]

    def test_warns_when_not_converged(self, runner, sim_dir, tmp_path):
        res = runner.invoke(
            main,
            ["infer", str(sim_dir / "data.csv"), "--max-iter", "2",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        stats = json.loads((tmp_path / "manifest.json").read_text())["stats"]
        assert (stats["em_iterations"], stats["em_converged"]) == (2, False)
        assert res.stderr == "warning: EM converged=False after 2 iterations\n"
        assert res.stdout.startswith("selected ")
        assert res.stdout.count("\n") == 1
        for name in ("edges.tsv", "fit.json", "manifest.json"):
            assert (tmp_path / name).exists()

    def test_missing_file_exit_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["infer", "nope.csv", "--out-dir", str(tmp_path)]
        )
        assert res.exit_code == 2

    def test_out_dir_is_a_file_exit_2(self, runner, sim_dir, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        res = runner.invoke(
            main, ["infer", str(sim_dir / "data.csv"), "--out-dir", str(taken)]
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("input error: ")

    def test_malformed_file_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("g1,g2\n1,2\n3,x\n4,5\n")
        res = runner.invoke(
            main, ["infer", str(bad), "--out-dir", str(tmp_path)]
        )
        assert res.exit_code == 2
        assert "row 3" in res.output

    def test_blank_first_cell_is_a_missing_value(self, runner, tmp_path):
        """A blank first cell is a missing value, not a sample id: a
        sample-id column would take the gene column g0 away."""
        bad = tmp_path / "bad.csv"
        bad.write_text("g0,g1,g2\n,2,3\n4,5,7\n7,8,8\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["infer", str(bad), "--out-dir", str(out)])
        assert res.exit_code == 2, res.output
        assert res.output.endswith("missing value at row 2, column g0\n")
        assert res.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("header, blank, args, where", [
        ("g1,,g3,g4", None, [], "blank gene id in header column 2"),
        ("id,g1,g2,g3", 6, [], "blank sample id in row 7"),
        ("id,g1,g2,g3", 6, ["--transpose"], "blank sample id in row 7"),
        (",g1, ,g3", 0, [], "blank gene id in header column 3"),
    ], ids=["gene", "sample", "sample_transposed", "gene_after_label"])
    def test_blank_id_exit_2(self, runner, tmp_path, header, blank, args,
                             where):
        """A blank or whitespace-only gene or sample id is named by its
        position; a sample id's becomes a gene id under ``--transpose``.
        ``blank`` is the data row whose sample id is a space (0: none), or
        None for a file without sample ids."""
        values = np.random.default_rng(0).standard_normal((12, 4))
        lines = [header] + [",".join(map(repr, row.tolist()))
                            for row in values]
        if blank is not None:  # the sample-id column replaces column 1
            lines[1:] = [(" " if r == blank else f"s{r}") + line[
                line.index(","):] for r, line in enumerate(lines[1:], 1)]
        bad = tmp_path / "blank.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["infer", str(bad), "--p0", "0.5", *args,
                                   "--out-dir", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stderr.endswith(f"{where}\n")
        assert not out.exists()

    def test_r_layout_loads(self, runner, tmp_path):
        """R's ``write.csv`` layout: the blank first header cell labels
        the sample-id column."""
        values = np.random.default_rng(0).standard_normal((12, 3))
        lines = [",g1,g2,g3"] + [f"s{r}," + ",".join(map(repr, row.tolist()))
                                 for r, row in enumerate(values)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        res = runner.invoke(main, ["infer", str(path), "--p0", "0.5",
                                   "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        genes = {line.split("\t")[0] for line in
                 (out / "edges.tsv").read_text().splitlines()[1:]}
        assert genes == {"g1", "g2"}

    @pytest.mark.parametrize("samples", [False, True],
                             ids=["no_sample_column", "sample_column"])
    def test_byte_order_mark_is_not_part_of_a_gene_id(self, runner, tmp_path,
                                                      samples):
        """A UTF-8 byte-order mark before the header, as spreadsheet
        programs write it, is dropped: the first gene id is ``g1``."""
        values = np.random.default_rng(0).standard_normal((12, 3))
        lines = ["g1,g2,g3"] + [(f"s{r}," if samples else "")
                                + ",".join(map(repr, row.tolist()))
                                for r, row in enumerate(values)]
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfg1,")
        out = tmp_path / "out"
        res = runner.invoke(main, ["infer", str(path), "--p0", "0.5",
                                   "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        rows = [line.split("\t") for line in
                (out / "edges.tsv").read_text().splitlines()[1:]]
        assert {gene for row in rows for gene in row[:2]} == {"g1", "g2",
                                                              "g3"}

    def test_input_that_is_not_utf8_exit_2(self, runner, tmp_path):
        """A Latin-1 gene id is a malformed input file, not a bad
        setting: exit 2 naming the byte, and no --out-dir."""
        values = np.random.default_rng(0).standard_normal((12, 3))
        lines = ["g\xe9,g2,g3"] + [",".join(map(repr, row.tolist()))
                                   for row in values]
        path = tmp_path / "latin1.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        out = tmp_path / "out"
        res = runner.invoke(main, ["infer", str(path), "--p0", "0.5",
                                   "--out-dir", str(out)])
        assert res.exit_code == 2, res.output
        assert res.stderr.endswith("at byte 1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--alpha", "2.0"], ["--tol", "nan"], ["--patience", "0"],
        ["--patience", "-3"],
    ], ids=["alpha", "tol_nan", "patience_0", "patience_-3"])
    def test_bad_alpha_exit_4(self, runner, sim_dir, tmp_path, args):
        res = runner.invoke(
            main,
            ["infer", str(sim_dir / "data.csv"), *args,
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 4, res.output

    def test_p0_override_skips_estimation(self, runner, sim_dir, tmp_path):
        res = runner.invoke(
            main,
            ["infer", str(sim_dir / "data.csv"), "--p0", "0.9",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["p0_hat"] == 0.9
        assert fit["gamma"] == pytest.approx(81.0)


def _edge_case_matrix(case: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    shapes = {"p2_n3": (3, 2), "n3_p30": (3, 30), "p60_n8": (8, 60)}
    x = rng.standard_normal(shapes.get(case, (20, 8)))
    if case == "duplicate":
        x[:, 5] = x[:, 2]
    elif case == "affine_duplicate":
        x[:, 5] = -4.0 * x[:, 2] + 7.0
    elif case == "collinear_triple":
        x[:, 5] = x[:, 2] - 2.0 * x[:, 3]
    elif case == "binary":
        x = (x > 0).astype(float)
        x[:2] = [[0.0] * 8, [1.0] * 8]  # no gene is constant
    elif case.startswith("scaled_"):
        x *= float(case.split("_")[1])
    elif case == "constant":
        x[:, 3] = 2.0
    return x


class TestInferEdgeCases:
    """Shapes and degenerate genes that must end in a well-formed result."""

    @pytest.mark.parametrize("case", [
        "p2_n3", "n3_p30", "duplicate", "affine_duplicate",
        "collinear_triple", "binary", "scaled_1e-150", "scaled_1e150",
        "p60_n8",
    ])
    def test_exits_zero_with_well_formed_outputs(self, runner, tmp_path,
                                                 case):
        x = _edge_case_matrix(case)
        p = x.shape[1]
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(p)), comments="")
        res = runner.invoke(main, ["infer", str(path), "--out-dir",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        rows = [line.split("\t") for line in
                (tmp_path / "edges.tsv").read_text().splitlines()]
        assert len(rows) == 1 + p * (p - 1) // 2
        assert [int(r[2]) for r in rows[1:]] == list(range(1, len(rows)))
        assert len({frozenset(r[:2]) for r in rows[1:]}) == len(rows) - 1
        kappa = [float(r[3]) for r in rows[1:]]
        assert all(np.isfinite(kappa)) and kappa == sorted(kappa,
                                                           reverse=True)
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert 0.0 < fit["p0_hat"] < 1.0
        assert fit["n_selected"] == sum(r[6] == "1" for r in rows[1:])
        assert len(fit["em_trajectory"]) == fit["em_iterations"]
        assert all(np.isfinite(list(fit["per_gene_lower_bound"].values())))

    @pytest.mark.parametrize("level", [2.0, 0.1, 2e-4])
    def test_constant_gene_exit_2(self, runner, tmp_path, level):
        """A constant gene is named whether or not its mean rounds to it
        (0.1 and 2e-4 do not: their centred column came out nonzero)."""
        x = _edge_case_matrix("constant")
        x[:, 3] = level
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(8)), comments="")
        res = runner.invoke(main, ["infer", str(path), "--out-dir",
                                   str(tmp_path)])
        assert res.exit_code == 2
        assert res.output == "input error: gene g3 is constant across " \
            "samples\n"

    def test_failed_fit_leaves_no_out_dir(self, runner, tmp_path):
        """A gene found constant by standardization, inside the fit,
        exits 2 before --out-dir is created."""
        path = tmp_path / "c.csv"
        path.write_text("g1,g2,g3\n1,2,5\n1,3,4\n1,5,7\n1,2,2\n")
        out = tmp_path / "cdir"
        res = runner.invoke(main, ["infer", str(path), "--out-dir",
                                   str(out)])
        assert res.exit_code == 2
        assert "g1 is constant" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("case", ["scaled_1e150", "scaled_1e-150"])
    def test_extreme_scale_matches_dense_oracle(self, runner, tmp_path,
                                                case):
        """Unscaled values near 1e150 or 1e-150 put the eigenvalues of
        X^T X and E[tau^-2] some 300 orders of magnitude apart. With the
        prior held fixed, each gene's fit still matches the dense oracle at
        its fixed point, and ``infer`` exits 0."""
        x = _edge_case_matrix(case)
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(8)), comments="")
        res = runner.invoke(main, ["infer", str(path), "--no-scale",
                                   "--no-global-shrinkage", "--out-dir",
                                   str(tmp_path)])
        assert res.exit_code == 0, res.output
        m = standardize(ExpressionMatrix(
            x, tuple(f"g{i}" for i in range(8)),
            tuple(f"s{i}" for i in range(20))), scale=False)
        fit = fit_sem(m, EmConfig(global_shrinkage=False))
        hp = fit.hyper
        for g in range(8):
            mean, var, _ = dense_fixed_point(
                m.values[:, g], np.delete(m.values, g, axis=1), hp.a, hp.b,
                hp.c, hp.d)
            np.testing.assert_allclose(fit.beta_mean[g], mean, rtol=1e-8,
                                       atol=0)
            np.testing.assert_allclose(fit.beta_var[g], var, rtol=1e-8,
                                       atol=0)

    def test_duplicate_gene_at_extreme_scale_exit_3(self, runner, tmp_path):
        """A duplicated gene leaves X rank-deficient, and each gene's weight
        outside its row space is known only to rounding. Unscaled near
        1e30, that rounding would swamp the fit of every other gene: a
        numerical failure, not a wrong answer."""
        path = tmp_path / "data.csv"
        np.savetxt(path, _edge_case_matrix("duplicate") * 1e30,
                   delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(8)), comments="")
        res = runner.invoke(main, ["infer", str(path), "--no-scale",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("numerical failure: ")
        assert "row space" in res.output

    def test_overflowing_unscaled_input_exit_3(self, runner, tmp_path):
        """Unscaled values near 1e160 overflow the design cross-products:
        a numerical failure, not a configuration error."""
        path = tmp_path / "data.csv"
        np.savetxt(path, _edge_case_matrix("scaled_1e160"), delimiter=",",
                   header=",".join(f"g{i}" for i in range(8)), comments="")
        res = runner.invoke(main, ["infer", str(path), "--no-scale",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("numerical failure: ")

    @pytest.mark.parametrize("shape, gene", [((4, 30), 7), ((10, 5), 2)])
    def test_one_overflowing_gene_exit_3(self, runner, tmp_path, shape,
                                         gene):
        """One unscaled gene whose squares overflow, in a wide and a tall
        matrix: one line naming it, where the wide matrix raised an
        IndexError and the tall one warned and blamed an all-zero design."""
        x = np.random.default_rng(0).standard_normal(shape)
        x[:, gene] *= 1e150
        x *= 1e4
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(shape[1])),
                   comments="")
        res = runner.invoke(main, ["infer", str(path), "--no-scale",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert res.output.startswith(f"numerical failure: gene g{gene}: ")
        assert res.output.count("\n") == 1


class TestBenchmark:
    def test_small_run(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["benchmark", "--kinds", "band", "--p", "8", "--n", "20",
             "--reps", "1", "--seed", "2", "--threads", "1",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 methods
        header = lines[0].split(",")
        assert header.index("em_converged") == header.index(
            "em_iterations") + 1
        assert header.index("p0_true") == header.index("p0_hat") - 1
        for row in lines[1:]:
            assert row.split(",")[header.index("em_converged")] in (
                "True", "False")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_failed"] == 0

    def test_unknown_kind_exit_4(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["benchmark", "--kinds", "ring", "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 4
        assert "valid kinds" in res.output


    @pytest.mark.parametrize("kind", ["hub", "cluster"])
    def test_kind_that_cannot_tile_p_exit_4(self, runner, tmp_path, kind):
        """Default hub and cluster blocks of 5 and 10 genes cannot tile
        p = 7: one line, as ``simulate`` gives, before any replicate runs
        or --out-dir is made."""
        out = tmp_path / "out"
        res = runner.invoke(main, ["benchmark", "--kinds", f"band,{kind}",
                                   "--p", "7", "--n", "20", "--reps", "1",
                                   "--threads", "1", "--out-dir", str(out)])
        assert res.exit_code == 4, res.output
        assert res.output.count("\n") == 1
        assert "cannot tile p=7" in res.output
        assert not out.exists()
        res = runner.invoke(main, ["simulate", "--kind", kind, "--p", "7",
                                   "--out-dir", str(out)])
        assert res.exit_code == 4, res.output
        assert "cannot tile p=7" in res.output


class TestStability:
    def test_small_run(self, runner, sim_dir, tmp_path):
        res = runner.invoke(
            main,
            ["stability", str(sim_dir / "data.csv"), "--n-small", "20",
             "--resamples", "3", "--seed", "4", "--threads", "1",
             "--no-validate", "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads((tmp_path / "stability.json").read_text())
        assert set(payload) == {"shrinknet", "noshrink"}
        for entry in payload.values():
            assert 0.5 <= entry["pi_thr"] <= 1.0
            assert entry["n_resamples"] == 3
        freq_lines = (tmp_path / "frequencies.tsv").read_text().splitlines()
        assert freq_lines[0].split("\t") == [
            "method", "gene_a", "gene_b", "frequency", "stable",
        ]

    def test_no_selected_edge_exit_3(self, runner, tmp_path):
        """Independent genes: no split selects an edge, so the stability
        bound fixes no threshold; one line on stderr, no traceback."""
        x = np.random.default_rng(0).standard_normal((40, 6))
        path = tmp_path / "data.csv"
        np.savetxt(path, x, delimiter=",", fmt="%.17g",
                   header=",".join(f"g{i}" for i in range(6)), comments="")
        res = runner.invoke(main, ["stability", str(path), "--n-small", "10",
                                   "--resamples", "3", "--threads", "1",
                                   "--out-dir", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert res.stderr.startswith("undefined result: q = 0")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_manifest_records_format_and_transpose(self, runner, sim_dir,
                                                   tmp_path):
        m = load_expression_matrix(sim_dir / "data.csv")
        path = tmp_path / "genes_in_rows.txt"
        with open(path, "w") as fh:
            fh.write("\t".join(["gene", *m.sample_ids]) + "\n")
            for gene, column in zip(m.gene_ids, m.values.T):
                fh.write("\t".join([gene, *map(repr, column.tolist())])
                         + "\n")
        res = runner.invoke(
            main,
            ["stability", str(path), "--format", "tsv", "--transpose",
             "--n-small", "20", "--resamples", "2", "--threads", "1",
             "--no-validate", "--out-dir", str(tmp_path / "out")],
        )
        assert res.exit_code == 0, res.output
        config = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["config"]
        assert (config["fmt"], config["transpose"]) == ("tsv", True)

    def test_threads_env_fallback(self, runner, sim_dir, tmp_path,
                                  monkeypatch):
        monkeypatch.setenv("SHRINKNET_THREADS", "1")
        res = runner.invoke(
            main,
            ["stability", str(sim_dir / "data.csv"), "--n-small", "20",
             "--resamples", "2", "--seed", "4", "--no-validate",
             "--out-dir", str(tmp_path)],
        )
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["threads"] is None
        assert manifest["config"]["resolved"]["threads"] == 1


def test_cli_commands_import_no_scipy(sim_dir, tmp_path):
    # SciPy is a test-only oracle: importing it would cost most of a
    # command's start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = [
        ["infer", str(sim_dir / "data.csv"), "--out-dir",
         str(tmp_path / "infer")],
        ["benchmark", "--kinds", "band", "--p", "6", "--n", "10", "--reps",
         "1", "--threads", "1", "--out-dir", str(tmp_path / "benchmark")],
        ["stability", str(sim_dir / "data.csv"), "--n-small", "20",
         "--resamples", "2", "--no-validate", "--threads", "1",
         "--out-dir", str(tmp_path / "stability")],
    ]
    code = ("import json, sys\n"
            "import shrinknet.cli as cli\n"
            "for args in json.loads(sys.argv[1]):\n"
            "    cli.main(args, standalone_mode=False)\n"
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n")
    res = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "infer" / "edges.tsv").exists()
    assert (tmp_path / "benchmark" / "metrics.csv").exists()
    assert (tmp_path / "stability" / "stability.json").exists()


@pytest.mark.parametrize("p, n, p0", [(40, 30, None), (80, 160, 0.975)])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, p, n, p0):
    """The manifest does not record the BLAS thread count, so edges.tsv
    and fit.json must not depend on it: ``infer`` on chain-graph inputs of
    both shapes, run with one BLAS thread and with two, writes them
    byte-identical."""
    data = tmp_path / "data.csv"
    np.savetxt(data, _chain_values(p, n, seed=1), delimiter=",",
               fmt="%.17g", header=",".join(f"g{i}" for i in range(p)),
               comments="")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / threads
        args = ["infer", str(data), "--out-dir", str(out)]
        if p0 is not None:
            args += ["--p0", repr(p0)]
        res = subprocess.run([sys.executable, "-m", "shrinknet.cli", *args],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert res.returncode == 0, res.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("edges.tsv", "fit.json")])
    assert outputs[0] == outputs[1]


def test_outputs_confined_to_out_dir(runner, sim_dir, tmp_path,
                                     monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    out = tmp_path / "out"
    monkeypatch.chdir(workdir)
    res = runner.invoke(
        main,
        ["infer", str(sim_dir / "data.csv"), "--out-dir", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert list(workdir.iterdir()) == []


#: a small benchmark run, to which a case appends one bad setting
BENCHMARK_RUN = ["benchmark", "--kinds", "band", "--p", "8", "--n", "20",
                 "--reps", "1"]
SIM_DATA = "<sim_dir>/data.csv"


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "ring"],
    ["benchmark", "--kinds", "band,ring"],
    ["benchmark", "--kinds", ","],
    ["benchmark", "--n", ","],
    ["benchmark", "--reps", "0"],
    ["benchmark", "--dof", "nan"],
    ["simulate", "--kind", "band", "--dof", "nan"],
    *([*BENCHMARK_RUN, "--threads", "1", *bad] for bad in [
        ["--alpha", "0"], ["--alpha", "2.0"], ["--alpha", "nan"],
        ["--n", "1"], ["--n", "0"], ["--n", "-5"], ["--p", "1"],
        ["--p", "0"], ["--dof", "inf"], ["--threads", "0"]]),
    ["simulate", "--kind", "band", "--dof", "inf"],
    # default graphs with no non-edge, on which every replicate would fail
    ["benchmark", "--kinds", "cluster", "--p", "10", "--n", "20", "--reps",
     "2", "--threads", "1"],
    ["benchmark", "--kinds", "band", "--p", "5", "--n", "20", "--reps", "2",
     "--threads", "1"],
    ["infer", "nothere.csv"],
    ["stability", "nothere.csv", "--n-small", "5"],
    ["infer", SIM_DATA, "--p0", "nan"],
    ["infer", SIM_DATA, "--alpha", "nan"],
    ["infer", SIM_DATA, "--max-iter", "1"],
    *(["stability", SIM_DATA, "--n-small", "5", "--resamples", "2", *bad]
      for bad in [["--ev", "nan"], ["--ev", "-1"], ["--alpha", "nan"],
                  ["--resamples", "1"], ["--threads", "0"],
                  ["--n-small", "49"]]),
    ["infer", SIM_DATA, "--no-global-shrinkage", "--tol", "0.5"],
    ["infer", SIM_DATA, "--no-global-shrinkage", "--max-iter", "2"],
])
def test_unknown_kind_writes_nothing(runner, sim_dir, tmp_path, args):
    """A bad setting exits 4, and a missing input 2, before --out-dir is
    created and before any replicate or split runs."""
    args = [str(sim_dir / "data.csv") if a == SIM_DATA else a for a in args]
    out = tmp_path / "out"
    res = runner.invoke(main, [*args, "--out-dir", str(out)])
    assert res.exit_code == (2 if "nothere.csv" in args else 4), res.output
    assert not out.exists()


@pytest.mark.parametrize("option, default", [("--tol", DEFAULT_TOL),
                                             ("--max-iter", DEFAULT_MAX_ITER)])
def test_fixed_prior_names_an_unused_em_option(runner, sim_dir, tmp_path,
                                               option, default):
    """With --no-global-shrinkage the EM's stopping options have no
    effect: a value other than the default exits 4 in one line that names
    the option, and the default, as a rerun from a manifest passes it,
    runs."""
    run = ["infer", str(sim_dir / "data.csv"), "--no-global-shrinkage",
           "--out-dir", str(tmp_path / "out"), option]
    res = runner.invoke(main, [*run, str(default * 2)])
    assert res.exit_code == 4, res.output
    assert res.output.count("\n") == 1 and option in res.output
    res = runner.invoke(main, [*run, str(default)])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("args", [
    ["simulate", "--kind", "band", "--p", "6", "--n", "10"],
    [*BENCHMARK_RUN, "--threads", "1"],
    ["stability", SIM_DATA, "--n-small", "5", "--resamples", "2",
     "--threads", "1"],
], ids=["simulate", "benchmark", "stability"])
def test_negative_seed_exit_4(runner, sim_dir, tmp_path, args):
    """A negative --seed is a bad setting: one line that names it, and no
    --out-dir."""
    args = [str(sim_dir / "data.csv") if a == SIM_DATA else a for a in args]
    out = tmp_path / "out"
    res = runner.invoke(main, [*args, "--seed", "-1", "--out-dir", str(out)])
    assert res.exit_code == 4, res.output
    assert res.output.count("\n") == 1
    assert "--seed" in res.output
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_threads_env_below_one_exit_4(runner, tmp_path, monkeypatch, value):
    monkeypatch.setenv("SHRINKNET_THREADS", value)
    out = tmp_path / "out"
    res = runner.invoke(main, [*BENCHMARK_RUN, "--out-dir", str(out)])
    assert res.exit_code == 4, res.output
    assert "SHRINKNET_THREADS" in res.stderr
    assert not out.exists()


def test_defaults_are_the_library_defaults():
    """``infer``'s EM and stop defaults, and ``stability``'s budget of
    expected false edges, are the ones the library itself uses."""
    defaults = {(command, param.name): param.default
                for command in ("infer", "stability")
                for param in main.commands[command].params}
    assert defaults["infer", "tol"] == EmConfig().tol
    assert defaults["infer", "max_iter"] == EmConfig().max_iter
    assert defaults["infer", "patience"] == StopConfig().patience
    assert defaults["stability", "ev"] == SplitConfig(n_small=2).e_v


def _tiny_run(name, sim_dir):
    """A small argv of each command; a new command needs one here."""
    data = str(sim_dir / "data.csv")
    return {
        "infer": ["infer", data, "--no-rmax"],
        "simulate": ["simulate", "--kind", "hub", "--p", "10", "--n", "20",
                     "--seed", "1", "--blocks", "5,5"],
        "benchmark": [*BENCHMARK_RUN, "--seed", "2", "--threads", "1"],
        "stability": ["stability", data, "--n-small", "20", "--resamples",
                      "2", "--seed", "4", "--no-validate", "--threads", "1"],
    }[name]


@pytest.mark.parametrize("name", sorted(main.commands))
def test_manifest_config_holds_every_parameter(runner, sim_dir, tmp_path,
                                               name):
    res = runner.invoke(main, [*_tiny_run(name, sim_dir), "--out-dir",
                               str(tmp_path)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    missing = [param.name for param in main.commands[name].params
               if param.name not in manifest["config"]]
    assert missing == []
    assert (manifest["command"], manifest["format_version"]) == (name, 2)
    assert manifest["timings_ms"]["total"] > 0


@pytest.mark.parametrize("name", ["simulate", "infer", "benchmark"])
def test_rerun_from_manifest_is_byte_identical(runner, sim_dir, tmp_path,
                                               name):
    first, second = tmp_path / "first", tmp_path / "second"
    res = runner.invoke(main, [*_tiny_run(name, sim_dir), "--out-dir",
                               str(first)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((first / "manifest.json").read_text())
    res = runner.invoke(main, manifest_argv(manifest, out_dir=second))
    assert res.exit_code == 0, res.output
    rerun = json.loads((second / "manifest.json").read_text())
    assert rerun["config"] == {**manifest["config"], "out_dir": str(second)}
    assert rerun["input_digests"] == manifest["input_digests"]
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    for file_name in names:
        if file_name != "manifest.json":
            assert (first / file_name).read_bytes() == \
                (second / file_name).read_bytes(), file_name


def test_rerun_of_a_removed_parameter_is_refused(runner, sim_dir, tmp_path):
    """A manifest whose config holds a parameter the command no longer
    has cannot be rerun as recorded, so ``manifest_argv`` refuses it."""
    res = runner.invoke(main, [*_tiny_run("infer", sim_dir), "--out-dir",
                               str(tmp_path)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["config"]["eb"] = "exact"
    with pytest.raises(ConfigError, match="no parameter eb"):
        manifest_argv(manifest, out_dir=tmp_path / "again")
