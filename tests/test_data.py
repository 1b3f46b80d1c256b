import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinknet.data import (
    ExpressionMatrix,
    load_expression_matrix,
    standardize,
)
from shrinknet.errors import (
    DegenerateGeneError,
    MalformedInputError,
    MissingDataError,
    ValidationError,
)


def make_matrix(n=5, p=4, seed=0):
    rng = np.random.default_rng(seed)
    return ExpressionMatrix(
        values=rng.standard_normal((n, p)),
        gene_ids=tuple(f"g{i}" for i in range(p)),
        sample_ids=tuple(f"s{i}" for i in range(n)),
    )


class TestExpressionMatrix:
    def test_shape_properties(self):
        m = make_matrix(7, 3)
        assert m.n_samples == 7
        assert m.n_genes == 3

    def test_rejects_duplicate_gene_ids(self):
        with pytest.raises(ValidationError, match="duplicate gene ids"):
            ExpressionMatrix(np.zeros((3, 2)), ("g", "g"), ("a", "b", "c"))

    def test_rejects_duplicate_sample_ids(self):
        with pytest.raises(ValidationError, match="duplicate sample"):
            ExpressionMatrix(np.zeros((2, 2)), ("g1", "g2"), ("s", "s"))

    def test_rejects_nan_with_location(self):
        v = np.zeros((3, 2))
        v[1, 1] = np.nan
        with pytest.raises(MissingDataError, match="sample 1, gene g2"):
            ExpressionMatrix(v, ("g1", "g2"), ("a", "b", "c"))

    def test_rejects_single_gene(self):
        with pytest.raises(ValidationError, match="at least 2 genes"):
            ExpressionMatrix(np.zeros((3, 1)), ("g1",), ("a", "b", "c"))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(np.zeros((3, 2)), ("g1",), ("a", "b", "c"))


class TestLoad:
    def test_csv_with_sample_column(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("id,g1,g2\ns1,1.0,2.0\ns2,3.0,4.0\ns3,5.0,6.0\n")
        m = load_expression_matrix(f)
        assert m.gene_ids == ("g1", "g2")
        assert m.sample_ids == ("s1", "s2", "s3")
        np.testing.assert_allclose(m.values, [[1, 2], [3, 4], [5, 6]])

    def test_csv_without_sample_column(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("g1,g2\n1,2\n3,4\n5,6\n")
        m = load_expression_matrix(f)
        assert m.sample_ids == ("s1", "s2", "s3")

    def test_tsv_by_extension(self, tmp_path):
        f = tmp_path / "m.tsv"
        f.write_text("g1\tg2\n1\t2\n3\t4\n5\t6\n")
        m = load_expression_matrix(f)
        assert m.n_genes == 2

    def test_transpose(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("gene,s1,s2,s3\ng1,1,2,3\ng2,4,5,6\n")
        m = load_expression_matrix(f, transpose=True)
        assert m.gene_ids == ("g1", "g2")
        assert m.sample_ids == ("s1", "s2", "s3")
        np.testing.assert_allclose(m.values, [[1, 4], [2, 5], [3, 6]])

    def test_missing_cell_reports_location(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("g1,g2\n1,2\n3,NA\n5,6\n")
        with pytest.raises(MissingDataError, match="row 3, column g2"):
            load_expression_matrix(f)

    def test_unparseable_cell_reports_location(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("g1,g2\n1,2\n3,oops\n5,6\n")
        with pytest.raises(MalformedInputError, match="row 3, column g2"):
            load_expression_matrix(f)

    def test_ragged_row(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("g1,g2\n1,2\n3\n5,6\n")
        with pytest.raises(MalformedInputError, match="row 3"):
            load_expression_matrix(f)

    def test_too_few_samples(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("g1,g2\n1,2\n3,4\n")
        with pytest.raises(ValidationError, match="at least 3 sample"):
            load_expression_matrix(f)


class TestStandardize:
    def test_zero_mean_unit_sd(self):
        m = standardize(make_matrix(20, 5))
        np.testing.assert_allclose(m.values.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(m.values.std(axis=0, ddof=1), 1)

    def test_center_only(self):
        raw = make_matrix(20, 5)
        m = standardize(raw, scale=False)
        np.testing.assert_allclose(m.values.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(
            m.values.std(axis=0, ddof=1), raw.values.std(axis=0, ddof=1)
        )

    def test_constant_gene_named(self):
        v = np.random.default_rng(0).standard_normal((5, 3))
        v[:, 1] = 2.5
        m = ExpressionMatrix(v, ("g1", "g2", "g3"), tuple("abcde"))
        with pytest.raises(DegenerateGeneError, match="g2"):
            standardize(m)

    @pytest.mark.parametrize("level", [0.0, 1e-300, 1e300])
    def test_zero_and_extreme_constant_genes_named(self, level):
        v = np.random.default_rng(0).standard_normal((5, 3))
        v[:, 1] = level
        m = ExpressionMatrix(v, ("g1", "g2", "g3"), tuple("abcde"))
        with pytest.raises(DegenerateGeneError, match="g2"):
            standardize(m)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 12),
    p=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_standardize_idempotent(n, p, seed):
    m = ExpressionMatrix(
        np.random.default_rng(seed).standard_normal((n, p)),
        tuple(f"g{i}" for i in range(p)),
        tuple(f"s{i}" for i in range(n)),
    )
    once = standardize(m)
    twice = standardize(once)
    np.testing.assert_allclose(once.values, twice.values, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    log_scales=st.lists(st.floats(-300.0, 300.0), min_size=4, max_size=4),
    shifts=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
)
@example(seed=0, log_scales=[-300.0, 300.0, -160.0, 0.0],
         shifts=[0.0, 5.0, -10.0, 10.0])
def test_standardize_ignores_per_gene_affine_maps(seed, log_scales, shifts):
    """x -> s (x + c) per gene, s from 1e-300 to 1e300, changes nothing
    once scaled, and only the scale when centred alone."""
    m = make_matrix(12, 4, seed=seed)
    scales = 10.0 ** np.array(log_scales)
    moved = ExpressionMatrix((m.values + shifts) * scales, m.gene_ids,
                             m.sample_ids)
    np.testing.assert_allclose(standardize(moved).values,
                               standardize(m).values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(standardize(moved, scale=False).values / scales,
                               standardize(m, scale=False).values, rtol=0,
                               atol=1e-12)
