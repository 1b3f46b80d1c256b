"""Expression matrix ingestion and standardization.

The matrix convention is samples in rows, genes in columns. Every gene in
turn acts as a regression response with other genes as covariates; a
regression is named by gene indices into the matrix, and ``vb`` gathers
its design and response from there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateGeneError,
    MalformedInputError,
    MissingDataError,
    ValidationError,
)


@dataclass(frozen=True)
class ExpressionMatrix:
    """n x p matrix of expression values with gene and sample labels."""

    values: np.ndarray
    gene_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "gene_ids", tuple(self.gene_ids))
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        if v.ndim != 2:
            raise ValidationError("expression values must be a 2-D array")
        n, p = v.shape
        if n < 1:
            raise ValidationError("need at least one sample row")
        if p < 2:
            raise ValidationError(f"need at least 2 genes, got {p}")
        if len(self.gene_ids) != p:
            raise ValidationError(
                f"{len(self.gene_ids)} gene ids for {p} columns"
            )
        if len(self.sample_ids) != n:
            raise ValidationError(
                f"{len(self.sample_ids)} sample ids for {n} rows"
            )
        if len(set(self.gene_ids)) != p:
            dupes = sorted(
                g for g in set(self.gene_ids) if self.gene_ids.count(g) > 1
            )
            raise ValidationError(f"duplicate gene ids: {dupes}")
        if len(set(self.sample_ids)) != n:
            raise ValidationError("duplicate sample ids")
        if not np.isfinite(v).all():
            bad = np.argwhere(~np.isfinite(v))[0]
            raise MissingDataError(
                f"non-finite value at sample {bad[0]}, gene "
                f"{self.gene_ids[bad[1]]}"
            )

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_genes(self) -> int:
        return self.values.shape[1]


def _is_missing(token: str) -> bool:
    return token == "" or token.upper() in ("NA", "NAN")


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_expression_matrix(
    path, format: str | None = None, transpose: bool = False
) -> ExpressionMatrix:
    """Read a CSV/TSV file with a gene-id header row.

    An optional first column of sample ids is auto-detected from the first
    data row: its first cell is a sample id unless it is a number or a
    missing value (blank, NA or NaN); a header cell above it, blank in R's
    ``write.csv`` layout, is its label. Missing or non-numeric cells and
    blank ids raise an error with their location; nothing is imputed.
    The file is read as UTF-8, a leading byte-order mark dropped, and
    bytes that are not UTF-8 raise ``MalformedInputError``. With
    ``transpose`` the file is read genes-in-rows and flipped.
    """
    path = Path(path)
    if format is None:
        format = "tsv" if path.suffix.lower() in (".tsv", ".tab") else "csv"
    if format not in ("csv", "tsv"):
        raise ValidationError(f"unknown format {format!r}, expected csv or tsv")
    delim = "\t" if format == "tsv" else ","
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh, delimiter=delim)]
    except UnicodeDecodeError as err:
        raise MalformedInputError(
            f"{path}: not UTF-8 text ({err.reason} at byte {err.start})"
        ) from None
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if len(rows) < 2:
        raise MalformedInputError(f"{path}: need a header row and data rows")
    header = [cell.strip() for cell in rows[0]]
    first_data = [cell.strip() for cell in rows[1]]
    has_sample_col = bool(first_data) and not (
        _is_number(first_data[0]) or _is_missing(first_data[0]))
    n_cols = len(first_data)
    if has_sample_col:
        if len(header) == n_cols:
            gene_ids = header[1:]
        elif len(header) == n_cols - 1:
            gene_ids = header
        else:
            raise MalformedInputError(
                f"{path}: header has {len(header)} fields but data rows "
                f"have {n_cols}"
            )
    else:
        if len(header) != n_cols:
            raise MalformedInputError(
                f"{path}: header has {len(header)} fields but data rows "
                f"have {n_cols}"
            )
        gene_ids = header
    if "" in gene_ids:
        column = gene_ids.index("") + 1 + len(header) - len(gene_ids)
        raise MalformedInputError(
            f"{path}: blank gene id in header column {column}")

    values = []
    sample_ids = []
    for i, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != n_cols:
            raise MalformedInputError(
                f"{path}: row {i} has {len(cells)} fields, expected {n_cols}"
            )
        if has_sample_col:
            if not cells[0]:
                raise MalformedInputError(
                    f"{path}: blank sample id in row {i}")
            sample_ids.append(cells[0])
            cells = cells[1:]
        else:
            sample_ids.append(f"s{i - 1}")
        parsed = []
        for j, cell in enumerate(cells):
            if _is_missing(cell):
                raise MissingDataError(
                    f"{path}: missing value at row {i}, column "
                    f"{gene_ids[j] if j < len(gene_ids) else j + 1}"
                )
            try:
                parsed.append(float(cell))
            except ValueError:
                raise MalformedInputError(
                    f"{path}: cannot parse {cell!r} at row {i}, column "
                    f"{gene_ids[j] if j < len(gene_ids) else j + 1}"
                ) from None
        values.append(parsed)
    m = ExpressionMatrix(
        values=np.array(values, dtype=float),
        gene_ids=tuple(gene_ids),
        sample_ids=tuple(sample_ids),
    )
    if transpose:
        m = ExpressionMatrix(
            values=m.values.T, gene_ids=m.sample_ids, sample_ids=m.gene_ids
        )
    if m.n_samples < 3:
        raise ValidationError(
            f"{path}: need at least 3 sample rows, got {m.n_samples}"
        )
    return m


def standardize(m: ExpressionMatrix, scale: bool = True) -> ExpressionMatrix:
    """Center every gene column; with ``scale`` also set unit sample sd."""
    if m.n_samples < 2:
        raise ValidationError("standardization needs at least 2 samples")
    # exactly: the rounded mean of a constant column need not equal it
    constant = m.values.max(axis=0) == m.values.min(axis=0)
    if np.any(constant):
        gene = m.gene_ids[int(np.argmax(constant))]
        raise DegenerateGeneError(f"gene {gene} is constant across samples")
    # scale each column's largest |x| into [0.5, 1) so no square underflows
    # or overflows; a power of two scales exactly, changing nothing else
    _, exponent = np.frexp(np.abs(m.values).max(axis=0))
    v = np.ldexp(m.values, -exponent)
    out = v - v.mean(axis=0)
    if scale:
        out = out / out.std(axis=0, ddof=1)
    else:
        out = np.ldexp(out, exponent)
    return ExpressionMatrix(out, m.gene_ids, m.sample_ids)
