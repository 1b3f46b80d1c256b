"""``infer`` on small matrices with pathological columns, cells and flags.

Every run must end in a documented exit code: 0, or 2, 3 or 4 with exactly
one line. No run may print a traceback or a Python warning (the test
settings turn warnings into errors, which would exit 1). A run that exits
0 writes every gene pair once, with a finite kappa.
"""

import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from oracles import mp_dense_vb_bound
from shrinknet.cli import main
from shrinknet.data import ExpressionMatrix, standardize
from shrinknet.em import fit_sem
from shrinknet.selection import EvidenceCache, kappa_scores, rank_edges
from shrinknet.vb import fit_spectra, make_workspace

#: examples per run of the property; the tier-1 workflow's long fuzz step
#: sets SHRINKNET_FUZZ_EXAMPLES=1000
EXAMPLES = int(os.environ.get("SHRINKNET_FUZZ_EXAMPLES", "150"))
#: unset, the property replays the same derandomized examples on every run;
#: set, it draws new ones from this Hypothesis seed, and the same seed draws
#: the same examples again. The long fuzz step sets it to the workflow's
#: run id and prints it to the step summary.
SEED = (int(os.environ["SHRINKNET_FUZZ_SEED"])
        if "SHRINKNET_FUZZ_SEED" in os.environ else None)

#: values of a constant gene; none of them is a dyadic fraction, so the
#: rounded mean of such a column need not equal it
CONSTANTS = (0.1, 1.0 / 3.0, 2e-4, -7.3, 1e5 / 3.0)


class Case(NamedTuple):
    """A standard-normal (n, p) matrix from ``seed``, with ``edits`` to its
    columns, gene ``gene_scale[0]`` times ``gene_scale[1]``, the whole
    matrix times ``scale``, cell ``cell[:2]`` written as ``cell[2]``, and
    ``infer``'s extra command-line ``flags``."""

    n: int
    p: int
    seed: int
    edits: tuple = ()
    gene_scale: tuple | None = None
    scale: float = 1.0
    cell: tuple | None = None
    flags: tuple = ()


def _values(case: Case) -> np.ndarray:
    x = np.random.default_rng(case.seed).standard_normal((case.n, case.p))
    noise = np.random.default_rng(case.seed + 1).standard_normal(case.n)
    for kind, gene, *args in case.edits:
        if kind == "constant":
            x[:, gene] = args[0]
        elif kind == "duplicate":
            x[:, gene] = x[:, args[0]]
        elif kind == "affine":
            x[:, gene] = -4.0 * x[:, args[0]] + 7.0
        else:  # a near duplicate
            x[:, gene] = x[:, args[0]] + 1e-9 * noise
    if case.gene_scale is not None:
        x[:, case.gene_scale[0]] *= case.gene_scale[1]
    return x * case.scale


@st.composite
def cases(draw):
    n, p = draw(st.integers(3, 20)), draw(st.integers(2, 30))
    gene = st.integers(0, p - 1)
    # most runs should reach the fit: a constant column or a bad cell
    # ends one at the input check
    edits = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("duplicate", "affine", "near")), gene,
                  gene),
        st.tuples(st.just("constant"), gene, st.sampled_from(CONSTANTS))),
        max_size=3))
    edits = [edit for edit in edits if edit[1:2] != edit[2:3]]
    if draw(st.integers(0, 3)):
        edits = [edit for edit in edits if edit[0] != "constant"]
    flags = [flag for flag in ("--no-scale", "--no-global-shrinkage")
             if draw(st.booleans())]
    p0 = draw(st.none() | st.floats(0.05, 0.95))
    if p0 is not None:
        flags += ["--p0", repr(p0)]
    text = draw(st.sampled_from((None,) * 5 + ("nan", "inf", "")))
    return Case(
        n, p, draw(st.integers(0, 2**16)),
        edits=tuple(edits),
        gene_scale=draw(st.none() | st.tuples(
            gene, st.sampled_from((1e150, 1e-150)))),
        scale=draw(st.sampled_from((1.0, 1e4, 1e-4))),
        cell=None if text is None else (draw(st.integers(0, n - 1)),
                                        draw(gene), text),
        flags=tuple(flags))


def _write(case: Case, path: Path) -> None:
    rows = [[f"{v:.17g}" for v in row] for row in _values(case)]
    if case.cell is not None:
        i, j, text = case.cell
        rows[i][j] = text
    lines = [",".join(f"g{j}" for j in range(case.p))]
    path.write_text("\n".join(lines + [",".join(row) for row in rows]) + "\n")


def _infer(case: Case, path: Path, out: Path):
    _write(case, path)
    return CliRunner().invoke(main, ["infer", str(path), "--out-dir",
                                     str(out), *case.flags])


#: unscaled, so each sub-model's residual y^T y - theta^T w cancels from
#: about 4e7 to 5e-3 where a design has more genes than samples
CANCELLING = Case(3, 29, 0, scale=1e4, flags=("--no-scale",))
#: unscaled, with a sub-model whose residual rounds below zero on the way
#: to its fixed point
LOST = Case(11, 28, 1, scale=1e4, flags=("--no-scale",))
#: unscaled, with the prior fixed: gene 0, near 1e150 among genes near 1,
#: rests on X's null space at every E[tau^-2] its root solve would probe
NULL_BOUND = Case(3, 18, 315, edits=(("duplicate", 2, 3),),
                  gene_scale=(0, 1e150),
                  flags=("--no-scale", "--no-global-shrinkage"))


@seed(SEED)
@settings(max_examples=EXAMPLES, deadline=None, derandomize=SEED is None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=Case(20, 8, 0, edits=(("constant", 3, 0.1),)))
@example(case=Case(20, 8, 0, edits=(("constant", 3, 2e-4),)))
@example(case=Case(4, 30, 0, gene_scale=(7, 1e150), scale=1e4,
                   flags=("--no-scale",)))
@example(case=Case(10, 5, 0, gene_scale=(2, 1e150), scale=1e4,
                   flags=("--no-scale",)))
@example(case=Case(3, 2, 0, gene_scale=(0, 1e150),
                   flags=("--no-scale", "--no-global-shrinkage")))
@example(case=CANCELLING)
@example(case=LOST)
@example(case=Case(3, 3, 0, cell=(0, 0, "")))
def test_infer_ends_in_a_documented_exit(case):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "data.csv", Path(tmp) / "out"
        res = _infer(case, path, out)
        assert res.exit_code in (0, 2, 3, 4), (res.output, res.exception)
        assert "Traceback" not in res.output
        lines = res.output.splitlines()
        if res.exit_code:
            assert len(lines) == 1, res.output
            return
        # the one notice infer prints besides its summary
        assert all(line.startswith("warning: EM converged=False")
                   for line in lines[:-1]), res.output
        assert lines[-1].startswith("selected "), res.output
        rows = [line.split("\t") for line in
                (out / "edges.tsv").read_text().splitlines()[1:]]
    p = case.p
    assert len(rows) == len({frozenset(row[:2]) for row in rows}) \
        == p * (p - 1) // 2
    assert all(row[0] != row[1] for row in rows)
    assert np.isfinite([float(row[3]) for row in rows]).all()


def test_cancelling_residuals_still_fit(tmp_path):
    res = _infer(CANCELLING, tmp_path / "data.csv", tmp_path / "out")
    assert res.exit_code == 0, res.output
    assert res.output.startswith("selected ")


def test_residual_lost_to_rounding_exit_3(tmp_path):
    res = _infer(LOST, tmp_path / "data.csv", tmp_path / "out")
    assert res.exit_code == 3, res.output
    assert res.output == ("numerical failure: precision lost: a sub-model's "
                          "residual sum of squares rounds below zero\n")
    assert not (tmp_path / "out").exists()


def test_cancelling_residual_evidence_matches_dense_oracle():
    """The scan's evidence of gene 1 on its first 14 partners in the
    ``CANCELLING`` run, whose root solve used to stall, is within 1e-4
    of the bound of 40 dense sweeps in 30-digit arithmetic from its rates
    (measured: 7e-6; its true fixed point lies 7e-6 away too)."""
    m = standardize(ExpressionMatrix(
        _values(CANCELLING), [f"g{j}" for j in range(CANCELLING.p)],
        [f"s{i}" for i in range(CANCELLING.n)]), scale=False)
    ranking = rank_edges(kappa_scores(fit_sem(m)))
    cache = EvidenceCache(m)
    table = cache.fill_prefixes(ranking)
    covariates = np.sort([j if i == 1 else i for i, j in
                          zip(ranking.i, ranking.j) if 1 in (i, j)][:14])
    hp = cache.prior
    fit = fit_spectra(make_workspace(cache.values, 1, covariates)[0], hp)
    assert fit.bound[0] == table[1, 14]
    want = mp_dense_vb_bound(cache.values[:, 1], cache.values[:, covariates],
                             hp.a, hp.b, hp.c, hp.d, sweeps=40, dps=30,
                             rate_init=fit.b_star[0], d_init=fit.d_star[0])
    assert abs(fit.bound[0] - float(want)) < 1e-4


def test_null_space_failure_found_before_the_solve(tmp_path):
    """The fixed-prior fit fails on the null-space gain, as the EM's
    sweeps did, not on a root solve that overflows on the way."""
    res = _infer(NULL_BOUND, tmp_path / "data.csv", tmp_path / "out")
    assert res.exit_code == 3, res.output
    assert res.output == ("numerical failure: gene g0: its fit rests on "
                          "directions outside the data's row space beyond "
                          "working precision\n")
