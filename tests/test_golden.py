"""Seeded end-to-end golden runs of ``infer_network``.

The pinned values were recorded from a run of the pipeline and guard any
refactor of the fitting and selection code in seconds: the top of the edge
ranking, the selected set and the estimated null fraction must not move.
``p0_hat`` is a count ratio, so it is compared exactly. One input has more
genes than samples, the other more samples than genes, so both shapes of
the per-gene regressions and of the selection sub-models are covered.
"""

import numpy as np
import pytest

from shrinknet.pipeline import infer_network
from shrinknet.simulate import make_structure, sample_mvn, sample_precision

GOLDEN = {
    "wide": dict(
        p=30, n=20,
        top=[(21, 23), (19, 21), (25, 27), (19, 23), (4, 5), (2, 4), (7, 8),
             (9, 11), (11, 13), (17, 19), (11, 12), (23, 24), (21, 24),
             (12, 13), (0, 2), (8, 9), (17, 21), (23, 25), (5, 7), (25, 26),
             (15, 29), (19, 24), (19, 26), (16, 17), (17, 23), (23, 26),
             (21, 26), (8, 27), (23, 27), (4, 7), (3, 29), (12, 14), (9, 14),
             (11, 16), (2, 5), (21, 25), (13, 16), (11, 14), (17, 24),
             (9, 16), (19, 25), (9, 27), (11, 27), (21, 27), (19, 27),
             (13, 14), (8, 14), (18, 23), (3, 20), (20, 29)],
        selected=[(0, 2), (2, 4), (4, 5), (7, 8), (8, 9), (9, 11), (11, 12),
                  (11, 13), (17, 19), (19, 21), (21, 23), (23, 24), (23, 25),
                  (25, 26), (25, 27)],
        null_count=593,
    ),
    "tall": dict(
        p=16, n=40,
        top=[(6, 8), (5, 6), (1, 2), (5, 8), (0, 1), (14, 15), (7, 10),
             (7, 9), (3, 5), (10, 12), (6, 12), (2, 3), (9, 10), (7, 8),
             (8, 12), (5, 12), (8, 10), (10, 13), (13, 14), (13, 15), (7, 13),
             (12, 13), (9, 11), (6, 10), (12, 14), (1, 3), (3, 6), (6, 7),
             (8, 9), (9, 12), (4, 6), (6, 9), (9, 13), (0, 2), (12, 15),
             (5, 11), (0, 12), (3, 8), (0, 11), (4, 9), (0, 14), (1, 14),
             (2, 5), (4, 8), (5, 7), (5, 9), (8, 13), (7, 12), (5, 10),
             (4, 5)],
        selected=[(0, 1), (1, 2), (3, 5), (5, 6), (6, 8), (7, 9), (7, 10),
                  (10, 12), (14, 15)],
        null_count=199,
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seeded_band_run_is_pinned(case):
    want = GOLDEN[case]
    rng = np.random.default_rng(2024)
    g = make_structure("band", want["p"], params={"bandwidth": 2}, rng=rng)
    omega = sample_precision(g, rng=rng)
    res = infer_network(sample_mvn(omega, want["n"], rng=rng))
    assert [(e.i, e.j) for e in list(res.ranking)[:50]] == want["top"]
    assert sorted(res.selection.selected) == want["selected"]
    # p0_hat is the share of the 2P rank-conditioned Bayes factors <= 1
    assert res.p0_hat == want["null_count"] / (2.0 * len(res.ranking))
