"""Ground-truth generation: graph structures, graph-constrained precision
matrices, and multivariate normal expression data.

Precision matrices are drawn by taking an unconstrained Wishart sample and
then completing it to the requested zero pattern by cycling per-node
regressions until the implied inverse matches the draw's covariance on the
graph. This is an approximation to sampling the graph-restricted Wishart
directly, but it yields exact zeros and positive definiteness, which is
what the benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExpressionMatrix
from .errors import GenerationFailureError, InvalidParamsError

GRAPH_KINDS = ("band", "cluster", "hub", "random")

#: Off-graph precision entries must fall below this after completion.
ZERO_TOL = 1e-8

_MAX_CYCLES = 10_000


@dataclass(frozen=True)
class GraphSpec:
    p: int
    adjacency: np.ndarray  # boolean, symmetric, zero diagonal
    kind: str
    params: dict

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        object.__setattr__(self, "adjacency", adj)
        if adj.shape != (self.p, self.p):
            raise InvalidParamsError("adjacency shape does not match p")
        if not np.array_equal(adj, adj.T) or np.any(np.diag(adj)):
            raise InvalidParamsError(
                "adjacency must be symmetric with a zero diagonal"
            )

    @property
    def edge_count(self) -> int:
        return int(np.sum(self.adjacency)) // 2

    @property
    def density(self) -> float:
        return self.edge_count / (self.p * (self.p - 1) / 2)

    @property
    def edges(self) -> frozenset:
        idx = np.argwhere(np.triu(self.adjacency, 1))
        return frozenset((int(i), int(j)) for i, j in idx)


@dataclass(frozen=True)
class PrecisionMatrix:
    omega: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", om)
        np.linalg.cholesky(om)  # raises if not positive definite

    @property
    def p(self) -> int:
        return self.omega.shape[0]


def default_structure_params(kind: str, p: int) -> dict:
    """Kind-specific defaults matching the benchmark compositions at p=100."""
    if kind == "band":
        return {"bandwidth": 4}
    if kind == "random":
        return {"density": 0.096}
    if kind == "hub":
        if p == 100:
            return {"block_sizes": [10] * 5 + [5] * 10}
        return {"block_sizes": _tile_blocks(p)}
    if kind == "cluster":
        if p == 100:
            return {"block_sizes": [10] * 6 + [5] * 8}
        return {"block_sizes": _tile_blocks(p)}
    raise InvalidParamsError(
        f"unknown graph kind {kind!r}; valid kinds: {', '.join(GRAPH_KINDS)}"
    )


def _tile_blocks(p: int) -> list[int]:
    sizes = []
    left = p
    while left > 0:
        if left % 10 == 0:
            sizes.append(10)
            left -= 10
        elif left % 5 == 0:
            sizes.append(5)
            left -= 5
        else:
            raise InvalidParamsError(
                f"cannot tile p={p} with default blocks of 5 and 10; "
                "pass block_sizes explicitly"
            )
    return sizes


def make_structure(
    kind: str, p: int, params: dict | None = None, rng=None
) -> GraphSpec:
    """Build the adjacency for one of the four benchmark graph families."""
    if kind not in GRAPH_KINDS:
        raise InvalidParamsError(
            f"unknown graph kind {kind!r}; valid kinds: {', '.join(GRAPH_KINDS)}"
        )
    if p < 2:
        raise InvalidParamsError("p must be at least 2")
    needed = {"band": "bandwidth", "random": "density",
              "cluster": "block_sizes", "hub": "block_sizes"}[kind]
    merged = dict(params or {})
    if needed not in merged:
        merged.update(default_structure_params(kind, p))
        if params:
            merged.update(params)
    adj = np.zeros((p, p), dtype=bool)
    if kind == "band":
        bw = int(merged["bandwidth"])
        if bw < 1:
            raise InvalidParamsError("bandwidth must be at least 1")
        idx = np.arange(p)
        dist = np.abs(idx[:, None] - idx[None, :])
        adj = (dist > 0) & (dist <= bw)
    elif kind in ("cluster", "hub"):
        sizes = [int(s) for s in merged["block_sizes"]]
        if any(s < 2 for s in sizes):
            raise InvalidParamsError("block sizes must be at least 2")
        if sum(sizes) != p:
            raise InvalidParamsError(
                f"block sizes sum to {sum(sizes)}, expected {p}"
            )
        start = 0
        for s in sizes:
            block = slice(start, start + s)
            if kind == "cluster":
                adj[block, block] = True
            else:
                center = start
                adj[center, start:start + s] = True
                adj[start:start + s, center] = True
            start += s
        np.fill_diagonal(adj, False)
    else:  # random
        density = float(merged["density"])
        if not 0.0 <= density <= 1.0:
            raise InvalidParamsError("density must lie in [0, 1]")
        if rng is None:
            rng = np.random.default_rng()
        rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
        upper = rng.random((p, p)) < density
        adj = np.triu(upper, 1)
        adj = adj | adj.T
    return GraphSpec(p=p, adjacency=adj, kind=kind, params=merged)


def _constrained_completion(S: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """Graph-constrained inverse-covariance completion of a covariance S.

    Cycles per-node regressions on the working covariance until the
    neighbor entries match S, then reads off the precision, which has
    exact zeros at non-edges by construction.
    """
    p = S.shape[0]
    W = S.copy()
    scale = np.max(np.abs(S))
    others = [np.delete(np.arange(p), j) for j in range(p)]
    neighbors = [np.flatnonzero(adj[j]) for j in range(p)]

    def regress(j):
        nb = neighbors[j]
        return np.linalg.solve(W[np.ix_(nb, nb)], S[nb, j])

    for _ in range(_MAX_CYCLES):
        delta = 0.0
        for j in range(p):
            rest, nb = others[j], neighbors[j]
            # keep W[rest][:, nb]: it is F-ordered, like columns of the block
            # W[rest, rest], and the C-ordered W[np.ix_(rest, nb)] rounds
            # differently (tests/test_simulate.py pins the bits)
            w12 = W[rest][:, nb] @ regress(j) if nb.size else np.zeros(p - 1)
            delta = max(delta, np.max(np.abs(W[rest, j] - w12)))
            W[rest, j] = W[j, rest] = w12
        if delta < 1e-12 * scale:
            break
    else:
        raise GenerationFailureError(
            "graph-constrained completion did not converge"
        )
    theta = np.diag(1.0 / np.diag(S))
    for j, nb in enumerate(neighbors):
        if nb.size:
            beta = regress(j)
            theta[j, j] = 1.0 / (S[j, j] - float(W[nb, j] @ beta))
            theta[nb, j] = -beta * theta[j, j]
    return 0.5 * (theta + theta.T)


def check_dof(dof: float) -> None:
    """The precision draw's degrees of freedom must be finite and above 2."""
    if not 2.0 < dof < np.inf:
        raise InvalidParamsError(f"dof must be finite and exceed 2, got {dof}")


def check_seed(seed: int) -> None:
    """A master seed must be a non-negative integer, as ``SeedSequence``
    takes it."""
    if not seed >= 0:
        raise InvalidParamsError(
            f"--seed must be a non-negative integer, got {seed}")


def sample_precision(
    g: GraphSpec, dof: float = 4.0, rng=None
) -> PrecisionMatrix:
    """Draw a positive-definite precision matrix with g's zero pattern.

    The degrees-of-freedom parameter maps to dof + p - 1 in the
    unconstrained Wishart draw so diagonal scale is comparable across p.
    That draw W(df, I) is Bartlett's (Bartlett 1933; Smith and Hocking
    1972): W = A A^T with A lower triangular, standard normals below the
    diagonal (row-major, drawn first) and sqrt(chi^2(df - i)) on diagonal
    entry i = 0, ..., p - 1. ``tests/test_simulate.py`` pins it bit for
    bit, and the state of ``rng`` after it, to a reference Wishart draw.
    """
    check_dof(dof)
    rng = np.random.default_rng(rng)
    p = g.p
    df = dof + p - 1
    A = np.zeros((p, p))
    A[np.tril_indices(p, -1)] = rng.normal(size=p * (p - 1) // 2)
    for i in range(p):
        # an array's ** 0.5 is sqrt; a scalar's is pow, off in the last bit
        A[i, i] = (rng.chisquare(df - i, size=1) ** 0.5)[0]
    draw = np.dot(A, A.T)
    if g.edge_count == p * (p - 1) // 2:
        return PrecisionMatrix(omega=draw)
    S = np.linalg.inv(draw)
    omega = _constrained_completion(S, g.adjacency)
    non_edge = ~g.adjacency & ~np.eye(p, dtype=bool)
    worst = np.max(np.abs(omega[non_edge])) if non_edge.any() else 0.0
    if worst > ZERO_TOL:
        raise GenerationFailureError(
            f"non-edge magnitude {worst:.2e} above tolerance"
        )
    try:
        return PrecisionMatrix(omega=omega)
    except np.linalg.LinAlgError as exc:
        raise GenerationFailureError(
            "completed matrix is not positive definite"
        ) from exc


def sample_mvn(
    omega: PrecisionMatrix, n: int, rng=None, gene_prefix: str = "g"
) -> ExpressionMatrix:
    """n iid zero-mean normal draws with the given precision."""
    if n < 1:
        raise InvalidParamsError("n must be at least 1")
    rng = np.random.default_rng(rng)
    p = omega.p
    L = np.linalg.cholesky(omega.omega)
    z = rng.standard_normal((n, p))
    # x = L^-T z has covariance (L L^T)^-1; LU of the triangular L^T
    # pivots nothing, so this is its back-substitution
    x = np.linalg.solve(L.T, z.T).T
    return ExpressionMatrix(
        values=x,
        gene_ids=tuple(f"{gene_prefix}{i + 1}" for i in range(p)),
        sample_ids=tuple(f"s{i + 1}" for i in range(n)),
    )
