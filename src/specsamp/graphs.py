"""Graph representation, generators, Laplacian operators, and Kron reduction.

Graphs are undirected, weighted, without self-loops, and stored dense: the
target sizes (a few thousand vertices at most) make the eigendecomposition
the dominant cost, not storage.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConnectivityFailure,
    InvalidParameter,
    IoFailure,
    IsolatedVertex,
    SingularInteriorBlock,
)

_SYMMETRY_RTOL = 1e-12
_MAX_RESAMPLE = 100
# gen_matched_bipartite: matching edge weight, unit-weight extra edges per vertex.
_MATCH_WEIGHT = 6.0
_MATCH_EXTRA = 2


class OperatorKind(Enum):
    COMBINATORIAL = "combinatorial"
    SYMMETRIC_NORMALIZED = "symmetric_normalized"


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph.

    Parameters
    ----------
    n : int
        Number of vertices.
    weights : ndarray(n, n)
        Symmetric nonnegative edge-weight matrix with zero diagonal.
    bipartition : optional pair of index arrays
        Disjoint vertex sets (v1, v2) covering all vertices; when present,
        no edge may join two vertices of the same part.
    """

    n: int
    weights: np.ndarray
    bipartition: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise InvalidParameter(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.allclose(w, w.T, rtol=0, atol=1e-12 * max(1.0, np.abs(w).max(initial=0.0))):
            raise InvalidParameter("weights must be symmetric")
        if np.any(np.diag(w) != 0):
            raise InvalidParameter("self-loops are not allowed")
        if np.any(w < 0):
            raise InvalidParameter("weights must be nonnegative")
        w = 0.5 * (w + w.T)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.bipartition is not None:
            v1 = np.array(self.bipartition[0], dtype=int)
            v2 = np.array(self.bipartition[1], dtype=int)
            both = np.concatenate([v1, v2])
            if len(np.unique(both)) != self.n or both.min(initial=0) < 0 or both.max(initial=-1) >= self.n:
                raise InvalidParameter("bipartition must cover all vertices exactly once")
            if np.any(w[np.ix_(v1, v1)] != 0) or np.any(w[np.ix_(v2, v2)] != 0):
                raise InvalidParameter("bipartition admits no intra-part edges")
            v1.flags.writeable = False
            v2.flags.writeable = False
            object.__setattr__(self, "bipartition", (v1, v2))

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class VariationOperator:
    """Real symmetric positive semidefinite matrix used to define a GFT."""

    matrix: np.ndarray
    kind: OperatorKind

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        m = 0.5 * (m + m.T)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def combinatorial_laplacian(g: Graph) -> VariationOperator:
    """Return L = D - A with D the diagonal degree matrix."""
    lap = np.diag(g.degrees) - g.weights
    return VariationOperator(lap, OperatorKind.COMBINATORIAL)


def normalized_laplacian(g: Graph) -> VariationOperator:
    """Return the symmetrically normalized Laplacian D^{-1/2} L D^{-1/2}.

    Raises
    ------
    IsolatedVertex
        If any vertex has degree zero.
    """
    deg = g.degrees
    if np.any(deg <= 0):
        raise IsolatedVertex("normalized Laplacian requires all degrees > 0")
    dinv = 1.0 / np.sqrt(deg)
    norm_adj = g.weights * dinv[:, None] * dinv[None, :]
    lap = np.eye(g.n) - norm_adj
    return VariationOperator(lap, OperatorKind.SYMMETRIC_NORMALIZED)


def kron_reduce(op: VariationOperator, v1: Sequence[int]) -> VariationOperator:
    """Schur-complement elimination of the complement of ``v1``.

    Returns L_{v1,v1} - L_{v1,v2} L_{v2,v2}^{-1} L_{v2,v1}, the reduced
    variation operator on the retained vertex set.

    Raises
    ------
    SingularInteriorBlock
        If the eliminated block is numerically singular (condition
        estimate above 1e12).
    """
    if op.kind is not OperatorKind.SYMMETRIC_NORMALIZED:
        raise InvalidParameter("Kron reduction is defined for the normalized Laplacian")
    keep = np.asarray(sorted(v1), dtype=int)
    if len(np.unique(keep)) != len(keep) or (len(keep) and (keep[0] < 0 or keep[-1] >= op.n)):
        raise InvalidParameter("v1 must be a set of valid vertex indices")
    drop = np.setdiff1d(np.arange(op.n), keep)
    m = op.matrix
    if drop.size == 0:
        return VariationOperator(m.copy(), op.kind)
    interior = m[np.ix_(drop, drop)]
    # The 2-norm condition number; the block is symmetric, so its
    # singular values are the magnitudes of its eigenvalues.
    mags = np.abs(np.linalg.eigvalsh(interior))
    if mags.min() == 0 or mags.max() / mags.min() > 1e12:
        raise SingularInteriorBlock("eliminated block is numerically singular")
    coupling = m[np.ix_(keep, drop)]
    reduced = m[np.ix_(keep, keep)] - coupling @ np.linalg.solve(interior, coupling.T)
    reduced = 0.5 * (reduced + reduced.T)
    return VariationOperator(reduced, op.kind)


def _is_connected(weights: np.ndarray) -> bool:
    ncomp, _ = connected_components(csr_matrix(weights > 0), directed=False)
    return ncomp == 1


def _bipartite(block: np.ndarray):
    """Weights and bipartition of the bipartite graph with cross-part
    weights ``block``, first part first."""
    h = block.shape[0]
    w = np.zeros((2 * h, 2 * h))
    w[:h, h:] = block
    w[h:, :h] = block.T
    return w, (np.arange(h), np.arange(h, 2 * h))


def gen_circular(n: int) -> Graph:
    """Unit-weight cycle on n vertices."""
    if n < 2:
        raise InvalidParameter("need n >= 2")
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0
    w[(idx + 1) % n, idx] = 1.0
    return Graph(n, w)


def gen_random_sensor(n: int, seed: int, k: int = 6) -> Graph:
    """Random geometric graph: k-nearest-neighbor Gaussian-kernel weights.

    Vertices are points drawn uniformly in the unit square; each point is
    joined to its k nearest neighbors with weight exp(-d^2 / (2 theta^2)),
    theta being the mean k-NN distance, and the edge set symmetrized.
    Resamples until connected (at most 100 attempts).
    """
    if n < 2:
        raise InvalidParameter("need n >= 2")
    rng = np.random.default_rng(seed)
    kk = min(k, n - 1)
    for _ in range(_MAX_RESAMPLE):
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nbr = np.argsort(dist, axis=1)[:, :kk]
        knn_d = np.take_along_axis(dist, nbr, axis=1)
        theta = knn_d.mean()
        w = np.zeros((n, n))
        rows = np.repeat(np.arange(n), kk)
        cols = nbr.ravel()
        vals = np.exp(-(dist[rows, cols] ** 2) / (2.0 * theta**2))
        w[rows, cols] = vals
        w = np.maximum(w, w.T)
        if _is_connected(w):
            return Graph(n, w)
    raise ConnectivityFailure(f"no connected sensor graph after {_MAX_RESAMPLE} attempts")


def gen_random_bipartite(n_half: int, seed: int, p: float = 0.5) -> Graph:
    """Random bipartite graph with parts of size n_half.

    Each cross edge is present independently with probability p, with unit
    weight. The first n_half vertices form the first part. Resamples until
    connected (at most 100 attempts).
    """
    if n_half < 1:
        raise InvalidParameter("need n_half >= 1")
    if not 0.0 < p <= 1.0:
        raise InvalidParameter("need 0 < p <= 1")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        w, parts = _bipartite((rng.random((n_half, n_half)) < p).astype(float))
        if _is_connected(w):
            return Graph(2 * n_half, w, bipartition=parts)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def gen_matched_bipartite(n_half: int, seed: int) -> Graph:
    """Matching-dominant random bipartite graph.

    Every vertex of the first part is tied to a random partner in the
    second part with weight 6 plus 2 unit-weight random cross edges. The
    dominant matching keeps the normalized-Laplacian spectrum away from 1,
    which polynomial filter approximations need: both standard sampling
    filters jump exactly there.
    """
    if n_half <= _MATCH_EXTRA:
        raise InvalidParameter(f"need n_half > {_MATCH_EXTRA}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        block = np.zeros((n_half, n_half))
        partner = rng.permutation(n_half)
        block[np.arange(n_half), partner] = _MATCH_WEIGHT
        for i in range(n_half):
            choices = np.setdiff1d(np.arange(n_half), [partner[i]])
            for j in rng.choice(choices, size=_MATCH_EXTRA, replace=False):
                block[i, j] = max(block[i, j], 1.0)
        w, parts = _bipartite(block)
        if _is_connected(w):
            return Graph(2 * n_half, w, bipartition=parts)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def complete_bipartite(n_half: int) -> Graph:
    """K_{n_half,n_half} with unit weights, first part first."""
    w, parts = _bipartite(np.ones((n_half, n_half)))
    return Graph(2 * n_half, w, bipartition=parts)


def save_graph(g: Graph, path: str) -> None:
    """Write an edge-list text file: header ``N <count> [bipartite <size_v1>]``
    then one ``m n weight`` line per edge (m < n).

    The format stores a bipartition only as the size of the leading block,
    so bipartite graphs must have their first part at indices 0..|V1|-1.
    """
    header = f"N {g.n}"
    if g.bipartition is not None:
        v1 = g.bipartition[0]
        if not np.array_equal(np.sort(v1), np.arange(len(v1))):
            raise InvalidParameter("serialization requires the first part at indices 0..|V1|-1")
        header += f" bipartite {len(v1)}"
    lines = [header]
    rows, cols = np.nonzero(np.triu(g.weights))
    for m, n_ in zip(rows, cols):
        lines.append(f"{m} {n_} {float(g.weights[m, n_])!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_graph(path: str) -> Graph:
    """Read a graph written by :func:`save_graph`. A malformed line, or one
    naming a vertex outside [0, N), raises IoFailure with its number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not lines or not lines[0][1].startswith("N "):
        raise IoFailure("missing graph header")
    no, head = lines[0][0], lines[0][1].split()
    try:
        n = int(head[1])
        bipartition = None
        if len(head) >= 4 and head[2] == "bipartite":
            size_v1 = int(head[3])
            bipartition = (np.arange(size_v1), np.arange(size_v1, n))
        w = np.zeros((n, n))
        for no, ln in lines[1:]:
            a, b, val = ln.split()
            i, j = int(a), int(b)
            if not (0 <= i < n and 0 <= j < n):
                raise IndexError(f"vertex index outside [0, {n})")
            w[i, j] = w[j, i] = float(val)
    except (ValueError, IndexError) as exc:
        raise IoFailure(f"{path}, line {no}: {exc}") from exc
    return Graph(n, w, bipartition=bipartition)
