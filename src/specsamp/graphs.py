"""Graph representation, generators and Laplacian operators.

Graphs are undirected, weighted, without self-loops, and stored dense: the
target sizes (a few thousand vertices at most) make the eigendecomposition
the dominant cost, not storage. A bipartite graph is stored first part
first, so its bipartition is one integer, the first part's size. The
Chebyshev recurrence multiplies by a variation operator's
``product_matrix``: a CSR copy of its matrix, built once on first use, when
the matrix is sparse enough for that to pay, else the dense matrix itself.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ConnectivityFailure,
    InvalidParameter,
    IoFailure,
    IsolatedVertex,
)

_SYMMETRY_RTOL = 1e-12
# Share of nonzero entries at or below which an operator's products are taken
# in CSR. On a 2-vCPU x86-64 VM with one BLAS thread, N = 2048 and 100
# right-hand sides, a CSR product costs 0.38x the dense one at 4% nonzeros,
# 0.69x at 6% and 1.01x at 12.5%.
_CSR_MAX_DENSITY = 0.1
_MAX_RESAMPLE = 100
# gen_random_sensor: nearest neighbors joined to each point.
_SENSOR_NEIGHBORS = 6
# gen_matched_bipartite: matching edge weight, unit-weight extra edges per vertex.
_MATCH_WEIGHT = 6.0
_MATCH_EXTRA = 2


def _symmetric(a, name: str) -> np.ndarray:
    """A read-only float copy of ``a``; InvalidParameter unless it is a finite
    square matrix, symmetric to _SYMMETRY_RTOL of its largest entry (at
    least 1). An inexactly symmetric one is replaced by its symmetric part."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameter(f"{name} must be a square matrix, got shape {m.shape}")
    # Reductions and in-place steps: at most one N x N temporary.
    lo, hi = m.min(initial=0.0), m.max(initial=0.0)  # NaN propagates
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidParameter(f"{name} must be finite")
    if not np.array_equal(m, m.T):
        sym = np.add(m, m.T)
        sym *= 0.5
        m -= sym  # |m - sym| is half of |m - m^T|
        if np.abs(m, out=m).max() > 0.5 * _SYMMETRY_RTOL * max(1.0, -lo, hi):
            raise InvalidParameter(f"{name} must be symmetric")
        m = sym
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph.

    Parameters
    ----------
    n : int
        Number of vertices.
    weights : ndarray(n, n)
        Symmetric nonnegative edge-weight matrix with zero diagonal.
    bipartition : optional int
        Size h of the first part of a bipartite graph, which is stored
        first part first: vertices 0..h-1 form the first part and h..n-1
        the second. When present, no edge may join two vertices of the
        same part.
    """

    n: int
    weights: np.ndarray
    bipartition: Optional[int] = None

    def __post_init__(self):
        w = _symmetric(self.weights, "weights")
        if w.shape != (self.n, self.n):
            raise InvalidParameter(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if np.any(np.diag(w) != 0):
            raise InvalidParameter("self-loops are not allowed")
        if np.any(w < 0):
            raise InvalidParameter("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        h = self.bipartition
        if h is not None:
            try:
                h = operator.index(h)
            except TypeError:
                raise InvalidParameter(
                    f"first part size must be an integer, got {type(h).__name__}") from None
            object.__setattr__(self, "bipartition", h)
            if not 0 <= h <= self.n:
                raise InvalidParameter(f"first part size {h} outside [0, {self.n}]")
            if np.any(w[:h, :h] != 0) or np.any(w[h:, h:] != 0):
                raise InvalidParameter("bipartition admits no intra-part edges")

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)


@dataclass(frozen=True)
class VariationOperator:
    """Real symmetric positive semidefinite matrix used to define a GFT,
    checked and kept as Graph keeps its weights."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _symmetric(self.matrix, "matrix"))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def product_matrix(self):
        """The matrix to multiply by, chosen on first use and kept.

        A CSR copy of ``matrix`` when at most ``_CSR_MAX_DENSITY`` of its
        entries are nonzero, else ``matrix`` itself: a dense BLAS product
        beats a CSR one on a denser matrix.
        """
        if np.count_nonzero(self.matrix) <= _CSR_MAX_DENSITY * self.matrix.size:
            return csr_matrix(self.matrix)
        return self.matrix


def combinatorial_laplacian(g: Graph) -> VariationOperator:
    """Return L = D - A with D the diagonal degree matrix."""
    lap = np.diag(g.degrees) - g.weights
    return VariationOperator(lap)


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
    return VariationOperator(lap)


def _is_connected(weights: np.ndarray) -> bool:
    ncomp, _ = connected_components(csr_matrix(weights > 0), directed=False)
    return ncomp == 1


def _bipartite(block: np.ndarray) -> np.ndarray:
    """Weights of the bipartite graph with cross-part weights ``block``,
    first part first."""
    h = block.shape[0]
    w = np.zeros((2 * h, 2 * h))
    w[:h, h:] = block
    w[h:, :h] = block.T
    return w


def gen_circular(n: int) -> Graph:
    """Unit-weight cycle on n vertices."""
    if n < 2:
        raise InvalidParameter("need n >= 2")
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0
    w[(idx + 1) % n, idx] = 1.0
    return Graph(n, w)


def gen_random_sensor(n: int, seed: int) -> Graph:
    """Random geometric graph: 6-nearest-neighbor Gaussian-kernel weights.

    Vertices are points drawn uniformly in the unit square; each point is
    joined to its 6 nearest neighbors with weight exp(-d^2 / (2 theta^2)),
    theta being the mean 6-NN distance, and the edge set symmetrized.
    Resamples until connected (at most 100 attempts).
    """
    if n < 2:
        raise InvalidParameter("need n >= 2")
    rng = np.random.default_rng(seed)
    kk = min(_SENSOR_NEIGHBORS, n - 1)
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
        w = _bipartite((rng.random((n_half, n_half)) < p).astype(float))
        if _is_connected(w):
            return Graph(2 * n_half, w, bipartition=n_half)
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
            # The extra edges avoid the partner: draw from the other
            # n_half - 1 columns, skipping over partner[i].
            idx = rng.choice(n_half - 1, size=_MATCH_EXTRA, replace=False)
            block[i, idx + (idx >= partner[i])] = 1.0
        w = _bipartite(block)
        if _is_connected(w):
            return Graph(2 * n_half, w, bipartition=n_half)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def complete_bipartite(n_half: int) -> Graph:
    """K_{n_half,n_half} with unit weights, first part first."""
    if n_half < 1:
        raise InvalidParameter("need n_half >= 1")
    return Graph(2 * n_half, _bipartite(np.ones((n_half, n_half))), bipartition=n_half)


def save_graph(g: Graph, path: str) -> None:
    """Write an edge-list text file: header ``N <count> [bipartite <size_v1>]``
    then one ``m n weight`` line per edge (m < n)."""
    header = f"N {g.n}"
    if g.bipartition is not None:
        header += f" bipartite {g.bipartition}"
    lines = [header]
    rows, cols = np.nonzero(np.triu(g.weights))
    for m, n_ in zip(rows, cols):
        lines.append(f"{m} {n_} {float(g.weights[m, n_])!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
