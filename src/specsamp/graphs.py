"""Graph representation, generators and Laplacian operators.

Graphs are undirected, weighted, without self-loops, and stored dense: the
target sizes (a few thousand vertices at most) make the eigendecomposition
the dominant cost, not storage. Weights and variation operators must be
exactly symmetric, as every builder here makes them. A bipartite graph is
stored first part first, so its bipartition is one integer, the first
part's size. The Chebyshev recurrence multiplies by a variation operator's
``product_matrix``: a CSR copy of its matrix, built once on first use, when
the matrix is sparse enough for that to pay, else the dense matrix itself.
"""

import numbers
import operator
import sys
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


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int; InvalidParameter unless an integer, at least ``least`` if given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParameter(
            f"{name} must be an integer, got {type(value).__name__}") from None
    if least is not None and value < least:
        raise InvalidParameter(f"need {name} >= {least}, got {value}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a float; InvalidParameter unless it is a finite real number."""
    # An int too large for a float fails too, and NaN fails every comparison.
    if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
        raise InvalidParameter(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _frozen(a, name: str, dtype=float, ndim: Optional[int] = None) -> np.ndarray:
    """A read-only numeric copy of ``a`` as ``dtype`` (None keeps its type), ``ndim``-D
    if given; InvalidParameter unless it is one and every entry is finite."""
    try:
        m = np.array(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise InvalidParameter(f"{name} must be a numeric array: {exc}") from None
    if m.dtype.kind not in "biufc":
        raise InvalidParameter(f"{name} must be a numeric array, got dtype {m.dtype}")
    if ndim is not None and m.ndim != ndim:
        raise InvalidParameter(f"{name} must be {ndim}-D, got shape {m.shape}")
    # min and max propagate NaN and inf and allocate nothing. A complex
    # array's are checked part by part: the lexicographic complex min and
    # max can pass over an infinite imaginary part.
    for part in (m.real, m.imag) if np.iscomplexobj(m) else (m,):
        if not (np.isfinite(part.min(initial=0.0)) and np.isfinite(part.max(initial=0.0))):
            raise InvalidParameter(f"{name} must be finite")
    m.flags.writeable = False
    return m


def _symmetric(a, name: str) -> np.ndarray:
    """A read-only float copy of ``a``; InvalidParameter unless it is a finite,
    exactly symmetric square matrix."""
    m = _frozen(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameter(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise InvalidParameter(f"{name} must be symmetric")
    return m


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on ``n = weights.shape[0]`` vertices.

    Parameters
    ----------
    weights : ndarray(n, n)
        Exactly symmetric nonnegative edge-weight matrix with zero diagonal.
    bipartition : optional int
        Size h of the first part of a bipartite graph, which is stored
        first part first: vertices 0..h-1 form the first part and h..n-1
        the second. When present, no edge may join two vertices of the
        same part.
    """

    weights: np.ndarray
    bipartition: Optional[int] = None

    def __post_init__(self):
        w = _symmetric(self.weights, "weights")
        if np.any(np.diag(w) != 0):
            raise InvalidParameter("self-loops are not allowed")
        if np.any(w < 0):
            raise InvalidParameter("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        h = self.bipartition
        if h is not None:
            h = _integer(h, "first part size", 0)
            object.__setattr__(self, "bipartition", h)
            if h > self.n:
                raise InvalidParameter(f"first part size {h} outside [0, {self.n}]")
            if np.any(w[:h, :h] != 0) or np.any(w[h:, h:] != 0):
                raise InvalidParameter("bipartition admits no intra-part edges")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.weights.sum(axis=1)


def _product_form(m: np.ndarray):
    """A CSR copy of ``m`` when at most ``_CSR_MAX_DENSITY`` of its entries are
    nonzero, else ``m`` itself: a dense BLAS product beats a CSR one on a
    denser matrix."""
    if np.count_nonzero(m) <= _CSR_MAX_DENSITY * m.size:
        return csr_matrix(m)
    return m


@dataclass(frozen=True, eq=False)
class VariationOperator:
    """Real symmetric positive semidefinite matrix used to define a GFT,
    checked and kept as Graph keeps its weights: finite and exactly
    symmetric, else InvalidParameter."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _symmetric(self.matrix, "matrix"))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def product_matrix(self):
        """The matrix to multiply by, chosen on first use and kept: the
        :func:`_product_form` of ``matrix``."""
        return _product_form(self.matrix)


def combinatorial_laplacian(g: Graph) -> VariationOperator:
    """Return L = D - A with D the diagonal degree matrix."""
    return VariationOperator(np.diag(g.degrees) - g.weights)


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
    # One product per entry, so entries (i, j) and (j, i) are equal exactly.
    return VariationOperator(np.eye(g.n) - g.weights * np.outer(dinv, dinv))


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
    """Unit-weight cycle on n >= 2 vertices."""
    n = _integer(n, "n", 2)
    w = np.zeros((n, n))
    idx = np.arange(n)
    w[idx, (idx + 1) % n] = 1.0
    w[(idx + 1) % n, idx] = 1.0
    return Graph(w)


def gen_random_sensor(n: int, seed: int) -> Graph:
    """Random geometric graph: 6-nearest-neighbor Gaussian-kernel weights.

    Vertices are points drawn uniformly in the unit square; each point is
    joined to its 6 nearest neighbors with weight exp(-d^2 / (2 theta^2)),
    theta being the mean 6-NN distance, and the edge set symmetrized.
    Resamples until connected (at most 100 attempts). n >= 2, seed >= 0.
    """
    n, seed = _integer(n, "n", 2), _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    kk = min(_SENSOR_NEIGHBORS, n - 1)
    for _ in range(_MAX_RESAMPLE):
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nbr = np.argsort(dist, axis=1)[:, :kk]
        knn_d = np.take_along_axis(dist, nbr, axis=1)
        w = np.zeros((n, n))
        np.put_along_axis(w, nbr, np.exp(-knn_d**2 / (2.0 * knn_d.mean() ** 2)), axis=1)
        w = np.maximum(w, w.T)
        if _is_connected(w):
            return Graph(w)
    raise ConnectivityFailure(f"no connected sensor graph after {_MAX_RESAMPLE} attempts")


def gen_random_bipartite(n_half: int, seed: int, p: float = 0.5) -> Graph:
    """Random bipartite graph with parts of size n_half.

    Each cross edge is present independently with probability p, with unit
    weight. The first n_half vertices form the first part. Resamples until
    connected (at most 100 attempts). n_half >= 1, seed >= 0, 0 < p <= 1.
    """
    n_half, seed = _integer(n_half, "vertices per part", 1), _integer(seed, "seed", 0)
    p = _real(p, "p")
    if not 0.0 < p <= 1.0:
        raise InvalidParameter("need 0 < p <= 1")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        w = _bipartite((rng.random((n_half, n_half)) < p).astype(float))
        if _is_connected(w):
            return Graph(w, bipartition=n_half)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def gen_matched_bipartite(n_half: int, seed: int) -> Graph:
    """Matching-dominant random bipartite graph.

    Every vertex of the first part is tied to a random partner in the
    second part with weight 6 plus 2 unit-weight random cross edges. The
    dominant matching keeps the normalized-Laplacian spectrum away from 1,
    which polynomial filter approximations need: both standard sampling
    filters jump exactly there. n_half >= 3, seed >= 0.
    """
    n_half = _integer(n_half, "vertices per part", _MATCH_EXTRA + 1)
    seed = _integer(seed, "seed", 0)
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
            return Graph(w, bipartition=n_half)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def complete_bipartite(n_half: int) -> Graph:
    """K_{n_half,n_half} with unit weights, first part first; n_half >= 1."""
    n_half = _integer(n_half, "vertices per part", 1)
    return Graph(_bipartite(np.ones((n_half, n_half))), bipartition=n_half)


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
