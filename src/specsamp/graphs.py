"""Graph representation, generators and Laplacian operators.

Graphs are undirected, weighted and without self-loops. Weights and
variation operators must be exactly symmetric, as every builder here makes
them. A bipartite graph is stored first part first, so its bipartition is
one integer, the first part's size.

The public ``Graph`` and ``VariationOperator`` constructors copy and check
the dense matrices they are given. What the library builds itself is exact
by construction and is frozen in place, with no copy and no re-check: the
generators' weights (the sensor graph's aside) and both Laplacians. The
matched bipartite generator builds its weights as a canonical
``scipy.sparse.csr_array`` (sorted indices, no duplicates) straight from
its edges, so ``Graph.weights`` is an ndarray or a csr_array; every other
generator's weights are dense. The normalized Laplacian is the one matrix
built in CSR: a csr_array, straight from the weights' nonzeros, when at
most ``_CSR_MAX_DENSITY`` of its entries are nonzero, so no N x N array is
formed for it; else dense. The combinatorial Laplacian, and any operator
given to the public constructor, is dense. An operator is kept and
multiplied in the form it was built in: ``VariationOperator.matrix``, like
``Graph.weights``, is an ndarray or a csr_array (densify with ``.toarray()``).

``import specsamp`` loads only numpy. ``scipy.sparse`` is imported inside
the functions that build CSR, so it loads at the first CSR build: the
matched generator or the sparse normalized Laplacian. The generators'
connectivity test is numpy alone, on dense and CSR weights.
"""

import numbers
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    ConnectivityFailure,
    DimensionMismatch,
    InvalidParameter,
    IoFailure,
    IsolatedVertex,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# Share of nonzero entries at or below which the normalized Laplacian is
# built, and so multiplied, in CSR. On a 2-vCPU x86-64 VM with one BLAS
# thread, N = 2048 and 100 right-hand sides, a CSR product costs 0.38x the
# dense one at 4% nonzeros, 0.69x at 6% and 1.01x at 12.5%.
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
    if given; InvalidParameter unless it is one, every entry is finite and a
    complex ``a`` meets no real ``dtype``, a cast that would drop its imaginary part.
    A sparse ``a``, or one of strings, bytes or records, is refused before any cast."""
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(a):
        raise InvalidParameter(f"{name} must be a dense array, got {type(a).__name__}; "
                               "densify it with .toarray()")
    try:
        m = np.asarray(a)
        if m.dtype.kind in "USV":
            raise InvalidParameter(f"{name} must be a numeric array, got dtype {m.dtype}")
        if np.iscomplexobj(m) and dtype is not None and np.dtype(dtype).kind != "c":
            raise InvalidParameter(f"{name} must be real, got dtype {m.dtype}")
        m = np.array(m, dtype=dtype)
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
    exactly symmetric, nonempty square matrix."""
    m = _frozen(a, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise InvalidParameter(f"{name} must be a nonempty square matrix, got shape {m.shape}")
    if not np.array_equal(m, m.T):
        raise InvalidParameter(f"{name} must be symmetric")
    return m


def _signal(x, n: int, name: str = "signal") -> np.ndarray:
    """``x`` as an array; DimensionMismatch unless it is (n,) or (n, T)."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise DimensionMismatch(f"{name} must have shape ({n},) or ({n}, T), got {x.shape}")
    return x


def _frozen_in_place(m):
    """``m``, a dense array or a csr_array, made read-only with no copy."""
    for a in (m,) if isinstance(m, np.ndarray) else (m.data, m.indices, m.indptr):
        a.flags.writeable = False
    return m


class _Built:
    """A matrix built here exactly symmetric, an ndarray or a canonical
    csr_array: a generator's weights, nonnegative with zero diagonal and no
    intra-part edges, or a Laplacian. ``Graph`` and ``VariationOperator``
    freeze it in place, with no copy and no check."""

    def __init__(self, matrix):
        self.matrix = matrix


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph on ``n = weights.shape[0]`` vertices.

    Parameters
    ----------
    weights : ndarray(n, n), or a csr_array for a library-built graph
        Exactly symmetric nonnegative edge-weight matrix with zero diagonal.
    bipartition : optional int
        Size h of the first part of a bipartite graph, which is stored
        first part first: vertices 0..h-1 form the first part and h..n-1
        the second. When present, no edge may join two vertices of the
        same part.

    The weights are checked and kept as a read-only copy. A generator
    here passes its own weights, an ndarray or a csr_array, wrapped in
    ``_Built`` instead; they are frozen in place, with no copy and no check.
    """

    weights: "np.ndarray | csr_array"
    bipartition: Optional[int] = None

    def __post_init__(self):
        if isinstance(self.weights, _Built):
            object.__setattr__(self, "weights", _frozen_in_place(self.weights.matrix))
            return
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


def _dense(m) -> np.ndarray:
    """``m`` as a dense array: itself when it is one, else its CSR densified."""
    return m if isinstance(m, np.ndarray) else m.toarray()


def _entries(m):
    """Row, column and value of each nonzero of ``m``, an ndarray or a
    canonical csr_array, in row-major order, the order ``np.nonzero`` gives."""
    if isinstance(m, np.ndarray):
        # np.nonzero finds a boolean mask's nonzeros faster than a float
        # array's: 2.6 ms against 4.3 ms on a 1024-vertex sensor graph.
        rows, cols = np.nonzero(m != 0)
        return rows, cols, m[rows, cols]
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data


@dataclass(frozen=True, eq=False)
class VariationOperator:
    """Real symmetric positive semidefinite matrix used to define a GFT.

    ``VariationOperator(matrix)`` checks and copies ``matrix`` as Graph
    checks its weights: a finite, exactly symmetric, nonempty square
    matrix, else InvalidParameter. The Laplacians here pass theirs wrapped
    in ``_Built``; it is frozen in place in the form it was built in, so
    ``matrix``, like ``Graph.weights``, is a read-only ndarray or csr_array.
    """

    matrix: "np.ndarray | csr_array"

    def __post_init__(self):
        m = self.matrix
        object.__setattr__(self, "matrix", _frozen_in_place(m.matrix) if isinstance(m, _Built)
                           else _symmetric(m, "matrix"))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def combinatorial_laplacian(g: Graph) -> VariationOperator:
    """Return L = D - A with D the diagonal degree matrix, built dense, also
    from CSR weights: its one use is an eigendecomposition."""
    # 0 - W then the degrees on the diagonal, in one N x N array: entry for
    # entry the value of np.diag(deg) - W.
    m = np.subtract(0.0, _dense(g.weights))
    np.fill_diagonal(m, g.degrees)
    return VariationOperator(_Built(m))


def normalized_laplacian(g: Graph) -> VariationOperator:
    """Return the symmetrically normalized Laplacian D^{-1/2} L D^{-1/2}.

    It is built as a csr_array, the identity plus one entry per nonzero
    weight (read straight from CSR weights), when at most
    ``_CSR_MAX_DENSITY`` of its entries are nonzero, else dense in one
    N x N array. Either way each entry is I - W * outer(dinv, dinv)
    computed as 0 - w_ij (dinv_i dinv_j), with 1 on the diagonal: one
    product per entry, so entries (i, j) and (j, i) are equal exactly, and
    the CSR matrix holds the dense one's nonzeros in the same order.

    Raises
    ------
    IsolatedVertex
        If any vertex has degree zero.
    """
    w, n = g.weights, g.n
    deg = g.degrees
    if np.any(deg <= 0):
        raise IsolatedVertex("normalized Laplacian requires all degrees > 0")
    dinv = 1.0 / np.sqrt(deg)
    nnz = np.count_nonzero(w) if isinstance(w, np.ndarray) else w.nnz
    if nnz + n > _CSR_MAX_DENSITY * n * n:
        m = np.outer(dinv, dinv)
        np.multiply(_dense(w), m, out=m)
        np.subtract(0.0, m, out=m)
        np.fill_diagonal(m, 1.0)
        return VariationOperator(_Built(m))
    from scipy.sparse import csr_array, eye_array
    rows, cols, values = _entries(w)
    off = csr_array((np.subtract(0.0, values * (dinv[rows] * dinv[cols])), (rows, cols)),
                    shape=(n, n))
    return VariationOperator(_Built(eye_array(n, format="csr") + off))


def _is_connected(weights) -> bool:
    """Whether the graph whose edges are the nonzeros of ``weights``, an
    ndarray or a canonical csr_array, is connected.

    Each vertex's label starts as its own index. A pass lowers each
    vertex's label, and its label's label, to the least label among its
    neighbours, then sets each label to its label's label. A label is
    always a vertex of the same component and never rises, so the passes
    stop, with one label per component: its least vertex. Vertex 0 keeps
    label 0, so the graph is connected iff every label is 0. Lowering the
    label's label too merges whole runs at once: a 1000-vertex path in
    random order takes 9 passes, against 404 without it.
    """
    rows, cols, _ = _entries(weights)
    label = np.arange(weights.shape[0])
    # _entries gives the edges row by row: each row's run starts where the
    # row index changes.
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    owners = rows[starts]
    while True:
        least = np.minimum.reduceat(label[cols], starts)
        lowered = label.copy()
        np.minimum.at(lowered, label[owners], least)
        lowered[owners] = np.minimum(lowered[owners], least)
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return not label.any()
        label = lowered


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
    return Graph(_Built(w))


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
            return Graph(_Built(w), bipartition=n_half)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def gen_matched_bipartite(n_half: int, seed: int) -> Graph:
    """Matching-dominant random bipartite graph.

    Every vertex of the first part is tied to a random partner in the
    second part with weight 6 plus 2 unit-weight random cross edges. The
    dominant matching keeps the normalized-Laplacian spectrum away from 1,
    which polynomial filter approximations need: both standard sampling
    filters jump exactly there. The weights are a csr_array, built from
    the 3 n_half cross edges. n_half >= 3, seed >= 0.
    """
    from scipy.sparse import block_array, csr_array
    n_half = _integer(n_half, "vertices per part", _MATCH_EXTRA + 1)
    seed = _integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    per_row = 1 + _MATCH_EXTRA
    values = np.ones((n_half, per_row))
    values[:, 0] = _MATCH_WEIGHT
    for _ in range(_MAX_RESAMPLE):
        partner = rng.permutation(n_half)
        # The extra edges avoid the partner: draw from the other n_half - 1
        # columns, skipping over partner[i].
        extra = np.array([rng.choice(n_half - 1, size=_MATCH_EXTRA, replace=False)
                          for _ in range(n_half)])
        cols = np.column_stack([partner, extra + (extra >= partner[:, None])])
        order = np.argsort(cols, axis=1)
        block = csr_array((np.take_along_axis(values, order, axis=1).ravel(),
                            np.take_along_axis(cols, order, axis=1).ravel(),
                            np.arange(0, per_row * n_half + 1, per_row)),
                           shape=(n_half, n_half))
        w = block_array([[None, block], [block.T, None]], format="csr")
        if _is_connected(w):
            return Graph(_Built(w), bipartition=n_half)
    raise ConnectivityFailure(f"no connected bipartite graph after {_MAX_RESAMPLE} attempts")


def complete_bipartite(n_half: int) -> Graph:
    """K_{n_half,n_half} with unit weights, first part first; n_half >= 1."""
    n_half = _integer(n_half, "vertices per part", 1)
    return Graph(_Built(_bipartite(np.ones((n_half, n_half)))), bipartition=n_half)


def save_graph(g: Graph, path: str) -> None:
    """Write an edge-list text file: header ``N <count> [bipartite <size_v1>]``
    then one ``m n weight`` line per edge (m < n)."""
    header = f"N {g.n}"
    if g.bipartition is not None:
        header += f" bipartite {g.bipartition}"
    lines = [header]
    rows, cols, values = _entries(g.weights)
    upper = cols > rows
    for m, n_, v in zip(rows[upper], cols[upper], values[upper]):
        lines.append(f"{m} {n_} {float(v)!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
