import contextlib
import hashlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from specsamp import (
    Graph,
    InvalidParameter,
    IsolatedVertex,
    VariationOperator,
    combinatorial_laplacian,
    complete_bipartite,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
    normalized_laplacian,
    save_graph,
)
from specsamp.cli import main
from specsamp.graphs import _dense, _is_connected


def _weights(g):
    """The weights as a dense array: the matched generator holds a csr_array."""
    return g.weights if isinstance(g.weights, np.ndarray) else g.weights.toarray()


def two_vertex():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_combinatorial_single_edge():
    op = combinatorial_laplacian(two_vertex())
    assert_allclose(op.matrix, [[1, -1], [-1, 1]])


def test_combinatorial_edgeless_is_zero():
    op = combinatorial_laplacian(Graph(np.zeros((5, 5))))
    assert_allclose(op.matrix, np.zeros((5, 5)))


def test_combinatorial_circular_is_circulant():
    op = combinatorial_laplacian(gen_circular(4))
    expected = np.array([
        [2, -1, 0, -1],
        [-1, 2, -1, 0],
        [0, -1, 2, -1],
        [-1, 0, -1, 2],
    ], dtype=float)
    assert_allclose(op.matrix, expected)


def test_normalized_unit_degrees_match_combinatorial():
    op = normalized_laplacian(two_vertex())
    assert_allclose(_dense(op.matrix), [[1, -1], [-1, 1]])


def test_normalized_complete_bipartite_spectrum():
    op = normalized_laplacian(complete_bipartite(2))
    eigs = np.linalg.eigvalsh(_dense(op.matrix))
    assert_allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_normalized_null_vector_is_sqrt_degrees():
    g = gen_random_sensor(12, seed=3)
    op = normalized_laplacian(g)
    lam, u = np.linalg.eigh(_dense(op.matrix))
    assert abs(lam[0]) < 1e-10
    expected = np.sqrt(g.degrees)
    expected /= np.linalg.norm(expected)
    direction = u[:, 0] * np.sign(u[0, 0]) * np.sign(expected[0])
    assert_allclose(direction, expected, atol=1e-10)


def test_normalized_rejects_isolated_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(IsolatedVertex):
        normalized_laplacian(Graph(w))


def test_normalized_eigenvalues_within_two():
    g = gen_random_sensor(20, seed=5)
    eigs = np.linalg.eigvalsh(_dense(normalized_laplacian(g).matrix))
    assert eigs[0] > -1e-10
    assert eigs[-1] < 2 + 1e-10


def test_circular_has_cycle_edges():
    g = gen_circular(4)
    assert np.count_nonzero(np.triu(g.weights)) == 4
    assert_allclose(g.degrees, 2.0)


def test_sensor_graph_deterministic():
    a = gen_random_sensor(64, seed=11)
    b = gen_random_sensor(64, seed=11)
    assert np.array_equal(a.weights, b.weights)
    c = gen_random_sensor(64, seed=12)
    assert not np.array_equal(a.weights, c.weights)


@pytest.mark.parametrize("gen", [gen_random_bipartite, gen_matched_bipartite])
def test_bipartite_generators_deterministic(gen):
    assert np.array_equal(_weights(gen(12, seed=13)), _weights(gen(12, seed=13)))


@pytest.mark.parametrize("p", ["x", None, 0.0, 1.5, float("nan")])
def test_random_bipartite_rejects_a_bad_p(p):
    with pytest.raises(InvalidParameter, match=r"\bp\b"):
        gen_random_bipartite(4, 0, p)


def test_matched_bipartite_needs_three_vertices_per_part():
    with pytest.raises(InvalidParameter):
        gen_matched_bipartite(2, seed=0)
    assert gen_matched_bipartite(3, seed=0).n == 6


# sha256 of the weights: a seed must keep giving the same graph, so the
# extra-edge draw must keep consuming the random stream in the same way.
@pytest.mark.parametrize("n_half,seed,digest", [
    (3, 5, "0919b994060f2850553f78c1778241b83b1ccf47df257c2faaaeaaaf487cbe1e"),
    (16, 0, "368619acee9281212f0a2e9c449b16153850c6175c0fafde3cf6ad8dc72f1e50"),
    (100, 7, "8d341f5f568d7a0a0c074f2c7ebe88848fba46a0354dc3eea3cf8273ba6e2725"),
])
def test_matched_bipartite_weights_pinned(n_half, seed, digest):
    w = _weights(gen_matched_bipartite(n_half, seed))
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("factory", [
    lambda: gen_circular(9),
    lambda: gen_random_sensor(32, seed=0),
    lambda: gen_random_bipartite(8, seed=0),
    lambda: gen_matched_bipartite(8, seed=0),
])
def test_generated_graphs_satisfy_invariants(factory):
    g = factory()
    w = _weights(g)
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0)
    assert np.all(w >= 0)
    if g.bipartition is not None:
        h = g.bipartition
        assert np.all(w[:h, :h] == 0)
        assert np.all(w[h:, h:] == 0)


def test_bipartite_generator_records_partition():
    g = gen_random_bipartite(4, seed=2)
    assert g.bipartition == 4
    assert complete_bipartite(3).bipartition == 3


def test_graph_rejects_bad_bipartition():
    k22 = complete_bipartite(2).weights
    assert Graph(k22, bipartition=2).bipartition == 2
    for i, j in [(0, 1), (2, 3)]:   # an edge inside the first part, then the second
        w = k22.copy()
        w[i, j] = w[j, i] = 1.0
        with pytest.raises(InvalidParameter, match="intra-part"):
            Graph(w, bipartition=2)
    assert Graph(k22, bipartition=np.int64(2)).bipartition == 2
    for h in (-1, 5, 2.0, (np.arange(2), np.arange(2, 4))):
        with pytest.raises(InvalidParameter, match="first part size"):
            Graph(k22, bipartition=h)


def test_graph_rejects_asymmetry_and_self_loops():
    with pytest.raises(InvalidParameter, match="symmetric"):
        Graph(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidParameter, match="self-loops"):
        Graph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidParameter, match="nonnegative"):
        Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_graph_rejects_rounding_asymmetry():
    w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert np.array_equal(Graph(w).weights, w)
    w[0, 1] += 1e-15
    assert w[0, 1] != w[1, 0]
    with pytest.raises(InvalidParameter, match="symmetric"):
        Graph(w)


def _random_graph(n, density, seed):
    """Symmetric nonnegative weights with zero diagonal; vertices may be isolated."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return Graph(w + w.T)


_GRAPHS = st.one_of(
    st.builds(gen_random_sensor, st.integers(2, 40), st.integers(0, 2**32 - 1)),
    st.builds(gen_circular, st.integers(2, 40)),
    st.builds(gen_random_bipartite, st.integers(1, 20), st.integers(0, 2**32 - 1),
              st.floats(0.5, 1.0)),
    st.builds(gen_matched_bipartite, st.integers(3, 20), st.integers(0, 2**32 - 1)),
    st.builds(complete_bipartite, st.integers(1, 20)),
    st.builds(_random_graph, st.integers(1, 40), st.floats(0.0, 1.0),
              st.integers(0, 2**32 - 1)),
)


# What the library builds is frozen in place without a check, so every graph
# and Laplacian it builds must pass the public checks: the graph's weights
# and both operators as given to the public constructors. The operators are
# the textbook D - W and I - W * outer(dinv, dinv) bit for bit, whether the
# weights are dense or CSR and the normalized one was built dense or CSR: it
# is at most 10% nonzero, so CSR, on a cycle of 30 or more vertices and a
# matched graph of 20 or more per part. The matched generator builds CSR
# weights, canonical so that their entries come in np.nonzero's order.
@settings(max_examples=100, deadline=None)
@given(g=_GRAPHS)
@example(g=gen_circular(30))
@example(g=gen_matched_bipartite(20, 1))
def test_laplacians_are_exactly_symmetric_by_construction(g):
    w = _weights(g)
    deg = w.sum(axis=1)
    if isinstance(g.weights, csr_array):
        assert g.weights.has_canonical_format
        stored = (g.weights.data, g.weights.indices, g.weights.indptr)
    else:
        stored = (g.weights,)
    assert not any(a.flags.writeable for a in stored)
    assert g.degrees.tobytes() == deg.tobytes()
    Graph(w.copy(), g.bipartition)
    ops = [(combinatorial_laplacian(g), np.diag(deg) - w)]
    if np.any(deg == 0):
        with pytest.raises(IsolatedVertex):
            normalized_laplacian(g)
    else:
        dinv = 1.0 / np.sqrt(deg)
        ops.append((normalized_laplacian(g), np.eye(g.n) - w * np.outer(dinv, dinv)))
    for op, textbook in ops:
        m = op.matrix
        assert op.n == g.n
        assert _dense(m).tobytes() == textbook.tobytes()
        stored = (m,) if isinstance(m, np.ndarray) else (m.data, m.indices, m.indptr)
        assert not any(a.flags.writeable for a in stored)
        VariationOperator(_dense(m))


def _assert_connectivity_is_csgraphs(w):
    """_is_connected on dense ``w`` and on its canonical csr_array agrees with
    scipy's connected components."""
    sparse = csr_array(w)
    assert sparse.has_canonical_format
    expected = connected_components(sparse, directed=False)[0] == 1
    assert _is_connected(w) == _is_connected(sparse) == expected


# The edge probabilities give edgeless, isolated-vertex, disconnected and
# connected draws.
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), density=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, density=0.0, seed=0)
@example(n=2, density=0.0, seed=0)
def test_connectivity_is_scipys(n, density, seed):
    _assert_connectivity_is_csgraphs(np.asarray(_random_graph(n, density, seed).weights))


# A 1000-vertex path, numbered in order or shuffled, has diameter 999: the
# passes must carry label 0 its whole length. Cut in the middle, it falls in
# two.
@pytest.mark.parametrize("shuffled", [False, True])
def test_connectivity_on_a_1000_vertex_path(shuffled):
    n = 1000
    order = np.random.default_rng(3).permutation(n) if shuffled else np.arange(n)
    w = np.zeros((n, n))
    w[order[:-1], order[1:]] = w[order[1:], order[:-1]] = 1.0
    _assert_connectivity_is_csgraphs(w)
    assert _is_connected(w)
    w[order[499], order[500]] = w[order[500], order[499]] = 0.0
    _assert_connectivity_is_csgraphs(w)
    assert not _is_connected(w)


# A matched graph of 512 vertices per part is 0.39% nonzero: its normalized
# Laplacian is built, and kept, as CSR.
def test_sparse_normalized_laplacian_forms_no_dense_matrix():
    g = gen_matched_bipartite(512, 7)
    n = g.n
    tracemalloc.start()
    try:
        op = normalized_laplacian(g)
        m = op.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    assert isinstance(m, csr_array)
    assert not m.data.flags.writeable
    with pytest.raises(AttributeError):
        op.matrix = m.toarray()


# The matched generator builds CSR straight from its 3 N/2 edges: with its
# normalized Laplacian and product matrix it forms neither an N x N array
# (32 MiB here) nor an N/2 x N/2 block (8 MiB).
def test_matched_path_forms_no_dense_matrix():
    tracemalloc.start()
    try:
        g = gen_matched_bipartite(1024, 3)
        m = normalized_laplacian(g).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert isinstance(g.weights, csr_array) and isinstance(m, csr_array)


# sha256 of the edge list written from the matched graph's CSR weights: the
# bytes written from the dense weights it was built with before.
def test_csr_graph_saves_the_dense_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-graph", "--kind", "matched", "--n", "64", "--seed", "3",
                     "--out", str(path)]) == 0
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "ee2e30338804fa8cae257272ffffb8660d975c733351ce549f8cdc7cc90f138b")


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_graph_rejects_nonfinite_weights(value):
    with pytest.raises(InvalidParameter, match="finite"):
        Graph(np.array([[0.0, value], [value, 0.0]]))


@pytest.mark.parametrize("m", [
    np.ones(3),
    np.ones((2, 3)),
    np.ones((2, 2, 2)),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
    np.array([[1.0, np.inf], [np.inf, 1.0]]),
    np.array([[2.0, 0.1], [0.3, 1.0]]),
], ids=["1-d", "non-square", "3-d", "nan", "inf", "asymmetric"])
def test_variation_operator_rejects_what_graph_rejects(m):
    with pytest.raises(InvalidParameter):
        VariationOperator(m)


def test_complete_bipartite_rejects_empty_parts():
    for n_half in (0, -1):
        with pytest.raises(InvalidParameter):
            complete_bipartite(n_half)
    assert complete_bipartite(1).n == 2


def _read_edge_list(path):
    """The graph in an edge-list file written by save_graph."""
    head, *edges = path.read_text().splitlines()
    fields = head.split()
    w = np.zeros((int(fields[1]),) * 2)
    for line in edges:
        i, j, value = line.split()
        w[int(i), int(j)] = w[int(j), int(i)] = float(value)
    return Graph(w, bipartition=int(fields[3]) if len(fields) == 4 else None)


def test_edge_list_roundtrip(tmp_path):
    g = gen_random_sensor(16, seed=7)
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    back = _read_edge_list(path)
    assert back.n == g.n
    assert_allclose(back.weights, g.weights)


def test_edge_list_roundtrip_bipartite(tmp_path):
    g = gen_random_bipartite(5, seed=1)
    path = tmp_path / "b.txt"
    save_graph(g, str(path))
    back = _read_edge_list(path)
    assert back.bipartition == 5
    assert_allclose(back.weights, g.weights)
    head = path.read_text().splitlines()[0]
    assert head == "N 10 bipartite 5"

