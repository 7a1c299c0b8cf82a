import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

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


def two_vertex():
    return Graph(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_combinatorial_single_edge():
    op = combinatorial_laplacian(two_vertex())
    assert_allclose(op.matrix, [[1, -1], [-1, 1]])


def test_combinatorial_edgeless_is_zero():
    op = combinatorial_laplacian(Graph(5, np.zeros((5, 5))))
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
    assert_allclose(op.matrix, [[1, -1], [-1, 1]])


def test_normalized_complete_bipartite_spectrum():
    op = normalized_laplacian(complete_bipartite(2))
    eigs = np.linalg.eigvalsh(op.matrix)
    assert_allclose(eigs, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_normalized_null_vector_is_sqrt_degrees():
    g = gen_random_sensor(12, seed=3)
    op = normalized_laplacian(g)
    lam, u = np.linalg.eigh(op.matrix)
    assert abs(lam[0]) < 1e-10
    expected = np.sqrt(g.degrees)
    expected /= np.linalg.norm(expected)
    direction = u[:, 0] * np.sign(u[0, 0]) * np.sign(expected[0])
    assert_allclose(direction, expected, atol=1e-10)


def test_normalized_rejects_isolated_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(IsolatedVertex):
        normalized_laplacian(Graph(3, w))


def test_normalized_eigenvalues_within_two():
    g = gen_random_sensor(20, seed=5)
    eigs = np.linalg.eigvalsh(normalized_laplacian(g).matrix)
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
    assert np.array_equal(gen(12, seed=13).weights, gen(12, seed=13).weights)


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
    w = gen_matched_bipartite(n_half, seed).weights
    assert hashlib.sha256(w.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("factory", [
    lambda: gen_circular(9),
    lambda: gen_random_sensor(32, seed=0),
    lambda: gen_random_bipartite(8, seed=0),
    lambda: gen_matched_bipartite(8, seed=0),
])
def test_generated_graphs_satisfy_invariants(factory):
    g = factory()
    assert_allclose(g.weights, g.weights.T)
    assert np.all(np.diag(g.weights) == 0)
    assert np.all(g.weights >= 0)
    if g.bipartition is not None:
        h = g.bipartition
        assert np.all(g.weights[:h, :h] == 0)
        assert np.all(g.weights[h:, h:] == 0)


def test_bipartite_generator_records_partition():
    g = gen_random_bipartite(4, seed=2)
    assert g.bipartition == 4
    assert complete_bipartite(3).bipartition == 3


def test_graph_rejects_bad_bipartition():
    k22 = complete_bipartite(2).weights
    assert Graph(4, k22, bipartition=2).bipartition == 2
    for i, j in [(0, 1), (2, 3)]:   # an edge inside the first part, then the second
        w = k22.copy()
        w[i, j] = w[j, i] = 1.0
        with pytest.raises(InvalidParameter):
            Graph(4, w, bipartition=2)
    assert Graph(4, k22, bipartition=np.int64(2)).bipartition == 2
    for h in (-1, 5, 2.0, (np.arange(2), np.arange(2, 4))):
        with pytest.raises(InvalidParameter):
            Graph(4, k22, bipartition=h)


def test_graph_rejects_asymmetry_and_self_loops():
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_graph_accepts_rounding_asymmetry_and_symmetrizes():
    w = np.array([[0.0, 1.0 + 1e-15, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert w[0, 1] != w[1, 0]
    g = Graph(3, w)
    assert np.array_equal(g.weights, g.weights.T)
    assert g.weights[0, 1] == 0.5 * (w[0, 1] + w[1, 0])


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_graph_rejects_nonfinite_weights(value):
    with pytest.raises(InvalidParameter, match="finite"):
        Graph(2, np.array([[0.0, value], [value, 0.0]]))


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
    return Graph(len(w), w, bipartition=int(fields[3]) if len(fields) == 4 else None)


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

