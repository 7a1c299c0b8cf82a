import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsamp import (
    Graph,
    InvalidParameter,
    IoFailure,
    IsolatedVertex,
    OperatorKind,
    SingularInteriorBlock,
    combinatorial_laplacian,
    complete_bipartite,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
    kron_reduce,
    load_graph,
    normalized_laplacian,
    save_graph,
)


def two_vertex():
    return Graph(2, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_combinatorial_single_edge():
    op = combinatorial_laplacian(two_vertex())
    assert_allclose(op.matrix, [[1, -1], [-1, 1]])
    assert op.kind is OperatorKind.COMBINATORIAL


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


def test_kron_keep_all_is_identity_operation():
    op = normalized_laplacian(complete_bipartite(3))
    red = kron_reduce(op, np.arange(6))
    assert_allclose(red.matrix, op.matrix)


def test_kron_complete_bipartite_part():
    op = normalized_laplacian(complete_bipartite(2))
    red = kron_reduce(op, [0, 1])
    m = op.matrix
    keep, drop = [0, 1], [2, 3]
    oracle = m[np.ix_(keep, keep)] - m[np.ix_(keep, drop)] @ np.linalg.solve(
        m[np.ix_(drop, drop)], m[np.ix_(drop, keep)])
    assert_allclose(red.matrix, oracle, atol=1e-12)
    assert_allclose(red.matrix, red.matrix.T, atol=1e-10)
    assert np.linalg.eigvalsh(red.matrix)[0] > -1e-10


def test_kron_path_eliminates_middle_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    op = normalized_laplacian(Graph(3, w))
    red = kron_reduce(op, [0, 2])
    assert_allclose(red.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_kron_requires_normalized_kind():
    op = combinatorial_laplacian(two_vertex())
    with pytest.raises(InvalidParameter):
        kron_reduce(op, [0])


def test_kron_singular_interior_block():
    # Two disjoint edges: eliminating one whole component leaves a singular block.
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    op = normalized_laplacian(Graph(4, w))
    with pytest.raises(SingularInteriorBlock):
        kron_reduce(op, [0, 1])


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
        v1, v2 = g.bipartition
        assert np.all(g.weights[np.ix_(v1, v1)] == 0)
        assert np.all(g.weights[np.ix_(v2, v2)] == 0)


def test_bipartite_generator_records_partition():
    g = gen_random_bipartite(4, seed=2)
    assert g.bipartition is not None
    v1, v2 = g.bipartition
    assert len(v1) == len(v2) == 4


def test_graph_rejects_asymmetry_and_self_loops():
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvalidParameter):
        Graph(2, np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_edge_list_roundtrip(tmp_path):
    g = gen_random_sensor(16, seed=7)
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert back.n == g.n
    assert_allclose(back.weights, g.weights)


def test_edge_list_roundtrip_bipartite(tmp_path):
    g = gen_random_bipartite(5, seed=1)
    path = tmp_path / "b.txt"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert back.bipartition is not None
    assert_allclose(back.weights, g.weights)
    head = path.read_text().splitlines()[0]
    assert head == "N 10 bipartite 5"


@pytest.mark.parametrize("text,line", [
    ("N 3\n0 1 1.0\n1 2\n", 3),
    ("N 3\n0 1 1.0\n\n1 3 1.0\n", 4),
    ("N 3\n0 -1 1.0\n", 2),
], ids=["graph-two-fields", "graph-index-out-of-range", "graph-negative-index"])
def test_loaders_raise_io_failure_naming_the_line(tmp_path, text, line):
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(IoFailure, match=rf"line {line}\b"):
        load_graph(str(path))
