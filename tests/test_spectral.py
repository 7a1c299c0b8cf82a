import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsamp import (
    DimensionMismatch,
    OperatorKind,
    SpectralFilter,
    VariationOperator,
    apply_filter,
    combinatorial_laplacian,
    complete_bipartite,
    dft_basis,
    eigendecompose,
    gen_circular,
    gen_random_sensor,
    gft,
    identity_filter,
    igft,
    normalized_laplacian,
)


def test_eigendecompose_diagonal_matrix():
    op = VariationOperator(np.diag([3.0, 1.0, 2.0]), OperatorKind.COMBINATORIAL)
    basis = eigendecompose(op)
    assert_allclose(basis.lambdas, [1.0, 2.0, 3.0])
    perm = np.zeros((3, 3))
    perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
    assert_allclose(basis.vectors, perm, atol=1e-12)


def test_eigendecompose_connected_graph_constant_mode():
    g = gen_random_sensor(16, seed=2)
    basis = eigendecompose(combinatorial_laplacian(g))
    assert abs(basis.lambdas[0]) < 1e-10
    assert_allclose(basis.vectors[:, 0], np.full(16, 1 / 4.0), atol=1e-10)


def test_eigendecompose_complete_bipartite_spectrum():
    basis = eigendecompose(normalized_laplacian(complete_bipartite(2)))
    assert_allclose(basis.lambdas, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_eigendecompose_invariants():
    g = gen_random_sensor(24, seed=9)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    n = basis.n
    assert_allclose(basis.vectors.T @ basis.vectors, np.eye(n), atol=1e-10)
    assert np.all(np.diff(basis.lambdas) >= -1e-12)
    resid = basis.vectors.T @ op.matrix @ basis.vectors - np.diag(basis.lambdas)
    assert np.max(np.abs(resid)) < 1e-8 * max(basis.lambdas.max(), 1.0)


def test_eigendecompose_deterministic():
    op = normalized_laplacian(complete_bipartite(4))
    a = eigendecompose(op)
    b = eigendecompose(op)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.lambdas, b.lambdas)


def test_dft_basis_two_points():
    basis = dft_basis(2)
    assert_allclose(basis.vectors, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_dft_impulse_transform_is_constant():
    basis = dft_basis(8)
    delta = np.zeros(8)
    delta[0] = 1.0
    assert_allclose(gft(basis, delta), np.full(8, 1 / np.sqrt(8)), atol=1e-14)


def test_dft_diagonalizes_circular_laplacian():
    basis = dft_basis(4)
    lap = combinatorial_laplacian(gen_circular(4)).matrix
    diag = basis.vectors.conj().T @ lap @ basis.vectors
    assert np.max(np.abs(diag - np.diag(basis.lambdas))) < 1e-12
    assert_allclose(basis.lambdas, 2 - 2 * np.cos(2 * np.pi * np.arange(4) / 4), atol=1e-15)


def test_gft_of_basis_vector_is_indicator():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(10, seed=1)))
    xhat = gft(basis, basis.vectors[:, 3])
    expected = np.zeros(10)
    expected[3] = 1.0
    assert_allclose(xhat, expected, atol=1e-12)


def test_gft_zero_maps_to_zero():
    basis = dft_basis(6)
    assert_allclose(gft(basis, np.zeros(6)), np.zeros(6))


def test_gft_igft_roundtrip():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(16, seed=4)))
    x = np.random.default_rng(0).normal(size=16)
    assert_allclose(igft(basis, gft(basis, x)), x, atol=1e-10)


@pytest.mark.parametrize("make_basis", [
    lambda: eigendecompose(combinatorial_laplacian(gen_random_sensor(12, seed=6))),
    lambda: dft_basis(12),
])
def test_parseval(make_basis):
    basis = make_basis()
    x = np.random.default_rng(1).normal(size=12)
    assert np.linalg.norm(gft(basis, x)) == pytest.approx(np.linalg.norm(x), rel=1e-10)


def test_gft_dimension_mismatch():
    basis = dft_basis(4)
    with pytest.raises(DimensionMismatch):
        gft(basis, np.zeros(5))
    with pytest.raises(DimensionMismatch):
        igft(basis, np.zeros(3))


def test_apply_identity_filter():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(8, seed=3)))
    x = np.random.default_rng(2).normal(size=8)
    assert_allclose(apply_filter(basis, identity_filter(8), x), x, atol=1e-10)


def test_apply_dc_indicator_projects_onto_mean():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(9, seed=8)))
    x = np.random.default_rng(3).normal(size=9)
    vals = np.zeros(9)
    vals[0] = 1.0
    out = apply_filter(basis, SpectralFilter(vals), x)
    assert_allclose(out, np.full(9, x.mean()), atol=1e-10)


def test_apply_filter_matches_dense_oracle():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(8, seed=5)))
    rng = np.random.default_rng(4)
    f = SpectralFilter(rng.normal(size=8))
    x = rng.normal(size=8)
    dense = basis.vectors @ np.diag(f.values) @ basis.vectors.T
    assert_allclose(apply_filter(basis, f, x), dense @ x, atol=1e-12)


def test_filters_compose_diagonally():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(10, seed=7)))
    rng = np.random.default_rng(5)
    f = SpectralFilter(rng.normal(size=10))
    g = SpectralFilter(rng.normal(size=10))
    x = rng.normal(size=10)
    fg = SpectralFilter(f.values * g.values)
    out = apply_filter(basis, f, apply_filter(basis, g, x))
    assert_allclose(out, apply_filter(basis, fg, x), atol=1e-10)
