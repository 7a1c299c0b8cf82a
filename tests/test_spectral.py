import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specsamp import (
    ChebyshevFilter,
    DimensionMismatch,
    InvalidParameter,
    PgsModel,
    RecoveryDesign,
    SampledSpectrum,
    SamplingConfig,
    SpectralBasis,
    SpectralFilter,
    VariationOperator,
    apply_filter,
    build_system,
    combinatorial_laplacian,
    complete_bipartite,
    design_subspace_unconstrained,
    dft_basis,
    eigendecompose,
    frequency_sample,
    gen_circular,
    gen_matched_bipartite,
    gen_random_sensor,
    generate_pgs,
    gft,
    identity_filter,
    igft,
    inverted_ramp,
    linear_decay,
    mse_db,
    normalized_laplacian,
    pgs_spectrum,
    reconstruct,
    spectral_fold,
)


# Each frozen value object that holds arrays, built twice from equal inputs.
VALUE_OBJECTS = {
    "Graph": lambda: complete_bipartite(2),
    "VariationOperator": lambda: combinatorial_laplacian(complete_bipartite(2)),
    "SpectralFilter": lambda: identity_filter(4),
    "ChebyshevFilter": lambda: ChebyshevFilter(np.ones(3), (0.0, 2.0)),
    "RecoveryDesign": lambda: RecoveryDesign(np.ones(2), identity_filter(4)),
    "SampledSpectrum": lambda: SampledSpectrum(np.ones(2), SamplingConfig(4, 2)),
    "PgsModel": lambda: PgsModel(identity_filter(4), SamplingConfig(4, 2), dft_basis(4)),
    "BipartiteSystem": lambda: build_system(complete_bipartite(2)),
}


@pytest.mark.parametrize("build", VALUE_OBJECTS.values(), ids=VALUE_OBJECTS)
def test_value_objects_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b
    assert a in [b, a] and b not in [a]
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_eigendecompose_diagonal_matrix():
    op = VariationOperator(np.diag([3.0, 1.0, 2.0]))
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


# Signals and spectra are (N,) or (N, T); the FFT would take a 3-D signal
# along axis 0, and an eigenbasis product a 0-D one would fail in numpy.
@pytest.mark.parametrize("basis", [
    dft_basis(16),
    eigendecompose(combinatorial_laplacian(gen_random_sensor(16, seed=3))),
], ids=["dft", "sensor"])
@pytest.mark.parametrize("bad", [np.ones((16, 2, 2)), np.float64(1.0)], ids=["3-d", "0-d"])
def test_transforms_reject_signals_of_another_rank(basis, bad):
    for transform in (gft, igft):
        with pytest.raises(DimensionMismatch, match=r"\(16,\) or \(16, T\)"):
            transform(basis, bad)
    with pytest.raises(DimensionMismatch):
        apply_filter(basis, identity_filter(16), bad)
    cfg = SamplingConfig(16, 2)
    with pytest.raises(DimensionMismatch):
        spectral_fold(bad, cfg)
    with pytest.raises(DimensionMismatch):
        pgs_spectrum(PgsModel(identity_filter(16), cfg, basis), bad[:8] if np.ndim(bad) else bad)


def _assert_close_relative(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 257), trials=st.sampled_from([None, 1, 3]),
       complex_input=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=257, trials=None, complex_input=False, seed=0)  # prime
@example(n=30, trials=3, complex_input=True, seed=1)       # mixed radix 2*3*5
def test_dft_basis_transforms_match_the_closed_form_dft(n, trials, complex_input, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if trials is None else (n, trials)
    x = rng.normal(size=shape)
    if complex_input:
        x = x + 1j * rng.normal(size=shape)
    # Column i is exp(2j*pi*i*m/n)/sqrt(n), built here with the exponent
    # reduced mod n; the basis's own vectors are not the oracle.
    m = np.arange(n)
    u = np.exp(2j * np.pi * (np.outer(m, m) % n) / n) / np.sqrt(n)
    basis = dft_basis(n)
    xhat = gft(basis, x)
    _assert_close_relative(xhat, u.conj().T @ x)
    _assert_close_relative(igft(basis, x), u @ x)
    _assert_close_relative(igft(basis, xhat), x)


@pytest.mark.parametrize("n", [2, 7, 30, 256])
def test_dft_basis_vectors_are_the_closed_form_matrix(n):
    basis = dft_basis(n)
    m = np.arange(n)
    u = basis.vectors
    assert u.tobytes() == (np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)).tobytes()
    assert basis.vectors is u
    assert not u.flags.writeable
    with pytest.raises(AttributeError):
        basis.vectors = np.eye(n)


@pytest.mark.parametrize("build", [
    lambda: build_system(gen_matched_bipartite(256, 1)).basis_b,
    lambda: dft_basis(1024),
], ids=["paired", "dft"])
def test_on_demand_vectors_are_formed_once_on_first_read(build):
    # The formed matrix is frozen in place, with no copy and no second
    # matrix-sized temporary.
    basis = build()
    tracemalloc.start()
    try:
        u = basis.vectors
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * u.nbytes


def test_dft_basis_request_does_not_form_the_matrix():
    # One synthesize -> sample -> reconstruct request on the 2048-cycle,
    # basis included, peaks below a sixteenth of the n x n complex matrix.
    n, m = 2048, 8
    tracemalloc.start()
    try:
        basis = dft_basis(n)
        cfg = SamplingConfig(n, m)
        s = inverted_ramp(basis)
        model = PgsModel(linear_decay(basis), cfg, basis)
        design = design_subspace_unconstrained(s, model.generator, cfg)
        x = generate_pgs(model, np.random.default_rng(0).normal(1.0, 1.0, cfg.k))
        xt = reconstruct(basis, design, frequency_sample(basis, s, x, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mse_db(x, xt) < -200.0
    assert peak < n * n * 16 // 16


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


@pytest.mark.parametrize("field,index,bad", [
    ("vectors", (0, 0), np.nan),
    ("vectors", (1, 2), np.inf),
    ("vectors", (1, 2), complex(0, np.inf)),  # between the complex min and max
    ("lambdas", 1, np.inf),
    ("lambdas", 2, np.nan),
], ids=["nan-vector", "inf-vector", "inf-imag-vector", "inf-frequency", "nan-frequency"])
def test_basis_rejects_nonfinite_entries(field, index, bad):
    parts = {"vectors": dft_basis(4).vectors.copy(), "lambdas": np.arange(4.0)}
    parts[field][index] = bad
    with pytest.raises(InvalidParameter, match="finite"):
        SpectralBasis(**parts)
