import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsamp import (
    DimensionMismatch,
    InvalidParameter,
    SampledSpectrum,
    SamplingConfig,
    SpectralFilter,
    bandlimit,
    combinatorial_laplacian,
    dft_basis,
    eigendecompose,
    frequency_sample,
    gen_random_sensor,
    gft,
    inverted_ramp,
    normalized_laplacian,
    gen_random_bipartite,
    sampled_cross_correlation,
    spectral_fold,
)
from specsamp.sampling import _scaled_upsample


def fold_matrix(cfg):
    return np.tile(np.eye(cfg.k), (1, cfg.m))


def test_config_requires_divisor():
    with pytest.raises(InvalidParameter):
        SamplingConfig(10, 3)
    assert SamplingConfig(12, 3).k == 4


@pytest.mark.parametrize("n,m", [(8.0, 2), (8, 2.0), ("8", 2), (None, 2)])
def test_config_requires_integer_sizes(n, m):
    with pytest.raises(InvalidParameter, match="must be an integer"):
        SamplingConfig(n, m)


def test_config_keeps_numpy_integer_sizes_as_ints():
    cfg = SamplingConfig(np.int64(8), np.int32(2))
    assert (type(cfg.n), type(cfg.m), cfg.k) == (int, int, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf), complex(0, -np.inf)],
                         ids=["nan", "inf", "inf-imag", "minus-inf-imag"])
def test_sampled_spectrum_rejects_nonfinite_values(bad):
    values = np.arange(4.0) + 0j
    values[1] = bad
    with pytest.raises(InvalidParameter, match="finite"):
        SampledSpectrum(values, SamplingConfig(8, 2))


def test_frequency_sample_rejects_a_nan_signal():
    basis = dft_basis(8)
    x = np.ones(8)
    x[3] = np.nan
    with pytest.raises(InvalidParameter, match="finite"):
        frequency_sample(basis, inverted_ramp(basis), x, SamplingConfig(8, 2))


def test_fold_identity_when_m_is_one():
    cfg = SamplingConfig(6, 1)
    x = np.arange(6.0)
    assert_allclose(spectral_fold(x, cfg).values, x)


def test_fold_direct_sum():
    cfg = SamplingConfig(4, 2)
    out = spectral_fold(np.array([1.0, 2.0, 3.0, 4.0]), cfg)
    assert_allclose(out.values, [4.0, 6.0])


def test_fold_matches_dense_operator():
    cfg = SamplingConfig(16, 4)
    x = np.random.default_rng(0).normal(size=16)
    assert_allclose(spectral_fold(x, cfg).values, fold_matrix(cfg) @ x, atol=1e-12)


def test_fold_is_linear():
    cfg = SamplingConfig(12, 3)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=12), rng.normal(size=12)
    a, b = 0.7, -1.3
    lhs = spectral_fold(a * x + b * y, cfg).values
    rhs = a * spectral_fold(x, cfg).values + b * spectral_fold(y, cfg).values
    assert_allclose(lhs, rhs, atol=1e-12)


def test_upsample_identity_when_k_equals_n():
    cfg = SamplingConfig(5, 1)
    d = np.arange(5.0)
    assert_allclose(_scaled_upsample(np.ones(5), d, cfg), d)


def test_upsample_replicates():
    cfg = SamplingConfig(6, 3)
    f = np.arange(1.0, 7.0)
    assert_allclose(_scaled_upsample(f, np.array([1.0, 2.0]), cfg), f * [1, 2, 1, 2, 1, 2])


def test_fold_of_upsample_scales_by_ratio():
    cfg = SamplingConfig(12, 4)
    d = np.random.default_rng(2).normal(size=3)
    up = _scaled_upsample(np.ones(12), d, cfg)
    assert_allclose(spectral_fold(up, cfg).values, 4 * d, atol=1e-12)


def test_frequency_sample_all_ones_no_decimation_is_gft():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(8, seed=1)))
    cfg = SamplingConfig(8, 1)
    x = np.random.default_rng(3).normal(size=8)
    out = frequency_sample(basis, SpectralFilter(np.ones(8)), x, cfg)
    assert_allclose(out.values, gft(basis, x), atol=1e-12)


def test_frequency_sample_bandlimited_has_no_aliasing():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(12, seed=2)))
    cfg = SamplingConfig(12, 3)
    s = bandlimit(basis, cfg.k)
    x = np.random.default_rng(4).normal(size=12)
    out = frequency_sample(basis, s, x, cfg)
    assert_allclose(out.values, gft(basis, x)[: cfg.k], atol=1e-12)


def test_frequency_sample_matches_dense_matrix():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(12, seed=3)))
    cfg = SamplingConfig(12, 3)
    rng = np.random.default_rng(5)
    s = SpectralFilter(rng.normal(size=12))
    x = rng.normal(size=12)
    smat = fold_matrix(cfg) @ np.diag(s.values) @ basis.vectors.T
    assert_allclose(frequency_sample(basis, s, x, cfg).values, smat @ x, atol=1e-12)


@pytest.mark.parametrize("n", [8, 16])
def test_sampling_matrix_identity(n):
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(n, seed=6)))
    cfg = SamplingConfig(n, 2)
    s = SpectralFilter(np.random.default_rng(7).normal(size=n))
    smat = fold_matrix(cfg) @ np.diag(s.values) @ basis.vectors.T
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        assert_allclose(frequency_sample(basis, s, e, cfg).values, smat[:, j], atol=1e-12)


def test_dft_sampling_reproduces_classical_aliasing():
    n = 24
    basis = dft_basis(n)
    rng = np.random.default_rng(8)
    for m in (2, 3, 4, 6):
        cfg = SamplingConfig(n, m)
        s = SpectralFilter(rng.normal(size=n))
        x = rng.normal(size=n)
        xdft = np.fft.fft(x) / np.sqrt(n)
        expected = (s.values * xdft).reshape(m, cfg.k).sum(axis=0)
        assert_allclose(frequency_sample(basis, s, x, cfg).values, expected, atol=1e-12)


def test_cross_correlation_bandlimit_pair_is_ones():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(12, seed=4)))
    cfg = SamplingConfig(12, 3)
    s = bandlimit(basis, cfg.k)
    assert_allclose(sampled_cross_correlation(s, s, cfg), np.ones(cfg.k))


def test_cross_correlation_no_decimation_is_product():
    cfg = SamplingConfig(6, 1)
    rng = np.random.default_rng(10)
    f1 = SpectralFilter(rng.normal(size=6))
    f2 = SpectralFilter(rng.normal(size=6))
    assert_allclose(sampled_cross_correlation(f1, f2, cfg), f1.values * f2.values)


def test_cross_correlation_matches_dense_diagonal():
    g = gen_random_bipartite(4, seed=1)
    basis = eigendecompose(normalized_laplacian(g))
    cfg = SamplingConfig(8, 2)
    f1 = bandlimit(basis, 4)
    f2 = inverted_ramp(basis)
    d = fold_matrix(cfg)
    oracle = np.diag(d @ np.diag(f1.values * f2.values) @ d.T)
    assert_allclose(sampled_cross_correlation(f1, f2, cfg), oracle, atol=1e-12)


def test_dimension_mismatches():
    cfg = SamplingConfig(8, 2)
    with pytest.raises(DimensionMismatch):
        spectral_fold(np.zeros(6), cfg)
