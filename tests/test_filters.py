import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsamp import (
    ChebyshevFilter,
    Graph,
    IntervalMismatch,
    InvalidParameter,
    Mode,
    OperatorKind,
    RecoveryDesign,
    SpectralFilter,
    Strategy,
    VariationOperator,
    apply_chebyshev,
    apply_filter,
    bandlimit,
    bandlimit_response,
    chebyshev_fit,
    combinatorial_laplacian,
    cosine_taper,
    eigendecompose,
    exponential_decay,
    from_response,
    gen_random_bipartite,
    gen_random_sensor,
    identity_filter,
    inverted_ramp,
    linear_decay,
    normalized_laplacian,
    save_filter,
    smoothness_ramp,
)
from specsamp.chebyshev import evaluate


@pytest.fixture(scope="module")
def sensor_basis():
    return eigendecompose(combinatorial_laplacian(gen_random_sensor(32, seed=1)))


def test_linear_decay_at_zero(sensor_basis):
    f = linear_decay(sensor_basis, eps=0.1)
    assert f.response(0.0) == pytest.approx(1.0)
    assert f.values[0] == pytest.approx(1.0, abs=1e-12)


def test_exponential_decay_at_lambda_max(sensor_basis):
    f = exponential_decay(sensor_basis)
    lam_max = sensor_basis.lambdas.max()
    assert f.response(lam_max) == pytest.approx(np.exp(-1.5))


def test_bandlimit_sums_to_k(sensor_basis):
    f = bandlimit(sensor_basis, 7)
    assert f.values.sum() == 7
    assert set(np.unique(f.values)) <= {0.0, 1.0}


def test_inverted_ramp_piecewise(sensor_basis):
    f = inverted_ramp(sensor_basis)
    lam_max = sensor_basis.lambdas.max()
    assert f.response(0.0) == 1.0
    assert f.response(2.0 / lam_max) == 1.0
    assert f.response(lam_max) == pytest.approx(-2.0)


def test_cosine_taper_endpoints(sensor_basis):
    f = cosine_taper(sensor_basis, eps=0.1)
    lam_max = sensor_basis.lambdas.max()
    assert f.response(0.0) == pytest.approx(1.0)
    assert 0 < f.response(lam_max) < 1


def test_smoothness_ramp_range(sensor_basis):
    f = smoothness_ramp(sensor_basis)
    assert f.values.min() >= 1.0 - 1e-12
    assert f.values.max() == pytest.approx(2.0)


def test_sampled_values_match_response(sensor_basis):
    for f in (linear_decay(sensor_basis), exponential_decay(sensor_basis),
              inverted_ramp(sensor_basis), cosine_taper(sensor_basis),
              smoothness_ramp(sensor_basis)):
        resampled = np.array([f.response(lam) for lam in sensor_basis.lambdas])
        assert_allclose(f.values, resampled, atol=1e-12)


def test_bandlimit_response_midpoint_cut(sensor_basis):
    resp = bandlimit_response(sensor_basis, 5)
    lams = sensor_basis.lambdas
    cut = 0.5 * (lams[4] + lams[5])
    assert resp(cut - 1e-9) == 1.0
    assert resp(cut + 1e-9) == 0.0
    vals = np.array([resp(lam) for lam in lams])
    assert_allclose(vals, bandlimit(sensor_basis, 5).values)


def test_filter_table_roundtrip(tmp_path, sensor_basis):
    f = cosine_taper(sensor_basis)
    path = tmp_path / "f.txt"
    save_filter(f, sensor_basis, str(path))
    lams, back = np.loadtxt(path, unpack=True)
    assert_allclose(lams, sensor_basis.lambdas)
    assert_allclose(back, f.values)


@pytest.mark.parametrize("build,a", [
    (lambda a: SpectralFilter(a), np.arange(4.0)),
    (lambda a: ChebyshevFilter(a, (0.0, 2.0), 3), np.arange(4.0)),
    (lambda a: RecoveryDesign(a, identity_filter(8), Strategy.DS, Mode.UNCONSTRAINED),
     np.arange(4.0)),
    (lambda a: Graph(8, np.zeros((8, 8)), bipartition=(a, a + 4)), np.arange(4)),
], ids=["spectral-filter", "chebyshev-coeffs", "design-h", "graph-bipartition"])
def test_constructors_leave_caller_array_writeable(build, a):
    build(a)
    a[0] = 3
    assert a[0] == 3


def test_nonfinite_values_rejected():
    with pytest.raises(InvalidParameter):
        from_response(type("B", (), {"lambdas": np.array([0.0, 1.0])})(),
                      lambda lam: float("nan"))


def test_chebyshev_constant_coefficients():
    cf = chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 5)
    assert_allclose(cf.coeffs, [2, 0, 0, 0, 0, 0], atol=1e-14)
    assert cf.fit_error < 1e-14


def test_chebyshev_linear_exact():
    cf = chebyshev_fit(lambda lam: lam, (0.0, 3.0), 1)
    grid = np.linspace(0, 3, 100)
    assert_allclose(evaluate(cf, grid), grid, atol=1e-12)
    assert cf.fit_error < 1e-12


def test_chebyshev_evaluate_matches_apply_on_diagonal_operator():
    lam = np.random.default_rng(3).uniform(0.0, 2.0, 40)
    cf = chebyshev_fit(lambda v: float(np.exp(-v) * np.cos(3 * v)), (0.0, 2.0), 12)
    op = VariationOperator(np.diag(lam), OperatorKind.SYMMETRIC_NORMALIZED)
    assert_allclose(apply_chebyshev(op, cf, np.ones(40)), evaluate(cf, lam),
                    rtol=1e-12, atol=1e-12)


def test_chebyshev_affine_response_exact(sensor_basis):
    f = linear_decay(sensor_basis, eps=0.1)
    lam_max = sensor_basis.lambdas.max()
    cf = chebyshev_fit(f.response, (0.0, lam_max), 16)
    assert cf.fit_error < 1e-10


def test_chebyshev_rejects_bad_order():
    with pytest.raises(InvalidParameter):
        chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 0)


def test_apply_chebyshev_constant_is_identity():
    g = gen_random_sensor(16, seed=4)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    cf = chebyshev_fit(lambda lam: 1.0, (0.0, basis.lambdas.max()), 4)
    x = np.random.default_rng(0).normal(size=16)
    assert_allclose(apply_chebyshev(op, cf, x), x, atol=1e-10)


def test_apply_chebyshev_linear_is_operator():
    g = gen_random_sensor(16, seed=4)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    cf = chebyshev_fit(lambda lam: lam, (0.0, basis.lambdas.max()), 1)
    x = np.random.default_rng(1).normal(size=16)
    assert_allclose(apply_chebyshev(op, cf, x), op.matrix @ x, atol=1e-10)


def test_apply_chebyshev_matches_spectral_smooth_response():
    g = gen_random_sensor(24, seed=6)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    lam_max = basis.lambdas.max()
    resp = lambda lam: float(np.exp(-lam / lam_max))
    cf = chebyshev_fit(resp, (0.0, lam_max), 12)
    f = from_response(basis, resp)
    x = np.random.default_rng(2).normal(size=24)
    err = np.linalg.norm(apply_chebyshev(op, cf, x) - apply_filter(basis, f, x))
    assert err <= cf.fit_error * np.linalg.norm(x) * (1 + 1e-6)


def test_apply_chebyshev_discontinuous_bounded_by_eigenvalue_error():
    # The inverted ramp jumps inside the spectrum; the application error is
    # still bounded by the worst fit error at the operator's frequencies.
    g = gen_random_bipartite(32, seed=3)
    op = normalized_laplacian(g)
    basis = eigendecompose(op)
    f = inverted_ramp(basis)
    cf = chebyshev_fit(f.response, (0.0, 2.0), 32)
    x = np.random.default_rng(3).normal(size=64)
    err = np.linalg.norm(apply_chebyshev(op, cf, x) - apply_filter(basis, f, x))
    eig_err = np.max(np.abs(evaluate(cf, basis.lambdas) - f.values))
    assert err <= eig_err * np.linalg.norm(x) * (1 + 1e-6)


def test_apply_chebyshev_interval_mismatch():
    g = gen_random_sensor(8, seed=2)
    op = combinatorial_laplacian(g)
    cf = chebyshev_fit(lambda lam: 1.0, (0.0, 1.0), 3)
    with pytest.raises(IntervalMismatch):
        apply_chebyshev(op, cf, np.zeros(8), lambda_max=5.0)


def test_identity_filter_is_all_ones():
    f = identity_filter(5)
    assert_allclose(f.values, np.ones(5))
