from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csr_array

from specsamp import (
    ChebyshevFilter,
    Graph,
    IntervalMismatch,
    InvalidParameter,
    RecoveryDesign,
    SampledSpectrum,
    SamplingConfig,
    SpectralBasis,
    SpectralFilter,
    VariationOperator,
    apply_chebyshev,
    apply_filter,
    bandlimit,
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
from specsamp.chebyshev import evaluate, stack
from specsamp.graphs import _dense


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


def test_filter_table_roundtrip(tmp_path, sensor_basis):
    f = cosine_taper(sensor_basis)
    path = tmp_path / "f.txt"
    save_filter(f, sensor_basis, str(path))
    lams, back = np.loadtxt(path, unpack=True)
    assert_allclose(lams, sensor_basis.lambdas)
    assert_allclose(back, f.values)


@pytest.mark.parametrize("build,a", [
    (lambda a: SpectralFilter(a), np.arange(4.0)),
    (lambda a: ChebyshevFilter(a, (0.0, 2.0)), np.arange(4.0)),
    (lambda a: RecoveryDesign(a, identity_filter(8)),
     np.arange(4.0)),
    (lambda a: Graph(a), np.ones((3, 3)) - np.eye(3)),
    (lambda a: VariationOperator(a), np.eye(3)),
    (lambda a: SpectralBasis(a, np.arange(3.0)), np.eye(3)),
    (lambda a: SampledSpectrum(a, SamplingConfig(8, 2)), np.arange(4.0)),
], ids=["spectral-filter", "chebyshev-coeffs", "design-h", "graph", "variation-operator",
        "spectral-basis", "sampled-spectrum"])
def test_constructors_leave_caller_array_writeable(build, a):
    stored = [v for v in vars(build(a)).values() if isinstance(v, np.ndarray)]
    a.flat[0] = 3
    assert a.flat[0] == 3
    assert stored and not any(v.flags.writeable for v in stored)


@pytest.mark.parametrize("interval", [(1.0, 1.0), (2.0, 0.0), (0.0, float("nan")),
                                      (0.0, float("inf")), (float("-inf"), 2.0)],
                         ids=["empty", "reversed", "nan", "inf", "minus-inf"])
def test_chebyshev_filter_rejects_an_empty_or_nonfinite_interval(interval):
    with pytest.raises(InvalidParameter, match="interval"):
        ChebyshevFilter([1.0, 0.5], interval)
    with pytest.raises(InvalidParameter, match="interval"):
        chebyshev_fit(lambda lam: 1.0, interval, 3)


@pytest.mark.parametrize("coeffs", [[], [[[1.0, 0.5]]], [[]], 1.0],
                         ids=["negative", "three-d", "empty-stack", "scalar"])
def test_chebyshev_filter_rejects_a_bad_order(coeffs):
    with pytest.raises(InvalidParameter, match="nonempty vector"):
        ChebyshevFilter(coeffs, (0.0, 2.0))


def test_chebyshev_filter_derives_its_order():
    assert [f.name for f in fields(ChebyshevFilter)] == ["coeffs", "interval", "fit_error"]
    assert [f.name for f in fields(ChebyshevFilter) if f.kw_only] == ["fit_error"]
    assert ChebyshevFilter([1.0, 0.5, 0.25], (0.0, 2.0)).order == 2
    assert ChebyshevFilter([1.0], (0.0, 2.0)).order == 0
    with pytest.raises(TypeError):
        ChebyshevFilter([1.0, 0.5, 0.25], (0.0, 2.0), 2)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_chebyshev_filter_rejects_nonfinite_coefficients(value):
    with pytest.raises(InvalidParameter, match="finite"):
        ChebyshevFilter([1.0, value], (0.0, 2.0))


def test_nonfinite_values_rejected():
    with pytest.raises(InvalidParameter):
        from_response(type("B", (), {"lambdas": np.array([0.0, 1.0])})(),
                      lambda lam: float("nan"))


def test_chebyshev_constant_coefficients():
    cf = chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 5)
    assert_allclose(cf.coeffs, [2, 0, 0, 0, 0, 0], atol=1e-14)
    assert cf.fit_error < 1e-14


def test_variation_operator_rejects_rounding_asymmetry():
    sym = np.array([[2.0, 0.1], [0.1, 1.0]])
    assert np.array_equal(VariationOperator(sym).matrix, sym)
    asym = np.array([[2.0, 0.1 + 1e-15], [0.1, 1.0]])
    assert asym[0, 1] != asym[1, 0]
    with pytest.raises(InvalidParameter, match="symmetric"):
        VariationOperator(asym)


# A degree-P polynomial as (P, its Chebyshev coefficients b_0..b_P).
POLYNOMIALS = st.integers(1, 40).flatmap(
    lambda order: st.tuples(st.just(order), st.lists(st.floats(-1.0, 1.0), min_size=order + 1,
                                                     max_size=order + 1)))


@settings(max_examples=100, deadline=None)
@given(polynomial=POLYNOMIALS, lo=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0))
@example(polynomial=(30, [0.0] * 28 + [1.0, 0.0, 1.0]), lo=4.0, width=0.11328125)
def test_chebyshev_fit_exact_on_polynomials(polynomial, lo, width):
    # A degree-P fit of a degree-<=P polynomial is exact; in the T_0/2
    # convention its coefficients are [2 b0, b1, ..., bP].
    order, b = polynomial
    b = np.array(b)
    hi = lo + width

    def poly(lam):
        return float(np.polynomial.chebyshev.chebval((2.0 * lam - (lo + hi)) / width, b))

    # Rounding bound of the map t = (2 lam - (lo + hi)) / width. A node lam
    # in [lo, hi] is rounded by about eps |lam|, and 2 lam - (lo + hi) by
    # about eps (|lo| + |hi|), so t is off by about eps kappa with
    # kappa = (|lo| + |hi|) / width >= 1. By Markov's inequality,
    # |T_k'| <= k^2 on [-1, 1], so p(t) is off by up to
    # eps kappa P^2 sum|b|, and so are the quadrature's coefficients.
    # kappa = 1 (the interval holds 0) is the well-conditioned map, whose
    # rounding 1e-12 already covers; only the excess kappa - 1 widens it.
    kappa = (abs(lo) + abs(hi)) / width
    atol = 1e-12 + np.finfo(float).eps * (kappa - 1.0) * order**2 * np.abs(b).sum()
    cf = chebyshev_fit(poly, (lo, hi), order)
    assert_allclose(cf.coeffs, np.concatenate([[2.0 * b[0]], b[1:]]), rtol=0, atol=atol)
    assert cf.fit_error <= 1e-10


def test_chebyshev_linear_exact():
    cf = chebyshev_fit(lambda lam: lam, (0.0, 3.0), 1)
    grid = np.linspace(0, 3, 100)
    assert_allclose(evaluate(cf, grid), grid, atol=1e-12)
    assert cf.fit_error < 1e-12


def test_chebyshev_evaluate_matches_apply_on_diagonal_operator():
    lam = np.random.default_rng(3).uniform(0.0, 2.0, 40)
    cf = chebyshev_fit(lambda v: float(np.exp(-v) * np.cos(3 * v)), (0.0, 2.0), 12)
    op = VariationOperator(np.diag(lam))
    assert_allclose(apply_chebyshev(op, cf, np.ones(40)), evaluate(cf, lam),
                    rtol=1e-12, atol=1e-12)


def test_chebyshev_affine_response_exact(sensor_basis):
    f = linear_decay(sensor_basis, eps=0.1)
    lam_max = sensor_basis.lambdas.max()
    cf = chebyshev_fit(f.response, (0.0, lam_max), 16)
    assert cf.fit_error < 1e-10


def test_chebyshev_rejects_bad_order():
    for order in (0, 2.5, "3"):
        with pytest.raises(InvalidParameter, match="order"):
            chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), order)


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


def _dense_recurrence(op, cf, x):
    """The Chebyshev recurrence written out with dense products of op.matrix."""
    a, b = cf.interval
    dense = _dense(op.matrix)
    mapped = lambda v: (2.0 / (b - a)) * (dense @ v) - ((a + b) / (b - a)) * v
    t_prev, t_cur = x, mapped(x)
    out = 0.5 * cf.coeffs[0] * t_prev + cf.coeffs[1] * t_cur
    for k in range(2, cf.order + 1):
        t_prev, t_cur = t_cur, 2.0 * mapped(t_cur) - t_prev
        out = out + cf.coeffs[k] * t_cur
    return out


# n and the chord probability span both sides of the CSR density cut: a path
# on 120 vertices is 2.5% nonzero, any graph on 24 or fewer is above 10%.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 120), chords=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1),
       order=st.integers(1, 10), normalized=st.booleans(), complex_=st.booleans(),
       t=st.sampled_from([None, 1, 3]))
def test_apply_chebyshev_matches_dense_recurrence(n, chords, seed, order, normalized,
                                                  complex_, t):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < chords), 1)
    w[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 2.0, n - 1)  # a spanning path
    g = Graph(w + w.T)
    op = normalized_laplacian(g) if normalized else combinatorial_laplacian(g)
    # Gershgorin bounds the spectrum, so every T_k of the mapped operator has norm <= 1.
    b = 2.0 if normalized else 2.0 * g.degrees.max()
    cf = ChebyshevFilter(rng.normal(size=order + 1), (0.0, b))
    shape = (n,) if t is None else (n, t)
    x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)

    # Only a sparse normalized Laplacian is built, and so multiplied, in CSR.
    m = op.matrix
    assert isinstance(m, csr_array) == (normalized
                                        and np.count_nonzero(g.weights) + n <= 0.1 * n * n)
    dinv = 1.0 / np.sqrt(g.degrees)
    textbook = (np.eye(n) - g.weights * np.outer(dinv, dinv) if normalized
                else np.diag(g.degrees) - g.weights)
    assert np.array_equal(_dense(m), textbook)
    got = apply_chebyshev(op, cf, x)
    assert got.shape == shape and np.iscomplexobj(got) == complex_
    scale = np.abs(cf.coeffs).sum() * np.abs(x).max()
    assert_allclose(got, _dense_recurrence(op, cf, x), rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_apply_chebyshev_makes_one_product_per_order(products, order):
    lam = np.linspace(0.0, 2.0, 8)
    cf = ChebyshevFilter(np.ones(order + 1), (0.0, 2.0))
    x = np.arange(24.0).reshape(8, 3)
    out = apply_chebyshev(products.watch(VariationOperator(np.diag(lam))), cf, x)
    assert products == [3] * order
    assert_allclose(out, evaluate(cf, lam)[:, None] * x, rtol=1e-14)


def test_stack_pads_rows_to_the_top_order():
    low = ChebyshevFilter([1.0, 2.0], (0.0, 2.0), fit_error=0.5)
    high = ChebyshevFilter([3.0, 4.0, 5.0, 6.0], (0.0, 2.0), fit_error=0.25)
    both = stack([low, high])
    assert both.order == 3 and both.interval == (0.0, 2.0) and both.fit_error == 0.5
    assert both.coeffs.tolist() == [[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 5.0, 6.0]]
    assert stack([both, low]).coeffs.shape == (3, 4)
    with pytest.raises(IntervalMismatch):
        stack([low, ChebyshevFilter([1.0], (0.0, 1.0))])
    with pytest.raises(InvalidParameter):
        stack([])


# Both sides of the CSR density cut: a path on 10 vertices is 18% nonzero,
# one on 100 is 2%.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 100), chords=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1),
       orders=st.lists(st.integers(0, 8), min_size=1, max_size=4),
       t=st.sampled_from([None, 1, 3]))
@example(n=10, chords=0.0, seed=1, orders=[3, 0, 5], t=3)
@example(n=100, chords=0.0, seed=2, orders=[3, 0, 5], t=3)
def test_a_stack_equals_each_row_alone(n, chords, seed, orders, t):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < chords), 1)
    w[np.arange(n - 1), np.arange(1, n)] = rng.uniform(0.1, 2.0, n - 1)
    op = normalized_laplacian(Graph(w + w.T))
    # Some coefficients are exactly zero, trailing ones included.
    filters = [ChebyshevFilter(rng.normal(size=p + 1) * (rng.random(p + 1) < 0.8), (0.0, 2.0))
               for p in orders]
    x = rng.normal(size=(n,) if t is None else (n, t))
    both = stack(filters)
    got = apply_chebyshev(op, both, x)
    lam = np.linspace(0.0, 2.0, 9)
    values = evaluate(both, lam)
    assert got.shape == x.shape + (len(filters),) and values.shape == (9, len(filters))
    for i, f in enumerate(filters):
        assert np.array_equal(got[..., i], apply_chebyshev(op, f, x))
        assert np.array_equal(values[:, i], evaluate(f, lam))


def test_a_public_operator_is_multiplied_by_its_dense_matrix():
    # 10 of 100 entries nonzero: as sparse as a CSR-built Laplacian may be,
    # but an operator is multiplied in the form it was built in.
    op = VariationOperator(np.diag(np.arange(1.0, 11.0)))
    assert isinstance(op.matrix, np.ndarray)


def test_identity_filter_is_all_ones():
    f = identity_filter(5)
    assert_allclose(f.values, np.ones(5))
