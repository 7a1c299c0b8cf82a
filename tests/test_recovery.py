import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specsamp import (
    DimensionMismatch,
    DsConditionViolated,
    InvalidParameter,
    PgsModel,
    SamplingConfig,
    SingularCorrelation,
    SpectralFilter,
    Strategy,
    ZeroReference,
    bandlimit,
    check_ds,
    combinatorial_laplacian,
    design_smoothness_predefined,
    design_smoothness_unconstrained,
    design_subspace_predefined,
    design_subspace_unconstrained,
    eigendecompose,
    frequency_sample,
    gen_random_bipartite,
    gen_random_sensor,
    generate_pgs,
    gft,
    identity_filter,
    igft,
    inverted_ramp,
    linear_decay,
    mse_db,
    reconstruct,
)

RNG = np.random.default_rng(123)


@pytest.fixture(scope="module")
def setup12():
    g = gen_random_sensor(12, seed=20)
    basis = eigendecompose(combinatorial_laplacian(g))
    return basis, SamplingConfig(12, 3)


@pytest.fixture(scope="module")
def bipartite16():
    g = gen_random_bipartite(8, seed=21)
    from specsamp import build_system

    return build_system(g)


def fold_matrix(cfg):
    return np.tile(np.eye(cfg.k), (1, cfg.m))


def synthesis(basis, vals, cfg):
    return basis.vectors @ np.diag(vals) @ fold_matrix(cfg).T


def analysis(basis, vals, cfg):
    return fold_matrix(cfg) @ np.diag(vals) @ basis.vectors.T


def pipeline_matrix(basis, design, s, cfg):
    return synthesis(basis, design.w.values, cfg) @ np.diag(design.h) @ analysis(basis, s.values, cfg)


def test_generate_pgs_bandlimited_case(setup12):
    basis, cfg = setup12
    model = PgsModel(bandlimit(basis, cfg.k), cfg, basis)
    dhat = RNG.normal(1, 1, cfg.k)
    x = generate_pgs(model, dhat)
    xhat = gft(basis, x)
    assert_allclose(xhat[: cfg.k], dhat, atol=1e-10)
    assert_allclose(xhat[cfg.k:], 0, atol=1e-10)


def test_generate_pgs_full_band_identity():
    g = gen_random_sensor(8, seed=22)
    basis = eigendecompose(combinatorial_laplacian(g))
    cfg = SamplingConfig(8, 1)
    model = PgsModel(identity_filter(8), cfg, basis)
    dhat = RNG.normal(size=8)
    assert_allclose(generate_pgs(model, dhat), igft(basis, dhat), atol=1e-12)


def test_generate_pgs_spectrum_is_periodic_times_generator():
    g = gen_random_sensor(16, seed=23)
    basis = eigendecompose(combinatorial_laplacian(g))
    cfg = SamplingConfig(16, 4)
    a = linear_decay(basis)
    model = PgsModel(a, cfg, basis)
    dhat = RNG.normal(size=4)
    xhat = gft(basis, generate_pgs(model, dhat))
    for i in range(16):
        assert xhat[i] == pytest.approx(a.values[i] * dhat[i % 4], abs=1e-12)


def test_check_ds_bandlimit_pair(setup12):
    basis, cfg = setup12
    s = bandlimit(basis, cfg.k)
    res = check_ds(s, s, cfg)
    assert res.holds
    assert res.min_abs == pytest.approx(1.0)


def test_check_ds_disjoint_supports_fails(setup12):
    basis, cfg = setup12
    s = bandlimit(basis, cfg.k)
    a_vals = np.ones(cfg.n)
    a_vals[: cfg.k] = 0.0
    res = check_ds(s, SpectralFilter(a_vals), cfg)
    assert not res.holds
    assert res.min_abs == 0.0


def test_check_ds_bipartite_halfband_ramp(bipartite16):
    sys_ = bipartite16
    s = bandlimit(sys_.basis_b, sys_.half)
    a = inverted_ramp(sys_.basis_b)
    res = check_ds(s, a, sys_.cfg)
    assert res.holds
    assert res.min_abs == pytest.approx(1.0)


def test_unconstrained_bandlimit_needs_no_correction(setup12):
    basis, cfg = setup12
    s = bandlimit(basis, cfg.k)
    design = design_subspace_unconstrained(s, s, cfg)
    assert_allclose(design.h, np.ones(cfg.k))


def test_unconstrained_bipartite_ramp_needs_no_correction(bipartite16):
    sys_ = bipartite16
    s = bandlimit(sys_.basis_b, sys_.half)
    a = inverted_ramp(sys_.basis_b)
    design = design_subspace_unconstrained(s, a, sys_.cfg)
    assert_allclose(design.h, np.ones(sys_.half), atol=1e-12)


def test_unconstrained_matches_dense_inverse(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(30)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    a = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_subspace_unconstrained(s, a, cfg)
    smat = analysis(basis, s.values, cfg)
    amat = synthesis(basis, a.values, cfg)
    assert_allclose(np.diag(design.h), np.linalg.inv(smat @ amat), atol=1e-10)


def test_unconstrained_ds_raises_when_violated(setup12):
    basis, cfg = setup12
    s = bandlimit(basis, cfg.k)
    a_vals = np.ones(cfg.n)
    a_vals[: cfg.k] = 0.0
    with pytest.raises(DsConditionViolated):
        design_subspace_unconstrained(s, SpectralFilter(a_vals), cfg, Strategy.DS)


def test_ls_zeroes_exactly_where_correlation_vanishes(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(31)
    s_vals = rng.uniform(0.5, 1.5, cfg.n)
    s_vals[: cfg.n // 2] = 0.0
    a_vals = rng.uniform(0.5, 1.5, cfg.n)
    a_vals[cfg.n // 2:] = 0.0
    s, a = SpectralFilter(s_vals), SpectralFilter(a_vals)
    from specsamp import sampled_cross_correlation

    corr = sampled_cross_correlation(s, a, cfg)
    design = design_subspace_unconstrained(s, a, cfg, Strategy.LS)
    zero_mask = np.abs(corr) <= 1e-10 * np.abs(corr).max()
    assert np.all(design.h[zero_mask] == 0)
    assert_allclose(design.h[~zero_mask], 1.0 / corr[~zero_mask])


def test_predefined_with_matching_filter_reduces_to_unconstrained(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(32)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    a = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    unc = design_subspace_unconstrained(s, a, cfg)
    pre = design_subspace_predefined(s, a, a, cfg, Strategy.DS)
    assert_allclose(pre.h, unc.h, atol=1e-12)


def test_predefined_constant_filters_fold_to_half():
    g = gen_random_sensor(12, seed=24)
    basis = eigendecompose(combinatorial_laplacian(g))
    cfg = SamplingConfig(12, 2)
    ones = identity_filter(12)
    for strategy in (Strategy.DS, Strategy.LS):
        design = design_subspace_predefined(ones, ones, ones, cfg, strategy)
        assert_allclose(design.h, np.full(cfg.k, 0.5), atol=1e-14)


def test_predefined_matches_dense_oblique_projection(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(33)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    a = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    w = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_subspace_predefined(s, a, w, cfg, Strategy.DS)
    smat = analysis(basis, s.values, cfg)
    amat = synthesis(basis, a.values, cfg)
    wmat = synthesis(basis, w.values, cfg)
    oracle = wmat @ np.linalg.inv(wmat.T @ wmat) @ wmat.T @ amat \
        @ np.linalg.inv(smat @ amat) @ smat
    assert np.max(np.abs(pipeline_matrix(basis, design, s, cfg) - oracle)) < 1e-9


def test_predefined_ls_matches_dense_pseudoinverse(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(34)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    a = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    w = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_subspace_predefined(s, a, w, cfg, Strategy.LS)
    smat = analysis(basis, s.values, cfg)
    wmat = synthesis(basis, w.values, cfg)
    oracle = wmat @ np.linalg.pinv(smat @ wmat) @ smat
    assert np.max(np.abs(pipeline_matrix(basis, design, s, cfg) - oracle)) < 1e-9


def test_smoothness_unconstrained_trivial_weight_reduces_to_subspace(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(35)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    sm = design_smoothness_unconstrained(s, identity_filter(cfg.n), cfg)
    sub = design_subspace_unconstrained(s, s, cfg)
    assert_allclose(sm.h, sub.h, atol=1e-12)
    assert_allclose(sm.w.values, s.values, atol=1e-12)


def test_smoothness_unconstrained_matches_dense(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(36)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    v = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_smoothness_unconstrained(s, v, cfg)
    smat = analysis(basis, s.values, cfg)
    wt = synthesis(basis, s.values / v.values**2, cfg)
    oracle = wt @ np.linalg.inv(smat @ wt) @ smat
    assert np.max(np.abs(pipeline_matrix(basis, design, s, cfg) - oracle)) < 1e-9


def test_smoothness_unconstrained_quadratic_weight_inverts_on_passband(setup12):
    # Weighting lambda + 1 on the passband and lambda above it: the design
    # reproduces the closed-form pair h = lambda + 1, w = 1/(lambda + 1).
    basis, cfg = setup12
    k = cfg.k
    v_vals = np.where(np.arange(cfg.n) < k,
                      np.sqrt(basis.lambdas + 1.0),
                      np.sqrt(np.maximum(basis.lambdas, 0.0)))
    v = SpectralFilter(v_vals)
    s = bandlimit(basis, k)
    design = design_smoothness_unconstrained(s, v, cfg)
    assert_allclose(design.h, basis.lambdas[:k] + 1.0, atol=1e-12)
    assert_allclose(design.w.values[:k], 1.0 / (basis.lambdas[:k] + 1.0), atol=1e-12)
    assert_allclose(design.w.values[k:], 0.0, atol=1e-12)


def test_smoothness_unconstrained_singular_correlation():
    g = gen_random_sensor(8, seed=25)
    basis = eigendecompose(combinatorial_laplacian(g))
    cfg = SamplingConfig(8, 2)
    s_vals = np.zeros(8)
    s_vals[0] = 1.0  # column 1 of the fold never sees support
    with pytest.raises(SingularCorrelation):
        design_smoothness_unconstrained(SpectralFilter(s_vals), identity_filter(8), cfg)


def test_smoothness_predefined_mx_substitution(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(37)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_smoothness_predefined(s, identity_filter(cfg.n), s, cfg, Strategy.MX)
    from specsamp import sampled_cross_correlation

    rss = sampled_cross_correlation(s, s, cfg)
    assert_allclose(design.h, 1.0 / rss, atol=1e-12)


def test_smoothness_predefined_mx_matches_dense(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(38)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    v = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    w = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_smoothness_predefined(s, v, w, cfg, Strategy.MX)
    smat = analysis(basis, s.values, cfg)
    wmat = synthesis(basis, w.values, cfg)
    wt = synthesis(basis, s.values / v.values**2, cfg)
    oracle = wmat @ np.linalg.inv(wmat.T @ wmat) @ wmat.T @ wt \
        @ np.linalg.inv(smat @ wt) @ smat
    assert np.max(np.abs(pipeline_matrix(basis, design, s, cfg) - oracle)) < 1e-9


def test_smoothness_predefined_ls_delegates_to_subspace(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(39)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    v = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    w = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    sm = design_smoothness_predefined(s, v, w, cfg, Strategy.LS)
    sub = design_subspace_predefined(s, w, w, cfg, Strategy.LS)
    assert_allclose(sm.h, sub.h)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 8), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_smoothness_designs_are_subspace_designs_with_generator_s_over_v2(k, m, seed):
    # The smoothness-prior designs are the subspace-prior closed forms
    # under the generator s / v^2, bit for bit.
    cfg = SamplingConfig(k * m, m)
    rng = np.random.default_rng(seed)
    s, v, w = (SpectralFilter(rng.uniform(0.1, 10.0, cfg.n)) for _ in range(3))
    wt = SpectralFilter(s.values / v.values**2)
    pairs = [
        (design_smoothness_unconstrained(s, v, cfg),
         design_subspace_unconstrained(s, wt, cfg, Strategy.DS)),
        (design_smoothness_predefined(s, v, w, cfg, Strategy.MX),
         design_subspace_predefined(s, wt, w, cfg, Strategy.MX)),
    ]
    for smooth, sub in pairs:
        assert np.array_equal(smooth.h, sub.h)
        assert np.array_equal(smooth.w.values, sub.w.values)


def test_reconstruct_identity_chain():
    g = gen_random_sensor(8, seed=26)
    basis = eigendecompose(combinatorial_laplacian(g))
    cfg = SamplingConfig(8, 1)
    ones = identity_filter(8)
    design = design_subspace_unconstrained(ones, ones, cfg)
    x = RNG.normal(size=8)
    chat = frequency_sample(basis, ones, x, cfg)
    assert_allclose(reconstruct(basis, design, chat), igft(basis, chat.values), atol=1e-12)


def test_full_pipeline_perfect_recovery(setup12):
    basis, cfg = setup12
    a = linear_decay(basis)
    s = inverted_ramp(basis)
    assert check_ds(s, a, cfg).holds
    design = design_subspace_unconstrained(s, a, cfg)
    model = PgsModel(a, cfg, basis)
    dhat = RNG.normal(1, 1, cfg.k)
    x = generate_pgs(model, dhat)
    xt = reconstruct(basis, design, frequency_sample(basis, s, x, cfg))
    assert np.linalg.norm(xt - x) / np.linalg.norm(x) < 1e-9


def test_pipeline_is_idempotent(setup12):
    basis, cfg = setup12
    a = linear_decay(basis)
    s = inverted_ramp(basis)
    design = design_subspace_unconstrained(s, a, cfg)
    x = RNG.normal(size=cfg.n)  # arbitrary input, not in the subspace
    xt = reconstruct(basis, design, frequency_sample(basis, s, x, cfg))
    xtt = reconstruct(basis, design, frequency_sample(basis, s, xt, cfg))
    assert np.linalg.norm(xtt - xt) / np.linalg.norm(xt) < 1e-9


def test_reconstruct_matches_dense_composition(setup12):
    basis, cfg = setup12
    rng = np.random.default_rng(40)
    s = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    a = SpectralFilter(rng.uniform(0.5, 1.5, cfg.n))
    design = design_subspace_unconstrained(s, a, cfg)
    x = rng.normal(size=cfg.n)
    dense = pipeline_matrix(basis, design, s, cfg)
    xt = reconstruct(basis, design, frequency_sample(basis, s, x, cfg))
    assert_allclose(xt, dense @ x, atol=1e-10)


def smoothness_energy(basis, v, x):
    """The quadratic form the smoothness prior bounds: sum_i v[i]^2 |xhat[i]|^2."""
    return float(np.sum(v.values**2 * np.abs(gft(basis, x)) ** 2))


def test_smoothness_energy_identity_weight_is_signal_energy(setup12):
    basis, cfg = setup12
    x = RNG.normal(size=cfg.n)
    assert smoothness_energy(basis, identity_filter(cfg.n), x) == pytest.approx(
        np.sum(x**2), rel=1e-10)


def test_smoothness_energy_sqrt_lambda_is_laplacian_form():
    g = gen_random_sensor(14, seed=27)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    v = SpectralFilter(np.sqrt(np.maximum(basis.lambdas, 0.0)))
    x = RNG.normal(size=14)
    assert smoothness_energy(basis, v, x) == pytest.approx(x @ op.matrix @ x, rel=1e-9)


def test_smoothness_energy_constant_mode_is_null():
    g = gen_random_sensor(10, seed=28)
    op = combinatorial_laplacian(g)
    basis = eigendecompose(op)
    v = SpectralFilter(np.sqrt(np.maximum(basis.lambdas, 0.0)))
    assert smoothness_energy(basis, v, basis.vectors[:, 0]) == pytest.approx(0.0, abs=1e-12)


def test_mse_db_values():
    x = np.array([1.0, 2.0, 2.0])
    assert mse_db(x, x) == -320.0
    assert mse_db(x, np.zeros(3)) == pytest.approx(0.0)
    err = x + np.array([1.0, 0.0, 0.0]) * np.sqrt(0.1 * 9)
    assert mse_db(x, err) == pytest.approx(-10.0)
    with pytest.raises(ZeroReference):
        mse_db(np.zeros(3), x)
    with pytest.raises(DimensionMismatch):
        mse_db(x, np.zeros(4))


def test_smoothness_designs_reject_zero_weight():
    cfg = SamplingConfig(3, 1)
    s = SpectralFilter(np.ones(3))
    v = SpectralFilter(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(InvalidParameter):
        design_smoothness_unconstrained(s, v, cfg)
    with pytest.raises(InvalidParameter):
        design_smoothness_predefined(s, v, s, cfg, Strategy.MX)
