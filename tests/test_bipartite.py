import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsamp import (
    DimensionMismatch,
    Mode,
    NotBipartite,
    RecoveryDesign,
    SpectralFilter,
    Strategy,
    UnequalParts,
    bandlimit,
    bandlimit_response,
    build_system,
    build_wprime,
    chebyshev_fit,
    complete_bipartite,
    frequency_sample,
    gen_matched_bipartite,
    gen_random_bipartite,
    identity_filter,
    inverted_ramp,
    mse_db,
    one_branch_roundtrip,
    reconstruct,
    reduction_identity_residual,
    sample_first_part,
    verify_corollary1,
    vertex_pipeline,
)
from specsamp.graphs import Graph


@pytest.fixture(scope="module")
def sys16():
    return build_system(gen_random_bipartite(8, seed=41))


@pytest.mark.parametrize("graph", [
    complete_bipartite(2),
    complete_bipartite(4),
    gen_random_bipartite(32, seed=42),
    gen_matched_bipartite(16, seed=43),
])
def test_reduction_identity_residual_small(graph):
    sys_ = build_system(graph)
    assert reduction_identity_residual(sys_) < 1e-10


def test_paired_spectrum_mirror(sys16):
    lam = sys16.basis_b.lambdas
    k = sys16.half
    assert_allclose(lam[k:], 2.0 - lam[:k], atol=1e-12)
    assert np.all(lam[:k] <= 1.0 + 1e-12)


def test_paired_basis_is_orthonormal_and_diagonalizes(sys16):
    u = sys16.basis_b.vectors
    n = sys16.cfg.n
    assert_allclose(u.T @ u, np.eye(n), atol=1e-10)
    d = u.T @ sys16.op_b.matrix @ u
    assert np.max(np.abs(d - np.diag(sys16.basis_b.lambdas))) < 1e-10


def test_reduced_basis_diagonalizes_reduced_operator(sys16):
    phi = sys16.basis_reduced.vectors
    d = phi.T @ sys16.reduced_op.matrix @ phi
    assert np.max(np.abs(d - np.diag(sys16.basis_reduced.lambdas))) < 1e-10


def test_build_system_requires_bipartition():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    with pytest.raises(NotBipartite):
        build_system(Graph(4, w))


def test_build_system_requires_equal_parts():
    w = np.zeros((3, 3))
    w[0, 2] = w[2, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    g = Graph(3, w, bipartition=(np.array([0, 1]), np.array([2])))
    with pytest.raises(UnequalParts):
        build_system(g)


def test_corollary_identity_filter_reduces_to_plain_sampling(sys16):
    x = np.random.default_rng(0).normal(size=16)
    assert verify_corollary1(sys16, identity_filter(16), x) < 1e-10


def test_corollary_bandlimited_filter():
    sys_ = build_system(complete_bipartite(4))
    x = np.random.default_rng(1).normal(size=8)
    s = bandlimit(sys_.basis_b, 4)
    assert verify_corollary1(sys_, s, x) < 1e-9


def test_corollary_ramp_filter_larger_graph():
    sys_ = build_system(gen_random_bipartite(32, seed=44))
    x = np.random.default_rng(2).normal(size=64)
    assert verify_corollary1(sys_, inverted_ramp(sys_.basis_b), x) < 1e-8


def test_vertex_sample_matches_reduced_spectrum_view(sys16):
    # Keeping the first part of a filtered signal is the reduced-graph GFT
    # of the energy-normalized folded spectrum.
    x = np.random.default_rng(13).normal(size=16)
    s = inverted_ramp(sys16.basis_b)
    x_int = sys16.to_internal(x)
    kept = sample_first_part(sys16, s, x_int)
    chat = frequency_sample(sys16.basis_b, s, x_int, sys16.cfg)
    bridged = sys16.basis_reduced.vectors @ (chat.values / np.sqrt(2.0))
    assert_allclose(kept, bridged, atol=1e-10)


def test_build_wprime_passthrough(sys16):
    w = inverted_ramp(sys16.basis_b)
    combined = build_wprime(w, np.ones(sys16.half))
    assert_allclose(combined.values, w.values)


def test_build_wprime_tiles_correction():
    w = identity_filter(4)
    combined = build_wprime(w, np.array([2.0, 3.0]))
    assert_allclose(combined.values, [2.0, 3.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        build_wprime(w, np.array([1.0]))


def test_vertex_pipeline_identity_filters_scale_by_ratio(sys16):
    # Masking alone returns a first-part-supported signal unchanged; the
    # pipeline's ratio gain (which aligns it with the frequency-domain
    # chain) makes the identity-filter case come out scaled by M.
    x = np.zeros(16)
    v1 = np.sort(sys16.graph.bipartition[0])
    x[v1] = np.random.default_rng(3).normal(size=8)
    ones = identity_filter(16)
    out = vertex_pipeline(sys16, ones, ones, x)
    assert_allclose(out, sys16.cfg.m * x, atol=1e-10)


def test_vertex_pipeline_equals_frequency_pipeline_random_filters(sys16):
    rng = np.random.default_rng(4)
    s = SpectralFilter(rng.normal(size=16))
    w = SpectralFilter(rng.normal(size=16))
    h = rng.normal(size=8)
    x = rng.normal(size=16)
    wprime = build_wprime(w, h)
    vx = vertex_pipeline(sys16, s, wprime, x)
    design = RecoveryDesign(h, w, Strategy.DS, Mode.PREDEFINED)
    x_int = sys16.to_internal(x)
    chat = frequency_sample(sys16.basis_b, s, x_int, sys16.cfg)
    fx = sys16.to_caller(reconstruct(sys16.basis_b, design, chat))
    assert np.max(np.abs(vx - fx)) < 1e-10


def test_vertex_pipeline_perfect_recovery_ramp_generation(sys16):
    # Half-band sampling of a full-band signal built from the ramp
    # generator: recovery needs no correction and is exact.
    res = one_branch_roundtrip(sys16, inverted_ramp(sys16.basis_b).response,
                               np.random.default_rng(5).normal(1, 1, sys16.half))
    assert_allclose(res.design.h, np.ones(sys16.half), atol=1e-12)
    rel = np.linalg.norm(res.decoded - res.original) / np.linalg.norm(res.original)
    assert rel < 1e-9
    s = bandlimit(sys16.basis_b, sys16.half)
    wprime = build_wprime(res.design.w, res.design.h)
    again = vertex_pipeline(sys16, s, wprime, res.original)
    assert_allclose(again, res.decoded, atol=1e-9)


def test_vertex_pipeline_caller_ordering_preserved():
    # Same graph with shuffled vertex labels: outputs must follow the labels.
    base = gen_random_bipartite(6, seed=45)
    rng = np.random.default_rng(6)
    relabel = rng.permutation(12)
    w_new = base.weights[np.ix_(relabel, relabel)]
    inv = np.empty(12, dtype=int)
    inv[relabel] = np.arange(12)
    v1_new = np.sort(inv[base.bipartition[0]])
    v2_new = np.sort(inv[base.bipartition[1]])
    shuffled = Graph(12, w_new, bipartition=(v1_new, v2_new))

    sys_a = build_system(base)
    sys_b = build_system(shuffled)
    x = rng.normal(size=12)
    s = inverted_ramp(sys_a.basis_b)
    wprime = build_wprime(inverted_ramp(sys_a.basis_b), np.ones(6))
    out_a = vertex_pipeline(sys_a, s, wprime, x)
    s_b = inverted_ramp(sys_b.basis_b)
    wprime_b = build_wprime(inverted_ramp(sys_b.basis_b), np.ones(6))
    out_b = vertex_pipeline(sys_b, s_b, wprime_b, x[relabel])
    assert_allclose(out_b, out_a[relabel], atol=1e-9)


def test_chebyshev_pipeline_constant_exact(sys16):
    x = np.random.default_rng(7).normal(size=16)
    out_exact = vertex_pipeline(sys16, identity_filter(16), identity_filter(16), x)
    one = chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 1)
    out_cheb = vertex_pipeline(sys16, one, one, x)
    assert_allclose(out_cheb, out_exact, atol=1e-10)


def test_chebyshev_pipeline_converges_for_smooth_responses():
    sys_ = build_system(gen_random_bipartite(16, seed=46))
    n = 32
    g_resp = lambda lam: float(np.exp(-lam))
    w_resp = lambda lam: float(np.cos(0.25 * np.pi * lam))
    x = np.random.default_rng(8).normal(size=n)
    exact = vertex_pipeline(sys_, SpectralFilter([g_resp(l) for l in sys_.basis_b.lambdas]),
                            SpectralFilter([w_resp(l) for l in sys_.basis_b.lambdas]), x)
    approx = vertex_pipeline(sys_, chebyshev_fit(g_resp, (0.0, 2.0), 64),
                             chebyshev_fit(w_resp, (0.0, 2.0), 64), x)
    assert np.linalg.norm(approx - exact) < 1e-6 * np.linalg.norm(x)


def test_one_branch_bandlimited_generator_roundtrip(sys16):
    resp = bandlimit_response(sys16.basis_b, sys16.half)
    d = np.random.default_rng(9).normal(1, 1, sys16.half)
    res = one_branch_roundtrip(sys16, resp, d)
    rel = np.linalg.norm(res.decoded - res.original) / np.linalg.norm(res.original)
    assert rel < 1e-9


def test_one_branch_exact_roundtrip_larger_graph():
    sys_ = build_system(gen_random_bipartite(32, seed=47))
    d = np.random.default_rng(10).normal(1, 1, 32)
    res = one_branch_roundtrip(sys_, inverted_ramp(sys_.basis_b).response, d)
    rel = np.linalg.norm(res.decoded - res.original) / np.linalg.norm(res.original)
    assert rel < 1e-9


def test_one_branch_chebyshev_error_shrinks_with_order():
    sys_ = build_system(gen_matched_bipartite(32, seed=48))
    d = np.random.default_rng(11).normal(1, 1, 32)
    resp = inverted_ramp(sys_.basis_b).response
    errs = []
    for order in (4, 16, 32):
        res = one_branch_roundtrip(sys_, resp, d, order=order)
        errs.append(mse_db(res.original, res.decoded))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]
