import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specsamp import (
    ConnectivityFailure,
    DimensionMismatch,
    DsConditionViolated,
    NotBipartite,
    PairingFailure,
    RecoveryDesign,
    SpectralFilter,
    UnequalParts,
    bandlimit,
    build_system,
    build_wprime,
    chebyshev_fit,
    complete_bipartite,
    fit_one_branch,
    frequency_sample,
    from_response,
    gen_matched_bipartite,
    gen_random_bipartite,
    generate_one_branch,
    identity_filter,
    inverted_ramp,
    mse_db,
    one_branch_design,
    reconstruct,
    reconstruct_from_part,
    sample_first_part,
    verify_corollary1,
)
from specsamp.bipartite import _decoding_response, _step_response
from specsamp.graphs import Graph


@pytest.fixture(scope="module")
def sys16():
    return build_system(gen_random_bipartite(8, seed=41))


def _vertex_pipeline(sys_, g, wprime, x):
    """Sample by g and reconstruct by wprime, both in the vertex domain."""
    return reconstruct_from_part(sys_, wprime, sample_first_part(sys_, g, x))


@pytest.mark.parametrize("graph", [
    complete_bipartite(2),
    complete_bipartite(4),
    gen_random_bipartite(32, seed=42),
    gen_matched_bipartite(16, seed=43),
])
def test_reduction_identity_residual_small(graph):
    sys_ = build_system(graph)
    h = sys_.half
    # The residual is blind to the column signs build_system fixes.
    block = -sys_.op_b.matrix[:h, h:]
    phi, sigma, psi_t = np.linalg.svd(block)
    psi = psi_t.T
    expected = max(np.max(np.abs(phi.T @ phi - np.eye(h))),
                   np.max(np.abs(psi.T @ psi - np.eye(h))),
                   np.max(np.abs(block @ psi - phi * sigma)))
    assert sys_.residual <= 1e-10
    assert sys_.residual == expected


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


@settings(max_examples=50, deadline=None)
@given(matched=st.booleans(), n_half=st.integers(2, 40), p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(matched=False, n_half=8, p=0.5, seed=41)  # the graph of sys16
def test_reduced_basis_diagonalizes_reduced_operator(matched, n_half, p, seed):
    if matched:
        assume(n_half >= 3)
        g = gen_matched_bipartite(n_half, seed)
    else:
        try:
            g = gen_random_bipartite(n_half, seed, p)
        except ConnectivityFailure:
            reject()
    sys_ = build_system(g)
    h, m = sys_.half, sys_.op_b.matrix
    # The eliminated block is exactly I, so the Kron reduction onto the
    # first part is I - B B^T with B the block that build_system factors.
    assert np.array_equal(m[h:, h:], np.eye(h))
    schur = m[:h, :h] - m[:h, h:] @ np.linalg.solve(m[h:, h:], m[h:, :h])
    block = -m[:h, h:]
    reduced = np.eye(h) - block @ block.T
    assert_allclose(schur, reduced, rtol=0, atol=1e-12)
    phi = sys_.basis_reduced.vectors
    d = phi.T @ reduced @ phi
    assert np.max(np.abs(d - np.diag(sys_.basis_reduced.lambdas))) < 1e-10


def test_build_system_requires_bipartition():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    with pytest.raises(NotBipartite):
        build_system(Graph(4, w))


def test_build_system_validates_no_second_graph(monkeypatch):
    calls = []
    validate = Graph.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    g = gen_random_bipartite(8, seed=41)
    monkeypatch.setattr(Graph, "__post_init__", counted)
    build_system(g)
    assert calls == []


def test_build_system_requires_equal_parts():
    w = np.zeros((3, 3))
    w[0, 2] = w[2, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    g = Graph(3, w, bipartition=2)
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
    kept = sample_first_part(sys16, s, x)
    chat = frequency_sample(sys16.basis_b, s, x, sys16.cfg)
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
    x[:8] = np.random.default_rng(3).normal(size=8)
    ones = identity_filter(16)
    out = _vertex_pipeline(sys16, ones, ones, x)
    assert_allclose(out, sys16.cfg.m * x, atol=1e-10)


def test_vertex_pipeline_equals_frequency_pipeline_random_filters(sys16):
    rng = np.random.default_rng(4)
    s = SpectralFilter(rng.normal(size=16))
    w = SpectralFilter(rng.normal(size=16))
    h = rng.normal(size=8)
    x = rng.normal(size=16)
    wprime = build_wprime(w, h)
    vx = _vertex_pipeline(sys16, s, wprime, x)
    design = RecoveryDesign(h, w)
    chat = frequency_sample(sys16.basis_b, s, x, sys16.cfg)
    fx = reconstruct(sys16.basis_b, design, chat)
    assert np.max(np.abs(vx - fx)) < 1e-10


def test_vertex_pipeline_perfect_recovery_ramp_generation(sys16):
    # Half-band sampling of a full-band signal built from the ramp
    # generator: recovery needs no correction and is exact.
    a = inverted_ramp(sys16.basis_b)
    s, wprime = one_branch_design(sys16, a)
    assert np.array_equal(wprime.values, a.values)
    x = generate_one_branch(sys16, wprime, np.random.default_rng(5).normal(1, 1, sys16.half))
    decoded = _vertex_pipeline(sys16, s, wprime, x)
    rel = np.linalg.norm(decoded - x) / np.linalg.norm(x)
    assert rel < 1e-9
    again = _vertex_pipeline(sys16, bandlimit(sys16.basis_b, sys16.half),
                             build_wprime(a, np.ones(sys16.half)), x)
    assert_allclose(again, decoded, atol=1e-9)


def test_chebyshev_pipeline_constant_exact(sys16):
    x = np.random.default_rng(7).normal(size=16)
    out_exact = _vertex_pipeline(sys16, identity_filter(16), identity_filter(16), x)
    one = chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 1)
    out_cheb = _vertex_pipeline(sys16, one, one, x)
    assert_allclose(out_cheb, out_exact, atol=1e-10)


def test_chebyshev_pipeline_converges_for_smooth_responses():
    sys_ = build_system(gen_random_bipartite(16, seed=46))
    n = 32
    g_resp = lambda lam: float(np.exp(-lam))
    w_resp = lambda lam: float(np.cos(0.25 * np.pi * lam))
    x = np.random.default_rng(8).normal(size=n)
    exact = _vertex_pipeline(sys_, SpectralFilter([g_resp(l) for l in sys_.basis_b.lambdas]),
                             SpectralFilter([w_resp(l) for l in sys_.basis_b.lambdas]), x)
    approx = _vertex_pipeline(sys_, chebyshev_fit(g_resp, (0.0, 2.0), 64),
                              chebyshev_fit(w_resp, (0.0, 2.0), 64), x)
    assert np.linalg.norm(approx - exact) < 1e-6 * np.linalg.norm(x)


def _exact_roundtrip_error(sys_, a, d):
    s, wprime = one_branch_design(sys_, a)
    x = generate_one_branch(sys_, wprime, d)
    return np.linalg.norm(_vertex_pipeline(sys_, s, wprime, x) - x) / np.linalg.norm(x)


def test_one_branch_bandlimited_generator_roundtrip(sys16):
    a = from_response(sys16.basis_b, _step_response)
    d = np.random.default_rng(9).normal(1, 1, sys16.half)
    assert _exact_roundtrip_error(sys16, a, d) < 1e-9


def test_one_branch_exact_roundtrip_larger_graph():
    sys_ = build_system(gen_random_bipartite(32, seed=47))
    d = np.random.default_rng(10).normal(1, 1, 32)
    assert _exact_roundtrip_error(sys_, inverted_ramp(sys_.basis_b), d) < 1e-9


def test_one_branch_chebyshev_error_shrinks_with_order():
    sys_ = build_system(gen_matched_bipartite(32, seed=48))
    d = np.random.default_rng(11).normal(1, 1, 32)
    a = inverted_ramp(sys_.basis_b)
    x = generate_one_branch(sys_, one_branch_design(sys_, a)[1], d)
    errs = []
    for order in (4, 16, 32):
        g, w = fit_one_branch(a.response, order)
        errs.append(mse_db(x, _vertex_pipeline(sys_, g, w, x)))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


@settings(max_examples=50, deadline=None)
@given(matched=st.booleans(), n_half=st.integers(2, 40), p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1), ramp=st.booleans(), c1=st.floats(-1.0, 1.0),
       margin=st.floats(0.1, 2.0), c2=st.floats(0.0, 4.0))
def test_closed_form_one_branch_is_the_ds_design(matched, n_half, p, seed, ramp, c1,
                                                 margin, c2):
    # Under the pairing the one-branch design needs no basis: the sampling
    # filter is the step at 1 and the decoding response is
    # a(lam) / a(min(lam, 2 - lam)).
    if matched:
        assume(n_half >= 3)
        g = gen_matched_bipartite(n_half, seed)
    else:
        try:
            g = gen_random_bipartite(n_half, seed, p)
        except ConnectivityFailure:
            reject()
    sys_ = build_system(g)
    lams = sys_.basis_b.lambdas
    if ramp:
        a_resp = inverted_ramp(sys_.basis_b).response
    else:
        c0 = abs(c1) + margin
        a_resp = lambda lam: c0 + c1 * float(np.cos(c2 * lam))
    s, wprime = one_branch_design(sys_, from_response(sys_.basis_b, a_resp))
    decoding = _decoding_response(a_resp)
    assert_allclose([decoding(lam) for lam in lams], wprime.values, rtol=1e-12, atol=0)
    off_cut = lams != 1.0
    step = np.array([_step_response(lam) for lam in lams])
    assert np.array_equal(step[off_cut], s.values[off_cut])


@pytest.mark.parametrize("a_resp", [lambda lam: 0.0 if lam <= 1.0 else 1.0,
                                    lambda lam: lam],
                         ids=["vanishing-on-lower-half", "vanishing-at-0"])
def test_fit_one_branch_rejects_vanishing_generator(a_resp):
    with pytest.raises(DsConditionViolated):
        fit_one_branch(a_resp, 4)


@pytest.mark.parametrize("factor", ["phi", "psi"])
def test_build_system_checks_the_svd_it_takes(monkeypatch, factor):
    svd = np.linalg.svd

    def corrupted(a, *args, **kwargs):
        u, sigma, vt = svd(a, *args, **kwargs)
        if factor == "phi":
            u[:, 0] += 1e-6
        else:
            vt[0, :] += 1e-6  # row 0 of Psi^T is column 0 of Psi
        return u, sigma, vt

    monkeypatch.setattr(np.linalg, "svd", corrupted)
    with pytest.raises(PairingFailure):
        build_system(gen_random_bipartite(8, seed=41))


@pytest.mark.parametrize("kind", ["exact", "chebyshev"])
def test_vertex_steps_reject_wrong_length_signals(sys16, kind):
    f = (identity_filter(16) if kind == "exact"
         else chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 3))
    with pytest.raises(DimensionMismatch):
        sample_first_part(sys16, f, np.ones(15))
    with pytest.raises(DimensionMismatch):
        reconstruct_from_part(sys16, f, np.ones(7))
    with pytest.raises(DimensionMismatch):
        sample_first_part(sys16, f, np.ones(17))
    with pytest.raises(DimensionMismatch):
        generate_one_branch(sys16, f, np.ones(7))
