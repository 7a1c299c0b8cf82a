from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse import csr_array

from specsamp import (
    BipartiteSystem,
    ConnectivityFailure,
    DimensionMismatch,
    DsConditionViolated,
    EigensolveFailure,
    IntervalMismatch,
    NotBipartite,
    PairingFailure,
    RecoveryDesign,
    SpectralFilter,
    UnequalParts,
    VariationOperator,
    apply_chebyshev,
    bandlimit,
    build_system,
    chebyshev_fit,
    complete_bipartite,
    design_subspace_unconstrained,
    eigendecompose,
    fit_one_branch,
    frequency_sample,
    from_response,
    gen_matched_bipartite,
    gen_random_bipartite,
    identity_filter,
    inverted_ramp,
    mse_db,
    normalized_laplacian,
    one_branch_design,
    reconstruct,
    reconstruct_from_part,
    sample_first_part,
    verify_corollary1,
)
from specsamp import bipartite
from specsamp.bipartite import _RESIDUAL_TOL, _sigma_min_bound, _step_response
from specsamp.chebyshev import stack
from specsamp.graphs import Graph, _dense


@pytest.fixture(scope="module")
def sys16():
    return build_system(gen_random_bipartite(8, seed=41))


def _vertex_pipeline(sys_, g, wprime, x):
    """Sample by g and reconstruct by wprime, both in the vertex domain."""
    return reconstruct_from_part(sys_, wprime, sample_first_part(sys_, g, x))


def _bipartite_graph(matched, n_half, p, seed):
    """A matched or Bernoulli(p) bipartite graph, or a rejected example."""
    if matched:
        assume(n_half >= 3)
        return gen_matched_bipartite(n_half, seed)
    try:
        return gen_random_bipartite(n_half, seed, p)
    except ConnectivityFailure:
        reject()


@pytest.mark.parametrize("graph", [
    complete_bipartite(2),
    complete_bipartite(4),
    gen_random_bipartite(32, seed=42),
    gen_matched_bipartite(16, seed=43),
])
def test_reduction_identity_residual_small(graph):
    sys_ = build_system(graph)
    h = sys_.half
    # The residual of the factors build_system keeps, whichever way it took them.
    block = -_dense(sys_.op_b.matrix)[:h, h:]
    phi, psi, sigma = sys_.phi, sys_.psi, 1.0 - sys_.basis_b.lambdas[:h]
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
    d = u.T @ _dense(sys16.op_b.matrix) @ u
    assert np.max(np.abs(d - np.diag(sys16.basis_b.lambdas))) < 1e-10


@settings(max_examples=50, deadline=None)
@given(matched=st.booleans(), n_half=st.integers(2, 40), p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(matched=False, n_half=8, p=0.5, seed=41)  # the graph of sys16
def test_reduced_basis_diagonalizes_reduced_operator(matched, n_half, p, seed):
    sys_ = build_system(_bipartite_graph(matched, n_half, p, seed))
    h, m = sys_.half, _dense(sys_.op_b.matrix)
    # The eliminated block is exactly I, so the Kron reduction onto the
    # first part is I - B B^T with B the block that build_system factors.
    assert np.array_equal(m[h:, h:], np.eye(h))
    schur = m[:h, :h] - m[:h, h:] @ np.linalg.solve(m[h:, h:], m[h:, :h])
    block = -m[:h, h:]
    reduced = np.eye(h) - block @ block.T
    assert_allclose(schur, reduced, rtol=0, atol=1e-12)
    # The reduced basis is sqrt(2) times the top-left block of the paired one.
    phi = np.sqrt(2.0) * sys_.basis_b.vectors[:h, :h]
    d = phi.T @ reduced @ phi
    lam_low = sys_.basis_b.lambdas[:h]
    assert np.max(np.abs(d - np.diag(1.0 - (1.0 - lam_low) ** 2))) < 1e-10


def test_build_system_requires_bipartition():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    with pytest.raises(NotBipartite):
        build_system(Graph(w))


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
    g = Graph(w, bipartition=2)
    with pytest.raises(UnequalParts):
        build_system(g)


def test_system_derives_its_sampling_setup(sys16):
    assert [f.name for f in fields(BipartiteSystem)] == ["op_b", "phi", "psi", "basis_b",
                                                  "residual"]
    for sys_, n in ((sys16, 16), (build_system(complete_bipartite(2)), 4)):
        assert sys_.op_b.n == n
        assert (sys_.half, sys_.cfg.n, sys_.cfg.m, sys_.cfg.k) == (n // 2, n, 2, n // 2)


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
    phi = np.sqrt(2.0) * sys16.basis_b.vectors[:sys16.half, :sys16.half]
    bridged = phi @ (chat.values / np.sqrt(2.0))
    assert_allclose(kept, bridged, atol=1e-10)


def test_vertex_pipeline_identity_filters_scale_by_ratio(sys16):
    # Masking alone returns a first-part-supported signal unchanged; the
    # pipeline's ratio gain (which aligns it with the frequency-domain
    # chain) makes the identity-filter case come out scaled by M.
    x = np.zeros(16)
    x[:8] = np.random.default_rng(3).normal(size=8)
    ones = identity_filter(16)
    out = _vertex_pipeline(sys16, ones, ones, x)
    assert_allclose(out, sys16.cfg.m * x, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(matched=st.booleans(), n_half=st.integers(2, 40), p=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 2**32 - 1))
@example(matched=False, n_half=8, p=0.5, seed=41, draw=4)  # the graph of sys16
def test_vertex_pipeline_equals_frequency_pipeline_random_filters(matched, n_half, p, seed,
                                                                  draw):
    sys_ = build_system(_bipartite_graph(matched, n_half, p, seed))
    rng = np.random.default_rng(draw)
    n = sys_.cfg.n
    s = SpectralFilter(rng.normal(size=n))
    w = SpectralFilter(rng.normal(size=n))
    h = rng.normal(size=n_half)
    x = rng.normal(size=n)
    vx = _vertex_pipeline(sys_, s, SpectralFilter(w.values * np.tile(h, 2)), x)
    chat = frequency_sample(sys_.basis_b, s, x, sys_.cfg)
    fx = reconstruct(sys_.basis_b, RecoveryDesign(h, w), chat)
    assert np.max(np.abs(vx - fx)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["matched", "random", "complete"]), n_half=st.integers(2, 24),
       p=st.floats(0.3, 1.0), seed=st.integers(0, 2**32 - 1), draw=st.integers(0, 2**32 - 1),
       trials=st.sampled_from([None, 1, 3]), is_complex=st.booleans())
@example(family="complete", n_half=4, p=1.0, seed=0, draw=0, trials=3, is_complex=True)
def test_exact_vertex_steps_equal_the_dense_paired_product(family, n_half, p, seed, draw,
                                                           trials, is_complex):
    # The steps go through Phi and Psi; the oracle is U diag(f) U^T x on the
    # paired basis's vectors. K_{n,n} ties lambda = 1 across 2n - 2 vectors.
    sys_ = build_system(complete_bipartite(n_half) if family == "complete"
                        else _bipartite_graph(family == "matched", n_half, p, seed))
    rng = np.random.default_rng(draw)
    n, half = sys_.cfg.n, sys_.half
    f = SpectralFilter(rng.normal(size=n))

    def signal(rows):
        shape = (rows,) if trials is None else (rows, trials)
        v = rng.normal(size=shape)
        return v + 1j * rng.normal(size=shape) if is_complex else v

    x, part = signal(n), signal(half)
    u = sys_.basis_b.vectors

    def dense(v):
        return u @ (f.values.reshape(-1, *[1] * (v.ndim - 1)) * (u.T @ v))

    assert_allclose(sample_first_part(sys_, f, x), dense(x)[:half], rtol=0, atol=1e-12)
    assert_allclose(reconstruct_from_part(sys_, f, part),
                    sys_.cfg.m * dense(np.concatenate([part, np.zeros_like(part)])),
                    rtol=0, atol=1e-12)


def test_vertex_pipeline_perfect_recovery_ramp_generation(sys16):
    # Half-band sampling of a full-band signal built from the ramp
    # generator: recovery needs no correction and is exact.
    a = inverted_ramp(sys16.basis_b)
    s, wprime = one_branch_design(sys16, a.response)
    assert np.array_equal(wprime.values, a.values)
    x = reconstruct_from_part(sys16, wprime, np.random.default_rng(5).normal(1, 1, sys16.half))
    decoded = _vertex_pipeline(sys16, s, wprime, x)
    rel = np.linalg.norm(decoded - x) / np.linalg.norm(x)
    assert rel < 1e-9
    again = _vertex_pipeline(sys16, bandlimit(sys16.basis_b, sys16.half), a, x)
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


def _exact_roundtrip_error(sys_, a_resp, d):
    s, wprime = one_branch_design(sys_, a_resp)
    x = reconstruct_from_part(sys_, wprime, d)
    return np.linalg.norm(_vertex_pipeline(sys_, s, wprime, x) - x) / np.linalg.norm(x)


def test_one_branch_bandlimited_generator_roundtrip(sys16):
    d = np.random.default_rng(9).normal(1, 1, sys16.half)
    assert _exact_roundtrip_error(sys16, _step_response, d) < 1e-9


def test_one_branch_exact_roundtrip_larger_graph():
    sys_ = build_system(gen_random_bipartite(32, seed=47))
    d = np.random.default_rng(10).normal(1, 1, 32)
    assert _exact_roundtrip_error(sys_, inverted_ramp(sys_.basis_b).response, d) < 1e-9


def test_one_branch_exact_roundtrip_with_tied_unit_frequencies():
    # K_{4,4}: B has three zero singular values, so each half holds three
    # lambda = 1 vectors. The exact design's index bandlimit keeps the lower
    # three and recovery is exact; the step at 1 (lambda < 1) sampled at the
    # paired frequencies drops them, and recovery fails.
    sys_ = build_system(complete_bipartite(4))
    assert np.count_nonzero(sys_.basis_b.lambdas == 1.0) == 6
    a = inverted_ramp(sys_.basis_b)
    d = np.random.default_rng(12).normal(1, 1, (sys_.half, 3))
    assert _exact_roundtrip_error(sys_, a.response, d) < 1e-9
    wprime = one_branch_design(sys_, a.response)[1]
    x = reconstruct_from_part(sys_, wprime, d)
    step = from_response(sys_.basis_b, _step_response)
    assert np.linalg.norm(_vertex_pipeline(sys_, step, wprime, x) - x) > 0.1 * np.linalg.norm(x)


def test_one_branch_chebyshev_error_shrinks_with_order():
    sys_ = build_system(gen_matched_bipartite(32, seed=48))
    d = np.random.default_rng(11).normal(1, 1, 32)
    a = inverted_ramp(sys_.basis_b)
    x = reconstruct_from_part(sys_, one_branch_design(sys_, a.response)[1], d)
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
    # a(lam) / a(min(lam, 2 - lam)). The oracle is the generic unconstrained
    # DS design on the paired basis, combined as a * tile(1 / R_sa, 2).
    sys_ = build_system(_bipartite_graph(matched, n_half, p, seed))
    lams = sys_.basis_b.lambdas
    if ramp:
        a_resp = inverted_ramp(sys_.basis_b).response
    else:
        c0 = abs(c1) + margin
        a_resp = lambda lam: c0 + c1 * float(np.cos(c2 * lam))
    s, wprime = one_branch_design(sys_, a_resp)
    a = from_response(sys_.basis_b, a_resp)
    design = design_subspace_unconstrained(bandlimit(sys_.basis_b, n_half), a, sys_.cfg)
    assert_allclose(wprime.values, a.values * np.tile(design.h, 2), rtol=1e-12, atol=0)
    assert np.array_equal(s.values, bandlimit(sys_.basis_b, n_half).values)
    off_cut = lams != 1.0
    step = np.array([_step_response(lam) for lam in lams])
    assert np.array_equal(step[off_cut], s.values[off_cut])


@pytest.mark.parametrize("a_resp", [lambda lam: 0.0 if lam <= 1.0 else 1.0,
                                    lambda lam: lam],
                         ids=["vanishing-on-lower-half", "vanishing-at-0"])
def test_fit_one_branch_rejects_vanishing_generator(a_resp):
    with pytest.raises(DsConditionViolated):
        fit_one_branch(a_resp, 4)


def test_one_branch_design_rejects_vanishing_generator(sys16):
    # The exact path raises where the fit does: at a folded value of 0.
    with pytest.raises(DsConditionViolated):
        one_branch_design(sys16, lambda lam: 0.0 if lam <= 1.0 else 1.0)


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


@pytest.mark.parametrize("part", ["vectors", "values", "nan"])
def test_build_system_checks_the_eigh_factors_it_takes(monkeypatch, part):
    # A matched graph has a certified sigma_min, so it takes eigh(B B^T).
    # A NaN sigma makes Psi's column and two of the three residuals NaN.
    eigh = np.linalg.eigh

    def corrupted(a, *args, **kwargs):
        mu, phi = eigh(a, *args, **kwargs)
        if part == "vectors":
            phi[:, -1] += 1e-6
        else:
            mu[-1] += 1e-6 if part == "values" else np.nan
        return mu, phi

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(PairingFailure):
        build_system(gen_matched_bipartite(8, seed=41))


def test_build_system_reports_an_eigensolver_that_does_not_converge(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolveFailure, match="did not converge"):
        build_system(gen_matched_bipartite(8, seed=41))


# At (4, 3145121) the exact bound is sigma_min(B) itself, 0.5, and the SVD
# reads 0.49999999999999983.
@settings(max_examples=50, deadline=None)
@given(n_half=st.integers(3, 64), seed=st.integers(0, 2**32 - 1))
@example(n_half=4, seed=3145121)
def test_sigma_min_certificate_is_a_positive_lower_bound(n_half, seed):
    g = gen_matched_bipartite(n_half, seed)
    block = -_dense(normalized_laplacian(g).matrix)[:n_half, n_half:]
    assert 0.0 < _sigma_min_bound(g) <= np.linalg.svd(block, compute_uv=False).min()


def test_sparse_uncertified_block_is_densified_for_one_svd(monkeypatch):
    # 5.96% nonzero, so the operator is CSR; no dominant matching, so no
    # certificate: the CSR cross block is densified for the SVD.
    g = gen_random_bipartite(64, 0, 0.1)
    assert _sigma_min_bound(g) == 0.0
    calls = []
    for name in ("eigh", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    sys_ = build_system(g)
    assert calls == ["svd"]
    assert isinstance(sys_.op_b.matrix, csr_array)
    assert sys_.residual <= 1e-10


def test_build_system_forms_no_dense_operator_on_a_sparse_graph():
    sys_ = build_system(gen_matched_bipartite(512, 7))
    assert isinstance(sys_.op_b.matrix, csr_array)


# Every step that reads a CSR-built operator, the eigendecomposition too,
# leaves it holding its one csr_array: no dense copy is kept on it.
def test_a_csr_operator_keeps_its_matrix_through_every_step(monkeypatch):
    g = gen_matched_bipartite(64, 1)
    op = normalized_laplacian(g)
    m = op.matrix
    assert isinstance(m, csr_array)
    monkeypatch.setattr(bipartite, "normalized_laplacian", lambda graph: op)
    sys_ = build_system(g)
    assert sys_.op_b is op
    cf = chebyshev_fit(lambda lam: np.exp(-lam), (0.0, 2.0), 4)
    apply_chebyshev(op, cf, np.ones(128))
    reconstruct_from_part(sys_, cf, np.ones(64))
    basis = eigendecompose(op)
    assert op.matrix is m and list(vars(op)) == ["matrix"]
    dense = eigendecompose(VariationOperator(m.toarray()))
    assert basis.lambdas.tobytes() == dense.lambdas.tobytes()
    assert basis.vectors.tobytes() == dense.vectors.tobytes()


# With 20 to 29 vertices per part the Laplacian, 8 N/2 nonzeros, is at most
# 10% nonzero and so CSR, but its cross block, 3 per row, is more than 10%
# nonzero. The certified block goes into eigh(B B^T) in CSR as it is.
@pytest.mark.parametrize("n_half", range(20, 30))
def test_a_csr_block_denser_than_the_cut_is_factored_by_eigh(monkeypatch, n_half):
    g = gen_matched_bipartite(n_half, n_half)
    block = -_dense(normalized_laplacian(g).matrix)[:n_half, n_half:]
    assert np.count_nonzero(block) > 0.1 * n_half * n_half
    calls = []
    for name in ("eigh", "svd"):
        def spy(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    sys_ = build_system(g)
    monkeypatch.undo()
    assert calls == ["eigh"]
    assert isinstance(sys_.op_b.matrix, csr_array)
    assert sys_.residual <= _RESIDUAL_TOL
    sigma = 1.0 - sys_.basis_b.lambdas[:n_half]
    assert_allclose(sigma, np.linalg.svd(block, compute_uv=False), rtol=0, atol=1e-12)


def test_graphs_without_a_dominant_matching_have_no_certificate():
    assert _sigma_min_bound(complete_bipartite(4)) == 0.0
    assert _sigma_min_bound(gen_random_bipartite(8, seed=41)) == 0.0


@pytest.mark.parametrize("kind", ["exact", "chebyshev"])
def test_vertex_steps_reject_wrong_length_signals(sys16, kind):
    # The random graph's operator is dense; the matched graph's, 64 vertices
    # per part, is CSR.
    for sys_ in (sys16, build_system(gen_matched_bipartite(64, 1))):
        n = sys_.op_b.n
        f = (identity_filter(n) if kind == "exact"
             else chebyshev_fit(lambda lam: 1.0, (0.0, 2.0), 3))
        with pytest.raises(DimensionMismatch):
            sample_first_part(sys_, f, np.ones(n - 1))
        with pytest.raises(DimensionMismatch):
            reconstruct_from_part(sys_, f, np.ones(n // 2 - 1))
        with pytest.raises(DimensionMismatch):
            sample_first_part(sys_, f, np.ones(n + 1))
        # Signals of another rank: (N,) and (N, T) only.
        for length, step in ((n, sample_first_part), (n // 2, reconstruct_from_part)):
            for bad in (np.ones((length, 2, 2)), np.float64(1.0)):
                with pytest.raises(DimensionMismatch):
                    step(sys_, f, bad)


def _padded_reference(sys_, cf, kept):
    """M times the recurrence on the kept part zero-padded to N, the full-size
    form the reconstruction's half-size recurrence must equal."""
    return sys_.cfg.m * apply_chebyshev(sys_.op_b, cf, np.concatenate([kept, np.zeros_like(kept)]))


# The reconstruction's recurrence takes the product matrix's cross blocks on
# half-size terms. On a CSR operator each block row sums the same entries in
# the same order as the full row, with the zero half's terms left out, so
# the result is bit for bit the padded recurrence's; a dense block is a
# strided BLAS product that may sum in another order.
@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["matched", "random"]), n_half=st.integers(3, 80),
       seed=st.integers(0, 2**32 - 1),
       orders=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       trials=st.sampled_from([None, 1, 3]), complex_input=st.booleans())
@example(kind="matched", n_half=64, seed=1, orders=[8, 3], trials=2, complex_input=True)
@example(kind="random", n_half=64, seed=0, orders=[5], trials=None, complex_input=False)
def test_parity_reconstruction_equals_the_padded_recurrence(kind, n_half, seed, orders,
                                                           trials, complex_input):
    try:
        g = (gen_matched_bipartite(n_half, seed) if kind == "matched"
             else gen_random_bipartite(n_half, seed, 0.1 if n_half >= 40 else 0.5))
    except ConnectivityFailure:
        reject()
    sys_ = build_system(g)
    rng = np.random.default_rng(seed)
    shape = (n_half,) if trials is None else (n_half, trials)
    kept = rng.normal(size=shape)
    if complex_input:
        kept = kept + 1j * rng.normal(size=shape)
    fits = [chebyshev_fit(lambda lam, o=o: np.exp(-o * lam), (0.0, 2.0), o) for o in orders]
    for cf in (fits[0], stack(fits)):
        got = reconstruct_from_part(sys_, cf, kept)
        want = _padded_reference(sys_, cf, kept)
        assert got.shape == want.shape and got.dtype == want.dtype
        if isinstance(sys_.op_b.matrix, csr_array):
            assert np.array_equal(got, want)
        else:
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("interval", [(0.0, 2.5), (0.0, 1.9), (-0.5, 2.0)])
def test_vertex_steps_take_only_fits_on_the_normalized_interval(sys16, interval):
    cf = chebyshev_fit(lambda lam: 1.0, interval, 3)
    with pytest.raises(IntervalMismatch):
        sample_first_part(sys16, cf, np.ones(16))
    with pytest.raises(IntervalMismatch):
        reconstruct_from_part(sys16, cf, np.ones(8))
