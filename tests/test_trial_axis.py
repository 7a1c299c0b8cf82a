"""A trailing trial axis gives the same result as stacking 1-D calls.

Every batched primitive takes a signal or spectrum of shape (N,) or
(N, T); here each is checked against its column-by-column 1-D calls for
random T, T == N included, since a product broadcast along the wrong axis
only raises when T != N.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specsamp import (
    PgsModel,
    SampledSpectrum,
    SamplingConfig,
    apply_chebyshev,
    apply_filter,
    build_system,
    chebyshev_fit,
    combinatorial_laplacian,
    design_subspace_unconstrained,
    dft_basis,
    eigendecompose,
    frequency_sample,
    gen_random_bipartite,
    gen_random_sensor,
    generate_pgs,
    gft,
    igft,
    inverted_ramp,
    linear_decay,
    normalized_laplacian,
    reconstruct,
    spectral_fold,
    spectral_upsample,
    vertex_pipeline,
)

N = 16
CFG = SamplingConfig(N, 4)
SENSOR = gen_random_sensor(N, seed=5)
BASES = {"sensor": eigendecompose(combinatorial_laplacian(SENSOR)), "dft": dft_basis(N)}
SYSTEM = build_system(gen_random_bipartite(N // 2, seed=41))

trials = settings(max_examples=20, deadline=None)
draws = dict(t=st.integers(1, 2 * N), seed=st.integers(0, 2**32 - 1),
             kind=st.sampled_from(sorted(BASES)))


def _signals(seed, rows, t, complex_=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, t))
    return x + 1j * rng.normal(size=(rows, t)) if complex_ else x


def _columnwise(fn, x):
    return np.stack([fn(x[:, j]) for j in range(x.shape[1])], axis=-1)


def _same(fn, x):
    batched = fn(x)
    assert batched.shape[:2] == (fn(x[:, 0]).shape[0], x.shape[1])
    assert_allclose(batched, _columnwise(fn, x), rtol=1e-12, atol=1e-12)


@trials
@given(**draws)
@example(t=N, seed=0, kind="sensor")
@example(t=N, seed=0, kind="dft")
def test_transforms(t, seed, kind):
    basis = BASES[kind]
    x = _signals(seed, N, t, complex_=kind == "dft")
    f = inverted_ramp(basis)
    _same(lambda v: gft(basis, v), x)
    _same(lambda v: igft(basis, v), x)
    _same(lambda v: apply_filter(basis, f, v), x)


@trials
@given(**draws)
@example(t=N, seed=0, kind="sensor")
def test_fold_and_upsample(t, seed, kind):
    _same(lambda v: spectral_fold(v, CFG).values, _signals(seed, N, t))
    _same(lambda v: spectral_upsample(v, CFG), _signals(seed, CFG.k, t))


@trials
@given(**draws)
@example(t=N, seed=0, kind="sensor")
@example(t=N, seed=0, kind="dft")
def test_sampling_chain(t, seed, kind):
    basis = BASES[kind]
    s, a = inverted_ramp(basis), linear_decay(basis)
    model = PgsModel(a, CFG, basis)
    design = design_subspace_unconstrained(s, a, CFG)
    d = _signals(seed, CFG.k, t)
    _same(lambda v: generate_pgs(model, v), d)
    x = generate_pgs(model, d)
    _same(lambda v: frequency_sample(basis, s, v, CFG).values, x)
    _same(lambda v: reconstruct(basis, design, SampledSpectrum(v, CFG)),
          frequency_sample(basis, s, x, CFG).values)


@trials
@given(**draws)
@example(t=N, seed=0, kind="sensor")
def test_chebyshev_and_vertex_pipeline(t, seed, kind):
    x = _signals(seed, N, t)
    cf = chebyshev_fit(lambda lam: np.exp(-lam), (0.0, 2.0), 6)
    op = normalized_laplacian(SENSOR)
    _same(lambda v: apply_chebyshev(op, cf, v, lambda_max=2.0), x)
    g = inverted_ramp(SYSTEM.basis_b)
    w = linear_decay(SYSTEM.basis_b)
    _same(lambda v: vertex_pipeline(SYSTEM, g, w, v), x)
