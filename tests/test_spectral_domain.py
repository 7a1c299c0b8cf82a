"""The recovery pipeline in the graph frequency domain.

The public vertex-domain functions are transforms of their spectral halves,
bit for bit; the recovery experiments score each trial between spectra, and
by Parseval that error equals the vertex-domain one on every basis here
(Laplacian eigenbases and the unitary DFT basis). A run transforms only its
noise block.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from specsamp import (
    DimensionMismatch,
    PgsModel,
    SamplingConfig,
    combinatorial_laplacian,
    cosine_taper,
    design_subspace_predefined,
    design_subspace_unconstrained,
    dft_basis,
    eigendecompose,
    frequency_sample,
    gen_random_sensor,
    generate_pgs,
    gft,
    igft,
    inverted_ramp,
    linear_decay,
    pgs_spectrum,
    reconstruct,
    reconstruct_spectrum,
    sample_spectrum,
    spectral,
    spectral_fold,
)
from specsamp.experiments import (
    FILTERS,
    GENERATOR_IDS,
    SAMPLING_IDS,
    TABLE_METHODS,
    ExperimentConfig,
    _draw_trials,
    _trial_group,
    basis_for_config,
    build_experiment_graph,
    design_for_config,
    report_rows,
    run_recovery_table,
)

# (N, M) with M dividing N, M = 1 and M = N included.
RATIOS = [(n, m) for n in (8, 12, 16, 24) for m in range(1, n + 1) if n % m == 0]

draws = settings(max_examples=25, deadline=None)


def _basis(kind, n, seed):
    if kind == "dft":
        return dft_basis(n)
    return eigendecompose(combinatorial_laplacian(gen_random_sensor(n, seed)))


@draws
@given(kind=st.sampled_from(["sensor", "dft"]), ratio=st.sampled_from(RATIOS),
       t=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       predefined=st.booleans())
def test_vertex_functions_are_transforms_of_their_spectral_halves(kind, ratio, t, seed,
                                                                  predefined):
    n, m = ratio
    basis = _basis(kind, n, seed)
    cfg = SamplingConfig(n, m)
    s, a = inverted_ramp(basis), linear_decay(basis, 0.1)
    if predefined:
        design = design_subspace_predefined(s, a, cosine_taper(basis, 0.1), cfg)
    else:
        design = design_subspace_unconstrained(s, a, cfg)
    model = PgsModel(a, cfg, basis)
    d = np.random.default_rng(seed).normal(1.0, 1.0, (cfg.k, t))
    x = generate_pgs(model, d)
    assert np.array_equal(x, igft(basis, pgs_spectrum(model, d)))
    chat = frequency_sample(basis, s, x, cfg)
    folded = spectral_fold(s.values[:, None] * gft(basis, x), cfg)
    assert np.array_equal(chat.values, folded.values)
    assert np.array_equal(chat.values, sample_spectrum(s, gft(basis, x), cfg).values)
    assert np.array_equal(reconstruct(basis, design, chat),
                          igft(basis, reconstruct_spectrum(design, chat)))


@draws
@given(ratio=st.sampled_from(RATIOS), t=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_fold_is_the_adjoint_of_upsample(ratio, t, seed):
    n, m = ratio
    cfg = SamplingConfig(n, m)
    rng = np.random.default_rng(seed)
    xhat = rng.normal(size=(n, t)) + 1j * rng.normal(size=(n, t))
    d = rng.normal(size=(cfg.k, t)) + 1j * rng.normal(size=(cfg.k, t))
    assert_allclose(np.vdot(spectral_fold(xhat, cfg).values, d),
                    np.vdot(xhat, np.tile(d, (m, 1))), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["sensor", "dft"])
@pytest.mark.parametrize("tail", [(), (3,), (16,)], ids=["1-D", "T=3", "T=N"])
def test_spectral_halves_scale_the_upsampled_spectrum_bit_for_bit(kind, tail):
    # The broadcast product equals diag(f) times the replicated copy exactly.
    cfg = SamplingConfig(16, 4)
    basis = _basis(kind, cfg.n, 3)
    a, s = linear_decay(basis, 0.1), inverted_ramp(basis)
    rng = np.random.default_rng(7)
    d = rng.normal(size=(cfg.k, *tail))
    reps = (cfg.m,) + (1,) * len(tail)
    assert np.array_equal(pgs_spectrum(PgsModel(a, cfg, basis), d),
                          spectral._scale_rows(a.values, np.tile(d, reps)))
    design = design_subspace_unconstrained(s, a, cfg)
    chat = spectral_fold(rng.normal(size=(cfg.n, *tail)) + 1j * rng.normal(size=(cfg.n, *tail)),
                         cfg)
    corrected = spectral._scale_rows(design.h, chat.values)
    assert np.array_equal(reconstruct_spectrum(design, chat),
                          spectral._scale_rows(design.w.values, np.tile(corrected, reps)))


def test_spectral_halves_reject_mismatched_sizes():
    basis, cfg = dft_basis(8), SamplingConfig(8, 2)
    a = linear_decay(basis, 0.1)
    design = design_subspace_unconstrained(inverted_ramp(basis), a, cfg)
    chat = frequency_sample(basis, inverted_ramp(basis), np.ones(8), cfg)
    with pytest.raises(DimensionMismatch):
        pgs_spectrum(PgsModel(a, cfg, basis), np.ones(3))
    with pytest.raises(DimensionMismatch):
        reconstruct_spectrum(design, spectral_fold(np.ones(8), SamplingConfig(8, 4)))
    with pytest.raises(DimensionMismatch):
        reconstruct_spectrum(design, spectral_fold(np.ones(12), SamplingConfig(12, 3)))
    with pytest.raises(DimensionMismatch):
        reconstruct(dft_basis(4), design, chat)
    with pytest.raises(DimensionMismatch):
        sample_spectrum(inverted_ramp(basis), np.ones(12), SamplingConfig(12, 3))


def _vertex_domain_rows(base):
    """The rows of ``run_recovery_table(base)`` scored in the vertex domain:
    every trial synthesized, sampled and reconstructed by the public
    vertex-domain functions, the noise added to the signal."""
    scfg = SamplingConfig(base.n, base.m)
    basis = basis_for_config(base, build_experiment_graph(base))
    coeffs, noise = _draw_trials(base.rng_seed, base.trials, base.coeff_mean, scfg.k,
                                 scfg.n, float(np.sqrt(base.noise_variance)))
    methods = [(*method, sampling) for method in TABLE_METHODS for sampling in SAMPLING_IDS]
    methods.append(("baseline", "predefined", "ds", "bl"))

    def build(fid):
        return FILTERS[fid](basis, base.eps, scfg.k)

    groups = []
    for generator in GENERATOR_IDS:
        a = build(generator)
        x = generate_pgs(PgsModel(a, scfg, basis), coeffs)
        for noise_variance in (0.0, base.noise_variance):
            y = x + noise if noise_variance > 0 else x
            for prior, mode, strategy, sampling in methods:
                design = design_for_config((prior, mode, strategy, sampling), build, scfg, a)
                xt = reconstruct(basis, design, frequency_sample(basis, build(sampling), y, scfg))
                groups.append(_trial_group((prior, mode, strategy, sampling, generator,
                                            noise_variance), xt - x,
                                           np.sum(np.abs(x) ** 2, axis=0)))
    return report_rows(groups)


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["sensor", "circular"]), ratio=st.sampled_from(RATIOS),
       graph_seed=st.integers(0, 2**32 - 1), rng_seed=st.integers(0, 2**32 - 1),
       trials=st.integers(1, 4))
def test_spectral_scoring_equals_vertex_scoring(kind, ratio, graph_seed, rng_seed, trials):
    n, m = ratio
    base = ExperimentConfig(graph_kind=kind, n=n, m=m, graph_seed=graph_seed,
                            rng_seed=rng_seed, trials=trials, noise_variance=0.1)
    rows = report_rows(run_recovery_table(base))
    expected = _vertex_domain_rows(base)
    assert len(rows) == len(expected) == 44 * trials
    for row, ref in zip(rows, expected):
        assert [row[c] for c in ("prior", "mode", "strategy", "sampling_filter",
                                 "generator", "noise", "trial")] == \
            [ref[c] for c in ("prior", "mode", "strategy", "sampling_filter",
                              "generator", "noise", "trial")]
        # Below -200 dB both read round-off, which the two paths accumulate
        # differently.
        for column in ("mse_db", "mean_mse_db"):
            if ref[column] > -200.0:
                assert abs(row[column] - ref[column]) <= 1e-9, (row, ref)


def _count_transforms(monkeypatch):
    """Count gft and igft calls, wherever in specsamp they are looked up."""
    counts = {"gft": 0, "igft": 0}
    for name in counts:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "specsamp" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("kind", ["sensor", "circular"])
@pytest.mark.parametrize("noise_variance,gfts", [(0.1, 1), (0.0, 0)])
def test_recovery_table_transforms_only_the_noise(monkeypatch, kind, noise_variance, gfts):
    counts = _count_transforms(monkeypatch)
    rows = run_recovery_table(ExperimentConfig(graph_kind=kind, n=32, m=4, trials=3,
                                               noise_variance=noise_variance))
    assert rows
    assert counts == {"gft": gfts, "igft": 0}
    # The counters see the calls made inside the library.
    basis = dft_basis(8)
    generate_pgs(PgsModel(linear_decay(basis, 0.1), SamplingConfig(8, 2), basis), np.ones(4))
    assert counts == {"gft": gfts, "igft": 1}
