"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np

from specsamp import (
    SamplingConfig,
    SpectralFilter,
    bandlimit,
    build_system,
    check_ds,
    combinatorial_laplacian,
    complete_bipartite,
    design_smoothness_predefined,
    design_smoothness_unconstrained,
    design_subspace_predefined,
    design_subspace_unconstrained,
    dft_basis,
    eigendecompose,
    frequency_sample,
    gen_random_bipartite,
    gen_random_sensor,
    inverted_ramp,
    reconstruct,
    reconstruct_from_part,
    sample_first_part,
)
from specsamp.experiments import (
    ExperimentConfig,
    run_bipartite_experiment,
    run_recovery_experiment,
)
from specsamp.recovery import RecoveryDesign, Strategy


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def _mean_db(cfg: ExperimentConfig) -> float:
    return run_recovery_experiment(cfg)[0].mean_db


SENSOR = dict(graph_kind="sensor", n=256, graph_seed=1, m=8)


def test_01_perfect_recovery_machine_precision():
    start = time.perf_counter()
    worst = float("-inf")
    for generator in ("gen1", "gen2"):
        for sampling in ("bl", "ir"):
            cfg = ExperimentConfig(prior="subspace", mode="unconstrained",
                                   strategy="ds", generator=generator,
                                   sampling_filter=sampling, trials=100,
                                   rng_seed=11, **SENSOR)
            worst = max(worst, _mean_db(cfg))
    elapsed = time.perf_counter() - start
    _report("01 perfect recovery (N=256, K=32, 100 trials, both generators/samplings)",
            worst <= -200 and elapsed <= 30,
            f"worst mean {worst:.1f} dB, {elapsed:.1f} s")


def test_02_dense_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    cases = [(8, 2), (12, 2), (16, 2), (10, 2), (14, 2),
             (8, 4), (12, 4), (16, 4), (12, 4), (16, 4)]
    for seed, (n, m) in enumerate(cases):
        basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(n, seed=seed)))
        cfg = SamplingConfig(n, m)
        fold = np.tile(np.eye(cfg.k), (1, m))
        rng = np.random.default_rng(100 + seed)
        s = SpectralFilter(rng.uniform(0.5, 1.5, n))
        a = SpectralFilter(rng.uniform(0.5, 1.5, n))
        w = SpectralFilter(rng.uniform(0.5, 1.5, n))
        v = SpectralFilter(rng.uniform(0.5, 1.5, n))

        def synth(vals):
            return basis.vectors @ np.diag(vals) @ fold.T

        def sample(vals):
            return fold @ np.diag(vals) @ basis.vectors.T

        smat, amat, wmat = sample(s.values), synth(a.values), synth(w.values)
        wt = synth(s.values / v.values**2)
        designs_and_oracles = [
            (design_subspace_unconstrained(s, a, cfg),
             amat @ np.linalg.inv(smat @ amat) @ smat),
            (design_subspace_predefined(s, a, w, cfg, Strategy.DS),
             wmat @ np.linalg.inv(wmat.T @ wmat) @ wmat.T @ amat
             @ np.linalg.inv(smat @ amat) @ smat),
            (design_subspace_predefined(s, a, w, cfg, Strategy.LS),
             wmat @ np.linalg.pinv(smat @ wmat) @ smat),
            (design_smoothness_unconstrained(s, v, cfg),
             wt @ np.linalg.inv(smat @ wt) @ smat),
            (design_smoothness_predefined(s, v, w, cfg, Strategy.MX),
             wmat @ np.linalg.inv(wmat.T @ wmat) @ wmat.T @ wt
             @ np.linalg.inv(smat @ wt) @ smat),
        ]
        for design, oracle in designs_and_oracles:
            got = synth(design.w.values) @ np.diag(design.h) @ smat
            worst = max(worst, float(np.max(np.abs(got - oracle))))
    elapsed = time.perf_counter() - start
    _report("02 dense-oracle equivalence (5 designs, 10 graphs, M in {2,4})",
            worst <= 1e-9 and elapsed <= 5,
            f"worst max error {worst:.2e}, {elapsed:.2f} s")


def test_03_method_ordering_noiseless():
    runs = dict(trials=1000, rng_seed=17, **SENSOR)
    unc = _mean_db(ExperimentConfig(prior="subspace", mode="unconstrained",
                                    strategy="ds", generator="gen1",
                                    sampling_filter="bl", **runs))
    pre_bl = _mean_db(ExperimentConfig(prior="subspace", mode="predefined",
                                       strategy="ds", generator="gen1",
                                       sampling_filter="bl", **runs))
    pre_ir = _mean_db(ExperimentConfig(prior="subspace", mode="predefined",
                                       strategy="ds", generator="gen1",
                                       sampling_filter="ir", **runs))
    base = _mean_db(ExperimentConfig(prior="baseline", mode="predefined",
                                     strategy="ds", generator="gen1",
                                     sampling_filter="bl", **runs))
    ok = (unc < pre_bl - 100 and unc < pre_ir - 100
          and pre_ir <= -15 and base >= -6
          and pre_bl <= base and pre_ir <= base)
    _report("03 method ordering (generator #1, noiseless, 1000 trials)", ok,
            f"unc {unc:.1f}, predefined {pre_bl:.1f}/{pre_ir:.1f}, baseline {base:.1f} dB")


def test_04_noisy_regime_band():
    runs = dict(trials=1000, rng_seed=19, noise_variance=0.1, **SENSOR)
    values = {}
    for generator in ("gen1", "gen2"):
        for sampling in ("bl", "ir"):
            values[(generator, sampling)] = _mean_db(
                ExperimentConfig(prior="subspace", mode="unconstrained",
                                 strategy="ds", generator=generator,
                                 sampling_filter=sampling, **runs))
    ok = all(-13 <= db <= -8 for db in values.values())
    detail = ", ".join(f"{g}/{s} {db:.1f}" for (g, s), db in values.items())
    _report("04 noisy regime in [-13, -8] dB (sigma^2=0.1, 1000 trials)", ok, detail)


def test_05_dft_domain_reduction():
    n = 24
    basis = dft_basis(n)
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        m = int(rng.choice([2, 3, 4, 6, 8, 12]))
        cfg = SamplingConfig(n, m)
        s = SpectralFilter(rng.normal(size=n))
        x = rng.normal(size=n)
        xdft = np.fft.fft(x) / np.sqrt(n)
        expected = (s.values * xdft).reshape(m, cfg.k).sum(axis=0)
        got = frequency_sample(basis, s, x, cfg).values
        worst = max(worst, float(np.max(np.abs(got - expected))))
    _report("05 circular-graph sampling equals classical DFT aliasing (100 cases)",
            worst <= 1e-12, f"worst error {worst:.2e}")


def test_06_reduction_identity_residuals():
    systems = [build_system(complete_bipartite(2)), build_system(complete_bipartite(4))]
    rng = np.random.default_rng(29)
    for _ in range(20):
        n_half = int(rng.integers(4, 65))
        systems.append(build_system(gen_random_bipartite(n_half, int(rng.integers(0, 2**31)))))
    worst = max(s.residual for s in systems)
    _report("06 paired-basis SVD residual on 22 bipartite graphs",
            worst <= 1e-8, f"worst residual {worst:.2e}")


def test_07_pipeline_equivalence_random_filters():
    rng = np.random.default_rng(31)
    worst = 0.0
    for n_half in (4, 16, 32, 64):
        sys_ = build_system(gen_random_bipartite(n_half, seed=int(rng.integers(0, 2**31))))
        n = sys_.cfg.n
        for _ in range(3):
            s = SpectralFilter(rng.normal(size=n))
            w = SpectralFilter(rng.normal(size=n))
            h = rng.normal(size=n_half)
            x = rng.normal(size=n)
            wprime = SpectralFilter(w.values * np.tile(h, 2))
            vx = reconstruct_from_part(sys_, wprime, sample_first_part(sys_, s, x))
            design = RecoveryDesign(h, w)
            chat = frequency_sample(sys_.basis_b, s, x, sys_.cfg)
            fx = reconstruct(sys_.basis_b, design, chat)
            worst = max(worst, float(np.max(np.abs(vx - fx)) / np.linalg.norm(x)))
    _report("07 vertex pipeline equals frequency pipeline (random filters, N<=128)",
            worst <= 1e-9, f"worst residual {worst:.2e} per unit norm")


def test_08_chebyshev_order_sweep():
    cfg = ExperimentConfig(graph_kind="matched", n=256, graph_seed=2, trials=100,
                           rng_seed=9, orders=(2, 4, 8, 16, 24, 32))
    means = {g.labels[1]: g.mean_db for g in run_bipartite_experiment(cfg)}
    sweep = [means[f"chebyshev_p{p}"] for p in cfg.orders]
    monotone = all(sweep[i + 1] <= sweep[i] + 0.5 for i in range(len(sweep) - 1))
    gap = means["chebyshev_baseline_p16"] - means["chebyshev_p16"]
    _report("08 bipartite Chebyshev sweep (monotone, >=15 dB over baseline at P=16)",
            monotone and gap >= 15,
            "sweep " + "/".join(f"{v:.1f}" for v in sweep) + f", gap {gap:.1f} dB")


def test_09_quadratic_weight_reduction():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(32, seed=3)))
    cfg = SamplingConfig(32, 4)
    k = cfg.k
    v = SpectralFilter(np.where(np.arange(32) < k,
                             np.sqrt(basis.lambdas + 1.0),
                             np.sqrt(np.maximum(basis.lambdas, 0.0))))
    design = design_smoothness_unconstrained(bandlimit(basis, k), v, cfg)
    err_h = float(np.max(np.abs(design.h - (basis.lambdas[:k] + 1.0))))
    err_w = float(np.max(np.abs(design.w.values[:k] - 1.0 / (basis.lambdas[:k] + 1.0))))
    err_tail = float(np.max(np.abs(design.w.values[k:])))
    ok = err_h <= 1e-12 and err_w <= 1e-12 and err_tail <= 1e-12
    _report("09 smoothness design reduces to h=lambda+1, w=1/(lambda+1)", ok,
            f"errors h {err_h:.2e}, w {err_w:.2e}, tail {err_tail:.2e}")


def test_10_no_correction_special_cases():
    basis = eigendecompose(combinatorial_laplacian(gen_random_sensor(32, seed=4)))
    cfg = SamplingConfig(32, 4)
    s = bandlimit(basis, cfg.k)
    d1 = design_subspace_unconstrained(s, s, cfg)
    exact = np.all(d1.h == 1.0)

    sys_ = build_system(gen_random_bipartite(16, seed=5))
    s2 = bandlimit(sys_.basis_b, sys_.half)
    a2 = inverted_ramp(sys_.basis_b)
    assert check_ds(s2, a2, sys_.cfg).holds
    d2 = design_subspace_unconstrained(s2, a2, sys_.cfg)
    err = float(np.max(np.abs(d2.h - 1.0)))
    _report("10 bandlimited and half-band ramp cases need no correction",
            exact and err <= 1e-12, f"bandlimited exact, ramp error {err:.2e}")
