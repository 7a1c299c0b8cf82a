"""Monte Carlo recovery experiments and report emission.

Every run is fully deterministic given its configuration and RNG seed:
trial t draws from the t-th child of a single seed sequence, so a T-trial
run's per-trial columns are the first T of any longer run. Expansion
coefficients are drawn from Normal(1, 1) (configurable mean), and noise,
when enabled, is added to the signal before sampling.

The recovery experiments (``recover``, ``exp table2``) sample, correct and
reconstruct in the graph frequency domain and score each trial between
the clean and the reconstructed spectrum. Every basis here is orthonormal
or unitary, so by Parseval that is the vertex-domain error; a run makes
one GFT, of the noise block, and none when it is noise-free.

A Table 2 run shares one graph, basis, trial draw and noise GFT, builds
each filter once and each design once per generator, and folds once per
(generator, noise, sampling filter).
Results stay per-configuration columns (:class:`ReportGroup`) until
:func:`emit_report` writes them; :func:`report_rows` flattens them.
"""

import csv
import json
import math
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import Callable, List, NamedTuple

import numpy as np

from .bipartite import (
    build_system,
    fit_one_branch,
    generate_one_branch,
    one_branch_design,
    reconstruct_from_part,
    sample_first_part,
)
from .errors import InvalidParameter, IoFailure
from .filters import (
    SpectralFilter,
    bandlimit,
    cosine_taper,
    exponential_decay,
    identity_filter,
    inverted_ramp,
    linear_decay,
    smoothness_ramp,
)
from .graphs import (
    combinatorial_laplacian,
    complete_bipartite,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
)
from .recovery import (
    PgsModel,
    RecoveryDesign,
    Strategy,
    _energy,
    _floored_db,
    design_smoothness_predefined,
    design_smoothness_unconstrained,
    design_subspace_predefined,
    design_subspace_unconstrained,
    pgs_spectrum,
    reconstruct_spectrum,
)
from .sampling import SamplingConfig, sample_spectrum
from .spectral import SpectralBasis, dft_basis, eigendecompose, gft

REPORT_COLUMNS = ("prior", "mode", "strategy", "sampling_filter", "generator",
                  "noise", "trial", "mse_db", "mean_mse_db")

GENERATOR_IDS = ("gen1", "gen2")
SAMPLING_IDS = ("bl", "ir")
PRIOR_IDS = ("subspace", "smoothness", "baseline")
MODE_IDS = ("unconstrained", "predefined")
STRATEGY_IDS = tuple(s.value for s in Strategy)
# The bandlimited baseline: one method, whatever mode, strategy and sampling
# filter a configuration names.
BASELINE = ("baseline", "predefined", "ds", "bl")

# Filter id -> builder(basis, eps, k), shared by the experiment
# configurations and `filters dump`; a run builds only the filters it uses.
FILTERS = {
    "bl": lambda basis, eps, k: bandlimit(basis, k),
    "ir": lambda basis, eps, k: inverted_ramp(basis),
    "gen1": lambda basis, eps, k: linear_decay(basis, eps),
    "gen2": lambda basis, eps, k: exponential_decay(basis),
    "cos": lambda basis, eps, k: cosine_taper(basis, eps),
    "smooth": lambda basis, eps, k: smoothness_ramp(basis),
    "identity": lambda basis, eps, k: identity_filter(basis.n),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One recovery experiment: graph, sampling setup, filters, prior,
    strategy, trial count, and RNG seed."""

    graph_kind: str = "sensor"
    n: int = 256
    graph_seed: int = 0
    p: float = 0.5
    m: int = 8
    generator: str = "gen1"
    sampling_filter: str = "bl"
    prior: str = "subspace"
    mode: str = "unconstrained"
    strategy: str = "ds"
    trials: int = 100
    noise_variance: float = 0.0
    rng_seed: int = 0
    eps: float = 0.1
    coeff_mean: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("need trials >= 1")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise InvalidParameter("need a finite noise variance >= 0")
        if not math.isfinite(self.coeff_mean):
            raise InvalidParameter("need a finite coefficient mean")
        if self.generator not in GENERATOR_IDS:
            raise InvalidParameter(f"unknown generator id {self.generator!r}")
        if self.sampling_filter not in SAMPLING_IDS:
            raise InvalidParameter(f"unknown sampling filter id {self.sampling_filter!r}")
        if self.prior not in PRIOR_IDS or self.mode not in MODE_IDS \
                or self.strategy not in STRATEGY_IDS:
            raise InvalidParameter("unknown prior/mode/strategy id")
        if self.prior == "smoothness" and self.strategy == "ds":
            raise InvalidParameter("smoothness-prior designs are ls or mx, not ds")


def part_size(n: int, kind: str) -> int:
    """Size of each part of a ``kind`` graph on n vertices with two equal parts.

    Raises
    ------
    InvalidParameter
        If n is odd.
    """
    if n % 2:
        raise InvalidParameter(f"a {kind} graph needs an even n, got {n}")
    return n // 2


GRAPH_KINDS = ("sensor", "circular", "bipartite", "complete-bipartite")


def build_experiment_graph(cfg: ExperimentConfig):
    """The ``cfg.graph_kind`` graph, one of GRAPH_KINDS, on ``cfg.n`` vertices."""
    if cfg.graph_kind == "sensor":
        return gen_random_sensor(cfg.n, cfg.graph_seed)
    if cfg.graph_kind == "circular":
        return gen_circular(cfg.n)
    if cfg.graph_kind == "bipartite":
        return gen_random_bipartite(part_size(cfg.n, cfg.graph_kind), cfg.graph_seed, cfg.p)
    if cfg.graph_kind == "complete-bipartite":
        return complete_bipartite(part_size(cfg.n, cfg.graph_kind))
    raise InvalidParameter(f"unknown graph kind {cfg.graph_kind!r}")


def basis_for_config(cfg: ExperimentConfig, graph) -> SpectralBasis:
    # The circular graph gets the explicit DFT basis; a numerical
    # eigendecomposition would pick arbitrary vectors in its degenerate
    # eigenvalue pairs.
    if cfg.graph_kind == "circular":
        return dft_basis(cfg.n)
    return eigendecompose(combinatorial_laplacian(graph))


def design_for_config(method: tuple, build: Callable[[str], SpectralFilter],
                      scfg: SamplingConfig, a: SpectralFilter) -> RecoveryDesign:
    """The design of one (prior, mode, strategy, sampling filter) method
    with generator ``a``, taking each filter by its FILTERS id from ``build``."""
    prior, mode, strategy, sampling = method
    if prior == "baseline":
        # Bandlimited sampling and reconstruction with no correction.
        return RecoveryDesign(np.ones(scfg.k), build("bl"))
    s, strategy = build(sampling), Strategy(strategy)
    if prior == "subspace":
        if mode == "unconstrained":
            return design_subspace_unconstrained(s, a, scfg, strategy)
        return design_subspace_predefined(s, a, build("cos"), scfg, strategy)
    v = build("smooth")
    if mode == "unconstrained":
        return design_smoothness_unconstrained(s, v, scfg)
    return design_smoothness_predefined(s, v, build("cos"), scfg, strategy)


def _draw_trials(seed: int, trials: int, mean: float, k: int,
                 n: int = 0, noise_sd: float = 0.0):
    """Per-trial substreams: trial t uses the t-th spawned child of the
    seed sequence and draws its k Normal(mean, 1) coefficients, then, when
    noise_sd > 0, its n noise values. Returns (k x trials, n x trials),
    the noise None when noise_sd is 0."""
    children = np.random.SeedSequence(seed).spawn(trials)
    coeffs = np.empty((k, trials))
    noise = np.empty((n, trials)) if noise_sd > 0 else None
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        coeffs[:, t] = rng.normal(mean, 1.0, k)
        if noise is not None:
            noise[:, t] = rng.normal(0.0, noise_sd, n)
    return coeffs, noise


class ReportGroup(NamedTuple):
    """One configuration's report rows as columns: the six label values,
    the per-trial errors in dB (indexed by trial) and their mean."""

    labels: tuple
    mse_db: np.ndarray
    mean_db: float


def _trial_group(labels: tuple, err: np.ndarray, energy: np.ndarray) -> ReportGroup:
    """The group of one configuration's trials (columns): the energy of
    each trial's error ``err`` relative to its signal energy ``energy``."""
    ratios = _energy(err) / energy
    mse = _floored_db(ratios)
    mse.flags.writeable = False
    return ReportGroup(labels, mse, float(_floored_db(np.mean(ratios))))


def _recovery_groups(base: ExperimentConfig, generators, noises,
                     methods) -> List[ReportGroup]:
    """Report groups of ``base`` for every generator, noise variance and
    (prior, mode, strategy, sampling filter) method, in that loop order.

    One graph, basis and trial draw serve every group. Each trial draws its
    coefficients before its noise, once, at ``max(noises)``, so the
    noise-free groups get the coefficients of a noise-free draw; every
    nonzero variance in ``noises`` must equal that maximum.

    Every group runs on spectra, scored between the clean and the
    reconstructed spectrum; only the noise block is transformed.
    """
    scfg = SamplingConfig(base.n, base.m)
    basis = basis_for_config(base, build_experiment_graph(base))
    coeffs, noise = _draw_trials(base.rng_seed, base.trials, base.coeff_mean, scfg.k,
                                 scfg.n, float(np.sqrt(max(noises))))
    if noise is not None:
        noise = gft(basis, noise)  # rebound, so that the vertex block is freed
    build = cache(lambda fid: FILTERS[fid](basis, base.eps, scfg.k))
    groups: List[ReportGroup] = []
    for generator in generators:
        a = build(generator)
        xhat = pgs_spectrum(PgsModel(a, scfg, basis), coeffs)
        energy = _energy(xhat)
        designs = [design_for_config(method, build, scfg, a) for method in methods]
        for noise_variance in noises:
            yhat = xhat + noise if noise_variance > 0 else xhat
            folded = {sid: sample_spectrum(build(sid), yhat, scfg)
                      for sid in dict.fromkeys(method[3] for method in methods)}
            for method, design in zip(methods, designs):
                err = reconstruct_spectrum(design, folded[method[3]])
                err -= xhat
                groups.append(_trial_group((*method, generator, noise_variance), err, energy))
    return groups


def run_recovery_experiment(cfg: ExperimentConfig) -> List[ReportGroup]:
    """Run one experiment configuration and return its one report group;
    a baseline configuration runs, and is labelled, as BASELINE."""
    method = (BASELINE if cfg.prior == "baseline"
              else (cfg.prior, cfg.mode, cfg.strategy, cfg.sampling_filter))
    return _recovery_groups(cfg, (cfg.generator,), (cfg.noise_variance,), [method])


TABLE_METHODS = (
    # (prior, mode, strategy); the predefined DS row doubles as MX.
    ("subspace", "unconstrained", "ds"),
    ("subspace", "predefined", "ds"),
    ("subspace", "predefined", "ls"),
    ("smoothness", "unconstrained", "ls"),
    ("smoothness", "predefined", "mx"),
)


def run_recovery_table(base: ExperimentConfig) -> List[ReportGroup]:
    """Full method/filter/noise matrix: every method with both sampling
    filters and both generators, plus the bandlimited baseline, noise-free
    and, when ``base.noise_variance`` > 0, at that noise variance."""
    noises = (0.0, base.noise_variance) if base.noise_variance > 0 else (0.0,)
    methods = [(*method, sampling) for method in TABLE_METHODS for sampling in SAMPLING_IDS]
    return _recovery_groups(base, GENERATOR_IDS, noises, [*methods, BASELINE])


BIPARTITE_KINDS = ("matched", "random")


@dataclass(frozen=True)
class BipartiteExperimentConfig:
    """Chebyshev-order sweep for one-branch vertex-domain recovery.

    ``graph_kind`` selects the bipartite family: "matched" (the default)
    keeps the normalized spectrum away from the filters' discontinuity at
    1, which the polynomial approximations need; "random" is the plain
    Bernoulli(p) family, whose spectrum clusters at 1 and caps how much
    the approximated pipeline can gain over the bandlimited baseline.
    """

    n_half: int = 128
    graph_seed: int = 0
    graph_kind: str = "matched"
    p: float = 0.5
    orders: tuple = (2, 4, 8, 16, 24, 32)
    trials: int = 100
    rng_seed: int = 0
    coeff_mean: float = 1.0

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("need trials >= 1")
        if any(p < 1 for p in self.orders):
            raise InvalidParameter("orders must be >= 1")
        if not math.isfinite(self.coeff_mean):
            raise InvalidParameter("need a finite coefficient mean")
        if self.graph_kind not in BIPARTITE_KINDS:
            raise InvalidParameter(f"unknown bipartite graph kind {self.graph_kind!r}")


def run_bipartite_experiment(cfg: BipartiteExperimentConfig) -> List[ReportGroup]:
    """One-branch recovery on a bipartite graph across Chebyshev orders.

    Signals are synthesized with the exact combined reconstruction
    response; sampling and decoding use order-P approximations of the
    bandlimiting sampling filter and the combined response. The
    approximated-bandlimited reconstruction is reported alongside as the
    baseline, after an exact-filter run (lossless up to conditioning).
    """
    if cfg.graph_kind == "matched":
        sys_ = build_system(gen_matched_bipartite(cfg.n_half, cfg.graph_seed))
    else:
        sys_ = build_system(gen_random_bipartite(cfg.n_half, cfg.graph_seed, cfg.p))
    a = inverted_ramp(sys_.basis_b)
    s, wprime = one_branch_design(sys_, a)

    d, _ = _draw_trials(cfg.rng_seed, cfg.trials, cfg.coeff_mean, sys_.half)
    x = generate_one_branch(sys_, wprime, d)
    energy = _energy(x)

    def group(mode: str, order_label: str, w, kept) -> ReportGroup:
        err = reconstruct_from_part(sys_, w, kept)
        err -= x
        return _trial_group(("subspace", mode, order_label, "bl", "ir", 0.0), err, energy)

    groups = [group("exact", "exact", wprime, sample_first_part(sys_, s, x))]
    for order in cfg.orders:
        cf_s, cf_w = fit_one_branch(a.response, order)
        kept = sample_first_part(sys_, cf_s, x)
        groups.append(group(f"chebyshev_p{order}", str(order), cf_w, kept))
        groups.append(group(f"chebyshev_baseline_p{order}", str(order), cf_s, kept))
    return groups


def report_rows(groups: List[ReportGroup]) -> List[dict]:
    """The groups flattened to report rows, one dict per trial keyed by
    REPORT_COLUMNS: the records of a JSON report."""
    return [dict(zip(REPORT_COLUMNS, (*g.labels, t, db, g.mean_db)))
            for g in groups for t, db in enumerate(g.mse_db.tolist())]


def emit_report(groups: List[ReportGroup], fmt: str, path: str) -> None:
    """Write report groups as CSV or JSON, one row per trial, with a stable
    column order. Every float is written as its repr."""
    if fmt not in ("csv", "json"):
        raise InvalidParameter(f"unknown report format {fmt!r}")
    try:
        if fmt == "csv":
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(REPORT_COLUMNS)
                for g in groups:
                    labels = [repr(v) if isinstance(v, float) else v for v in g.labels]
                    writer.writerows(zip(*map(repeat, labels), range(len(g.mse_db)),
                                         map(repr, g.mse_db.tolist()), repeat(repr(g.mean_db))))
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report_rows(groups), fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
