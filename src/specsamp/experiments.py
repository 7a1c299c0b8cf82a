"""Monte Carlo recovery experiments and CSV report emission.

One :class:`ExperimentConfig` configures the three experiments (``recover``,
``exp table2`` and the bipartite Chebyshev-order sweep); each setting is
checked once, before any graph is built, and each graph, one of
GRAPH_KINDS, comes from :func:`build_experiment_graph`. All three score
their trials in one place, which raises InvalidParameter rather than report
a non-finite energy.

Every run is fully deterministic given its configuration, RNG seed and
BLAS thread count (OpenBLAS sums in another order on another thread
count): trial t draws from the t-th child of a single seed sequence, so a
T-trial run's per-trial columns are the first T of any longer run.
Expansion coefficients are drawn from Normal(1, 1), and noise, when
enabled, is added to the signal before sampling.

The recovery experiments (``recover``, ``exp table2``) score each trial
in closed form on the folded, length-K spectrum. A trial with coefficients
d and folded noise nu = fold(s * nhat) has the error energy
G . d^2 + 2 C . (d Re nu) + H . |nu|^2, with the gains of
:func:`~specsamp.recovery.error_gains`, and the signal energy R_aa . d^2.
Every basis here is orthonormal or unitary, so by Parseval that is the
vertex-domain error. A run makes one GFT, of the noise block, and none
when it is noise-free; after it, only the fold of the noise spectrum,
once per sampling filter, reads an N x T block.

A Table 2 run shares one graph, basis, trial draw and noise GFT, folds
the noise once per sampling filter, builds each filter once and each
design and its gains once per generator, and scores each configuration
with three length-K by K x T products.
Results stay per-configuration columns (:class:`ReportGroup`) until
:func:`emit_report` writes them as a CSV report, one row per trial.
"""

import csv
import io
from dataclasses import dataclass
from functools import cache
from typing import Callable, List, NamedTuple

import numpy as np

from .bipartite import (
    build_system,
    fit_one_branch,
    one_branch_design,
    reconstruct_from_part,
    sample_first_part,
)
from .chebyshev import stack
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
    _integer,
    _real,
    combinatorial_laplacian,
    complete_bipartite,
    gen_circular,
    gen_matched_bipartite,
    gen_random_bipartite,
    gen_random_sensor,
)
from .recovery import (
    RecoveryDesign,
    Strategy,
    _energy,
    _floored_db,
    design_smoothness_predefined,
    design_smoothness_unconstrained,
    design_subspace_predefined,
    design_subspace_unconstrained,
    error_gains,
)
from .sampling import SamplingConfig, sample_spectrum, sampled_cross_correlation
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

# Filter id -> builder(basis, k), shared by the experiment configurations
# and `filters dump`; a run builds only the filters it uses. gen1 and cos
# take the paper's offset eps = 0.1, the default of their builders.
FILTERS = {
    "bl": lambda basis, k: bandlimit(basis, k),
    "ir": lambda basis, k: inverted_ramp(basis),
    "gen1": lambda basis, k: linear_decay(basis),
    "gen2": lambda basis, k: exponential_decay(basis),
    "cos": lambda basis, k: cosine_taper(basis),
    "smooth": lambda basis, k: smoothness_ramp(basis),
    "identity": lambda basis, k: identity_filter(basis.n),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: graph, sampling setup, filters, prior, strategy,
    noise, Chebyshev orders, trial count and RNG seed, each checked here but
    ``graph_kind``, one of GRAPH_KINDS, and the range of ``p``, which
    :func:`build_experiment_graph` and the generators check before building.
    The recovery runners read every field but ``orders``; the bipartite
    sweep reads ``graph_kind``, one of BIPARTITE_KINDS, ``n``,
    ``graph_seed``, ``p``, ``orders``, ``trials`` and ``rng_seed``. The sizes, counts, seeds and
    orders are integers: ``trials`` >= 1, the seeds >= 0, and ``orders`` at
    least one Chebyshev order, each >= 1 and each once. ``p`` and
    ``noise_variance`` >= 0 are finite real numbers, stored as floats."""

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
    orders: tuple = (2, 4, 8, 16, 24, 32)

    def __post_init__(self):
        for name, least in (("n", None), ("graph_seed", 0), ("m", None), ("trials", 1),
                            ("rng_seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        for name in ("p", "noise_variance"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        try:
            object.__setattr__(self, "orders",
                               tuple(_integer(p, "orders", 1) for p in self.orders))
        except TypeError:
            raise InvalidParameter(f"orders must be a sequence, got {self.orders!r}") from None
        if not self.orders or len(set(self.orders)) != len(self.orders):
            raise InvalidParameter(f"need at least one order, each once, got {self.orders}")
        if self.noise_variance < 0:
            raise InvalidParameter(f"need noise_variance >= 0, got {self.noise_variance}")
        if self.generator not in GENERATOR_IDS:
            raise InvalidParameter(f"unknown generator id {self.generator!r}")
        if self.sampling_filter not in SAMPLING_IDS:
            raise InvalidParameter(f"unknown sampling filter id {self.sampling_filter!r}")
        if self.prior not in PRIOR_IDS or self.mode not in MODE_IDS \
                or self.strategy not in STRATEGY_IDS:
            raise InvalidParameter("unknown prior/mode/strategy id")
        if self.prior == "smoothness" and self.strategy == "ds":
            raise InvalidParameter("smoothness-prior designs are ls or mx, not ds")


# The bipartite graph families: "matched" keeps the normalized spectrum away
# from the filters' discontinuity at 1, which the polynomial approximations
# of the bipartite sweep need; "bipartite", the plain Bernoulli(p) family, has
# a spectrum clustered at 1, which caps the approximated pipeline's gain over
# the baseline. "complete-bipartite" is its p = 1 graph.
BIPARTITE_KINDS = ("bipartite", "complete-bipartite", "matched")
GRAPH_KINDS = ("sensor", "circular", *BIPARTITE_KINDS)


def build_experiment_graph(cfg: ExperimentConfig):
    """The ``cfg.graph_kind`` graph, one of GRAPH_KINDS, on ``cfg.n`` vertices:
    n/2 in each part of a bipartite kind, so InvalidParameter if n is odd."""
    kind, n = cfg.graph_kind, cfg.n
    if kind == "sensor":
        return gen_random_sensor(n, cfg.graph_seed)
    if kind == "circular":
        return gen_circular(n)
    if kind not in BIPARTITE_KINDS:
        raise InvalidParameter(f"unknown graph kind {kind!r}")
    if n % 2:
        raise InvalidParameter(f"a {kind} graph needs an even n, got {n}")
    if kind == "bipartite":
        return gen_random_bipartite(n // 2, cfg.graph_seed, cfg.p)
    if kind == "complete-bipartite":
        return complete_bipartite(n // 2)
    return gen_matched_bipartite(n // 2, cfg.graph_seed)


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


def _draw_trials(seed: int, trials: int, k: int, n: int = 0, noise_sd: float = 0.0):
    """Per-trial substreams: trial t uses the t-th spawned child of the
    seed sequence and draws its k Normal(1, 1) coefficients, then, when
    noise_sd > 0, its n noise values. Returns (k x trials, n x trials),
    the noise None when noise_sd is 0."""
    children = np.random.SeedSequence(seed).spawn(trials)
    coeffs = np.empty((k, trials))
    noise = np.empty((n, trials)) if noise_sd > 0 else None
    for t, child in enumerate(children):
        rng = np.random.default_rng(child)
        coeffs[:, t] = rng.normal(1.0, 1.0, k)
        if noise is not None:
            noise[:, t] = rng.normal(0.0, noise_sd, n)
    return coeffs, noise


class ReportGroup(NamedTuple):
    """One configuration's report rows as columns: the six label values,
    the per-trial errors in dB (indexed by trial) and their mean."""

    labels: tuple
    mse_db: np.ndarray
    mean_db: float


def _finite(energy: np.ndarray) -> np.ndarray:
    """``energy``, or InvalidParameter if an entry is not finite (the noise
    overflowed)."""
    if not np.all(np.isfinite(energy)):
        raise InvalidParameter("a signal or error energy is not finite: "
                               "noise_variance is too large")
    return energy


def _trial_group(labels: tuple, err: np.ndarray, energy: np.ndarray) -> ReportGroup:
    """The group of one configuration's trials: each trial's error energy
    ``err`` relative to its signal energy ``energy``; InvalidParameter if
    an energy is not finite."""
    ratios = _finite(err) / _finite(energy)
    mse = _floored_db(ratios)
    mse.flags.writeable = False
    return ReportGroup(labels, mse, float(_floored_db(np.mean(ratios))))


def _recovery_groups(base: ExperimentConfig, generators, methods) -> List[ReportGroup]:
    """Report groups of ``base`` for every generator, noise variance and
    (prior, mode, strategy, sampling filter) method, in that loop order. The
    noise variances are 0 and, when it is above 0, ``base.noise_variance``.

    One graph, basis and trial draw serve every group. Each trial draws its
    coefficients before its noise, which it draws at ``base.noise_variance``,
    so the noise-free groups get the coefficients of a noise-free draw.

    Every group is scored on the folded spectrum: its error energy is
    G . d^2 + 2 C . (d Re nu_s) + H . |nu_s|^2, with the gains (G, C, H) of
    :func:`error_gains` and nu_s = fold(s * nhat), and its signal energy
    R_aa . d^2. The noise block makes the one GFT and is folded once per
    sampling filter; d^2, d Re nu_s and |nu_s|^2 are formed once, and each
    group costs three length-K by K x T products.
    """
    noises = (0.0, base.noise_variance) if base.noise_variance > 0 else (0.0,)
    scfg = SamplingConfig(base.n, base.m)
    basis = basis_for_config(base, build_experiment_graph(base))
    coeffs, noise = _draw_trials(base.rng_seed, base.trials, scfg.k, scfg.n,
                                 float(np.sqrt(base.noise_variance)))
    build = cache(lambda fid: FILTERS[fid](basis, scfg.k))
    d2 = coeffs**2
    noisy = {}  # sampling filter id -> (d Re nu, |nu|^2)
    if noise is not None:
        noise = gft(basis, noise)  # rebound, so that the vertex block is freed
        for sid in dict.fromkeys(method[3] for method in methods):
            nu = sample_spectrum(build(sid), noise, scfg).values
            with np.errstate(over="ignore"):
                noisy[sid] = (coeffs * nu.real, np.abs(nu) ** 2)
        del noise
    groups: List[ReportGroup] = []
    for generator in generators:
        a = build(generator)
        energy = sampled_cross_correlation(a, a, scfg) @ d2
        gains = [error_gains(design_for_config(method, build, scfg, a), build(method[3]),
                             a, scfg) for method in methods]
        for noise_variance in noises:
            for method, (g, c, h) in zip(methods, gains):
                with np.errstate(over="ignore"):
                    err = g @ d2
                    if noise_variance > 0:
                        cross, power = noisy[method[3]]
                        err += 2.0 * c @ cross + h @ power
                groups.append(_trial_group((*method, generator, noise_variance), err, energy))
    return groups


def run_recovery_experiment(cfg: ExperimentConfig) -> List[ReportGroup]:
    """Run one experiment configuration and return its one report group, at
    ``cfg.noise_variance``; a baseline runs, and is labelled, as BASELINE."""
    method = (BASELINE if cfg.prior == "baseline"
              else (cfg.prior, cfg.mode, cfg.strategy, cfg.sampling_filter))
    return _recovery_groups(cfg, (cfg.generator,), [method])[-1:]


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
    methods = [(*method, sampling) for method in TABLE_METHODS for sampling in SAMPLING_IDS]
    return _recovery_groups(base, GENERATOR_IDS, [*methods, BASELINE])


def run_bipartite_experiment(cfg: ExperimentConfig) -> List[ReportGroup]:
    """One-branch recovery on a bipartite graph across Chebyshev orders.

    ``cfg.graph_kind`` must be one of BIPARTITE_KINDS, checked before
    :func:`build_experiment_graph` builds the graph, n/2 vertices per part.
    Signals are synthesized by :func:`reconstruct_from_part` with the exact
    combined response; sampling and decoding use order-P approximations, P in
    ``cfg.orders``, of the bandlimiting sampling filter and the combined
    response. The approximated-bandlimited reconstruction is reported
    alongside as the baseline, after an exact-filter run (lossless up to
    conditioning).

    Per trial, a Chebyshev row is 10 log10 of 2 sum delta^2 [(p_w,lo g - w'_lo)^2
    + (p_w,hi g - w'_hi)^2] over 2 sum delta^2 (w'_lo^2 + w'_hi^2): delta = Phi^T d,
    w' the synthesis response's halves, p_s and p_w the fits at the paired
    frequencies, g = p_s,lo w'_lo + p_s,hi w'_hi. A baseline row has p_s for p_w.
    """
    if cfg.graph_kind not in BIPARTITE_KINDS:
        raise InvalidParameter(f"bipartite graph kind must be one of {BIPARTITE_KINDS}, "
                               f"got {cfg.graph_kind!r}")
    sys_ = build_system(build_experiment_graph(cfg))
    a = inverted_ramp(sys_.basis_b)
    s, wprime = one_branch_design(sys_, a.response)

    d, _ = _draw_trials(cfg.rng_seed, cfg.trials, sys_.half)
    x = reconstruct_from_part(sys_, wprime, d)
    energy = _energy(x)

    def group(mode: str, order_label: str, recovered: np.ndarray) -> ReportGroup:
        err = recovered - x
        return _trial_group(("subspace", mode, order_label, "bl", "ir", 0.0), _energy(err),
                            energy)

    groups = [group("exact", "exact",
                    reconstruct_from_part(sys_, wprime, sample_first_part(sys_, s, x)))]
    # One recurrence of x serves every order's sampling fit, and one of each
    # kept part serves its decoding and baseline fits.
    fits = [fit_one_branch(a.response, order) for order in cfg.orders]
    kept = sample_first_part(sys_, stack([cf_s for cf_s, _ in fits]), x)
    for i, (order, (cf_s, cf_w)) in enumerate(zip(cfg.orders, fits)):
        recovered = reconstruct_from_part(sys_, stack([cf_w, cf_s]), kept[..., i])
        groups.append(group(f"chebyshev_p{order}", str(order), recovered[..., 0]))
        groups.append(group(f"chebyshev_baseline_p{order}", str(order), recovered[..., 1]))
    return groups


def emit_report(groups: List[ReportGroup], path: str) -> None:
    """Write report groups to ``path`` as CSV, one row per trial, with the
    REPORT_COLUMNS header. Every float is written as its repr."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(REPORT_COLUMNS)
            for g in groups:
                # The labels go through csv once, for its quoting; the
                # trial, dB and mean columns never need quoting.
                prefix = io.StringIO()
                csv.writer(prefix, lineterminator="\n").writerow(
                    [repr(v) if isinstance(v, float) else v for v in g.labels])
                head, mean = prefix.getvalue()[:-1], repr(g.mean_db)
                fh.write("".join(f"{head},{t},{db!r},{mean}\n"
                                 for t, db in enumerate(g.mse_db.tolist())))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
