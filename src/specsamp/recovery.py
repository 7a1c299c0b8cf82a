"""Correction and reconstruction filter designs for sampled graph signals.

Signals are modeled either by a periodic-graph-spectrum (PGS) subspace --
a K-periodic coefficient spectrum shaped by a known generator response --
or by a smoothness bound on a quadratic form. Every design below comes out
as a length-K diagonal correction filter paired with a length-N diagonal
reconstruction filter; the denominators are folded cross-correlations of
the filters involved.

Coefficients, signals and sampled spectra may carry a trailing trial
axis; synthesis and reconstruction act along axis 0.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    DsConditionViolated,
    InvalidParameter,
    SingularCorrelation,
    ZeroReference,
)
from .filters import SpectralFilter
from .sampling import (
    SampledSpectrum,
    SamplingConfig,
    _scaled_upsample,
    sampled_cross_correlation,
)
from .spectral import SpectralBasis, _scale_rows, igft

MSE_FLOOR_DB = -320.0


def _energy(x: np.ndarray) -> np.ndarray:
    """Per-trial energy: the squared norm of each column (of the whole
    signal when it is 1-D)."""
    return np.sum(np.abs(x) ** 2, axis=0)


def _floored_db(ratio):
    """10 log10(ratio), floored at MSE_FLOOR_DB; a zero ratio reads the floor."""
    with np.errstate(divide="ignore"):
        return np.maximum(10.0 * np.log10(ratio), MSE_FLOOR_DB)


class Strategy(Enum):
    DS = "ds"
    LS = "ls"
    MX = "mx"


@dataclass(frozen=True)
class PgsModel:
    """Generator response, sampling configuration, and GFT basis defining
    a periodic-graph-spectrum subspace."""

    generator: SpectralFilter
    cfg: SamplingConfig
    basis: SpectralBasis

    def __post_init__(self):
        if self.generator.n != self.cfg.n or self.basis.n != self.cfg.n:
            raise DimensionMismatch("generator, basis, and config sizes must agree")


@dataclass(frozen=True)
class RecoveryDesign:
    """Correction filter (K diagonal values) plus reconstruction filter
    (length N)."""

    h: np.ndarray
    w: SpectralFilter

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        if not np.all(np.isfinite(h)):
            raise InvalidParameter("correction values must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class DsCheck:
    holds: bool
    min_abs: float


def _small(corr: np.ndarray) -> np.ndarray:
    # At or below the scale-relative cut (the pseudo-inverse cutoff).
    return np.abs(corr) <= 1e-10 * np.abs(corr).max(initial=0.0)


def pgs_spectrum(model: PgsModel, dhat: np.ndarray) -> np.ndarray:
    """Spectrum of a PGS signal from length-K expansion coefficients:
    xhat = diag(generator) upsample(dhat)."""
    dhat = np.asarray(dhat)
    if dhat.shape[0] != model.cfg.k:
        raise DimensionMismatch(f"expected {model.cfg.k} coefficients, got {dhat.shape[0]}")
    return _scaled_upsample(model.generator.values, dhat, model.cfg)


def generate_pgs(model: PgsModel, dhat: np.ndarray) -> np.ndarray:
    """Synthesize a PGS signal from length-K expansion coefficients:
    x = U pgs_spectrum(model, dhat)."""
    return igft(model.basis, pgs_spectrum(model, dhat))


def check_ds(s: SpectralFilter, a: SpectralFilter, cfg: SamplingConfig) -> DsCheck:
    """Direct-sum condition: the folded cross-correlation of the sampling
    and generator responses must be bounded away from zero."""
    corr = sampled_cross_correlation(s, a, cfg)
    return DsCheck(holds=not np.any(_small(corr)), min_abs=float(np.abs(corr).min()))


def _divide(num, denom: np.ndarray, small: np.ndarray, error) -> np.ndarray:
    """num / denom where not ``small``; there ``error`` is raised if given
    (DS, smoothness designs), else the result is 0 (LS/MX)."""
    if error is not None:
        if np.any(small):
            raise error("folded correlation in the correction denominator vanishes")
        return num / denom
    out = np.zeros_like(denom)
    np.divide(num, denom, out=out, where=~small)
    return out


def _unconstrained_h(s: SpectralFilter, a: SpectralFilter, cfg: SamplingConfig,
                     error) -> np.ndarray:
    """Correction of the unconstrained designs: 1 / R_sa."""
    corr = sampled_cross_correlation(s, a, cfg)
    return _divide(1.0, corr, _small(corr), error)


def _predefined_h(s: SpectralFilter, a: SpectralFilter, w: SpectralFilter,
                  cfg: SamplingConfig, strategy: Strategy, error) -> np.ndarray:
    """Correction of the predefined DS/MX designs: R_wa / (R_sa * R_ww).
    DS guards each correlation on its own scale, MX the product on its
    floored scale."""
    corr_sa = sampled_cross_correlation(s, a, cfg)
    corr_ww = sampled_cross_correlation(w, w, cfg)
    corr_wa = sampled_cross_correlation(w, a, cfg)
    denom = corr_sa * corr_ww
    if strategy is Strategy.DS:
        small = _small(corr_sa) | _small(corr_ww)
    else:
        small = np.abs(denom) <= 1e-10 * max(np.abs(denom).max(initial=0.0), 1e-300)
    return _divide(corr_wa, denom, small, error)


def _smoothness_generator(s: SpectralFilter, v: SpectralFilter) -> SpectralFilter:
    """s / v^2: the generator under which a smoothness-prior design is the
    subspace-prior design of the same strategy."""
    if np.any(v.values == 0):
        raise InvalidParameter("smoothness weighting must be nonzero everywhere")
    return SpectralFilter(s.values / v.values**2)


def design_subspace_unconstrained(s: SpectralFilter, a: SpectralFilter,
                                  cfg: SamplingConfig,
                                  strategy: Strategy = Strategy.DS) -> RecoveryDesign:
    """Unconstrained subspace-prior design: reconstruct with the generator
    itself and correct by the inverse folded cross-correlation.

    Under DS the design is an oblique projection and recovers every PGS
    signal exactly; LS/MX replace the inverse by a pseudo-inverse.
    """
    error = DsConditionViolated if strategy is Strategy.DS else None
    return RecoveryDesign(_unconstrained_h(s, a, cfg, error), a)


def design_subspace_predefined(s: SpectralFilter, a: SpectralFilter,
                               w: SpectralFilter, cfg: SamplingConfig,
                               strategy: Strategy = Strategy.DS) -> RecoveryDesign:
    """Subspace-prior design with a fixed reconstruction filter.

    DS and MX use R_wa / (R_sa * R_ww); LS uses 1 / R_sw and ignores the
    generator. DS fails hard when a denominator vanishes, MX/LS fall back
    to zero there.
    """
    if strategy is Strategy.LS:
        h = _unconstrained_h(s, w, cfg, None)
    else:
        error = DsConditionViolated if strategy is Strategy.DS else None
        h = _predefined_h(s, a, w, cfg, strategy, error)
    return RecoveryDesign(h, w)


def design_smoothness_unconstrained(s: SpectralFilter, v: SpectralFilter,
                                    cfg: SamplingConfig) -> RecoveryDesign:
    """Unconstrained smoothness-prior design.

    The unconstrained subspace design with generator s / v^2: reconstruct
    with s / v^2 and correct by the inverse of its folded correlation with
    the sampling filter; the LS and MX strategies coincide here.
    """
    wt = _smoothness_generator(s, v)
    h = _unconstrained_h(s, wt, cfg, SingularCorrelation)
    return RecoveryDesign(h, wt)


def design_smoothness_predefined(s: SpectralFilter, v: SpectralFilter,
                                 w: SpectralFilter, cfg: SamplingConfig,
                                 strategy: Strategy = Strategy.MX) -> RecoveryDesign:
    """Smoothness-prior design with a fixed reconstruction filter.

    LS does not depend on the smoothness weighting and reduces to the
    predefined subspace LS design; MX is the predefined subspace MX design
    with generator s / v^2, failing where its denominator vanishes.
    """
    if strategy is Strategy.LS:
        return design_subspace_predefined(s, w, w, cfg, Strategy.LS)
    if strategy is not Strategy.MX:
        raise InvalidParameter("smoothness predefined designs are LS or MX")
    wt = _smoothness_generator(s, v)
    h = _predefined_h(s, wt, w, cfg, Strategy.MX, SingularCorrelation)
    return RecoveryDesign(h, w)


def reconstruct_spectrum(design: RecoveryDesign, chat: SampledSpectrum) -> np.ndarray:
    """Correct, upsample and filter a sampled spectrum: the spectrum
    diag(w) upsample(h * chat) of the reconstruction."""
    if design.w.n != chat.config.n or design.h.shape[0] != chat.config.k:
        raise DimensionMismatch("design and sampled spectrum sizes must agree")
    return _scaled_upsample(design.w.values, _scale_rows(design.h, chat.values), chat.config)


def reconstruct(b: SpectralBasis, design: RecoveryDesign,
                chat: SampledSpectrum) -> np.ndarray:
    """Reconstruct a signal from a sampled spectrum:
    x = U reconstruct_spectrum(design, chat)."""
    return igft(b, reconstruct_spectrum(design, chat))


def mse_db(x: np.ndarray, xtilde: np.ndarray) -> float:
    """Energy-normalized reconstruction error in decibels:
    10 log10(||x - xt||^2 / ||x||^2), floored at -320 dB."""
    x = np.asarray(x)
    xtilde = np.asarray(xtilde)
    if x.shape != xtilde.shape:
        raise DimensionMismatch("signals must have equal length")
    ref = _energy(x.ravel())
    if ref == 0.0:
        raise ZeroReference("reference signal has zero energy")
    return float(_floored_db(_energy((x - xtilde).ravel()) / ref))
