"""Sampling operators in the graph frequency domain.

Frequency-domain sampling filters the spectrum and folds it with period
K = N/M, the graph counterpart of frequency-domain aliasing; the adjoint
upsampler replicates a length-K spectrum periodically. The folded product
of two filter responses (the sampled cross-correlation) is the denominator
of every correction-filter design.

Spectra may carry a trailing trial axis, ``(N,)`` or ``(N, T)``; folding
and upsampling act along axis 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .filters import SpectralFilter
from .spectral import SpectralBasis, _scale_rows, gft


@dataclass(frozen=True)
class SamplingConfig:
    """Signal length n and sampling ratio m; m must divide n exactly."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.n % self.m != 0:
            raise InvalidParameter(f"sampling ratio {self.m} must divide n={self.n}")

    @property
    def k(self) -> int:
        return self.n // self.m


@dataclass(frozen=True)
class SampledSpectrum:
    """Folded spectrum, K values or K x T for T trials, together with its
    sampling configuration."""

    values: np.ndarray
    config: SamplingConfig

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim == 0 or v.shape[0] != self.config.k:
            raise DimensionMismatch(f"expected length {self.config.k}, got {v.shape}")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def spectral_fold(xhat: np.ndarray, cfg: SamplingConfig) -> SampledSpectrum:
    """Fold a length-N spectrum into length K: out[i] = sum_l xhat[i + K*l]."""
    xhat = np.asarray(xhat)
    if xhat.shape[0] != cfg.n:
        raise DimensionMismatch(f"spectrum length {xhat.shape[0]} != {cfg.n}")
    folded = xhat.reshape(cfg.m, cfg.k, *xhat.shape[1:]).sum(axis=0)
    return SampledSpectrum(folded, cfg)


def _scaled_upsample(f: np.ndarray, dhat: np.ndarray, cfg: SamplingConfig) -> np.ndarray:
    """Upsample a length-K spectrum periodically to length N and scale it
    by f, as one broadcast: out[i] = f[i] * dhat[i mod K]."""
    tail = dhat.shape[1:]
    return (f.reshape(cfg.m, cfg.k, *[1] * len(tail)) * dhat[None]).reshape(cfg.n, *tail)


def sample_spectrum(s: SpectralFilter, xhat: np.ndarray,
                    cfg: SamplingConfig) -> SampledSpectrum:
    """Spectral half of :func:`frequency_sample`: fold the filtered
    spectrum diag(s) xhat."""
    if s.n != cfg.n:
        raise DimensionMismatch("filter and config sizes must agree")
    return spectral_fold(_scale_rows(s.values, xhat), cfg)


def frequency_sample(b: SpectralBasis, s: SpectralFilter, x: np.ndarray,
                     cfg: SamplingConfig) -> SampledSpectrum:
    """Graph-frequency-domain sampling: fold the filtered spectrum.

    Equals the K x N sampling matrix [I_K I_K ...] diag(s) U* applied
    to x.
    """
    if b.n != cfg.n:
        raise DimensionMismatch("basis and config sizes must agree")
    return sample_spectrum(s, gft(b, x), cfg)


def sampled_cross_correlation(f1: SpectralFilter, f2: SpectralFilter,
                              cfg: SamplingConfig) -> np.ndarray:
    """Folded product of two responses: R[i] = sum_l f1[i+K*l] f2[i+K*l]."""
    if f1.n != cfg.n or f2.n != cfg.n:
        raise DimensionMismatch("filters must have length n")
    return spectral_fold(f1.values * f2.values, cfg).values
