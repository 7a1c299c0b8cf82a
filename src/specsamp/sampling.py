"""Sampling operators in the graph frequency and vertex domains.

Frequency-domain sampling filters the spectrum and folds it with period
K = N/M, the graph counterpart of frequency-domain aliasing; the adjoint
upsampler replicates a length-K spectrum periodically. The folded product
of two filter responses (the sampled cross-correlation) is the denominator
of every correction-filter design.

Spectra may carry a trailing trial axis, ``(N,)`` or ``(N, T)``; folding
and upsampling act along axis 0.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidParameter
from .filters import SpectralFilter
from .spectral import SpectralBasis, _scale_rows, apply_filter, gft


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

    def to_record(self) -> str:
        """One-line JSON record (K, M, real and imaginary parts)."""
        return json.dumps({"k": self.config.k, "m": self.config.m,
                           "real": self.values.real.tolist(),
                           "imag": self.values.imag.tolist()})

    @classmethod
    def from_record(cls, line: str) -> "SampledSpectrum":
        """Inverse of :meth:`to_record`; the values come back complex."""
        rec = json.loads(line)
        cfg = SamplingConfig(rec["k"] * rec["m"], rec["m"])
        return cls(np.asarray(rec["real"], dtype=float)
                   + 1j * np.asarray(rec["imag"], dtype=float), cfg)


def spectral_fold(xhat: np.ndarray, cfg: SamplingConfig) -> SampledSpectrum:
    """Fold a length-N spectrum into length K: out[i] = sum_l xhat[i + K*l]."""
    xhat = np.asarray(xhat)
    if xhat.shape[0] != cfg.n:
        raise DimensionMismatch(f"spectrum length {xhat.shape[0]} != {cfg.n}")
    folded = xhat.reshape(cfg.m, cfg.k, *xhat.shape[1:]).sum(axis=0)
    return SampledSpectrum(folded, cfg)


def spectral_upsample(dhat: np.ndarray, cfg: SamplingConfig) -> np.ndarray:
    """Periodic replication back to length N: out[i] = dhat[i mod K]."""
    dhat = np.asarray(dhat)
    if dhat.shape[0] != cfg.k:
        raise DimensionMismatch(f"expected length {cfg.k}, got {dhat.shape[0]}")
    return np.tile(dhat, (cfg.m,) + (1,) * (dhat.ndim - 1))


def frequency_sample(b: SpectralBasis, s: SpectralFilter, x: np.ndarray,
                     cfg: SamplingConfig) -> SampledSpectrum:
    """Graph-frequency-domain sampling: fold the filtered spectrum.

    Equals the K x N sampling matrix [I_K I_K ...] diag(s) U* applied
    to x.
    """
    if b.n != cfg.n or s.n != cfg.n:
        raise DimensionMismatch("basis, filter, and config sizes must agree")
    return spectral_fold(_scale_rows(s.values, gft(b, x)), cfg)


def vertex_sample(g_filter, t, x: np.ndarray, basis: SpectralBasis = None) -> np.ndarray:
    """Vertex-domain sampling: filter, then keep the entries indexed by t.

    ``g_filter`` may be a SpectralFilter (requires ``basis``), a dense
    N x N operator, or None for plain subsampling.
    """
    x = np.asarray(x)
    t = np.asarray(t, dtype=int)
    if t.size and (t.min() < 0 or t.max() >= x.shape[0]):
        raise IndexOutOfRange("sampling set outside [0, N)")
    if g_filter is None:
        filtered = x
    elif isinstance(g_filter, SpectralFilter):
        if basis is None:
            raise InvalidParameter("a SpectralFilter needs a basis to be applied")
        filtered = apply_filter(basis, g_filter, x)
    else:
        filtered = np.asarray(g_filter) @ x
    return filtered[t]


def sampled_cross_correlation(f1: SpectralFilter, f2: SpectralFilter,
                              cfg: SamplingConfig) -> np.ndarray:
    """Folded product of two responses: R[i] = sum_l f1[i+K*l] f2[i+K*l]."""
    if f1.n != cfg.n or f2.n != cfg.n:
        raise DimensionMismatch("filters must have length n")
    return spectral_fold(f1.values * f2.values, cfg).values
