"""Graph Fourier transform: eigenbasis construction, forward/inverse
transforms, and spectral filtering.

Signals and spectra are ``(N,)`` or ``(N, T)``: a trailing axis holds T
trials, and every transform and filter acts along axis 0. Eigenbases
transform by dense products with their vectors, O(N^2) per signal. The DFT
basis of the cycle transforms by FFT, O(N log N) per signal, and forms its
N x N matrix only when ``vectors`` is read.
"""

from functools import cached_property, partial

import numpy as np

from .errors import DimensionMismatch, EigensolveFailure
from .filters import SpectralFilter
from .graphs import VariationOperator, _dense, _frozen, _integer, _signal

_SIGN_TOL = 1e-8


class SpectralBasis:
    """Orthonormal GFT basis: eigenvector columns and graph frequencies.

    For Laplacian eigenbases the frequencies are ascending. Constructed
    bases (the DFT basis, paired bipartite bases) keep their own
    documented index order instead.

    ``vectors`` and ``lambdas`` are read-only. A basis built by
    :meth:`_on_demand` forms ``vectors`` when it is first read and keeps it.
    """

    def __init__(self, vectors, lambdas):
        u = _frozen(vectors, "basis vectors", dtype=None)
        lam = _frozen(lambdas, "frequencies")
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] != len(lam):
            raise DimensionMismatch("basis must be square with one frequency per column")
        # Fields go straight into the instance dict, since __setattr__
        # refuses; a stored ``vectors`` shadows the on-demand property.
        vars(self).update(vectors=u, lambdas=lam, _fourier=False)

    @classmethod
    def _on_demand(cls, lambdas, form_vectors, fourier: bool) -> "SpectralBasis":
        """A basis whose ``vectors`` are ``form_vectors()``, called on first
        read. ``fourier`` marks the unitary DFT basis, which ``gft`` and
        ``igft`` apply by FFT."""
        b = cls.__new__(cls)
        vars(b).update(lambdas=_frozen(lambdas, "frequencies"),
                       _form_vectors=form_vectors, _fourier=fourier)
        return b

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @cached_property
    def vectors(self) -> np.ndarray:
        # The formed matrix is the library's own: frozen in place, not copied.
        u = self._form_vectors()
        u.flags.writeable = False
        return u

    @property
    def n(self) -> int:
        return len(self.lambdas)


def _column_signs(u: np.ndarray) -> np.ndarray:
    """+1 or -1 per column, so that ``u * signs`` has each column's first
    entry above threshold positive."""
    big = np.abs(u) > _SIGN_TOL
    lead = u[np.argmax(big, axis=0), np.arange(u.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -1.0, 1.0)


def eigendecompose(op: VariationOperator) -> SpectralBasis:
    """Eigendecompose a variation operator into an orthonormal GFT basis.

    Eigenvalues come out ascending, and each eigenvector's first entry
    above threshold is positive. A degenerate eigenspace keeps the basis
    LAPACK returns for it.

    Raises
    ------
    EigensolveFailure
        If the symmetric eigensolver does not converge.
    """
    try:
        lam, u = np.linalg.eigh(_dense(op.matrix))
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    u *= _column_signs(u)
    return SpectralBasis(u, lam)


def _dft_matrix(n: int) -> np.ndarray:
    # exp(2j*pi*m*m'/n)/sqrt(n), formed in place in one n x n array.
    m = np.arange(n)
    u = 2j * np.pi * np.outer(m, m)
    u /= n
    np.exp(u, out=u)
    u /= np.sqrt(n)
    return u


def dft_basis(n: int) -> SpectralBasis:
    """Unitary DFT basis in frequency-index order.

    Column i is exp(+2j*pi*i*m/n)/sqrt(n), so the forward transform
    equals the unitary DFT. The attached frequencies are the circulant
    Laplacian eigenvalues 2 - 2cos(2*pi*i/n), kept in index order (they
    are not monotone). ``gft`` and ``igft`` apply this basis by FFT in
    O(n log n); the n x n matrix is formed only when ``vectors`` is read; n >= 2.
    """
    n = _integer(n, "n", 2)
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return SpectralBasis._on_demand(lam, partial(_dft_matrix, n), fourier=True)


def gft(b: SpectralBasis, x: np.ndarray) -> np.ndarray:
    """Forward transform: xhat[i] = <u_i, x>; the unitary DFT, by FFT, on
    the DFT basis."""
    x = _signal(x, b.n)
    if b._fourier:
        return np.fft.fft(x, axis=0, norm="ortho")
    # U* x without forming the conjugated N x N basis; conj() is free on
    # real arrays.
    return (b.vectors.T @ x.conj()).conj()


def igft(b: SpectralBasis, xhat: np.ndarray) -> np.ndarray:
    """Inverse transform: x = U xhat; the unitary inverse DFT, by FFT, on
    the DFT basis."""
    xhat = _signal(xhat, b.n, "spectrum")
    if b._fourier:
        return np.fft.ifft(xhat, axis=0, norm="ortho")
    return b.vectors @ xhat


def apply_filter(b: SpectralBasis, f: SpectralFilter, x: np.ndarray) -> np.ndarray:
    """Spectral filtering: U diag(f) U* x."""
    if f.n != b.n:
        raise DimensionMismatch(f"filter length {f.n} != {b.n}")
    return igft(b, _scale_rows(f.values, gft(b, x)))


def _scale_rows(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(values) x for a signal or spectrum with an optional trailing
    trial axis."""
    return values.reshape(-1, *[1] * (np.ndim(x) - 1)) * x
