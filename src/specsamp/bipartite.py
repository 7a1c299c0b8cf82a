"""Vertex/frequency sampling equivalence on bipartite graphs.

For a bipartite graph with equal parts, keeping the first part of a
signal is the vertex-domain face of graph-frequency folding: the paired
eigenbasis built here aligns each low eigenvalue lambda <= 1 of the
normalized Laplacian with its mirror 2 - lambda at offset K = N/2, so the
reduced-graph GFT of the kept samples equals the energy-normalized folded
spectrum exactly.

The paired basis comes from the SVD of the normalized adjacency block:
B = Phi Sigma Psi^T gives eigenvectors [phi; psi]/sqrt(2) at 1 - sigma and
[phi; -psi]/sqrt(2) at 1 + sigma. When the weights certify sigma_min(B) away
from 0, as a dominant matching does, the factors come from the cheaper
symmetric eigensolver instead: eigh(B B^T) gives Sigma^2 and Phi, and
Psi = B^T Phi Sigma^-1. Otherwise, as on K_{n,n}, where sigma = 0, they
come from one SVD. Either way the same residual check guards them. The
reduced graph is the Kron reduction of the normalized Laplacian onto the
first part. The graph is stored first part first, so the eliminated block
is exactly I and the reduced Laplacian is I - B B^T, which the same Phi
diagonalizes at 1 - sigma^2: Phi is the reduced-graph basis. Both
identities hold to machine precision by construction, degenerate
eigenvalues included.

Only Phi and Psi are kept. The N x N paired basis is formed when its
``vectors`` are first read; exact filters never read them. With
f = [f_lo; f_hi], a = Phi^T x_1 + Psi^T x_2 and b = Phi^T x_1 - Psi^T x_2,
U diag(f) U^T x = [Phi (f_lo a + f_hi b); Psi (f_lo a - f_hi b)] / 2, in
half-size products; a zero-padded part skips Psi^T x_2, and a first-part
result skips the Psi product.

Under the pairing lambda_max = 2, the one-branch bandlimit cuts at
lambda = 1 and its DS correction is h = 1/a on the lower half, so the
sampling filter is the step at 1 and the decoding response of generator a
is a(lambda) / a(min(lambda, 2 - lambda)). The exact reconstruction filter
is that response sampled at the paired frequencies, but the exact sampling
filter is the bandlimit to the first N/2 indices, not the step sampled
there. They differ where B has a zero singular value: both vectors of that
pair sit at lambda = 1, the bandlimit keeps the lower one and the step
drops it. On K_{4,4} (lambda = 0, 1, 1, 1 | 2, 1, 1, 1) exact recovery errs
by about 1e-15, and by order 1 with the step. The Chebyshev fits need no
basis; a polynomial in L cannot tell tied lambda = 1 vectors apart.

The Chebyshev fits run on [0, 2], where their argument is L - I =
-[[0, B], [B^T, 0]] exactly: the normalized Laplacian holds exact 1s and 0s
in its diagonal blocks. So T_k(L - I) maps a zero-padded first part onto
the second part for odd k and back onto the first for even k, and the
reconstruction step runs its recurrence on half-size terms, one product
with an N/2 x N/2 cross block of the operator each, with no padding. The
sampling step filters a full signal by the full-size recurrence. A fit on
another interval is refused.

The spectral decimation pair used for the bridge is energy-preserving
(scaled by 1/sqrt(M)); its inverse direction surfaces as a gain of M in
the vertex-domain reconstruction, so that sample_first_part followed by
reconstruct_from_part equals the frequency-domain chain exactly.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple, Union

import numpy as np

from .chebyshev import ChebyshevFilter, _recurrence, apply_chebyshev, chebyshev_fit
from .errors import (
    DimensionMismatch,
    DsConditionViolated,
    EigensolveFailure,
    IntervalMismatch,
    NotBipartite,
    PairingFailure,
    UnequalParts,
)
from .filters import SpectralFilter, bandlimit, from_response
from .graphs import (
    Graph,
    VariationOperator,
    _dense,
    _signal,
    normalized_laplacian,
)
from .sampling import SamplingConfig, frequency_sample
from .spectral import SpectralBasis, _column_signs, _scale_rows, apply_filter

_RESIDUAL_TOL = 1e-8
NORMALIZED_INTERVAL = (0.0, 2.0)


@dataclass(frozen=True, eq=False)
class BipartiteSystem:
    """Paired spectral machinery for one bipartite graph.

    The graph is stored first part first (its ``bipartition`` is the first
    part's size, N/2), so vertices 0..N/2-1 are the first part and every
    signal here is in the graph's own vertex order. ``phi`` and ``psi`` are
    the read-only SVD factors of the adjacency block, B = Phi Sigma Psi^T;
    ``phi`` is the reduced-graph basis. ``basis_b`` holds the paired
    frequencies and forms its N x N vectors from them only when they are
    read; exact filters go through ``phi`` and ``psi`` instead. ``residual``
    is the max-norm residual of that SVD, max |Phi^T Phi - I|,
    |Psi^T Psi - I| and |B Psi - Phi Sigma|, whether the factors came from
    eigh(B B^T) or from svd(B). The one-branch sampling setup
    follows from the operator's size N: ``cfg`` samples at M = 2, keeping
    ``half`` = K = N/2 samples.
    """

    op_b: VariationOperator
    phi: np.ndarray
    psi: np.ndarray
    basis_b: SpectralBasis
    residual: float

    @property
    def half(self) -> int:
        return self.op_b.n // 2

    @property
    def cfg(self) -> SamplingConfig:
        return SamplingConfig(self.op_b.n, 2)


def _paired_vectors(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The paired eigenbasis [[Phi, Phi], [Psi, -Psi]] / sqrt(2), filled
    into one N x N array (np.block would also hold its concatenated rows)."""
    half = len(phi)
    u_b = np.empty((2 * half, 2 * half))
    u_b[:half, :half] = u_b[:half, half:] = phi
    u_b[half:, :half] = psi
    np.negative(psi, out=u_b[half:, half:])
    u_b *= 1.0 / np.sqrt(2.0)
    return u_b


def _sigma_min_bound(g: Graph) -> float:
    """A lower bound on the smallest singular value of B from the weights
    alone, or 0.0 when there is none.

    With pi the row argmax of the cross block W, a permutation, write
    W = D_pi + E. Weyl's bound and the Schur test give
    sigma_min(W) >= min_i W_{i,pi(i)} - sqrt(max row sum(E) max col sum(E)),
    and B = D_1^{-1/2} W D_2^{-1/2} gives
    sigma_min(B) >= sigma_min(W) / sqrt(max d_1 max d_2).
    """
    half = g.bipartition
    w = g.weights[:half, half:]
    partner = np.argmax(w, axis=1)
    if np.any(np.bincount(partner, minlength=half) != 1):
        return 0.0
    matched = w[np.arange(half), partner]
    d_1, d_2 = w.sum(axis=1), w.sum(axis=0)
    col_e = d_2.copy()
    col_e[partner] -= matched
    bound = matched.min() - np.sqrt(np.max(d_1 - matched) * col_e.max())
    # Less 4 half eps: B is built and factored in floating point. Each entry
    # is within a few eps of the exact one, and the bound can be tight (it
    # is exactly sigma_min(B) on some 4 + 4 vertex matched graphs).
    bound = bound / np.sqrt(d_1.max() * d_2.max()) - 4 * half * np.finfo(float).eps
    return max(float(bound), 0.0)


def _svd_factors(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi, sigma (descending) and Psi of B = Phi Sigma Psi^T, by SVD."""
    try:
        phi, sigma, psi_t = np.linalg.svd(block)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    return phi, sigma, psi_t.T


def _eigh_factors(block) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi, sigma (descending) and Psi of B = Phi Sigma Psi^T, for a dense or
    CSR block with a certified sigma_min: eigh(B B^T) gives sigma^2 and Phi,
    and Psi = B^T Phi / sigma."""
    try:
        mu, phi = np.linalg.eigh(_dense(block @ block.T))
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(str(exc)) from exc
    # eigh() sorts ascending; reversed, sigma descends as svd() returns it.
    sigma = np.sqrt(mu[::-1])
    phi = np.ascontiguousarray(phi[:, ::-1])
    psi = block.T @ phi
    psi *= 1.0 / sigma
    return phi, sigma, psi


def _svd_residual(block, phi: np.ndarray, sigma: np.ndarray, psi: np.ndarray) -> float:
    """max |Phi^T Phi - I|, |Psi^T Psi - I| and |B Psi - Phi Sigma|, each
    formed in place in one half-size array; NaN if any term holds one."""
    terms = []
    for f in (phi, psi):
        gram = f.T @ f
        gram.flat[::len(gram) + 1] -= 1.0
        terms.append(np.abs(gram, out=gram).max())
    r = block @ psi
    r -= phi * sigma
    terms.append(np.abs(r, out=r).max())
    # np.max keeps a NaN from any of the three, and NaN fails the bound.
    return float(np.max(terms))


def build_system(g: Graph) -> BipartiteSystem:
    """Construct the paired eigenbasis of a bipartite graph with equal
    parts, kept as the factors Phi and Psi of its adjacency block.

    The block is read from the normalized Laplacian in the form it was
    built in, CSR on a sparse graph. When the weights certify
    sigma_min(B) >= b with b^2 above the residual bound, the factors come
    from eigh(B B^T) on the block in that form; otherwise, as on K_{n,n},
    from one SVD of the dense block. The graph's weights are not read after
    the operator and the certificate are taken.

    Raises
    ------
    NotBipartite, UnequalParts
        If the graph carries no bipartition or its parts differ in size.
    EigensolveFailure
        If the SVD or eigensolver does not converge.
    PairingFailure
        If the factors it takes are not an SVD: Phi or Psi is not
        orthonormal, or B Psi misses Phi Sigma (should not happen; exposed
        rather than assumed).
    """
    if g.bipartition is None:
        raise NotBipartite("graph carries no bipartition")
    half, n = g.bipartition, g.n
    if 2 * half != n:
        raise UnequalParts(f"parts have sizes {half} and {n - half}")
    op_b = normalized_laplacian(g)
    # A certified sigma_min keeps the division by sigma well conditioned.
    certified = _sigma_min_bound(g) ** 2 > _RESIDUAL_TOL
    # Past here only the operator is read: a caller that holds no other
    # reference to the graph frees its N x N weights before the factorization.
    del g

    # B, in the operator's own form for eigh(B B^T) and dense for the SVD.
    cross = op_b._form[:half, half:]
    block = -(cross if certified else _dense(cross))
    phi, sigma, psi = (_eigh_factors if certified else _svd_factors)(block)
    signs = _column_signs(phi)
    phi *= signs
    psi *= signs
    # sigma descends, so 1 - sigma is already ascending.
    lam_low = 1.0 - sigma

    # Phi and Psi are square, so orthonormal factors with B Psi = Phi Sigma
    # give both the pairing and the reduced basis of I - B B^T.
    residual = _svd_residual(block, phi, sigma, psi)
    if not residual <= _RESIDUAL_TOL:
        raise PairingFailure(f"SVD residual {residual!r} exceeds its bound")
    phi.flags.writeable = psi.flags.writeable = False
    basis_b = SpectralBasis._on_demand(np.concatenate([lam_low, 2.0 - lam_low]),
                                       partial(_paired_vectors, phi, psi), fourier=False)
    return BipartiteSystem(op_b, phi, psi, basis_b, residual)


def verify_corollary1(sys: BipartiteSystem, s: SpectralFilter, x: np.ndarray) -> float:
    """Residual of filtered sampling equivalence: the reduced-basis view of
    energy-normalized frequency sampling, one product with the reduced-graph
    basis Phi, must equal keeping the first part of the filtered signal.
    That part is taken twice, from the dense U diag(s) U^T x and by
    :func:`sample_first_part` through Phi and Psi, so this reads the paired
    basis's vectors. Returns the larger max |difference|."""
    chat = frequency_sample(sys.basis_b, s, x, sys.cfg)
    lhs = sys.phi @ (chat.values / np.sqrt(2.0))
    return float(max(np.max(np.abs(lhs - apply_filter(sys.basis_b, s, x)[:sys.half])),
                     np.max(np.abs(lhs - sample_first_part(sys, s, x)))))


def _apply_exact(sys: BipartiteSystem, f: SpectralFilter, x: np.ndarray,
                 padded: bool) -> np.ndarray:
    """U diag(f) U^T x through the halves Phi and Psi (see the module
    docstring), as :func:`_apply` takes it."""
    n, half = sys.op_b.n, sys.half
    if f.n != n:
        raise DimensionMismatch(f"filter length {f.n} != {n}")
    x = _signal(x, half if padded else n)
    a = sys.phi.T @ x[:half]
    b = a
    if not padded:
        psi_x = sys.psi.T @ x[half:]
        a, b = a + psi_x, a - psi_x
    # The 1/2 goes on the length-N/2 responses; a power of two scales exactly.
    lo, hi = _scale_rows(0.5 * f.values[:half], a), _scale_rows(0.5 * f.values[half:], b)
    first = sys.phi @ (lo + hi)
    if not padded:
        return first
    return np.concatenate([first, sys.psi @ (lo - hi)])


def _apply(sys: BipartiteSystem, f: Union[SpectralFilter, ChebyshevFilter],
           x: np.ndarray, padded: bool) -> np.ndarray:
    """The sampling step's filtering, f applied to a length-N x with only the
    first part of the result kept; or with ``padded``, the reconstruction
    step's, f applied to the kept part x zero-padded to N.

    A Chebyshev fit must be on [0, 2], where its argument is L - I. Its
    diagonal blocks are exactly 0 (the normalized Laplacian's are exactly
    I), so T_k(L - I) maps the padded part onto the second part for odd k
    and onto the first for even k: the reconstruction's recurrence runs on
    the half-size cross blocks of the product matrix.
    """
    if not isinstance(f, ChebyshevFilter):
        return _apply_exact(sys, f, x, padded)
    if f.interval != NORMALIZED_INTERVAL:
        raise IntervalMismatch(f"bipartite steps take fits on {list(NORMALIZED_INTERVAL)}, "
                               f"got {list(f.interval)}")
    if not padded:
        return apply_chebyshev(sys.op_b, f, x)[:sys.half]
    m, half = sys.op_b.product_matrix, sys.half
    # Indexed by the parity of k: onto the first part, onto the second.
    blocks = (m[:half, half:], m[half:, :half])
    return _recurrence(f, _signal(x, half), lambda t, k: blocks[k % 2] @ t, parts=2)


def sample_first_part(sys: BipartiteSystem, g: Union[SpectralFilter, ChebyshevFilter],
                      x: np.ndarray) -> np.ndarray:
    """Vertex-domain sampling step: filter a signal by g and keep the
    first part.

    ``g`` is a SpectralFilter on the paired basis, applied exactly, or a
    ChebyshevFilter fitted on the normalized interval [0, 2], applied by
    its recurrence on the normalized Laplacian; a fit on any other interval
    raises IntervalMismatch. ``x`` is (N,) or (N, T), else DimensionMismatch.
    """
    return _apply(sys, g, x, padded=False)


def reconstruct_from_part(sys: BipartiteSystem, w: Union[SpectralFilter, ChebyshevFilter],
                          kept: np.ndarray) -> np.ndarray:
    """Vertex-domain reconstruction step: zero-pad the kept first part,
    filter by w (as in :func:`sample_first_part`), times the sampling
    ratio M. ``kept`` is (N/2,) or (N/2, T). A Chebyshev fit's recurrence
    takes only half-size products and pads nothing (see :func:`_apply`)."""
    return sys.cfg.m * _apply(sys, w, kept, padded=True)


def _step_response(lam: float) -> float:
    """The one-branch sampling filter as a function of frequency: the
    bandlimit to the lower half, whose cut under the pairing is lambda = 1."""
    return 1.0 if lam < 1.0 else 0.0


def _decoding_response(a_resp: Callable[[float], float]) -> Callable[[float], float]:
    """The one-branch decoding response a(lambda) / a(min(lambda, 2 - lambda)):
    the generator times its DS correction 1/a, folded onto the lower half."""
    def resp(lam: float) -> float:
        folded = a_resp(min(lam, 2.0 - lam))
        if folded == 0:
            raise DsConditionViolated(f"generator vanishes at folded frequency {lam!r}")
        return a_resp(lam) / folded

    return resp


def fit_one_branch(a_resp: Callable[[float], float],
                   order: int) -> Tuple[ChebyshevFilter, ChebyshevFilter]:
    """Order-``order`` Chebyshev fits on [0, 2] of the one-branch sampling
    filter and decoding response, closed forms of ``a_resp`` that need no
    basis.

    Raises
    ------
    DsConditionViolated
        If the generator vanishes on the lower half of the interval.
    """
    return (chebyshev_fit(_step_response, NORMALIZED_INTERVAL, order),
            chebyshev_fit(_decoding_response(a_resp), NORMALIZED_INTERVAL, order))


def one_branch_design(sys: BipartiteSystem, a_resp: Callable[[float], float]
                      ) -> Tuple[SpectralFilter, SpectralFilter]:
    """Exact one-branch design: the bandlimit to the first N/2 indices and
    the decoding response of :func:`fit_one_branch` sampled at the paired
    frequencies; DsConditionViolated where a(folded) is 0. The bandlimit is
    not the step at 1 sampled there: it keeps the lower vector of each pair
    that a zero singular value of B puts at lambda = 1, which the step drops
    and exact recovery needs."""
    return (bandlimit(sys.basis_b, sys.half),
            from_response(sys.basis_b, _decoding_response(a_resp)))
