"""Vertex/frequency sampling equivalence on bipartite graphs.

For a bipartite graph with equal parts, keeping the first part of a
signal is the vertex-domain face of graph-frequency folding: the paired
eigenbasis built here aligns each low eigenvalue lambda <= 1 of the
normalized Laplacian with its mirror 2 - lambda at offset K = N/2, so the
reduced-graph GFT of the kept samples equals the energy-normalized folded
spectrum exactly.

The paired basis comes from one SVD of the normalized adjacency block:
B = Phi Sigma Psi^T gives eigenvectors [phi; psi]/sqrt(2) at 1 - sigma and
[phi; -psi]/sqrt(2) at 1 + sigma. The reduced graph is the Kron reduction
of the normalized Laplacian onto the first part. The graph is stored first
part first, so the eliminated block is exactly I and the reduced Laplacian
is I - B B^T, which the same Phi diagonalizes at 1 - sigma^2. Both
identities then hold to machine precision by construction, degenerate
eigenvalues included.

Under the pairing lambda_max = 2, the one-branch bandlimit cuts at
lambda = 1 and its DS correction is h = 1/a on the lower half, so the
sampling filter is the step at 1 and the decoding response of generator a
is a(lambda) / a(min(lambda, 2 - lambda)): their Chebyshev fits need no basis.

The spectral decimation pair used for the bridge is energy-preserving
(scaled by 1/sqrt(M)); its inverse direction surfaces as a gain of M in
the vertex-domain reconstruction, which makes the vertex pipeline agree
exactly with the plain frequency-domain sampling/reconstruction chain.
"""

from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .chebyshev import ChebyshevFilter, apply_chebyshev, chebyshev_fit
from .errors import (
    DimensionMismatch,
    DsConditionViolated,
    NotBipartite,
    PairingFailure,
    UnequalParts,
)
from .filters import SpectralFilter, bandlimit
from .graphs import Graph, VariationOperator, normalized_laplacian
from .recovery import design_subspace_unconstrained
from .sampling import SamplingConfig, _scaled_upsample, frequency_sample
from .spectral import SpectralBasis, _column_signs, apply_filter

_RESIDUAL_TOL = 1e-8
NORMALIZED_INTERVAL = (0.0, 2.0)


@dataclass(frozen=True)
class BipartiteSystem:
    """Paired spectral machinery for one bipartite graph.

    The graph is stored first part first (its ``bipartition`` is the first
    part's size, N/2), so vertices 0..N/2-1 are the first part and every
    signal here is in the graph's own vertex order. ``residual`` is the
    max-norm residual of the SVD both bases come from.
    """

    op_b: VariationOperator
    basis_b: SpectralBasis
    basis_reduced: SpectralBasis
    cfg: SamplingConfig
    residual: float

    @property
    def half(self) -> int:
        return self.cfg.k


def build_system(g: Graph) -> BipartiteSystem:
    """Construct the paired eigenbasis and the reduced-graph basis for a
    bipartite graph with equal parts, both from one SVD.

    Raises
    ------
    NotBipartite, UnequalParts
        If the graph carries no bipartition or its parts differ in size.
    PairingFailure
        If the SVD it takes is not one: Phi or Psi is not orthonormal, or
        B Psi misses Phi Sigma (should not happen; exposed rather than
        assumed).
    """
    if g.bipartition is None:
        raise NotBipartite("graph carries no bipartition")
    half, n = g.bipartition, g.n
    if 2 * half != n:
        raise UnequalParts(f"parts have sizes {half} and {n - half}")
    op_b = normalized_laplacian(g)

    block = -op_b.matrix[:half, half:]
    phi, sigma, psi_t = np.linalg.svd(block)
    signs = _column_signs(phi)
    phi *= signs
    psi = psi_t.T
    psi *= signs
    # svd() sorts sigma descending, so 1 - sigma is already ascending.
    lam_low = 1.0 - sigma
    basis_reduced = SpectralBasis(phi, 1.0 - sigma**2)

    u_b = np.block([[phi, phi], [psi, -psi]])
    u_b *= 1.0 / np.sqrt(2.0)
    basis_b = SpectralBasis(u_b, np.concatenate([lam_low, 2.0 - lam_low]))

    # Phi and Psi are square, so orthonormal factors with B Psi = Phi Sigma
    # give both the pairing and the reduced basis of I - B B^T.
    eye = np.eye(half)
    residual = float(max(np.max(np.abs(phi.T @ phi - eye)),
                         np.max(np.abs(psi.T @ psi - eye)),
                         np.max(np.abs(block @ psi - phi * sigma))))
    if residual > _RESIDUAL_TOL:
        raise PairingFailure(f"SVD residual {residual!r} exceeds its bound")
    return BipartiteSystem(op_b, basis_b, basis_reduced, SamplingConfig(n, 2), residual)


def verify_corollary1(sys: BipartiteSystem, s: SpectralFilter, x: np.ndarray) -> float:
    """Residual of filtered sampling equivalence: the reduced-basis view of
    energy-normalized frequency sampling must equal keeping the first part
    of the filtered signal. Returns max |difference|."""
    chat = frequency_sample(sys.basis_b, s, x, sys.cfg)
    lhs = sys.basis_reduced.vectors @ (chat.values / np.sqrt(sys.cfg.m))
    return float(np.max(np.abs(lhs - sample_first_part(sys, s, x))))


def build_wprime(w: SpectralFilter, h: np.ndarray) -> SpectralFilter:
    """Merge a reconstruction filter with a length-N/2 correction into one
    diagonal response: out[i] = w[i] * h[i mod N/2]."""
    h = np.asarray(h, dtype=float)
    if w.n != 2 * h.shape[0]:
        raise DimensionMismatch("need len(w) == 2 * len(h)")
    return SpectralFilter(_scaled_upsample(w.values, h, SamplingConfig(w.n, 2)))


def _apply(sys: BipartiteSystem, f: Union[SpectralFilter, ChebyshevFilter],
           x: np.ndarray) -> np.ndarray:
    if isinstance(f, ChebyshevFilter):
        return apply_chebyshev(sys.op_b, f, x, lambda_max=2.0)
    return apply_filter(sys.basis_b, f, x)


def _zero_pad(part: np.ndarray) -> np.ndarray:
    return np.concatenate([part, np.zeros_like(part)])


def sample_first_part(sys: BipartiteSystem, g: Union[SpectralFilter, ChebyshevFilter],
                      x: np.ndarray) -> np.ndarray:
    """Vertex-domain sampling step: filter a signal by g and keep the
    first part.

    ``g`` is a SpectralFilter on the paired basis, applied exactly, or a
    ChebyshevFilter fitted on the normalized interval [0, 2], applied by
    its recurrence on the normalized Laplacian.
    """
    return _apply(sys, g, x)[: sys.half]


def reconstruct_from_part(sys: BipartiteSystem, w: Union[SpectralFilter, ChebyshevFilter],
                          kept: np.ndarray) -> np.ndarray:
    """Vertex-domain reconstruction step: zero-pad the kept first part,
    filter by w (as in :func:`sample_first_part`), times the sampling
    ratio M."""
    return sys.cfg.m * _apply(sys, w, _zero_pad(kept))


def generate_one_branch(sys: BipartiteSystem,
                        wprime: Union[SpectralFilter, ChebyshevFilter],
                        d: np.ndarray) -> np.ndarray:
    """Synthesize a one-branch signal from length-N/2 coefficients:
    zero-pad onto the first part and filter by wprime (as in
    :func:`sample_first_part`)."""
    return _apply(sys, wprime, _zero_pad(d))


def vertex_pipeline(sys: BipartiteSystem, g: Union[SpectralFilter, ChebyshevFilter],
                    wprime: Union[SpectralFilter, ChebyshevFilter],
                    x: np.ndarray) -> np.ndarray:
    """Sample and reconstruct entirely in the vertex domain: filter by g,
    keep the first part, zero-pad, filter by wprime, times the sampling
    ratio M.

    The M gain makes this composition equal the frequency-domain chain
    (plain fold sampling followed by correct/upsample/filter
    reconstruction) exactly, for every pair of spectral filters. With
    ChebyshevFilters fitted on [0, 2] both filters run as recurrences on
    the normalized Laplacian and no eigendecomposition is touched.
    """
    return reconstruct_from_part(sys, wprime, sample_first_part(sys, g, x))


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


def one_branch_design(sys: BipartiteSystem, a: SpectralFilter
                      ) -> Tuple[SpectralFilter, SpectralFilter]:
    """The one-branch design for generator ``a`` on the paired basis: the
    bandlimited sampling filter and the combined reconstruction response
    a * h of its unconstrained DS design (see :func:`build_wprime`)."""
    s = bandlimit(sys.basis_b, sys.half)
    design = design_subspace_unconstrained(s, a, sys.cfg)
    return s, build_wprime(a, design.h)
