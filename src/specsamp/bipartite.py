"""Vertex/frequency sampling equivalence on bipartite graphs.

For a bipartite graph with equal parts, keeping the first part of a
signal is the vertex-domain face of graph-frequency folding: the paired
eigenbasis built here aligns each low eigenvalue lambda <= 1 of the
normalized Laplacian with its mirror 2 - lambda at offset K = N/2, so the
reduced-graph GFT of the kept samples equals the energy-normalized folded
spectrum exactly.

The paired basis comes from one SVD of the normalized adjacency block:
B = Phi Sigma Psi^T gives eigenvectors [phi; psi]/sqrt(2) at 1 - sigma and
[phi; -psi]/sqrt(2) at 1 + sigma, while Phi is simultaneously an
eigenbasis of the Kron-reduced Laplacian I - B B^T. Both identities then
hold to machine precision by construction, degenerate eigenvalues
included.

The spectral decimation pair used for the bridge is energy-preserving
(scaled by 1/sqrt(M)); its inverse direction surfaces as a gain of M in
the vertex-domain reconstruction, which makes the vertex pipeline agree
exactly with the plain frequency-domain sampling/reconstruction chain.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .chebyshev import ChebyshevFilter, apply_chebyshev, chebyshev_fit
from .errors import (
    DimensionMismatch,
    NotBipartite,
    PairingFailure,
    UnequalParts,
)
from .filters import SpectralFilter, bandlimit, bandlimit_response, from_response
from .graphs import Graph, VariationOperator, kron_reduce, normalized_laplacian
from .recovery import RecoveryDesign, Strategy, design_subspace_unconstrained
from .sampling import SamplingConfig, frequency_sample
from .spectral import SpectralBasis, _column_signs, apply_filter

_RESIDUAL_TOL = 1e-8
NORMALIZED_INTERVAL = (0.0, 2.0)


@dataclass(frozen=True)
class BipartiteSystem:
    """Paired spectral machinery for one bipartite graph.

    Vertices are internally permuted so the first part occupies indices
    0..N/2-1; ``perm`` maps internal positions to caller indices and every
    public operation accepts and returns signals in the caller's order.
    """

    graph: Graph
    perm: np.ndarray
    op_b: VariationOperator
    basis_b: SpectralBasis
    reduced_op: VariationOperator
    basis_reduced: SpectralBasis
    cfg: SamplingConfig

    @property
    def half(self) -> int:
        return self.cfg.k

    def to_internal(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.cfg.n:
            raise DimensionMismatch(f"signal length {x.shape[0]} != {self.cfg.n}")
        return x[self.perm]

    def to_caller(self, x_internal: np.ndarray) -> np.ndarray:
        out = np.empty_like(x_internal)
        out[self.perm] = x_internal
        return out


def build_system(g: Graph) -> BipartiteSystem:
    """Construct the paired eigenbasis and Kron-reduced basis for a
    bipartite graph with equal parts.

    Raises
    ------
    NotBipartite, UnequalParts
        If the graph carries no bipartition or its parts differ in size.
    PairingFailure
        If the constructed bases miss the sampling-identity residual
        (should not happen; exposed rather than assumed).
    """
    if g.bipartition is None:
        raise NotBipartite("graph carries no bipartition")
    v1, v2 = g.bipartition
    if len(v1) != len(v2):
        raise UnequalParts(f"parts have sizes {len(v1)} and {len(v2)}")
    half = len(v1)
    n = g.n
    perm = np.concatenate([np.sort(v1), np.sort(v2)])
    w_perm = g.weights[np.ix_(perm, perm)]
    g_perm = Graph(n, w_perm, bipartition=(np.arange(half), np.arange(half, n)))
    op_b = normalized_laplacian(g_perm)
    reduced_op = kron_reduce(op_b, np.arange(half))

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

    sys = BipartiteSystem(g, perm, op_b, basis_b, reduced_op, basis_reduced,
                          SamplingConfig(n, 2))
    diag_res = np.max(np.abs(phi.T @ reduced_op.matrix @ phi - np.diag(basis_reduced.lambdas)))
    if diag_res > _RESIDUAL_TOL or reduction_identity_residual(sys) > _RESIDUAL_TOL:
        raise PairingFailure("paired basis construction missed its residual bound")
    return sys


def reduction_identity_residual(sys: BipartiteSystem) -> float:
    """Max-norm residual of the vertex/frequency sampling identity:
    U_reduced (1/sqrt(M)) [I_K I_K] U_B^T against [I 0].

    The energy-preserving decimator is required here: with the plain fold
    the product is exactly sqrt(M) [I 0] for any orthonormal bases.
    """
    half = sys.half
    u_b = sys.basis_b.vectors
    folded = (u_b.T[:half, :] + u_b.T[half:, :]) / np.sqrt(2.0)
    product = sys.basis_reduced.vectors @ folded
    target = np.zeros((half, sys.cfg.n))
    target[:, :half] = np.eye(half)
    return float(np.max(np.abs(product - target)))


def verify_corollary1(sys: BipartiteSystem, s: SpectralFilter, x: np.ndarray) -> float:
    """Residual of filtered sampling equivalence: the reduced-basis view of
    energy-normalized frequency sampling must equal keeping the first part
    of the filtered signal. Returns max |difference|."""
    x_int = sys.to_internal(x)
    chat = frequency_sample(sys.basis_b, s, x_int, sys.cfg)
    lhs = sys.basis_reduced.vectors @ (chat.values / np.sqrt(sys.cfg.m))
    return float(np.max(np.abs(lhs - sample_first_part(sys, s, x_int))))


def build_wprime(w: SpectralFilter, h: np.ndarray) -> SpectralFilter:
    """Merge a reconstruction filter with a length-N/2 correction into one
    diagonal response: out[i] = w[i] * h[i mod N/2]."""
    h = np.asarray(h, dtype=float)
    if w.n != 2 * h.shape[0]:
        raise DimensionMismatch("need len(w) == 2 * len(h)")
    return SpectralFilter(w.values * np.tile(h, 2))


def _apply(sys: BipartiteSystem, f: Union[SpectralFilter, ChebyshevFilter],
           x: np.ndarray) -> np.ndarray:
    if isinstance(f, ChebyshevFilter):
        return apply_chebyshev(sys.op_b, f, x, lambda_max=2.0)
    return apply_filter(sys.basis_b, f, x)


def _zero_pad(part: np.ndarray) -> np.ndarray:
    return np.concatenate([part, np.zeros_like(part)])


def sample_first_part(sys: BipartiteSystem, g: Union[SpectralFilter, ChebyshevFilter],
                      x_int: np.ndarray) -> np.ndarray:
    """Vertex-domain sampling step: filter an internally ordered signal by
    g and keep the first part.

    ``g`` is a SpectralFilter on the paired basis, applied exactly, or a
    ChebyshevFilter fitted on the normalized interval [0, 2], applied by
    its recurrence on the normalized Laplacian.
    """
    return _apply(sys, g, x_int)[: sys.half]


def reconstruct_from_part(sys: BipartiteSystem, w: Union[SpectralFilter, ChebyshevFilter],
                          kept: np.ndarray) -> np.ndarray:
    """Vertex-domain reconstruction step: zero-pad the kept first part,
    filter by w (as in :func:`sample_first_part`), times the sampling
    ratio M. Returns an internally ordered signal."""
    return sys.cfg.m * _apply(sys, w, _zero_pad(kept))


def generate_one_branch(sys: BipartiteSystem, wprime: SpectralFilter,
                        d: np.ndarray) -> np.ndarray:
    """Synthesize an internally ordered one-branch signal from length-N/2
    coefficients: zero-pad onto the first part and filter by wprime."""
    return apply_filter(sys.basis_b, wprime, _zero_pad(d))


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
    kept = sample_first_part(sys, g, sys.to_internal(x))
    return sys.to_caller(reconstruct_from_part(sys, wprime, kept))


def _correction_response(sys: BipartiteSystem, h: np.ndarray) -> Callable[[float], float]:
    """Interpolate length-N/2 correction values into a function of the
    graph frequency, using the pairing lambda <-> 2 - lambda to fold upper
    frequencies onto the lower half."""
    h = np.asarray(h, dtype=float)
    lam_low = sys.basis_b.lambdas[: sys.half]
    order = np.argsort(lam_low)
    xs, ys = lam_low[order], h[order]

    def resp(lam: float) -> float:
        folded = min(lam, 2.0 - lam)
        return float(np.interp(folded, xs, ys))

    return resp


def fit_one_branch(sys: BipartiteSystem, a_resp: Callable[[float], float],
                   h: np.ndarray, order: int) -> Tuple[ChebyshevFilter, ChebyshevFilter]:
    """Order-``order`` Chebyshev fits of the one-branch sampling filter
    (the bandlimit surrogate) and of the combined decoding response
    a * h on the normalized interval [0, 2]."""
    s_resp = bandlimit_response(sys.basis_b, sys.half)
    h_resp = _correction_response(sys, h)

    def combined(lam: float) -> float:
        return a_resp(lam) * h_resp(lam)

    return (chebyshev_fit(s_resp, NORMALIZED_INTERVAL, order),
            chebyshev_fit(combined, NORMALIZED_INTERVAL, order))


def one_branch_design(sys: BipartiteSystem, a: SpectralFilter
                      ) -> Tuple[SpectralFilter, RecoveryDesign, SpectralFilter]:
    """The one-branch design for generator ``a``: the bandlimited sampling
    filter, its unconstrained DS design, and the combined reconstruction
    response a * h (see :func:`build_wprime`)."""
    s = bandlimit(sys.basis_b, sys.half)
    design = design_subspace_unconstrained(s, a, sys.cfg, Strategy.DS)
    return s, design, build_wprime(a, design.h)


@dataclass(frozen=True)
class OneBranchResult:
    """A one-branch signal, its decode and the design that decoded it."""

    original: np.ndarray
    decoded: np.ndarray
    design: RecoveryDesign


def one_branch_roundtrip(sys: BipartiteSystem, a_resp: Callable[[float], float],
                         d: np.ndarray, order: Optional[int] = None) -> OneBranchResult:
    """Compress a full-band signal through one bandlimited branch and
    decode it in the vertex domain.

    The signal is synthesized from length-N/2 coefficients ``d`` by
    zero-padding onto the first part and filtering with the combined
    reconstruction response; encoding keeps the first part of the
    bandlimited signal; decoding runs the vertex pipeline with the same
    combined response. With exact filters the round trip is lossless
    whenever the direct-sum condition holds; ``order`` switches sampling
    and decoding to Chebyshev-approximated filters.

    Raises
    ------
    DsConditionViolated
        If the bandlimited sampling filter and the generator fail the
        direct-sum condition.
    """
    d = np.asarray(d, dtype=float)
    half = sys.half
    if d.shape[0] != half:
        raise DimensionMismatch(f"expected {half} coefficients, got {d.shape[0]}")
    s, design, wprime = one_branch_design(sys, from_response(sys.basis_b, a_resp))
    x_int = generate_one_branch(sys, wprime, d)
    g, w = (s, wprime) if order is None else fit_one_branch(sys, a_resp, design.h, order)
    kept = sample_first_part(sys, g, x_int)
    decoded_int = reconstruct_from_part(sys, w, kept)
    return OneBranchResult(sys.to_caller(x_int), sys.to_caller(decoded_int), design)
