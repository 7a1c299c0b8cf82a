"""Chebyshev polynomial approximation of spectral filters.

Fitting uses Chebyshev-Gauss quadrature with 2P nodes under the T_0/2
convention, so a degree-P fit of a degree-<=P polynomial is exact. The
resulting filter is applied with matrix-vector products only, giving a
P-hop localized vertex-domain realization that never touches the
eigendecomposition. The products are taken with the operator's
``product_matrix``, the form it was built in: a sparse normalized
Laplacian's CSR matrix, so each product costs O(nnz) rather than O(N^2), or
a dense operator's dense matrix.

A filter may hold a stack of expansions on one interval, one per row of its
coefficient matrix (see :func:`stack`). One recurrence then serves every row:
the terms T_k(A)x depend on x and k only, so a stack of F fits costs the
products of its top order, not of F recurrences. Outputs carry the stack
axis last. The recurrence updates each new term in place and adds every
coefficient's term through one reused buffer.

The one recurrence also runs on the two parts of a bipartite vertex set,
where the mapped operator sends each part onto the other: terms alternate
between the parts and are held at half size (the bipartite reconstruction
step, :mod:`specsamp.bipartite`).
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import IntervalMismatch, InvalidParameter
from .graphs import VariationOperator, _frozen, _integer, _real, _signal

GRID_POINTS = 1000


def _interval(interval) -> Tuple[float, float]:
    """``interval`` as floats (a, b); InvalidParameter unless two finite reals with a < b."""
    try:
        a, b = (_real(v, "interval end") for v in interval)
    except (TypeError, ValueError):  # not two ends: refused below
        a = b = 0.0
    if not a < b:
        raise InvalidParameter(f"need an interval (a, b) with a < b, got {interval!r}")
    return a, b


@dataclass(frozen=True, eq=False)
class ChebyshevFilter:
    """Chebyshev expansion of a spectral response on an interval, or a stack
    of them.

    coeffs is a nonempty finite vector; the represented response is
    coeffs[0]/2 + sum_k coeffs[k] T_k, k = 1..order, on the interval (a, b),
    finite with a < b, mapped to [-1, 1]. A stack's coeffs is an (F, P+1)
    matrix, one expansion per row on the shared interval, lower orders
    zero-padded; its order is the top order P, and a row's trailing zeros
    are skipped when it is applied. fit_error, keyword-only, is the max
    absolute error on a 1000-point grid, a finite real number >= 0: for a
    stack, the largest of its rows'.
    """

    coeffs: np.ndarray
    interval: Tuple[float, float]
    fit_error: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "interval", _interval(self.interval))
        err = _real(self.fit_error, "fit_error")
        if err < 0:
            raise InvalidParameter(f"need fit_error >= 0, got {err}")
        object.__setattr__(self, "fit_error", err)
        c = _frozen(self.coeffs, "coefficients")
        if c.ndim not in (1, 2) or not c.size:
            raise InvalidParameter("coefficients must be a nonempty vector or a stack of "
                                   f"them, got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """The degree P of the expansion, the top one of a stack: one less
        than its coefficients per row."""
        return self.coeffs.shape[-1] - 1


def stack(filters: Sequence[ChebyshevFilter]) -> ChebyshevFilter:
    """The filters' expansions as one stack, in order, each row zero-padded
    to the top order; its fit_error is the largest of theirs.

    Raises
    ------
    InvalidParameter
        If no filter is given.
    IntervalMismatch
        If the filters do not share one interval.
    """
    if not filters:
        raise InvalidParameter("need at least one filter to stack")
    interval = filters[0].interval
    if any(f.interval != interval for f in filters):
        raise IntervalMismatch(f"stacked filters need one interval, got "
                               f"{sorted({f.interval for f in filters})}")
    rows = [np.atleast_2d(f.coeffs) for f in filters]
    top = max(r.shape[1] for r in rows)
    coeffs = np.concatenate([np.pad(r, ((0, 0), (0, top - r.shape[1]))) for r in rows])
    return ChebyshevFilter(coeffs, interval, fit_error=max(f.fit_error for f in filters))


def _recurrence(cf: ChebyshevFilter, x: np.ndarray, mapped: Callable,
                parts: int = 1) -> np.ndarray:
    """coeffs[0]/2 x + sum_k coeffs[k] T_k(A) x by the three-term
    recurrence, where ``mapped(v, k)`` returns A v, a new array, as the
    k-th term's product. ``x`` is taken as float, or complex if it is.

    Each term is formed once, with cf.order products, and every row of a
    stack adds it in the same order as a filter of that row alone, so each
    output is bit-identical to the single-filter one. A row stops at its
    last nonzero coefficient. Each new term is updated in place, and each
    coefficient's term is added through one reused buffer. A stack's
    outputs are returned along a trailing axis, each a contiguous block.

    With ``parts`` = 2, A maps a two-part vertex set's parts onto each other
    and x lies on the first: the terms of even k lie on the first part and
    those of odd k on the second, so each is held at half size, and
    ``mapped`` gets the term of k - 1 and returns the k-th's part only.
    The output stacks the two parts' sums, first part first.
    """
    x = x.astype(np.result_type(x.dtype, np.float64), copy=False)
    rows = np.atleast_2d(cf.coeffs)
    stops = [np.flatnonzero(c)[-1] if c.any() else 0 for c in rows]
    out = np.zeros((len(rows), parts) + x.shape, dtype=np.result_type(rows, x))
    term = np.empty(x.shape, dtype=out.dtype)
    for f, c in enumerate(rows):
        np.multiply(x, 0.5 * c[0], out=out[f, 0, ...])
    t_prev, t_cur = None, x
    for k in range(1, cf.order + 1):
        t = mapped(t_cur, k)
        if k > 1:
            t *= 2.0
            t -= t_prev
        t_prev, t_cur = t_cur, t
        for f, stop in enumerate(stops):
            if k <= stop:
                out[f, k % parts, ...] += np.multiply(t, rows[f, k], out=term)
    out = out[:, 0] if parts == 1 else out.reshape(len(rows), -1, *x.shape[1:])
    return out[0] if cf.coeffs.ndim == 1 else np.moveaxis(out, 0, -1)


def evaluate(cf: ChebyshevFilter, lam) -> np.ndarray:
    """Evaluate the expansion at scalar or array frequencies, finite and
    real, else InvalidParameter; a stack's values run along a trailing axis."""
    a, b = cf.interval
    t = (2.0 * _frozen(lam, "frequencies") - (a + b)) / (b - a)
    return _recurrence(cf, np.ones_like(t), lambda v, k: t * v)


def chebyshev_fit(response: Callable[[float], float], interval: Tuple[float, float],
                  order: int) -> ChebyshevFilter:
    """Fit a bounded scalar response by a degree-``order`` Chebyshev expansion.

    Parameters
    ----------
    response : callable
        Scalar function bounded on the interval.
    interval : (a, b)
        Fitting interval, typically [0, lambda_max].
    order : int
        Polynomial degree P >= 1.
    """
    order = _integer(order, "order", 1)
    a, b = _interval(interval)
    npts = 2 * order
    theta = np.pi * (np.arange(npts) + 0.5) / npts
    nodes = 0.5 * (b - a) * np.cos(theta) + 0.5 * (a + b)
    fvals = np.array([response(lam) for lam in nodes], dtype=float)
    ks = np.arange(order + 1)
    coeffs = (2.0 / npts) * (np.cos(np.outer(ks, theta)) @ fvals)
    cf = ChebyshevFilter(coeffs, (a, b))
    grid = np.linspace(a, b, GRID_POINTS)
    exact = np.array([response(lam) for lam in grid], dtype=float)
    err = float(np.max(np.abs(evaluate(cf, grid) - exact)))
    return ChebyshevFilter(coeffs, (a, b), fit_error=err)


def apply_chebyshev(op: VariationOperator, cf: ChebyshevFilter, x: np.ndarray,
                    lambda_max: float = None) -> np.ndarray:
    """Apply a fitted filter, or a stack of them, through the Chebyshev
    recurrence: ``cf.order`` products per column of ``x``, and for a stack
    an (N, F) or (N, T, F) output, one filtered copy of ``x`` per row.

    Only matrix-vector products with ``op.product_matrix`` are used.
    When the caller knows the operator's largest frequency it can pass it
    so the interval coverage is checked.

    Raises
    ------
    DimensionMismatch
        If ``x`` is not (N,) or (N, T), one row per vertex of ``op``.
    IntervalMismatch
        If ``lambda_max`` is given and exceeds the fit interval.
    InvalidParameter
        If ``lambda_max`` is given and is not a finite real number.
    """
    x = _signal(x, op.n)
    a, b = cf.interval
    if lambda_max is not None and (_real(lambda_max, "lambda_max") > b + 1e-9 or a > 1e-9):
        raise IntervalMismatch(f"interval [{a}, {b}] does not cover [0, {lambda_max}]")
    m = op.product_matrix
    scale = 2.0 / (b - a)
    shift = (a + b) / (b - a)

    def mapped(v, k):
        t = m @ v
        t *= scale
        t -= shift * v
        return t

    return _recurrence(cf, x, mapped)
