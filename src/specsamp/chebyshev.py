"""Chebyshev polynomial approximation of spectral filters.

Fitting uses Chebyshev-Gauss quadrature with 2P nodes under the T_0/2
convention, so a degree-P fit of a degree-<=P polynomial is exact. The
resulting filter is applied with matrix-vector products only, giving a
P-hop localized vertex-domain realization that never touches the
eigendecomposition.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import IntervalMismatch, InvalidParameter
from .graphs import VariationOperator

GRID_POINTS = 1000


@dataclass(frozen=True)
class ChebyshevFilter:
    """Chebyshev expansion of a spectral response on an interval.

    coeffs has length order + 1; the represented response is
    coeffs[0]/2 + sum_k coeffs[k] T_k on the mapped interval.
    fit_error is the max absolute error on a 1000-point grid.
    """

    coeffs: np.ndarray
    interval: Tuple[float, float]
    order: int
    fit_error: float = 0.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if len(c) != self.order + 1:
            raise InvalidParameter("coeffs length must be order + 1")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)


def _recurrence(cf: ChebyshevFilter, x: np.ndarray, mapped: Callable) -> np.ndarray:
    """coeffs[0]/2 x + sum_k coeffs[k] T_k(A) x by the three-term
    recurrence, where ``mapped(v)`` applies the interval-mapped argument A."""
    t_prev = x
    t_cur = mapped(t_prev)
    out = 0.5 * cf.coeffs[0] * t_prev
    if cf.order >= 1:
        out = out + cf.coeffs[1] * t_cur
    for k in range(2, cf.order + 1):
        t_next = 2.0 * mapped(t_cur) - t_prev
        out = out + cf.coeffs[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return out


def evaluate(cf: ChebyshevFilter, lam) -> np.ndarray:
    """Evaluate the expansion at scalar or array frequencies."""
    a, b = cf.interval
    t = (2.0 * np.asarray(lam, dtype=float) - (a + b)) / (b - a)
    return _recurrence(cf, np.ones_like(t), lambda v: t * v)


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
    if order < 1:
        raise InvalidParameter("need order >= 1")
    a, b = interval
    if not b > a:
        raise InvalidParameter("need interval with b > a")
    npts = 2 * order
    theta = np.pi * (np.arange(npts) + 0.5) / npts
    nodes = 0.5 * (b - a) * np.cos(theta) + 0.5 * (a + b)
    fvals = np.array([response(lam) for lam in nodes], dtype=float)
    ks = np.arange(order + 1)
    coeffs = (2.0 / npts) * (np.cos(np.outer(ks, theta)) @ fvals)
    cf = ChebyshevFilter(coeffs, (float(a), float(b)), order)
    grid = np.linspace(a, b, GRID_POINTS)
    exact = np.array([response(lam) for lam in grid], dtype=float)
    err = float(np.max(np.abs(evaluate(cf, grid) - exact)))
    return ChebyshevFilter(coeffs, (float(a), float(b)), order, fit_error=err)


def apply_chebyshev(op: VariationOperator, cf: ChebyshevFilter, x: np.ndarray,
                    lambda_max: float = None) -> np.ndarray:
    """Apply a fitted filter through the Chebyshev recurrence.

    Only matrix-vector products with the operator are used. When the
    caller knows the operator's largest frequency it can pass it so the
    interval coverage is checked.

    Raises
    ------
    IntervalMismatch
        If ``lambda_max`` is given and exceeds the fit interval.
    """
    a, b = cf.interval
    if lambda_max is not None and (lambda_max > b + 1e-9 or a > 1e-9):
        raise IntervalMismatch(f"interval [{a}, {b}] does not cover [0, {lambda_max}]")
    m = op.matrix
    scale = 2.0 / (b - a)
    shift = (a + b) / (b - a)

    x = np.asarray(x, dtype=float if not np.iscomplexobj(x) else complex)
    return _recurrence(cf, x, lambda v: scale * (m @ v) - shift * v)
