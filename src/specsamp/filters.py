"""Diagonal graph-frequency filters and the standard responses used here.

A filter is stored as its N sampled values, one per graph frequency, with
an optional closed-form response on [0, lambda_max] kept alongside so the
same filter can later be fit by a polynomial for vertex-domain use.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, IoFailure

Response = Callable[[float], float]


@dataclass(frozen=True)
class SpectralFilter:
    """Diagonal graph-frequency response.

    Parameters
    ----------
    values : ndarray(N,)
        Response sampled at each graph frequency of the basis the filter
        was built for.
    response : callable or None
        Scalar function on [0, lambda_max] the values were sampled from,
        when one exists (index-defined filters have none).
    """

    values: np.ndarray
    response: Optional[Response] = None

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("filter values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)


def from_response(basis, fn: Response) -> SpectralFilter:
    """Sample a scalar response at the basis frequencies."""
    vals = np.array([fn(lam) for lam in basis.lambdas], dtype=float)
    return SpectralFilter(vals, response=fn)


def identity_filter(n: int) -> SpectralFilter:
    return SpectralFilter(np.ones(n), response=lambda lam: 1.0)


def bandlimit(basis, k: int) -> SpectralFilter:
    """Bandlimiting low-pass filter: 1 on the first k frequency indices, 0 above.

    Index-defined, so no closed-form response is attached; see
    :func:`bandlimit_response` for the continuous surrogate used when a
    polynomial approximation is needed.
    """
    n = len(basis.lambdas)
    if not 0 < k <= n:
        raise InvalidParameter("need 0 < k <= n")
    vals = np.zeros(n)
    vals[:k] = 1.0
    return SpectralFilter(vals)


def bandlimit_response(basis, k: int) -> Response:
    """Continuous surrogate for :func:`bandlimit`: the indicator of
    lambda below the midpoint between the passband's largest frequency and
    the stopband's smallest."""
    lams = np.asarray(basis.lambdas, dtype=float)
    if not 0 < k <= len(lams):
        raise InvalidParameter("need 0 < k <= n")
    if k == len(lams):
        return lambda lam: 1.0
    cut = 0.5 * (np.max(lams[:k]) + np.min(lams[k:]))
    return lambda lam: 1.0 if lam < cut else 0.0


def inverted_ramp(basis) -> SpectralFilter:
    """Full-band sampling filter: unity below 2/lambda_max, then a negative
    ramp -2*lambda/lambda_max."""
    lam_max = float(np.max(basis.lambdas))
    if lam_max <= 0:
        raise InvalidParameter("need lambda_max > 0")

    def resp(lam: float) -> float:
        return 1.0 if lam <= 2.0 / lam_max else -2.0 * lam / lam_max

    return from_response(basis, resp)


def linear_decay(basis, eps: float = 0.1) -> SpectralFilter:
    """Generator #1: 1 - lambda / (lambda_max + eps)."""
    lam_max = float(np.max(basis.lambdas))
    if lam_max <= 0 or eps < 0:
        raise InvalidParameter("need lambda_max > 0 and eps >= 0")
    return from_response(basis, lambda lam: 1.0 - lam / (lam_max + eps))


def exponential_decay(basis) -> SpectralFilter:
    """Generator #2: exp(-1.5 * lambda / lambda_max)."""
    lam_max = float(np.max(basis.lambdas))
    if lam_max <= 0:
        raise InvalidParameter("need lambda_max > 0")
    return from_response(basis, lambda lam: float(np.exp(-1.5 * lam / lam_max)))


def cosine_taper(basis, eps: float = 0.1) -> SpectralFilter:
    """Predefined reconstruction filter: cos((pi/2) * lambda / (lambda_max + eps))."""
    lam_max = float(np.max(basis.lambdas))
    if lam_max <= 0 or eps < 0:
        raise InvalidParameter("need lambda_max > 0 and eps >= 0")
    return from_response(basis, lambda lam: float(np.cos(0.5 * np.pi * lam / (lam_max + eps))))


def smoothness_ramp(basis) -> SpectralFilter:
    """Smoothness weight: lambda / lambda_max + 1."""
    lam_max = float(np.max(basis.lambdas))
    if lam_max <= 0:
        raise InvalidParameter("need lambda_max > 0")
    return from_response(basis, lambda lam: lam / lam_max + 1.0)


def save_filter(f: SpectralFilter, basis, path: str) -> None:
    """Write two-column text (lambda, value), one row per frequency."""
    lams = np.asarray(basis.lambdas, dtype=float)
    if len(lams) != f.n:
        raise InvalidParameter("filter and basis sizes differ")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for lam, val in zip(lams, f.values):
                fh.write(f"{float(lam)!r} {float(val)!r}\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
