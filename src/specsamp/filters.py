"""Diagonal graph-frequency filters and the standard responses used here.

A filter is stored as its N sampled values, one per graph frequency, with
an optional closed-form response on [0, lambda_max] kept alongside so the
same filter can later be fit by a polynomial for vertex-domain use.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, IoFailure
from .graphs import _frozen, _integer, _real

Response = Callable[[float], float]


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "values", _frozen(self.values, "filter values", ndim=1))

    @property
    def n(self) -> int:
        return len(self.values)


def from_response(basis, fn: Response) -> SpectralFilter:
    """Sample a scalar response at the basis frequencies."""
    vals = np.array([fn(lam) for lam in basis.lambdas], dtype=float)
    return SpectralFilter(vals, response=fn)


def identity_filter(n: int) -> SpectralFilter:
    """All-pass filter on n >= 1 frequencies."""
    return SpectralFilter(np.ones(_integer(n, "n", 1)), response=lambda lam: 1.0)


def bandlimit(basis, k: int) -> SpectralFilter:
    """Bandlimiting low-pass filter: 1 on the first k frequency indices, 0 above.

    Index-defined, so no closed-form response is attached. 1 <= k <= n.
    """
    n, k = len(basis.lambdas), _integer(k, "k", 1)
    if k > n:
        raise InvalidParameter(f"need k <= n = {n}, got {k}")
    vals = np.zeros(n)
    vals[:k] = 1.0
    return SpectralFilter(vals)


def _scale(basis, eps: float = 0.0) -> float:
    """lambda_max + eps, the frequency scale of the closed-form responses;
    InvalidParameter unless lambda_max > 0 and eps is finite and >= 0."""
    lam_max, eps = float(np.max(basis.lambdas)), _real(eps, "eps")
    if lam_max <= 0 or eps < 0:
        raise InvalidParameter("need lambda_max > 0 and eps >= 0")
    return lam_max + eps


def inverted_ramp(basis) -> SpectralFilter:
    """Full-band sampling filter: unity below 2/lambda_max, then a negative
    ramp -2*lambda/lambda_max."""
    lam_max = _scale(basis)

    def resp(lam: float) -> float:
        return 1.0 if lam <= 2.0 / lam_max else -2.0 * lam / lam_max

    return from_response(basis, resp)


def linear_decay(basis, eps: float = 0.1) -> SpectralFilter:
    """Generator #1: 1 - lambda / (lambda_max + eps)."""
    scale = _scale(basis, eps)
    return from_response(basis, lambda lam: 1.0 - lam / scale)


def exponential_decay(basis) -> SpectralFilter:
    """Generator #2: exp(-1.5 * lambda / lambda_max)."""
    lam_max = _scale(basis)
    return from_response(basis, lambda lam: float(np.exp(-1.5 * lam / lam_max)))


def cosine_taper(basis, eps: float = 0.1) -> SpectralFilter:
    """Predefined reconstruction filter: cos((pi/2) * lambda / (lambda_max + eps))."""
    scale = _scale(basis, eps)
    return from_response(basis, lambda lam: float(np.cos(0.5 * np.pi * lam / scale)))


def smoothness_ramp(basis) -> SpectralFilter:
    """Smoothness weight: lambda / lambda_max + 1."""
    lam_max = _scale(basis)
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
