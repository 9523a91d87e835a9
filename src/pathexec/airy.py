"""Evaluators for the two Airy functions and their derivatives.

The linearly time-weighted risk criterion produces inventory trajectories
built from the independent solutions Ai, Bi of u'' = x u on [0, x_max], with
x_max = c3^(2/3) T.  Values come from ``scipy.special.airy`` (Amos' Bessel
routines).  They keep the decaying solution Ai, which forward integration of
the ODE loses, within about 1e-13 relative of its Bessel-K form.  scipy.special
is imported at the first evaluation, so ``import pathexec`` loads numpy only.
One call returns all four rows, which ``AiryPair`` keeps, read-only, for the
last few evaluation grids.

The trajectory formulas divide by Ai^2, so the supported range is the x_max
for which 1/Ai(x_max)^2 is a finite double: 0 < x_max <= 65.398 (about
c3 <= 528.87 at T = 1).  ``airy_pair`` rejects anything beyond it with a
DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["AiryPair", "airy_pair"]

# ode_residual's stencil step h: within 3.4e-9 of 1 + |Bi| up to x_max 65.398, unlike 1e-5
_RESIDUAL_STEP = 3e-4


def _airy(x) -> np.ndarray:
    """Rows ai, dai, bi, dbi at x; the one place scipy.special is imported."""
    from scipy import special

    return np.asarray(special.airy(x))


@functools.lru_cache(maxsize=4)
def _airy_rows(data: bytes, shape: tuple) -> np.ndarray:
    """Read-only ``_airy`` of the float array with these bytes and shape: one
    scipy call serves all four rows, and every later path on the grid."""
    rows = _airy(np.frombuffer(data).reshape(shape))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class AiryPair:
    """Ai, Bi, Ai', Bi' on [0, x_max]."""

    x_max: float

    def _evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * max(1.0, self.x_max)
        if np.any(x < -slack) or np.any(x > self.x_max + slack):
            raise DomainError(f"argument outside constructed range [0, {self.x_max}]")
        return _airy_rows(x.tobytes(), x.shape)

    def ai(self, x):
        return self._evaluate(x)[0]

    def dai(self, x):
        return self._evaluate(x)[1]

    def bi(self, x):
        return self._evaluate(x)[2]

    def dbi(self, x):
        return self._evaluate(x)[3]

    def wronskian(self, x):
        """Ai Bi' - Ai' Bi; constant 1/pi by Abel's identity."""
        v = self._evaluate(x)
        return v[0] * v[3] - v[1] * v[2]

    def ode_residual(self, x) -> np.ndarray:
        """|u'' - x u| probed by a fourth-order central difference of the derivative rows.

        Ai and Bi are entire, so the stencil may step 2h past [0, x_max].
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = self._evaluate(x)
        f = {k: _airy(x + k * _RESIDUAL_STEP) for k in (-2, -1, 1, 2)}
        d2 = ((8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * _RESIDUAL_STEP))[[1, 3]]
        return np.maximum(np.abs(d2[0] - x * v[0]), np.abs(d2[1] - x * v[2]))


def airy_pair(x_max: float, tol: float = 1e-9) -> AiryPair:
    """The evaluator pair on [0, x_max], with x_max = c3^(2/3) T.

    scipy's values are within about 1e-13 relative on the supported range, so
    they meet any admitted ``tol``; only its range is checked.
    """
    if not (0.0 < tol <= 1e-4):
        raise DomainError("tolerance must lie in (0, 1e-4]")
    if x_max <= 0.0:
        raise DomainError("need x_max > 0")
    ai_sq = float(_airy(x_max)[0]) ** 2
    if not (ai_sq > 0.0 and math.isfinite(1.0 / ai_sq)):
        raise DomainError(f"x_max = c3^(2/3)*T = {x_max:g} is past the supported urgency "
                          "range (x_max <= 65.398): 1/Ai(x_max)^2 overflows")
    return AiryPair(x_max=x_max)
