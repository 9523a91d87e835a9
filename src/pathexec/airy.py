"""Evaluators for the two Airy functions and their derivatives.

The linearly time-weighted risk criterion produces inventory trajectories
built from the independent solutions Ai, Bi of u'' = x u on [0, x_max], with
x_max = c3^(2/3) T.  Values come from ``scipy.special.airy`` (Amos' Bessel
routines).  They keep the decaying solution Ai, which forward integration of
the ODE loses, within about 1e-13 relative of its Bessel-K form.

The trajectory formulas divide by Ai^2, so the supported range is the x_max
for which 1/Ai(x_max)^2 is a finite double: 0 < x_max <= 65.398 (about
c3 <= 528.87 at T = 1).  ``airy_pair`` rejects anything beyond it with a
DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = ["AiryPair", "airy_pair"]


@dataclass(frozen=True)
class AiryPair:
    """Ai, Bi, Ai', Bi' on [0, x_max]."""

    x_max: float

    def _evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        slack = 1e-9 * max(1.0, self.x_max)
        if np.any(x < -slack) or np.any(x > self.x_max + slack):
            raise DomainError(f"argument outside constructed range [0, {self.x_max}]")
        return np.asarray(special.airy(x))  # rows ai, dai, bi, dbi

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

    def ode_residual(self, x, h: float = 1e-5) -> np.ndarray:
        """|u'' - x u| probed by second-order differences of the derivative rows.

        Central stencils in the interior; one-sided second-order stencils
        within h of the domain edges.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        h = min(h, self.x_max / 4.0)
        v = self._evaluate(x)
        d2 = np.empty((2, x.size))
        central = (x >= h) & (x <= self.x_max - h)
        for rows, out_row in (((1,), 0), ((3,), 1)):
            r = rows[0]
            if np.any(central):
                xc = x[central]
                d2[out_row, central] = (
                    self._evaluate(xc + h)[r] - self._evaluate(xc - h)[r]
                ) / (2.0 * h)
            lo = ~central & (x < h)
            if np.any(lo):
                xl = x[lo]
                d2[out_row, lo] = (
                    -3.0 * self._evaluate(xl)[r]
                    + 4.0 * self._evaluate(xl + h)[r]
                    - self._evaluate(xl + 2.0 * h)[r]
                ) / (2.0 * h)
            hi = ~central & (x > self.x_max - h)
            if np.any(hi):
                xh = x[hi]
                d2[out_row, hi] = (
                    3.0 * self._evaluate(xh)[r]
                    - 4.0 * self._evaluate(xh - h)[r]
                    + self._evaluate(xh - 2.0 * h)[r]
                ) / (2.0 * h)
        res_ai = d2[0] - x * v[0]
        res_bi = d2[1] - x * v[2]
        return np.maximum(np.abs(res_ai), np.abs(res_bi))


def airy_pair(x_max: float, tol: float = 1e-9) -> AiryPair:
    """The evaluator pair on [0, x_max], with x_max = c3^(2/3) T.

    scipy's values are within about 1e-13 relative on the supported range, so
    they meet any admitted ``tol``; only its range is checked.
    """
    if not (0.0 < tol <= 1e-4):
        raise DomainError("tolerance must lie in (0, 1e-4]")
    if x_max <= 0.0:
        raise DomainError("need x_max > 0")
    ai_sq = float(special.airy(x_max)[0]) ** 2
    if not (ai_sq > 0.0 and math.isfinite(1.0 / ai_sq)):
        raise DomainError(f"x_max = c3^(2/3)*T = {x_max:g} is past the supported urgency "
                          "range (x_max <= 65.398): 1/Ai(x_max)^2 overflows")
    return AiryPair(x_max=x_max)
