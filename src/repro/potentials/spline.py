"""Natural cubic splines on uniform grids.

Production EAM potentials ship as tabulated functions (setfl files) that
codes evaluate through splines; :class:`CubicSpline` is the evaluation
engine for :class:`repro.potentials.tables.TabulatedEAM`.  It is implemented
here rather than borrowed from SciPy so the evaluation cost and boundary
semantics (exact zero beyond the table) are under the library's control.
"""

from __future__ import annotations

import numpy as np


class CubicSpline:
    """Natural cubic spline through ``(x[k], y[k])`` on a uniform grid.

    Evaluation outside ``[x[0], x[-1]]`` returns 0 — the convention
    tabulated potentials need (beyond-cutoff values must vanish exactly).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("x and y must be 1-D arrays of equal length")
        if len(x) < 4:
            raise ValueError("need at least 4 knots")
        steps = np.diff(x)
        if np.any(steps <= 0):
            raise ValueError("x must be strictly increasing")
        h = steps[0]
        if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
            raise ValueError("x must be uniformly spaced")
        self.x0 = float(x[0])
        self.h = float(h)
        self.n = len(x)
        self.y = y.copy()
        self.m = self._second_derivatives(y, self.h)

    @staticmethod
    def _second_derivatives(y: np.ndarray, h: float) -> np.ndarray:
        """Solve the tridiagonal natural-spline system for y''(knots)."""
        n = len(y)
        m = np.zeros(n)
        if n == 2:
            return m
        # Thomas algorithm for [1 4 1]/ (6/h^2) system, natural BCs
        rhs = 6.0 * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / (h * h)
        size = n - 2
        diag = np.full(size, 4.0)
        c_prime = np.zeros(size)
        d_prime = np.zeros(size)
        c_prime[0] = 1.0 / diag[0]
        d_prime[0] = rhs[0] / diag[0]
        for k in range(1, size):
            denom = diag[k] - c_prime[k - 1]
            c_prime[k] = 1.0 / denom
            d_prime[k] = (rhs[k] - d_prime[k - 1]) / denom
        inner = np.zeros(size)
        inner[-1] = d_prime[-1]
        for k in range(size - 2, -1, -1):
            inner[k] = d_prime[k] - c_prime[k] * inner[k + 1]
        m[1:-1] = inner
        return m

    def locate(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clip to table, return (interval index, t in [0,1], inside mask).

        The boundary test carries a few-ulp tolerance so the last knot —
        whose position is reconstructed as ``x0 + (n-1)*h`` — is never lost
        to floating-point rounding of the grid step.
        """
        r = np.asarray(r, dtype=np.float64)
        end = self.x0 + (self.n - 1) * self.h
        tol = 8.0 * np.finfo(np.float64).eps * max(abs(self.x0), abs(end), 1.0)
        inside = (r >= self.x0 - tol) & (r <= end + tol)
        u = (r - self.x0) / self.h
        k = np.clip(u.astype(np.int64), 0, self.n - 2)
        t = u - k
        return k, t, inside

    def _interval(self, k: np.ndarray, t: np.ndarray):
        """Cubic of interval ``k`` as ``(a, b, m0, m1 - m0, u)`` with ``u``
        the offset into the interval: the gathers value and slope share."""
        h = self.h
        y0, y1 = self.y[k], self.y[k + 1]
        m0, m1 = self.m[k], self.m[k + 1]
        b = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        return y0, b, m0, m1 - m0, t * h

    def _value(self, a, b, m0, dm, u) -> np.ndarray:
        return a + b * u + 0.5 * m0 * u ** 2 + dm / (6.0 * self.h) * u ** 3

    def _slope(self, _a, b, m0, dm, u) -> np.ndarray:
        return b + m0 * u + dm / (2.0 * self.h) * u ** 2

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the spline (0 outside the table)."""
        k, t, inside = self.locate(r)
        return np.where(inside, self._value(*self._interval(k, t)), 0.0)

    def derivative(self, r: np.ndarray) -> np.ndarray:
        """Evaluate the spline's first derivative (0 outside the table)."""
        k, t, inside = self.locate(r)
        return np.where(inside, self._slope(*self._interval(k, t)), 0.0)

    def value_and_derivative(
        self, located: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Value and first derivative at points :meth:`locate` already placed.

        One location and one set of gathers serve both; splines on the
        same grid (a potential's two radial tables) can share ``located``.
        """
        k, t, inside = located
        terms = self._interval(k, t)
        return (
            np.where(inside, self._value(*terms), 0.0),
            np.where(inside, self._slope(*terms), 0.0),
        )

    def knots(self) -> np.ndarray:
        """The knot abscissae."""
        return self.x0 + self.h * np.arange(self.n)
