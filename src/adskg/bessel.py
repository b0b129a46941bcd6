"""Closed-form reference data for the exact toy models.

On the toys the spatial operator has eigenfunctions sqrt(x) J_nu(omega x)
with J_nu(omega L) = 0, so eigenvalues and boundary amplitudes reduce to
Bessel-zero arithmetic.  scipy only tabulates zeros for integer order, so
the finder below brackets sign changes of J_nu by a fixed-step scan
(consecutive zeros of J_nu are separated by at least ~3 for nu >= 0) and
polishes them by bisection.  A model keeps one scan, which the toy
oracles and the collocation basis extend and share.  These values feed the
eigensolver comparisons and the boundary-coefficient checks; they never
come from the solver under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import jv

from .geometry import MetricModel

__all__ = ["model_zeros", "toy_frequencies", "toy_boundary_amplitudes", "toy_line_weights"]

_SCAN_STEP = 0.5


class _ZeroScan:
    """Positive zeros of J_nu, nu >= 0, found in increasing order as they are
    asked for.  A request for more zeros than found so far continues the
    scan where the last one stopped and bisects only the new brackets; a
    bracket's bisection does not depend on the others, so the first k zeros
    have the same bits whatever count was asked for first."""

    def __init__(self, nu: float):
        if nu < 0:
            raise ValueError("nu must be >= 0")
        self.nu = nu
        # all positive zeros of J_nu lie above nu; start just below the first
        self._x = max(nu, 0.1) + 1e-9 if nu > 0 else 1e-9
        self._f = jv(nu, self._x)
        self._zeros = np.empty(0)

    def first(self, count: int) -> np.ndarray:
        """The first ``count`` zeros, read-only."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > self._zeros.size:
            starts, x, f_prev = [], self._x, self._f
            while self._zeros.size + len(starts) < count:
                f_next = jv(self.nu, x + _SCAN_STEP)
                if f_prev == 0.0 or f_prev * f_next < 0.0:
                    starts.append(x)
                x, f_prev = x + _SCAN_STEP, f_next
            self._x, self._f = x, f_prev
            self._zeros = np.concatenate([self._zeros, _bisect(self.nu, np.array(starts))])
            self._zeros.setflags(write=False)
        return self._zeros[:count]


def _bisect(nu: float, starts: np.ndarray) -> np.ndarray:
    """Bisect each bracket [x, x + _SCAN_STEP] to adjacent floats and keep the
    end with the smaller |J_nu|."""
    a, b = starts, starts + _SCAN_STEP
    fa, fb = jv(nu, a), jv(nu, b)
    mid = 0.5 * (a + b)
    # a bracket whose ends are adjacent floats has mid at an end and stays put
    while np.any((a < mid) & (mid < b)):
        fm = jv(nu, mid)
        right = np.sign(fm) == np.sign(fa)  # the zero lies in [mid, b]
        a, fa = np.where(right, mid, a), np.where(right, fm, fa)
        b, fb = np.where(right, b, mid), np.where(right, fb, fm)
        mid = 0.5 * (a + b)
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def model_zeros(model: MetricModel, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu at the model's nu, from the one
    ``_ZeroScan`` the model keeps."""
    return model.derived("bessel_zeros", lambda: _ZeroScan(model.nu)).first(count)


def toy_frequencies(model: MetricModel, count: int, m: int = 0) -> np.ndarray:
    """omega_k for a toy model: zeros of J_nu scaled by 1/L, transverse shift
    added in quadrature."""
    if not model.is_toy:
        raise ValueError("closed-form frequencies exist only for the toy models")
    j = model_zeros(model, count)
    return np.sqrt((j / model.L) ** 2 + model.transverse_mu(m))


def toy_boundary_amplitudes(model: MetricModel, count: int) -> np.ndarray:
    """Leading coefficients c_k of the normalized toy modes at the boundary.

    The L^2(0, L)-normalized mode is sqrt(2)/(L |J_{nu+1}(j_k)|) sqrt(x)
    J_nu(j_k x / L), and J_nu(z) ~ (z/2)^nu / Gamma(nu+1) for small z, so
    x^{-(nu+1/2)} phi_k -> c_k = sqrt(2)/(L |J_{nu+1}(j_k)|) (omega_k/2)^nu
    / Gamma(nu+1), with omega_k = j_k / L.
    """
    if not model.is_toy:
        raise ValueError("closed-form amplitudes exist only for the toy models")
    nu, L, j = model.nu, model.L, model_zeros(model, count)
    norm = math.sqrt(2.0) / (L * np.abs(jv(nu + 1.0, j)))
    return norm * (j / L / 2.0) ** nu / _gamma(nu + 1.0)


def toy_line_weights(model: MetricModel, count: int) -> np.ndarray:
    """Spectral-line weights c_k^2 / (2 omega_k) of the toy boundary kernel."""
    return toy_boundary_amplitudes(model, count) ** 2 / (2.0 * (model_zeros(model, count) / model.L))
