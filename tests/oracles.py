"""Independent reference values for the exact toy models.

Everything here is computed with mpmath at 30 digits and never touches the
package's own Bessel helpers or solvers, so a test comparing against these
numbers is a genuine cross-check, not a tautology.  The one numpy oracle,
``line_gains``, writes the line-spectrum gain out with its own exponential
at arbitrary lags, where the package reads a phase table on grid lags.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import besselj, besseljzero, mp
from mpmath import gamma as mp_gamma

mp.dps = 30


def bessel_zeros_mp(nu: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_nu via mpmath."""
    return np.array([float(besseljzero(nu, k)) for k in range(1, count + 1)])


def toy_frequencies_mp(nu: float, L: float, count: int, mu: float = 0.0) -> np.ndarray:
    """omega_k = sqrt((j_{nu,k}/L)^2 + mu) for the toy separated problem."""
    j = bessel_zeros_mp(nu, count)
    return np.sqrt((j / L) ** 2 + mu)


def boundary_amplitudes_mp(nu: float, L: float, count: int) -> np.ndarray:
    """Leading boundary coefficients c_k of the normalized toy modes.

    The mode sqrt(2)/(L |J_{nu+1}(j_k)|) sqrt(x) J_nu(j_k x/L) behaves like
    c_k x^{nu+1/2} near x = 0 with
    c_k = sqrt(2)/(L |J_{nu+1}(j_k)|) (omega_k/2)^nu / Gamma(nu+1).
    """
    out = []
    for k in range(1, count + 1):
        j = besseljzero(nu, k)
        om = j / L
        c = mp.sqrt(2) / (L * abs(besselj(nu + 1, j))) * (om / 2) ** nu / mp_gamma(nu + 1)
        out.append(float(c))
    return np.array(out)


def line_weights_mp(nu: float, L: float, count: int) -> np.ndarray:
    """Boundary spectral-line weights c_k^2 / (2 omega_k)."""
    c = boundary_amplitudes_mp(nu, L, count)
    om = bessel_zeros_mp(nu, count) / L
    return c**2 / (2.0 * om)


def thermal_occupation_mp(beta: float, omega: np.ndarray) -> np.ndarray:
    """Bose factors 1/(e^{beta omega} - 1) at high precision."""
    return np.array([float(1 / mp.expm1(beta * mp.mpf(float(w)))) for w in omega])


# two textbook spot values guarding the oracle itself
J1_FIRST_ZERO = 3.8317059702075123156
HALF_ORDER_ZERO = math.pi  # J_{1/2}(z) proportional to sin(z)/sqrt(z)


def line_gains(kernel, tau: np.ndarray) -> np.ndarray:
    """Per-mode gains h_k [a_k e^{+i omega_k tau} + b_k e^{-i omega_k tau}] S(tau)
    of a line spectrum at arbitrary lags tau, shape (K, len(tau))."""
    tau = np.asarray(tau, dtype=float)
    w = kernel.omega[:, None]
    e = np.exp(1j * (w * (np.abs(tau) if kernel.support == "abs" else tau)[None, :]))
    g = (kernel.a[:, None] * e + kernel.b[:, None] * e.conj()) * (0.5 / w)
    support = {"future": tau > 0.0, "past": tau < 0.0}.get(kernel.support)
    return g if support is None else np.where(support, g, 0.0)
