"""Independent reference values for the toy models, computed with mpmath at
30 digits.  The package's own Bessel helpers are never used here, so a gate
that compares against these numbers is a cross-check, not a tautology."""

from __future__ import annotations

import numpy as np
from mpmath import besselj, besseljzero, mp
from mpmath import gamma as mp_gamma


def bessel_zeros(nu: float, count: int) -> np.ndarray:
    """First ``count`` positive zeros of J_nu."""
    with mp.workdps(30):
        return np.array([float(besseljzero(nu, k)) for k in range(1, count + 1)])


def line_weights(nu: float, L: float, count: int) -> np.ndarray:
    """Boundary line weights c_k^2 / (2 omega_k) of the normalized modes
    sqrt(2)/(L |J_{nu+1}(j_k)|) sqrt(x) J_nu(j_k x / L), whose leading
    boundary coefficient is c_k = sqrt(2)/(L |J_{nu+1}(j_k)|) (omega_k/2)^nu
    / Gamma(nu+1)."""
    out = []
    with mp.workdps(30):
        for k in range(1, count + 1):
            j = besseljzero(nu, k)
            om = j / L
            c = mp.sqrt(2) / (L * abs(besselj(nu + 1, j))) * (om / 2) ** nu / mp_gamma(nu + 1)
            out.append(float(c**2 / (2 * om)))
    return np.array(out)
