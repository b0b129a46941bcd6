"""Independent reference values for the exact toy models.

Everything here is computed with mpmath at 30 digits and never touches the
package's own Bessel helpers or solvers, so a test comparing against these
numbers is a genuine cross-check, not a tautology.  The numpy oracle
``line_gains`` writes the line-spectrum gain out with its own exponential
at arbitrary lags, where the package reads a phase table on grid lags.  The
float oracles are older forms of package code that the package must match
bit for bit: ``irk_step_comprehensions``, the ray step in its plain
comprehension form over the package's tableau and right-hand sides;
``lag_phases_exp``, the phase table as one complex exp over every lag;
``hermiticity_full_lags``, the Hermiticity defect read on every lag;
``solve_branch_cho_solve_banded``, the branch eigensolve with K^-1 applied
through scipy's banded Cholesky wrapper; ``lag_gains_complex``, every
kernel's gains formed as complex arrays, real kernels included; and
``feynman_consistency_complex``, the Feynman defect formed with complex
products.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import scipy.sparse as sp
from mpmath import besselj, besseljzero, mp
from mpmath import gamma as mp_gamma
from scipy.linalg import cho_solve_banded
from scipy.sparse.linalg import LinearOperator, eigsh

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


def lag_phases_exp(omega: np.ndarray, dt: float, T: int) -> np.ndarray:
    """Phases exp(i omega_k tau) on the 2T-1 lags tau = dt (1-T .. T-1), one
    complex exp over both halves."""
    return np.exp(1j * (omega[:, None] * (dt * np.arange(1 - T, T))[None, :]))


def lag_gains_complex(kernel) -> np.ndarray:
    """Gains (a e + b conj(e)) * (0.5 / omega) on the 2T-1 lags as one complex
    (K, 2T-1) array for every kernel, from the kernel's phase table, skipping
    a line whose coefficients are all zero; the support zeroes its lags."""
    T = kernel.T
    k = np.arange(1 - T, T)
    e = kernel.branch.lag_phases(kernel.dt, T)
    if kernel.support == "abs":
        e = np.take(e, T - 1 + np.abs(k), axis=1)
    g = kernel.a[:, None] * e if kernel.a.any() or not kernel.b.any() else None
    if kernel.b.any():
        lower = e.conj()
        np.multiply(kernel.b[:, None], lower, out=lower)
        g = lower if g is None else np.add(g, lower, out=g)
    g *= 0.5 / kernel.omega[:, None]
    if kernel.support in ("future", "past"):
        g[:, ~(k > 0 if kernel.support == "future" else k < 0)] = 0.0
    return g


def feynman_consistency_complex(lp, lm, ret, adv) -> float:
    """Largest |-1j g_plus + g_adv - (-1j g_minus + g_ret)| over the kernels'
    own gains on every lag, formed with complex products."""
    gp, gm, g_ret, g_adv = (k.gains() for k in (lp, lm, ret, adv))
    return float(np.max(np.abs(-1j * gp + g_adv - (-1j * gm + g_ret))))


def hermiticity_full_lags(*kernels) -> float:
    """Largest |g_k(tau) - conj g_k(-tau)| over the kernels' gains on all 2T-1
    lags, -tau read by reversing the lag axis."""
    return max(float(np.max(np.abs(g - g[:, ::-1].conj()))) for g in (k.gains() for k in kernels))


def solve_branch_cho_solve_banded(K, m_factor: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """``spectral._solve_branch`` with K^-1 applied through scipy's
    ``cho_solve_banded`` wrapper: the Lanczos solve of R K^-1 R^T y = y / omega^2,
    omega^2 = 1 / theta and w = K^-1 R^T y at unit |R w|, ascending, each
    vector's largest-magnitude entry positive."""
    from adskg import spectral

    k_solve = partial(cho_solve_banded, (spectral._banded_cholesky(K), False), check_finite=False)
    R = sp.dia_matrix((m_factor[::-1], np.arange(spectral._BAND + 1)), shape=K.shape).tocsr()
    Rt = R.T.tocsr()
    ndof = K.shape[0]
    v0 = np.full(ndof, 1.0 / math.sqrt(ndof))
    C = LinearOperator(K.shape, matvec=lambda y: R @ k_solve(Rt @ y), dtype=float)
    theta, y = eigsh(C, k=n_modes, which="LA", v0=v0, ncv=n_modes + spectral._NCV_EXTRA)
    vals = 1.0 / theta
    vecs = k_solve(Rt @ y)
    vecs /= np.linalg.norm(R @ vecs, axis=0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    signs = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vals, vecs * signs


def irk_step_comprehensions(model, state: tuple, h: float) -> tuple:
    """One Gauss-Legendre step of ``bchar._irk_step`` with the stage sums as
    comprehensions over the rows of ``_GL_A`` and the stage convergence read
    by a generator ``max`` over the 16 slope changes."""
    from adskg import bchar

    x, y, t, xi, zeta, tau = state
    (f0,) = bchar._stage_rhs(model, [x], [xi], zeta, tau)
    K = [f0] * 4
    scale = max(abs(v) for v in f0) + 1.0
    for _ in range(bchar._FP_MAXIT):
        k0, k1, k2, k3 = K
        xs = [x + h * (a0 * k0[0] + a1 * k1[0] + a2 * k2[0] + a3 * k3[0]) for a0, a1, a2, a3 in bchar._GL_A]
        xis = [xi + h * (a0 * k0[3] + a1 * k1[3] + a2 * k2[3] + a3 * k3[3]) for a0, a1, a2, a3 in bchar._GL_A]
        K_new = bchar._stage_rhs(model, xs, xis, zeta, tau)
        delta = max(abs(u - v) for new, old in zip(K_new, K) for u, v in zip(new, old))
        K = K_new
        if delta <= bchar._FP_TOL * scale:
            break
    else:
        raise RuntimeError(f"implicit stage iteration stalled at step size {h:.3e}")
    b0, b1, b2, b3 = bchar._GL_B
    k0, k1, k2, k3 = K
    return (
        x + h * (b0 * k0[0] + b1 * k1[0] + b2 * k2[0] + b3 * k3[0]),
        y + h * (b0 * k0[1] + b1 * k1[1] + b2 * k2[1] + b3 * k3[1]),
        t + h * (b0 * k0[2] + b1 * k1[2] + b2 * k2[2] + b3 * k3[2]),
        xi + h * (b0 * k0[3] + b1 * k1[3] + b2 * k2[3] + b3 * k3[3]),
        zeta,
        tau,
    )
