"""Closed-form reference data for the exact toy models.

On the toys the spatial operator has eigenfunctions sqrt(x) J_nu(omega x)
with J_nu(omega L) = 0, so eigenvalues and boundary amplitudes reduce to
Bessel-zero arithmetic, and a Rayleigh-Ritz solve in that basis (the
collocation oracle) checks the elements with none of their code.  scipy
only tabulates zeros for integer order, so ``_scan_zeros`` brackets the sign
changes of J_nu on a fixed-step grid in one call (consecutive zeros are at
least ~3 apart) and bisects them; a model keeps its longest scan.  These
values never come from the solver under test, and no other module
evaluates a Bessel function.
"""

from __future__ import annotations

import math
import weakref

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal
from scipy.special import gamma as _gamma
from scipy.special import jv

from .geometry import MetricModel

__all__ = ["model_zeros", "toy_frequencies", "toy_boundary_amplitudes", "toy_line_weights", "bessel_collocation_eigs"]

_SCAN_STEP = 0.5
# each model's longest zero scan, freed with the model
_MODEL_ZEROS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _scan_zeros(nu: float, count: int) -> np.ndarray:
    """The first ``count`` positive zeros of J_nu, nu > 0, read-only.  One jv
    call brackets the sign changes on the grid x0 + k _SCAN_STEP, summed step
    by step and doubled until it holds ``count`` of them; each bracket is
    bisected on its own, so the first k zeros have the same bits at every count."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # all positive zeros of J_nu lie above nu; start just below the first
    x0 = max(nu, 0.1) + 1e-9
    n, starts = 8 * count, np.empty(0)  # zeros tend to pi apart: 6.3 grid steps each
    while starts.size < count:
        x = np.add.accumulate(np.append(x0, np.full(n, _SCAN_STEP)))
        f = jv(nu, x)
        starts = x[:-1][(f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0)]
        n *= 2
    zeros = _bisect(nu, starts[:count])
    zeros.setflags(write=False)
    return zeros


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
    """First `count` positive zeros of J_nu at the model's nu, read-only: a
    slice of the longest scan the model has asked for.  A longer request
    scans again, and a count below 1 reaches the scan, which refuses it."""
    zeros = _MODEL_ZEROS.get(model)
    if zeros is None or not 0 < count <= zeros.size:
        zeros = _MODEL_ZEROS[model] = _scan_zeros(model.nu, count)
    return zeros[:count]


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


def _jacobi_rule(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y and weights w of the n-point Gauss rule for the weight y^b on
    (0, 1), b > -1, from the eigenpairs of its Jacobi matrix (Golub-Welsch;
    scipy's ``roots_jacobi`` loses up to ~1e-11 near b = -1)."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.append(b / (b + 2.0), b * b / (s * (s + 2.0)))
    y, vec = eigh_tridiagonal(0.5 + 0.5 * diag, k * (k + b) / (s * np.sqrt(s * s - 1.0)))
    return y, vec[0] ** 2 / (b + 1.0)


def bessel_collocation_eigs(model: MetricModel, n_basis: int, n_modes: int, m: int = 0) -> np.ndarray:
    """Cross-check eigenvalues of a toy model from a sqrt(x) J_nu basis.

    Rayleigh-Ritz for the same quadratic form in the basis
    psi_j(x) = sqrt(x) J_nu(z_j x / L), z_j the zeros of J_nu: independent of
    the element discretization, a sanity path for 0 < nu < 1 where the
    boundary condition is the delicate part.  With u = z_j x / L, DLMF 10.6.2
    gives psi_j' = ((nu + 1/2) J_nu(u) - u J_{nu+1}(u)) / sqrt(x): two Bessel
    evaluations, and no cancellation as u -> 0.  On the toys (beta = k = 1)
    every integrand is x^(2 nu - 1) times an entire function, so one
    Gauss-Jacobi rule with that weight and 2 n_basis + 16 nodes integrates it
    to round-off at every nu > 0.  Other models raise ``ValueError``.
    """
    if not model.is_toy:
        raise ValueError(f"the collocation rule is exact only on the toy models, not {model.kind!r}")
    if n_modes > n_basis:
        raise ValueError("n_modes cannot exceed n_basis")
    nu, L = model.nu, model.L
    y, w = _jacobi_rule(2 * n_basis + 16, 2.0 * nu - 1.0)
    x, wq = L * y, L * w / y ** (2.0 * nu - 1.0)  # sum wq f(x) ~ int_0^L f dx
    sq = np.sqrt(x)[:, None]
    arg = x[:, None] * (model_zeros(model, n_basis)[None, :] / L)
    j = jv(nu, arg)
    psi = sq * j
    dpsi = ((nu + 0.5) * j - arg * jv(nu + 1.0, arg)) / sq
    pot = (nu**2 - 0.25) / x**2 + model.transverse_mu(m)
    S = dpsi.T @ (dpsi * wq[:, None]) + psi.T @ (psi * (wq * pot)[:, None])
    G = psi.T @ (psi * wq[:, None])
    return eigh(S, G, eigvals_only=True)[:n_modes]
