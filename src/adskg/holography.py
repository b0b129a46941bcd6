"""Boundary asymptotics: indicial series, weighted restriction, boundary kernels.

Near x = 0 the model operator acts on x^alpha as multiplication by the
indicial polynomial c_alpha = (alpha - nu_minus)(nu_plus - alpha), plus
terms two orders down for the exactly even warped models.  Solutions with
Dirichlet data follow the x^{nu_plus} branch; dividing it out and reading
the constant term at the boundary is the weighted restriction that turns
bulk kernels into boundary two-point kernels: line spectra with the bulk
kernel's lines times c_k^2 on its branch and time grid and no spatial
factor.  Their gains read the branch's phase table like every
kernel's, and their Gram matrix is the two-point Gram of the all-ones mode
vector, whose pairing with the kernel is its trace.

Frames: every bulk kernel lives in the conjugated frame of the eigensolve,
where modes behave like x^(nu + 1/2).  The restriction alone applies the
physical weight x^(n/2-1) beta^(-1/2), to a branch's modes in ``boundary_fits``,
so the exponent it reads is nu_plus = (n/2-1) + (nu + 1/2); the conjugated
exponent is probed directly on the modes by ``mellin_exponent_probe``.

The restriction is a windowed least-squares fit of x^(-nu_plus) u against
1 + a x + b x^2 (even models have pure x^2 corrections; the linear term is
kept so general backgrounds stay fittable), with an extra x^(-2 nu) column
used only to detect contamination by the complementary branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MetricModel
from .propagators import LineSpectrum, _gram_matrix
from .spectral import SpectralModel

__all__ = [
    "IndicialSeries",
    "BoundaryFit",
    "indicial_polynomial",
    "build_series",
    "extract_boundary",
    "default_fit_window",
    "boundary_fits",
    "boundary_two_point",
    "boundary_gram",
    "mellin_exponent_probe",
]

_CONTAM_FAIL = 5e-2
_GRAM_TIMES = 48  # subsampled times of the boundary Gram matrix


def indicial_polynomial(model: MetricModel, alpha: float) -> float:
    """c_alpha = (alpha - nu_minus)(nu_plus - alpha); vanishes exactly at the
    indicial roots and peaks at nu^2 midway between them."""
    return (alpha - model.nu_minus) * (model.nu_plus - alpha)


@dataclass
class IndicialSeries:
    """Truncated boundary series u_K = x^alpha sum_k x^k w_k for a
    time-harmonic boundary datum, and the log-log slope of its residual
    P u_K near the boundary."""

    alpha: float
    coeffs: np.ndarray
    residual_slope: float


def build_series(
    model: MetricModel,
    w0: float,
    K: int,
    sigma: float = 0.0,
    m: int = 0,
) -> IndicialSeries:
    """Indicial recursion from the boundary datum w0 at exponent nu_plus.

    Coefficients follow w_k = -(mu - sigma^2) w_{k-2} / c_{nu_plus + k}
    (odd orders vanish for the even models).  Refuses the resonant case
    2 nu in {1..K}, where c_{nu_plus + k} hits the other indicial root and
    the true expansion needs logarithms.

    ``residual_slope`` is the log-log slope of |P u_K| on 1e-4 L .. 5e-2 L
    (inf where it vanishes).  Applying the operator to each monomial gives
    c_{alpha+k} w_k at order k plus (mu - sigma^2) w_k two orders up; the
    recursion makes every interior pair cancel exactly, so only the last
    two orders survive.  Summing the cancelling pairs in floating point
    instead would bury the genuine x^{alpha+K+1} tail under roundoff from
    the much larger x^{alpha+2} terms, which is why the cancellation is
    done here analytically rather than numerically.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    two_nu = 2.0 * model.nu
    for k in range(1, K + 1):
        if abs(two_nu - k) < 1e-12:
            raise ValueError(
                f"resonant order: 2*nu = {two_nu} hits k = {k} <= K, the series "
                "needs log terms, which are out of scope"
            )
    alpha = model.nu_plus
    mu = model.transverse_mu(m)
    shift = mu - sigma**2
    w = np.zeros(K + 1)
    w[0] = w0
    for k in range(2, K + 1, 2):
        w[k] = -shift * w[k - 2] / indicial_polynomial(model, alpha + k)

    xs = np.geomspace(1e-4 * model.L, 5e-2 * model.L, 24)
    res = np.zeros_like(xs)
    for k in (K - 1, K):
        if k >= 0 and w[k] != 0.0:
            res = res + shift * w[k] * xs ** (alpha + k + 2)
    res = np.abs(res)
    vanishes = np.max(res) < 1e-300 * max(abs(w0), 1.0)
    slope = math.inf if vanishes else float(np.polyfit(np.log(xs), np.log(res + 1e-320), 1)[0])
    return IndicialSeries(alpha=alpha, coeffs=w, residual_slope=slope)


@dataclass
class BoundaryFit:
    value: float
    quality: float
    contamination: float


def default_fit_window(model: MetricModel, omega: float) -> tuple[float, float]:
    """Fit window for a mode of frequency omega: stay below both L/12 and a
    fixed phase fraction of the Bessel argument so the x^2 correction model
    holds; keep the lower end above the first few elements."""
    x_hi = min(model.L / 12.0, 0.8 / max(omega, 1e-12))
    x_lo = min(model.L / 400.0, x_hi / 8.0)
    return (x_lo, x_hi)


def extract_boundary(u: np.ndarray, model: MetricModel, fit_window: tuple[float, float], x: np.ndarray) -> BoundaryFit:
    """Weighted boundary restriction of physical-frame data: the constant term of x^(-nu_plus) u.

    Fits 1 + a x + b x^2 by least squares on the window and separately
    scores contamination by the complementary x^(-2 nu) branch.  Returns
    measurements: the constant term, the R^2 quality of the fit and the
    contamination score relative to the constant term at the window
    midpoint x_mid.  The contamination fit works in r = x / x_mid, with the
    columns 1, r, r^2 and r^(-2 nu), so its score is the ratio of the last
    coefficient to the first and no column over- or underflows for large
    nu.  Data whose score exceeds ``_CONTAM_FAIL`` is not a Dirichlet-branch
    solution and is refused.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u)
    x_lo, x_hi = fit_window
    if x_hi > model.L / 10.0:
        raise ValueError("fit window must sit inside x <= L/10")
    sel = (x >= x_lo) & (x <= x_hi)
    if np.count_nonzero(sel) < 8:
        raise ValueError(f"fit window [{x_lo}, {x_hi}] holds fewer than 8 samples")
    xs = x[sel]
    vals = u[sel] / xs**model.nu_plus
    basis = np.stack([np.ones_like(xs), xs, xs**2], axis=1)
    coef, _, _, _ = np.linalg.lstsq(basis, vals, rcond=None)
    fitted = basis @ coef
    ss_res = float(np.sum(np.abs(vals - fitted) ** 2))
    ss_tot = float(np.sum(np.abs(vals - np.mean(vals)) ** 2)) + 1e-300
    quality = 1.0 - ss_res / ss_tot

    r = xs / math.sqrt(x_lo * x_hi)
    basis_c = np.stack([np.ones_like(r), r, r**2, r ** (-2.0 * model.nu)], axis=1)
    coef_c, _, _, _ = np.linalg.lstsq(basis_c, vals, rcond=None)
    contam = abs(coef_c[3]) / (abs(coef_c[0]) + 1e-300)
    if contam > _CONTAM_FAIL:
        raise ValueError(
            f"complementary-branch contamination {contam:.3e} above {_CONTAM_FAIL}; "
            "the data is not a Dirichlet-branch solution on this window"
        )
    return BoundaryFit(value=float(coef[0]), quality=quality, contamination=float(contam))


def boundary_fits(sm: SpectralModel, m: int = 0, fit_window: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundary coefficient |c_k| and fit quality of every retained mode of
    branch m: the weighted restriction of the mode times the physical weight
    x^(n/2-1) beta^(-1/2), whose exponent is nu_plus.

    Each mode is fitted on ``fit_window``, or on its ``default_fit_window``.
    The fits of a (branch, window) pair are made once and kept, read-only,
    in the branch's tables.
    """
    br, model, x = sm.branch(m), sm.model, sm.grid.dof_x

    def fit() -> np.ndarray:
        modes = br.phi * (x ** (0.5 * model.n - 1.0) / np.sqrt(model.beta(x)))[:, None]
        out = np.empty((2, br.omega.size))
        for k, w in enumerate(br.omega):
            f = extract_boundary(modes[:, k], model, fit_window or default_fit_window(model, float(w)), x=x)
            out[:, k] = abs(f.value), f.quality
        return out

    return tuple(br.table(("boundary_fits", fit_window), fit))


def boundary_two_point(kernel: LineSpectrum, model: MetricModel) -> LineSpectrum:
    """Boundary restriction of a bulk lambda kernel in both slots.

    The induced kernel has the bulk kernel's lines (a_k, b_k) times c_k^2,
    with the ``boundary_fits`` coefficients c_k of the kernel's branch, and
    no spatial factor; its kind is "plus" for a lambda_plus kernel and
    "minus" for a lambda_minus one.  On the vacuum that is the weight
    c_k^2 / (2 omega_k) on one line; an occupied or sign-mutated kernel
    keeps its own lines.  ``model`` must be ``kernel.spectral.model``.  The
    mode sum diagonalizes the restriction, so applying the fit per mode is
    exact, not an approximation to a double integral.
    """
    if kernel.kind not in ("lambda_plus", "lambda_minus"):
        raise ValueError("boundary kernels are built from the lambda kernels")
    if kernel.spectral is None or model is not kernel.spectral.model:
        raise ValueError("the model must be the kernel's own, kernel.spectral.model")
    amps, _ = boundary_fits(kernel.spectral, kernel.m)
    c2 = amps**2
    kind = "plus" if kernel.kind == "lambda_plus" else "minus"
    return LineSpectrum(kind, kernel.t_grid, kernel.branch, c2 * kernel.a, c2 * kernel.b)


def boundary_gram(kernel: LineSpectrum) -> np.ndarray:
    """Gram matrix k(t_i - t_j) of a boundary kernel on ``_GRAM_TIMES``
    subsampled times of its grid.  The trace k is the kernel's pairing with
    the all-ones mode vector, so this is ``propagators._gram_matrix`` of
    that one vector."""
    return _gram_matrix(kernel, _GRAM_TIMES, np.ones((1, kernel.omega.size)))


def mellin_exponent_probe(u: np.ndarray, x: np.ndarray, window: tuple[float, float]) -> tuple[float, float]:
    """Leading boundary exponent by log-log regression of |u| on window[0] <= x <= window[1].

    Returns (alpha_hat, r_squared).  Raises on degenerate data (too few
    samples in the window or vanishing values)."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(np.asarray(u))
    sel = (x >= window[0]) & (x <= window[1])
    if np.count_nonzero(sel) < 8:
        raise ValueError("exponent probe needs at least 8 samples in the window")
    xs, ms = x[sel], mag[sel]
    if np.min(ms) <= 0.0:
        raise ValueError("exponent probe needs strictly positive magnitudes")
    lx, lm = np.log(xs), np.log(ms)
    slope, intercept = np.polyfit(lx, lm, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((lm - fitted) ** 2))
    ss_tot = float(np.sum((lm - lm.mean()) ** 2)) + 1e-300
    return float(slope), 1.0 - ss_res / ss_tot
