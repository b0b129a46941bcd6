"""Boundary asymptotics: indicial series, weighted restriction, boundary kernels.

Near x = 0 the model operator acts on x^alpha as multiplication by the
indicial polynomial c_alpha = (alpha - nu_minus)(nu_plus - alpha), plus
terms two orders down for the exactly even warped models.  A Dirichlet
solution of frequency omega is x^{nu_plus} times the indicial series
S_omega; the constant term of x^{-nu_plus} u is the weighted restriction
that turns bulk kernels into boundary two-point kernels: line spectra with
the bulk kernel's lines times c_k^2 on its branch and time grid and no
spatial factor.  Their gains read the branch's phase table like every
kernel's, and their Gram matrix is the two-point Gram of the all-ones mode
vector, whose pairing with the kernel is its trace.

Frames: every bulk kernel lives in the conjugated frame of the eigensolve,
where modes behave like x^(nu + 1/2).  The restriction alone applies the
physical weight x^(n/2-1) beta^(-1/2), to a branch's modes in ``boundary_fits``,
so the exponent it reads is nu_plus = (n/2-1) + (nu + 1/2); the conjugated
exponent nu + 1/2 is probed on mode 1 by ``mellin_exponent_probe``, which
divides out the same series S_omega the fits use before it reads a slope.
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
    "fit_floor",
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


def _recursion(model: MetricModel, alpha: float, K: int, shift: np.ndarray) -> np.ndarray:
    """Coefficients w_0 = 1, w_k = -shift w_{k-2} / c_{alpha+k} up to order K,
    one column per entry of ``shift`` = mu - sigma^2; odd orders vanish.
    Refuses a zero denominator, which needs log terms (out of scope)."""
    w = np.zeros((K + 1, np.size(shift)))
    w[0] = 1.0
    for k in range(2, K + 1, 2):
        c = indicial_polynomial(model, alpha + k)
        if abs(c) <= 1e-12 * k * k:
            raise ValueError(f"resonant order: c_(alpha + {k}) = 0 at alpha = {alpha}, the series needs log terms")
        w[k] = -shift * w[k - 2] / c
    return w


@dataclass
class IndicialSeries:
    """Truncated boundary series u_K = x^alpha sum_k x^k w_k for a
    time-harmonic boundary datum, and the log-log slope of its residual
    P u_K near the boundary."""

    alpha: float
    coeffs: np.ndarray
    residual_slope: float


def build_series(
    model: MetricModel, w0: float, K: int, sigma: float = 0.0, m: int = 0, alpha: float | None = None
) -> IndicialSeries:
    """Indicial recursion from the boundary datum w0 at the root alpha (nu_plus by default).

    Coefficients follow w_k = -(mu - sigma^2) w_{k-2} / c_{alpha + k}
    (odd orders vanish for the even models).  At nu_plus the denominator
    c_{nu_plus + k} = -k (2 nu + k) never vanishes.  At nu_minus it is
    c_{nu_minus + k} = k (2 nu - k), which vanishes at an even k = 2 nu <= K:
    there the true expansion needs logarithms, and the case is refused.

    ``residual_slope`` is the log-log slope of |P u_K| on 1e-4 L .. 5e-2 L
    (inf where it vanishes).  The recursion cancels every interior order of
    P u_K exactly, so the residual is summed from the last two orders alone;
    summing the cancelling pairs in floating point would bury the genuine
    tail under roundoff.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    alpha = model.nu_plus if alpha is None else alpha
    shift = model.transverse_mu(m) - sigma**2
    w = w0 * _recursion(model, alpha, K, shift)[:, 0]
    xs = np.geomspace(1e-4 * model.L, 5e-2 * model.L, 24)
    res = np.abs(sum(shift * w[k] * xs ** (alpha + k + 2) for k in (K - 1, K) if k >= 0))
    vanishes = np.max(res) < 1e-300 * max(abs(w0), 1.0)
    slope = math.inf if vanishes else float(np.polyfit(np.log(xs), np.log(res + 1e-320), 1)[0])
    return IndicialSeries(alpha=alpha, coeffs=w, residual_slope=slope)


@dataclass
class BoundaryFit:
    value: float
    quality: float
    contamination: float


def extract_boundary(
    u: np.ndarray, model: MetricModel, fit_window: tuple[float, float], x: np.ndarray, series: np.ndarray
) -> BoundaryFit:
    """Weighted boundary restriction of physical-frame data: the constant term of x^(-nu_plus) u.

    ``series`` is S_omega on ``x``, the nu_plus indicial series of the data's
    frequency.  Fits S_omega and r^2 S_omega by least squares on the window,
    in r = x / x_mid with x_mid the window's geometric midpoint, and
    separately scores contamination by the complementary branch with the
    extra column r^(-2 nu).  Returns measurements: the coefficient of
    S_omega, the R^2 quality of the fit and the contamination score, the
    ratio of the r^(-2 nu) coefficient to the S_omega one at x_mid; in r no
    column over- or underflows for large nu.  Data whose score exceeds
    ``_CONTAM_FAIL`` is not a Dirichlet-branch solution and is refused.
    """
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = fit_window
    if x_hi > model.L / 4.0:
        raise ValueError("fit window must sit inside x <= L/4")
    sel = (x >= x_lo) & (x <= x_hi)
    if np.count_nonzero(sel) < 8:
        raise ValueError(f"fit window [{x_lo}, {x_hi}] holds fewer than 8 samples")
    xs, s = x[sel], np.asarray(series)[sel]
    vals = np.asarray(u)[sel] / xs**model.nu_plus
    r = xs / math.sqrt(x_lo * x_hi)
    basis = np.stack([s, r**2 * s, r ** (-2.0 * model.nu)], axis=1)
    coef_c, _, _, _ = np.linalg.lstsq(basis, vals, rcond=None)
    contam = abs(coef_c[2]) / (abs(coef_c[0]) + 1e-300)
    if contam > _CONTAM_FAIL:
        raise ValueError(
            f"complementary-branch contamination {contam:.3e} above {_CONTAM_FAIL}; "
            "the data is not a Dirichlet-branch solution on this window"
        )
    coef, _, _, _ = np.linalg.lstsq(basis[:, :2], vals, rcond=None)
    ss_res = float(np.sum(np.abs(vals - basis[:, :2] @ coef) ** 2))
    ss_tot = float(np.sum(np.abs(vals - np.mean(vals)) ** 2)) + 1e-300
    return BoundaryFit(value=float(coef[0]), quality=1.0 - ss_res / ss_tot, contamination=float(contam))


def fit_floor(u: np.ndarray, x: np.ndarray, L: float) -> np.ndarray:
    """Lower end of a boundary window for each column of u: L/400, or the first
    x where |u| reaches 1e-12 of its maximum if that lies higher.  Below it an
    eigenvector holds round-off, not its boundary branch."""
    mag = np.abs(u)
    return np.maximum(L / 400.0, x[np.argmax(mag >= 1e-12 * mag.max(axis=0), axis=0)])


def _series_table(model: MetricModel, m: int, omega2: np.ndarray, x: np.ndarray, hi) -> np.ndarray:
    """S_omega, the nu_plus indicial series of branch m, for each entry of ``omega2``
    on the ascending dofs ``x`` up to max(hi), one column each.  The recursion runs
    once for every column, with enough terms (16 + 1.36 omega hi, hi per column or
    shared) that they decay past rounding."""
    near = np.searchsorted(x, np.max(hi), side="right")
    J = 16 + math.ceil(1.36 * float(np.max(np.sqrt(omega2) * hi)))
    w = _recursion(model, model.nu_plus, 2 * J, model.transverse_mu(m) - omega2)
    return np.vander(x[:near] ** 2, J + 1, increasing=True) @ w[::2]


def boundary_fits(sm: SpectralModel, m: int = 0, fit_window: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Boundary coefficient |c_k| and fit quality of every retained mode of
    branch m: the weighted restriction of the mode times the physical weight
    x^(n/2-1) beta^(-1/2), whose exponent is nu_plus.

    Each mode is fitted on ``fit_window``, which must be finite with
    0 < lo < hi <= L/4, or on [``fit_floor``, min(L/4, 4/omega)],
    where its indicial series S_omega needs few orders.
    The fits of a (branch, window) pair are made once and kept, read-only,
    in the branch's tables.
    """
    br, model, x = sm.branch(m), sm.model, sm.grid.dof_x
    if fit_window is not None and not (0.0 < fit_window[0] < fit_window[1] <= model.L / 4.0):  # NaN fails too
        raise ValueError(f"fit window {tuple(fit_window)} must satisfy 0 < lo < hi <= L/4 = {model.L / 4.0}")

    def fit() -> np.ndarray:
        modes = br.phi * (x ** (0.5 * model.n - 1.0) / np.sqrt(model.beta(x)))[:, None]
        ends = fit_window or (fit_floor(modes, x, model.L), np.minimum(model.L / 4.0, 4.0 / br.omega))
        lo, hi, _ = np.broadcast_arrays(*ends, br.omega)
        series = _series_table(model, m, br.omega2, x, hi)
        near = series.shape[0]
        out = np.empty((2, br.omega.size))
        for k in range(br.omega.size):
            f = extract_boundary(modes[:near, k], model, (lo[k], hi[k]), x[:near], series[:, k])
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


def mellin_exponent_probe(sm: SpectralModel, window: tuple[float, float]) -> float:
    """Leading boundary exponent of mode 1 of branch 0 in the conjugated frame:
    the log-log slope of |phi_1 / S_omega_1| on window[0] <= x <= window[1],
    with S_omega_1 the mode's nu_plus indicial series.  S_omega is even and
    1 + O(x^2), so dividing it out removes the x^2 bias of a bare log-log fit
    while a wrong leading power still shows in the slope.  Raises on fewer
    than 8 dofs in the window or a vanishing ratio."""
    br, x = sm.branch(0), sm.grid.dof_x
    series = _series_table(sm.model, 0, br.omega2[:1], x, window[1])[:, 0]
    sel = slice(np.searchsorted(x, window[0]), series.size)  # the dofs are ascending
    if series.size - sel.start < 8:
        raise ValueError("exponent probe needs at least 8 samples in the window")
    mag = np.abs(br.phi[sel, 0] / series[sel])
    if np.min(mag) <= 0.0:
        raise ValueError("exponent probe needs strictly positive magnitudes")
    return float(np.polyfit(np.log(x[sel]), np.log(mag), 1)[0])
