"""Boundary asymptotics: indicial series, weighted restriction, boundary kernels.

Near x = 0 the model operator acts on x^alpha as multiplication by the
indicial polynomial c_alpha = (alpha - nu_minus)(nu_plus - alpha), plus
terms two orders down for the exactly even warped models.  Solutions with
Dirichlet data follow the x^{nu_plus} branch; dividing it out and reading
the constant term at the boundary is the weighted restriction that turns
bulk kernels into boundary two-point kernels.

Frames: the eigensolve lives in the conjugated ("tilde") frame where modes
behave like x^(nu + 1/2); physical-frame quantities carry the extra
x^(n/2-1) beta^(-1/2) factor, so their exponent is nu_plus = (n/2-1) +
(nu + 1/2).  Both exponents are supported and the identity between them is
asserted, not assumed.

The restriction is a windowed least-squares fit of x^(-exponent) u against
1 + a x + b x^2 (even models have pure x^2 corrections; the linear term is
kept so general backgrounds stay fittable), with an extra x^(-2 nu) column
used only to detect contamination by the complementary branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import MetricModel
from .propagators import BiKernel, LineSpectrum

__all__ = [
    "IndicialSeries",
    "BoundaryFit",
    "BoundaryKernel",
    "indicial_polynomial",
    "build_series",
    "extract_boundary",
    "default_fit_window",
    "boundary_two_point",
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
    time-harmonic boundary datum e^{i sigma t} (transverse mode m)."""

    model: MetricModel
    alpha: float
    coeffs: np.ndarray
    K: int
    sigma: float
    mu: float
    residual_slope: float = math.nan

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for k in range(self.K, -1, -1):
            acc = acc * x + self.coeffs[k]
        return x**self.alpha * acc

    def residual(self, x: np.ndarray) -> np.ndarray:
        """P u_K with the interior cancellations performed in closed form.

        Applying the operator to each monomial gives c_{alpha+k} w_k at
        order k plus (mu - sigma^2) w_k two orders up; the recursion makes
        every interior pair cancel exactly, so only the last two orders
        survive.  Summing the cancelling pairs in floating point instead
        would bury the genuine x^{alpha+K+1} tail under roundoff from the
        much larger x^{alpha+2} terms, which is why the cancellation is
        done here analytically rather than numerically.
        """
        x = np.asarray(x, dtype=float)
        shift = self.mu - self.sigma**2
        out = np.zeros_like(x)
        for k in (self.K - 1, self.K):
            if k < 0 or self.coeffs[k] == 0.0:
                continue
            out = out + shift * self.coeffs[k] * x ** (self.alpha + k + 2)
        return out


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
    series = IndicialSeries(model=model, alpha=alpha, coeffs=w, K=K, sigma=sigma, mu=mu)

    xs = np.geomspace(1e-4 * model.L, 5e-2 * model.L, 24)
    res = np.abs(series.residual(xs))
    if np.max(res) < 1e-300 * max(abs(w0), 1.0):
        series.residual_slope = math.inf
    else:
        slope, _ = np.polyfit(np.log(xs), np.log(res + 1e-320), 1)
        series.residual_slope = float(slope)
    return series


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


def extract_boundary(
    u: np.ndarray,
    model: MetricModel,
    fit_window: tuple[float, float],
    x: np.ndarray,
    weighting: str = "tilde",
) -> BoundaryFit:
    """Weighted boundary restriction: the constant term of x^(-e) u.

    e is nu + 1/2 in the tilde frame and nu_plus in the physical frame (the
    two are consistent by construction; asserted).  Fits 1 + a x + b x^2 by
    least squares on the window and separately scores contamination by the
    complementary x^(-2 nu) branch.  Returns measurements: the constant
    term, the R^2 quality of the fit and the contamination score relative
    to the constant term at the window midpoint.  Data whose score exceeds
    ``_CONTAM_FAIL`` is not a Dirichlet-branch solution and is refused.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u)
    x_lo, x_hi = fit_window
    if x_hi > model.L / 10.0:
        raise ValueError("fit window must sit inside x <= L/10")
    expo_tilde = model.nu + 0.5
    expo_phys = model.nu_plus
    assert abs(expo_phys - ((model.n / 2.0 - 1.0) + expo_tilde)) < 1e-12
    expo = {"tilde": expo_tilde, "physical": expo_phys}[weighting]
    sel = (x >= x_lo) & (x <= x_hi)
    if np.count_nonzero(sel) < 8:
        raise ValueError(f"fit window [{x_lo}, {x_hi}] holds fewer than 8 samples")
    xs = x[sel]
    vals = u[sel] / xs**expo
    basis = np.stack([np.ones_like(xs), xs, xs**2], axis=1)
    coef, _, _, _ = np.linalg.lstsq(basis, vals, rcond=None)
    fitted = basis @ coef
    ss_res = float(np.sum(np.abs(vals - fitted) ** 2))
    ss_tot = float(np.sum(np.abs(vals - np.mean(vals)) ** 2)) + 1e-300
    quality = 1.0 - ss_res / ss_tot

    basis_c = np.concatenate([basis, (xs ** (-2.0 * model.nu))[:, None]], axis=1)
    coef_c, _, _, _ = np.linalg.lstsq(basis_c, vals, rcond=None)
    x_mid = math.sqrt(x_lo * x_hi)
    contam = abs(coef_c[3]) * x_mid ** (-2.0 * model.nu) / (abs(coef_c[0]) + 1e-300)
    if contam > _CONTAM_FAIL:
        raise ValueError(
            f"complementary-branch contamination {contam:.3e} above {_CONTAM_FAIL}; "
            "the data is not a Dirichlet-branch solution on this window"
        )
    value = coef[0]
    if np.iscomplexobj(u) and abs(value.imag) < 1e-12 * abs(value.real):
        value = value.real
    return BoundaryFit(value=value, quality=quality, contamination=float(contam))


@dataclass
class BoundaryKernel(LineSpectrum):
    """Boundary two-point kernel as spectral lines: k(t,s) = sum_k weight_k
    e^{+-i omega_k (t-s)} with weight_k = c_k^2 / (2 omega_k)."""

    t_grid: np.ndarray
    kind: str  # "plus" or "minus"
    omega: np.ndarray
    amplitudes: np.ndarray  # fitted boundary coefficients c_k
    m: int = 0
    fit_quality: np.ndarray = field(default=None, repr=False)

    @property
    def weights(self) -> np.ndarray:
        return self.amplitudes**2 / (2.0 * self.omega)

    @property
    def frequency_sign(self) -> int:
        return +1 if self.kind == "plus" else -1

    def lines(self) -> tuple[np.ndarray, np.ndarray, str]:
        # in units of 1/(2 omega_k), the line weight is c_k^2
        c2, zero = self.amplitudes**2, np.zeros_like(self.amplitudes)
        return (c2, zero, "all") if self.kind == "plus" else (zero, c2, "all")

    def gram(self) -> np.ndarray:
        idx = np.linspace(0, self.t_grid.size - 1, _GRAM_TIMES).round().astype(int)
        times = self.t_grid[idx]
        return self.trace_series((times[:, None] - times[None, :]).ravel()).reshape(_GRAM_TIMES, _GRAM_TIMES)


def boundary_two_point(
    kernel: BiKernel,
    model: MetricModel,
    fit_window: tuple[float, float] | None = None,
) -> BoundaryKernel:
    """Boundary restriction of a bulk two-point kernel in both slots.

    Fits every retained mode's boundary coefficient (physical weighting, so
    the exponent is nu_plus) and returns the induced line spectrum.  The
    mode sum diagonalizes the restriction, so applying the fit per mode is
    exact, not an approximation to a double integral.
    """
    if kernel.kind not in ("lambda_plus", "lambda_minus"):
        raise ValueError("boundary kernels are built from the lambda kernels")
    if kernel.weighting != "physical":
        raise ValueError("boundary restriction needs the physical weighting")
    sm = kernel.spectral
    br = sm.branch(kernel.m)
    x = sm.grid.dof_x
    phys_modes = br.phi * sm.weight_left[:, None]
    amps = np.empty(br.omega2.size)
    quals = np.empty(br.omega2.size)
    for k in range(br.omega2.size):
        win = fit_window if fit_window is not None else default_fit_window(model, float(br.omega[k]))
        fit = extract_boundary(phys_modes[:, k], model, win, x=x, weighting="physical")
        amps[k] = abs(float(np.real(fit.value)))
        quals[k] = fit.quality
    return BoundaryKernel(
        t_grid=kernel.t_grid,
        kind="plus" if kernel.kind == "lambda_plus" else "minus",
        omega=br.omega.copy(),
        amplitudes=amps,
        m=kernel.m,
        fit_quality=quals,
    )


def mellin_exponent_probe(
    u: np.ndarray,
    model: MetricModel,
    x: np.ndarray,
) -> tuple[float, float]:
    """Leading boundary exponent by log-log regression of |u| on L/400 <= x <= L/20.

    Returns (alpha_hat, r_squared).  Raises on degenerate data (too few
    samples in the window or vanishing values)."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(np.asarray(u))
    sel = (x >= model.L / 400.0) & (x <= model.L / 20.0)
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
