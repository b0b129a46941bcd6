"""Desk-scale wavefront diagnostics.

Three instruments, all built on the mode decomposition:

* coherent wavepackets (Gaussian envelope times a plane phase, expanded in
  the eigenbasis) evolved by e^{-+ i t A^(1/2)} and tracked through their
  energy-density centroid, for comparison against broken-bicharacteristic
  paths including boundary reflection;
* windowed two-slot Fourier scans of kernel traces, reporting the spectral
  mass in the four frequency-sign quadrants under the primed pairing
  (sign of Omega_t, sign of -Omega_s), which puts a vacuum positive kernel
  entirely in the (+,+) quadrant and makes the Feynman kernel flip pattern
  across t = s;
* Bogoliubov-perturbed states: a second pair of two-point kernels whose
  difference from the first is an explicit smooth (superpolynomially
  decaying) mode sum, with the commutator preserved exactly.

Time-slot localization uses a single Slepian (DPSS) taper, the leading
eigenvector of the Slepian tridiagonal matrix, with its half-bandwidth
matched to the lowest retained frequency, so taper leakage across the
Omega = 0 axis sits orders of magnitude below the quadrant tolerances.
Kernel traces are stationary and the time grid is uniform, so a scan
evaluates the trace once on the 2T-1 lags and reads every window from it
by offset.  Spatial localization is exercised only through the wavepacket
tests; there is no spatial microlocalization in the scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bchar import PhasePointB, trace_gbb
from .geometry import MetricModel
from .propagators import BiKernel, LineSpectrum, slepian_taper
from .spectral import SpectralModel

__all__ = [
    "Wavepacket",
    "TrackResult",
    "WindowSpec",
    "ScanRow",
    "BogoliubovKernel",
    "DifferenceKernel",
    "StatePair",
    "make_wavepacket",
    "evolve_and_track",
    "gbb_reference",
    "kernel_wavefront_scan",
    "off_pattern",
    "make_perturbed_state",
    "smoothness_decay_order",
]

_TAIL_TOL = 1e-6
_DISPERSE_FRACTION = 0.25
_MIN_NW = 2.5
_DECAY_BINS = 10  # log-spaced frequency bins of the decay-order fit
_DECAY_FLOOR = 1e-7  # weakest bin envelope, relative to the strongest, that enters the fit
_GBB_STEP = 1e-3  # IRK step of the reference ray
_MOMENTUM_SAMPLES = 2048  # FFT length of the packet's frequency-side moments


# ---------------------------------------------------------------------------
# wavepackets


@dataclass
class Wavepacket:
    """Normalized coherent packet in the eigenbasis of one transverse mode,
    launched at x0 with momentum xi0.  energy_sign +1 evolves every
    coefficient with e^{-i omega t} (positive frequency), -1 with the
    conjugate.
    """

    spectral: SpectralModel
    x0: float
    xi0: float
    width: float
    energy_sign: int
    coefficients: np.ndarray
    m: int = 0
    x_mean: float = math.nan
    x_var: float = math.nan
    xi_mean: float = math.nan
    xi_var: float = math.nan
    tail: float = math.nan


def make_wavepacket(
    sm: SpectralModel,
    x0: float,
    xi0: float,
    sigma: float,
    sign: int = +1,
    m: int = 0,
) -> Wavepacket:
    """Gaussian envelope times plane phase, projected onto the retained modes.

    Preconditions: the packet must sit clear of both boundaries
    (x0 in (3 sigma, L - 3 sigma)) and be oscillatory (|xi0| sigma >= 4);
    the retained modes must capture all but 1e-6 of its norm.
    """
    L = sm.grid.L
    if not (3.0 * sigma < x0 < L - 3.0 * sigma):
        raise ValueError(f"packet at x0={x0} with width {sigma} touches a boundary of (0, {L})")
    if abs(xi0) * sigma < 4.0:
        raise ValueError(f"|xi0|*sigma = {abs(xi0) * sigma:.2f} < 4; packet is not in the oscillatory regime")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    x = sm.grid.dof_x
    f = np.exp(-((x - x0) ** 2) / (2.0 * sigma**2)) * np.exp(1j * xi0 * x)
    norm2 = float(np.real(sm.inner(f, f)))
    c = sm.project(f, m=m)
    captured = float(np.sum(np.abs(c) ** 2))
    tail = 1.0 - captured / norm2
    if tail > _TAIL_TOL:
        raise ValueError(
            f"mode truncation tail {tail:.2e} exceeds {_TAIL_TOL}; retain more modes or lower |xi0|"
        )
    c = c / math.sqrt(captured)

    w = Wavepacket(
        spectral=sm,
        x0=x0,
        xi0=xi0,
        width=sigma,
        energy_sign=int(sign),
        coefficients=c,
        m=m,
        tail=max(tail, 0.0),
    )
    w.x_mean, w.x_var = _position_moments(sm, c, m)
    w.xi_mean, w.xi_var = _momentum_moments(sm, c, m, x0, sigma)
    return w


def _position_moments(sm: SpectralModel, c: np.ndarray, m: int) -> tuple[float, float]:
    vals, _ = sm.grid.eval_gauss(sm.synthesize(c, m=m))
    dens = np.abs(vals) ** 2 * sm.grid.gauss_w
    xg = sm.grid.gauss_x
    tot = float(dens.sum())
    mean = float((dens * xg).sum() / tot)
    var = float((dens * (xg - mean) ** 2).sum() / tot)
    return mean, var


def _momentum_moments(sm: SpectralModel, c: np.ndarray, m: int, x0: float, sigma: float) -> tuple[float, float]:
    """Frequency-side moments from an FFT on a smooth interior window around
    the packet (the envelope itself provides the decay at the window ends)."""
    L = sm.grid.L
    lo, hi = max(x0 - 5.0 * sigma, L * 1e-6), min(x0 + 5.0 * sigma, L * (1.0 - 1e-9))
    xs = np.linspace(lo, hi, _MOMENTUM_SAMPLES, endpoint=False)
    fv = sm.grid.evaluate(sm.synthesize(c, m=m), xs)
    spec = np.fft.fft(fv)
    xi = 2.0 * math.pi * np.fft.fftfreq(_MOMENTUM_SAMPLES, d=xs[1] - xs[0])
    p = np.abs(spec) ** 2
    tot = float(p.sum())
    mean = float((p * xi).sum() / tot)
    var = float((p * (xi - mean) ** 2).sum() / tot)
    return mean, var


@dataclass
class TrackResult:
    times: np.ndarray
    centroid: np.ndarray
    spread: np.ndarray
    status: str  # "ok" or "partial" (packet dispersed before t_max)
    window_floor: float


def evolve_and_track(sm: SpectralModel, w: Wavepacket, t_max: float, dt: float) -> TrackResult:
    """Evolve by e^{-+ i t A^(1/2)} and track the energy-density centroid.

    The tilde-frame energy density |u_t|^2 + |u_x|^2 is integrated on the
    quadrature points restricted to x >= 2 sigma (the boundary weight would
    otherwise dominate during reflection).  Tracking stops early with
    status "partial" once the spread exceeds L/4.
    """
    br = sm.branch(w.m)
    if float(br.omega[-1]) * dt >= math.pi:
        raise ValueError("dt undersamples the largest retained frequency")
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    xg = sm.grid.gauss_x
    floor = 2.0 * w.width
    sel = xg >= floor
    wq = sm.grid.gauss_w[sel]
    xq = xg[sel]

    cent = np.empty(times.size)
    spr = np.empty(times.size)
    status = "ok"
    n_kept = times.size
    for i, t in enumerate(times):
        phase = np.exp(-1j * w.energy_sign * br.omega * t)
        a = w.coefficients * phase
        u = sm.synthesize(a, m=w.m)
        ut = sm.synthesize(-1j * w.energy_sign * br.omega * a, m=w.m)
        uv, ux = sm.grid.eval_gauss(u)
        tv, _ = sm.grid.eval_gauss(ut)
        dens = (np.abs(tv) ** 2 + np.abs(ux) ** 2)[sel] * wq
        tot = float(dens.sum())
        cent[i] = float((dens * xq).sum() / tot)
        spr[i] = math.sqrt(max(float((dens * (xq - cent[i]) ** 2).sum() / tot), 0.0))
        if spr[i] > _DISPERSE_FRACTION * sm.grid.L:
            status = "partial"
            n_kept = i + 1
            break
    return TrackResult(
        times=times[:n_kept], centroid=cent[:n_kept], spread=spr[:n_kept], status=status, window_floor=floor
    )


def gbb_reference(
    model: MetricModel,
    x0: float,
    xi0: float,
    times: np.ndarray,
    clip: float | None = None,
    m: int = 0,
) -> np.ndarray:
    """x(t) along the broken bicharacteristic matching a packet launch.

    The packet's group motion follows the null ray with spatial momentum
    xi0 and future time component tau = sqrt(beta (xi0^2 + mu/k)) at x0.
    With clip set, the returned curve is floored at that x value, matching
    a centroid tracked on a window x >= clip (the ray dips below the window
    during a boundary reflection; the windowed centroid cannot).
    """
    times = np.asarray(times, dtype=float)
    mu = model.transverse_mu(m)
    zeta = math.sqrt(mu) if mu > 0.0 else None
    q = xi0**2 + mu / model.k(x0)
    tau = math.sqrt(model.beta(x0) * q)
    p0 = PhasePointB(x=x0, t=float(times[0]), tau=tau, xi=xi0, zeta=zeta)
    path = trace_gbb(model, p0, t_max=float(times[-1]) + 10.0 * _GBB_STEP, step=_GBB_STEP)
    rows = path.sample(times)
    xs = rows[:, 0]
    if clip is not None:
        xs = np.maximum(xs, clip)
    return xs


# ---------------------------------------------------------------------------
# quadrant scans


@dataclass(frozen=True)
class WindowSpec:
    """Two-slot scan windows: duration, and an n_centers x n_centers grid of
    windows whose start indices in each slot are spread evenly from the
    first grid point to the last start where a full window fits.  The DPSS
    time-bandwidth product is matched to the lowest retained frequency with
    a 0.9 safety factor.
    """

    length: float
    n_centers: int = 4

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError(f"WindowSpec.length must be positive; got {self.length}")
        if self.n_centers < 1:
            raise ValueError(f"WindowSpec.n_centers must be at least 1; got {self.n_centers}")


@dataclass(frozen=True)
class ScanRow:
    t: float
    s: float
    sign_content_plus: float  # mass fraction in the (+,+) quadrant
    sign_content_minus: float  # mass fraction in the (-,-) quadrant
    cross: float  # mass fraction in the two mixed quadrants


def _scan_taper(n_w: int, length: float, omega_floor: float) -> np.ndarray:
    nw = 0.9 * length * omega_floor / (2.0 * math.pi)
    if nw < _MIN_NW:
        raise ValueError(
            f"window too short for the spectral gap: time-bandwidth {nw:.2f} < {_MIN_NW}; "
            "lengthen the window"
        )
    return slepian_taper(n_w, nw)


def kernel_wavefront_scan(kernel: LineSpectrum, spec: WindowSpec) -> list[ScanRow]:
    """Windowed two-slot Fourier quadrant masses of a kernel trace.

    For each pair of windows (one per time slot) the tapered trace k(t - s) is
    transformed in both slots and the power is binned by the primed signs
    (sign Omega_t, sign -Omega_s).  A vacuum positive kernel concentrates
    in (+,+), its conjugate in (-,-), the causal kernel splits across both
    without mixed mass, and the Feynman kernel switches quadrant across
    t = s.  The taper is matched to the kernel's ``omega_floor``.

    The trace is evaluated once, on the 2T-1 lags of the grid; the window
    starting at grid indices (i0, j0) reads sample (a, b) at lag
    dt (i0 - j0 + a - b).  Its masses therefore depend on i0 - j0 only and
    are computed once per distinct offset.
    """
    t = kernel.t_grid
    dt = kernel.dt
    span = float(t[-1] - t[0])
    if spec.length > span:
        raise ValueError(f"window length {spec.length} exceeds the grid span {span}")
    n_w = int(round(spec.length / dt)) + 1
    taper = _scan_taper(n_w, spec.length, kernel.omega_floor)
    starts = np.rint(np.linspace(0, t.size - n_w, spec.n_centers)).astype(int)

    om = 2.0 * math.pi * np.fft.fftfreq(n_w, d=dt)
    sgn_t = np.sign(om)[:, None]
    sgn_s = -np.sign(om)[None, :]
    q_pp = (sgn_t > 0) & (sgn_s > 0)
    q_mm = (sgn_t < 0) & (sgn_s < 0)
    q_x = ((sgn_t > 0) & (sgn_s < 0)) | ((sgn_t < 0) & (sgn_s > 0))

    lag_trace = kernel.trace_series(kernel.lags())
    # index of lag a - b, lag 0 sitting at T - 1
    lag_index = (t.size - 1) + np.subtract.outer(np.arange(n_w), np.arange(n_w))
    masses: dict[int, tuple[float, float, float]] = {}
    rows = []
    for i0, j0 in itertools.product(starts, starts):
        offset = i0 - j0
        if offset not in masses:
            vals = lag_trace[lag_index + offset]
            windowed = taper[:, None] * vals * taper[None, :]
            power = np.abs(np.fft.fft2(windowed)) ** 2
            total = float(power.sum()) + 1e-300
            masses[offset] = (
                float(power[q_pp].sum()) / total,
                float(power[q_mm].sum()) / total,
                float(power[q_x].sum()) / total,
            )
        plus, minus, cross = masses[offset]
        rows.append(
            ScanRow(
                t=float(np.mean(t[i0 : i0 + n_w])),
                s=float(np.mean(t[j0 : j0 + n_w])),
                sign_content_plus=plus,
                sign_content_minus=minus,
                cross=cross,
            )
        )
    return rows


def off_pattern(rows: list[ScanRow], kernel: LineSpectrum, band: float | None = None) -> float:
    """Largest off-pattern mass fraction over the scan windows.

    The expected pattern comes from the kernel: one-sided kernels must
    concentrate in their quadrant, the time-ordered kinds must concentrate
    per side of t = s (windows inside the diagonal band, default two window
    lengths wide, are skipped and make no claim), and two-sided kinds must
    only avoid the mixed quadrants.
    """
    fs, kind = kernel.frequency_sign, kernel.kind
    worst = -1.0
    used = 0
    for r in rows:
        if fs > 0:
            dev = 1.0 - r.sign_content_plus
        elif fs < 0:
            dev = 1.0 - r.sign_content_minus
        elif kind in ("feynman", "antifeynman"):
            if band is None:
                raise ValueError("time-ordered scans need the diagonal band width")
            if abs(r.t - r.s) <= band:
                continue
            future = r.t > r.s
            want_plus = future if kind == "feynman" else not future
            dev = 1.0 - (r.sign_content_plus if want_plus else r.sign_content_minus)
        else:
            dev = r.cross
        worst = max(worst, dev)
        used += 1
    if used == 0:
        raise ValueError("no scan window lies outside the diagonal band")
    return worst


# ---------------------------------------------------------------------------
# perturbed (Bogoliubov) states


@dataclass
class BogoliubovKernel(BiKernel):
    """Two-point kernel of a quasi-free state with mode occupations n_k.

    The occupations add n_k to both line coefficients of the vacuum kind.
    Reduces to the vacuum kernel at n = 0; for any occupations the pair
    still solves the wave equation, stays Hermitian and positive, and
    preserves the commutator identity exactly.
    """

    occupation: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("lambda_plus", "lambda_minus"):
            raise ValueError("occupied kernels exist for the lambda kinds only")
        if self.occupation is None:
            self.occupation = np.zeros(self.omega.size)
        self.occupation = np.asarray(self.occupation, dtype=float)
        if self.occupation.shape != self.omega.shape:
            raise ValueError("occupation numbers must match the retained modes")
        if np.any(self.occupation < 0.0) or not np.all(np.isfinite(self.occupation)):
            raise ValueError("occupation numbers must be finite and nonnegative")

    def lines(self) -> tuple[np.ndarray, np.ndarray, str]:
        a, b, support = super().lines()
        return a + self.occupation, b + self.occupation, support


@dataclass
class DifferenceKernel(LineSpectrum):
    """Mode-sum difference of two state kernels: sum_k n_k cos(omega_k tau) / omega_k.

    Real, even in tau, identical for the plus and minus members of a
    Bogoliubov pair.  coefficients holds the injected occupations exactly.
    """

    t_grid: np.ndarray
    omega: np.ndarray
    coefficients: np.ndarray
    kind: str = "difference"

    def lines(self) -> tuple[np.ndarray, np.ndarray, str]:
        return self.coefficients, self.coefficients, "all"


@dataclass
class StatePair:
    """Two states on one grid: the input pair A and the rotated pair B."""

    lp_a: BiKernel
    lp_b: BogoliubovKernel
    lm_b: BogoliubovKernel
    occupation: np.ndarray
    descriptor: str

    def difference(self) -> DifferenceKernel:
        return DifferenceKernel(
            t_grid=self.lp_a.t_grid,
            omega=self.lp_a.omega.copy(),
            coefficients=self.occupation.copy(),
        )


def _parse_rotation(spec, omega: np.ndarray) -> tuple[np.ndarray, str]:
    """Occupations n_k = sinh^2 r_k from a rotation spec.

    Accepts {"thermal": beta} (r_k from tanh r_k = e^{-beta omega_k / 2},
    the occupation is then 1/(e^{beta omega} - 1)) or a finite list of
    (mode index, r_k) pairs; an empty list injects nothing.
    """
    n = np.zeros(omega.size)
    if isinstance(spec, dict) and set(spec) == {"thermal"}:
        beta = float(spec["thermal"])
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ValueError("thermal spec needs a positive finite beta")
        n = 1.0 / np.expm1(beta * omega)
        return n, f"thermal beta={beta!r}"
    try:
        pairs = [(int(k), float(r)) for k, r in spec]
    except (TypeError, ValueError) as exc:
        raise ValueError(
            "rotation spec must be {'thermal': beta} or a list of (mode, r) pairs"
        ) from exc
    for k, r in pairs:
        if not 0 <= k < omega.size:
            raise ValueError(f"mode index {k} outside the retained range")
        if not math.isfinite(r):
            raise ValueError(f"rotation parameter for mode {k} is not finite")
        n[k] = math.sinh(r) ** 2
    return n, f"modes {sorted(k for k, _ in pairs)!r}"


def make_perturbed_state(lp: BiKernel, lm: BiKernel, rotation) -> StatePair:
    """Bogoliubov-rotate a vacuum pair into a second state on the same grid.

    The rotated kernels keep the wave equation, Hermiticity, positivity and
    the exact commutator; the difference from the input pair is the mode
    sum with exactly the injected occupations.
    """
    if lp.kind != "lambda_plus" or lm.kind != "lambda_minus":
        raise ValueError("expected a (lambda_plus, lambda_minus) pair")
    if not np.array_equal(lp.t_grid, lm.t_grid) or lp.weighting != lm.weighting or lp.m != lm.m:
        raise ValueError("pair members must share grid, weighting and transverse mode")
    if np.any(lp.signs < 0) or np.any(lm.signs < 0):
        raise ValueError("cannot rotate a sign-mutated pair")
    n, desc = _parse_rotation(rotation, lp.omega)
    lp_b = BogoliubovKernel(
        spectral=lp.spectral, kind="lambda_plus", t_grid=lp.t_grid, weighting=lp.weighting, m=lp.m, occupation=n
    )
    lm_b = BogoliubovKernel(
        spectral=lm.spectral, kind="lambda_minus", t_grid=lm.t_grid, weighting=lm.weighting, m=lm.m, occupation=n
    )
    return StatePair(lp_a=lp, lp_b=lp_b, lm_b=lm_b, occupation=n, descriptor=desc)


def smoothness_decay_order(kernel: LineSpectrum) -> float:
    """Decay order of the windowed temporal Fourier envelope of a kernel trace.

    Fits -d log(envelope) / d log(Omega) over log-spaced bins covering the
    resolved band; superpolynomial (smooth-kernel) decay shows up as a
    large order, while the vacuum kernels sit near order 1.  The envelope
    is the per-bin peak, so line spectra are measured at their lines.

    Only resolved bins enter the fit: a bin must contain at least one
    modal line (a bin between lines measures only the taper skirt of its
    neighbours) and its envelope must reach ``_DECAY_FLOOR`` relative to the
    strongest bin (below that, the leakage skirt of the dominant line
    swamps any genuine content and would flatten the fitted slope).
    """
    tau = kernel.lags()
    taper = slepian_taper(tau.size, 4.0)
    spec = np.fft.fft(kernel.trace_series(tau) * taper)
    om = 2.0 * math.pi * np.fft.fftfreq(tau.size, d=kernel.dt)
    pos = om > 0
    om, mag = om[pos], np.abs(spec)[pos]

    w = np.asarray(kernel.omega, dtype=float)
    lo, hi = 0.8 * float(w.min()), 1.1 * float(w.max())
    edges = np.geomspace(lo, min(hi, float(om.max())), _DECAY_BINS + 1)
    cents, envs = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (om >= a) & (om < b)
        if not np.any(sel) or not np.any((w >= a) & (w < b)):
            continue
        cents.append(math.sqrt(a * b))
        envs.append(float(mag[sel].max()))
    if not envs:
        raise ValueError("no resolved bins to fit a decay order")
    envs = np.asarray(envs)
    keep = envs >= _DECAY_FLOOR * envs.max()
    cents, envs = np.asarray(cents)[keep], envs[keep]
    if cents.size < 4:
        raise ValueError("too few resolved bins to fit a decay order")
    slope, _ = np.polyfit(np.log(cents), np.log(envs), 1)
    return float(-slope)
