"""Desk-scale wavefront diagnostics.

Three instruments, all built on the mode decomposition:

* coherent wavepackets (Gaussian envelope times a plane phase, expanded in
  the eigenbasis) evolved by e^{-+ i t A^(1/2)} and tracked through their
  energy-density centroid, for comparison against broken-bicharacteristic
  paths including boundary reflection.  Tracking tabulates the mode values and
  x-derivatives on the quadrature points once and reduces the density to its
  moments in cache-sized tiles of times by points, four table products and
  one moment product each;
* windowed two-slot Fourier scans of kernel traces (a window length and a
  count of window starts per slot), reporting the spectral mass in the four
  frequency-sign quadrants under the primed pairing (sign of Omega_t, sign
  of -Omega_s), which puts a vacuum positive kernel entirely in the (+,+)
  quadrant and makes the Feynman kernel flip pattern across t = s; the
  pattern a kernel must show follows from its kind;
* Bogoliubov-perturbed states: a second pair of two-point kernels, the
  first pair with the thermal occupations n_k = 1/(e^{beta omega_k} - 1)
  added to both lines of every mode, whose difference from the first is an
  explicit smooth (superpolynomially decaying) mode sum, with the
  commutator preserved exactly.  The decay order of such a sum is read
  from its lines, each at its own frequency under one Slepian taper.

Time-slot localization uses a single Slepian (DPSS) taper, the leading
eigenvector of the Slepian tridiagonal matrix, with its half-bandwidth
matched to the lowest retained frequency, so taper leakage across the
Omega = 0 axis sits orders of magnitude below the quadrant tolerances.
Kernel traces are stationary and the time grid is uniform, so a window's
masses depend only on its offset between the slots.  Where the support
factor does not jump on a window's lags, the window is a sum of separable
line terms, and its masses are Hermitian forms in the line coefficients
over Gram matrices of the tapered lines' spectra; only windows whose lags
straddle a jump (tau = 0 for the retarded, advanced and time-ordered
kinds) are read from the trace on the 2T-1 lags and transformed in 2-D;
the trace and the line phases both come from the branch's phase table, and
the taper is eigensolved once per branch.  A scan given the diagonal band
of a time-ordered pattern forms no window inside it.
Spatial localization is exercised only through the wavepacket tests;
there is no spatial microlocalization in the scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bchar import PhasePointB, trace_gbb
from .geometry import MetricModel
from .propagators import _MIN_NW, LineSpectrum, _check_one_grid, _sampled_step
from .spectral import SpectralModel

__all__ = [
    "Wavepacket",
    "TrackResult",
    "ScanRow",
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
_DECAY_NW = 8.0  # taper half-bandwidth of the decay order's line reads
_DECAY_FLOOR = 1e-11  # weakest line read, relative to the strongest, that enters the fit
_TILE_TIMES = 128  # times per tile of evolve_and_track; a tile's intermediates hold 128 x 128 floats (128 KiB)
_TILE_POINTS = 128  # kept quadrature points per tile of evolve_and_track


# ---------------------------------------------------------------------------
# wavepackets


@dataclass
class Wavepacket:
    """Normalized coherent packet in the eigenbasis of one transverse mode,
    with its launch width and its moments.  energy_sign +1 evolves every
    coefficient with e^{-i omega t} (positive frequency), -1 the conjugate.
    """

    width: float
    energy_sign: int
    coefficients: np.ndarray
    m: int
    x_mean: float
    x_var: float
    xi_mean: float
    xi_var: float
    tail: float


def make_wavepacket(
    sm: SpectralModel,
    x0: float,
    xi0: float,
    sigma: float,
    sign: int = +1,
    m: int = 0,
) -> Wavepacket:
    """Gaussian envelope times plane phase, projected onto the retained modes;
    its x and wavenumber moments come from one ``eval_gauss`` call on the
    projected field.

    Preconditions: x0, xi0 and sigma are finite; the packet must sit clear
    of both boundaries (x0 in (3 sigma, L - 3 sigma)) and be oscillatory
    (|xi0| sigma >= 4); the retained modes must capture all but 1e-6 of its
    norm.
    """
    for name, value in (("x0", x0), ("xi0", xi0), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")
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

    x_mean, x_var, xi_mean, xi_var = _moments(sm, c, m)
    return Wavepacket(width=sigma, energy_sign=int(sign), coefficients=c, m=m, x_mean=x_mean, x_var=x_var,
                      xi_mean=xi_mean, xi_var=xi_var, tail=max(tail, 0.0))


def _moments(sm: SpectralModel, c: np.ndarray, m: int) -> tuple[float, float, float, float]:
    """Means and variances of x and of the wavenumber -i d/dx under |u|^2,
    from the values u and x-derivatives u' of one ``eval_gauss`` call on the
    quadrature weights w: the wavenumber mean is sum w Im(conj(u) u') / sum w |u|^2
    and its second moment sum w |u'|^2 / sum w |u|^2."""
    values, derivs = sm.grid.eval_gauss(sm.synthesize(c, m=m))
    w, xg = sm.grid.gauss_w, sm.grid.gauss_x
    dens = np.abs(values) ** 2 * w
    tot = float(dens.sum())
    x_mean = float((dens * xg).sum() / tot)
    x_var = float((dens * (xg - x_mean) ** 2).sum() / tot)
    xi_mean = float((w * np.imag(np.conj(values) * derivs)).sum() / tot)
    xi_var = float((w * np.abs(derivs) ** 2).sum() / tot) - xi_mean**2
    return x_mean, x_var, xi_mean, xi_var


@dataclass
class TrackResult:
    times: np.ndarray
    centroid: np.ndarray
    spread: np.ndarray
    status: str  # "ok" or "partial" (packet dispersed before t_max)
    window_floor: float


def evolve_and_track(sm: SpectralModel, w: Wavepacket, t_max: float, dt: float) -> TrackResult:
    """Evolve by e^{-+ i t A^(1/2)} over the times 0, dt, .. <= t_max and track
    the energy-density centroid; dt must be finite, positive and sample the
    top retained frequency (``propagators._sampled_step``), t_max >= 0 finite.

    The tilde-frame energy density |u_t|^2 + |u_x|^2 is integrated on the
    quadrature points restricted to x >= 2 sigma (the boundary weight would
    otherwise dominate during reflection).  Tracking stops early with
    status "partial" at the first time whose spread exceeds L/4.

    The values V and x-derivatives D of every mode on the kept points come
    from one ``eval_gauss`` call; the Gauss points ascend, so the kept points
    are a suffix of them.  The times are taken in tiles of ``_TILE_TIMES``
    and the points in tiles of ``_TILE_POINTS``, so that every intermediate
    stays in cache.  With the phased coefficients a = c e^{-+ i omega t} of
    the tile's times, a tile costs four real table products, the real and
    imaginary parts of u_x = a D and of u_t = (-+ i omega a) V, squared in
    place and summed into the density, and one product of the density with
    the tile's rows of the (points x 3) matrix [w, w x, w x^2] of quadrature
    weights, which adds the tile's share to the moments m0, m1, m2 of each
    time; centroid = m1/m0 and spread = sqrt(max(m2/m0 - centroid^2, 0)).
    The spread is checked after each tile of times.
    """
    if not (math.isfinite(dt) and dt > 0.0 and math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"tracking needs a finite dt > 0 and a finite t_max >= 0, got dt={dt!r}, t_max={t_max!r}")
    br = sm.branch(w.m)
    _sampled_step(br, dt)
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    floor = 2.0 * w.width
    xg = sm.grid.gauss_x.ravel()
    start = int(np.searchsorted(xg, floor))
    xq, wq = xg[start:], sm.grid.gauss_w.ravel()[start:]
    # eval_gauss returns (modes, elements, points) tables laid out points-major: (points, modes) views
    values, derivs = (tab.transpose(1, 2, 0).reshape(-1, br.omega.size)[start:]
                      for tab in sm.grid.eval_gauss(br.phi.T))
    moments = np.stack([wq, wq * xq, wq * xq * xq], axis=1)
    limit = _DISPERSE_FRACTION * sm.grid.L

    cent, spr = np.zeros(times.size), np.zeros(times.size)
    for i0 in range(0, times.size, _TILE_TIMES):
        blk = slice(i0, i0 + _TILE_TIMES)
        a = w.coefficients * np.exp(-1j * w.energy_sign * np.outer(times[blk], br.omega))
        at = -1j * w.energy_sign * br.omega * a
        # |u_x|^2 + |u_t|^2 from real products: the tables are real, a is not
        mom = np.zeros((a.shape[0], 3))
        for j0 in range(0, xq.size, _TILE_POINTS):
            pts = slice(j0, j0 + _TILE_POINTS)
            d, v = derivs[pts].T, values[pts].T
            dens = a.real @ d
            np.square(dens, out=dens)
            for part, tab in ((a.imag, d), (at.real, v), (at.imag, v)):
                prod = part @ tab
                dens += np.square(prod, out=prod)
            mom += dens @ moments[pts]
        m0, m1, m2 = mom.T
        cent[blk] = m1 / m0
        spr[blk] = np.sqrt(np.maximum(m2 / m0 - cent[blk] ** 2, 0.0))
        if np.any(spr[blk] > limit):
            break
    over = np.flatnonzero(spr > limit)
    n, status = (int(over[0]) + 1, "partial") if over.size else (times.size, "ok")
    return TrackResult(times=times[:n], centroid=cent[:n], spread=spr[:n], status=status, window_floor=floor)


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
    during a boundary reflection; the windowed centroid cannot).  The flow
    parameter steps by 0.04 L / |xi0|, one step per 0.08 L of x at launch,
    and the ray runs 0.01 L past the last time, so the work is the same at
    every L; xi0 = 0 is refused.
    """
    if xi0 == 0.0:
        raise ValueError("the reference ray needs xi0 != 0: its step is 0.04 L / |xi0|")
    times = np.asarray(times, dtype=float)
    mu = model.transverse_mu(m)
    q = xi0**2 + mu / model.k(x0)
    tau = math.sqrt(model.beta(x0) * q)
    p0 = PhasePointB(x=x0, t=float(times[0]), tau=tau, xi=xi0, zeta=math.sqrt(mu))
    path = trace_gbb(model, p0, t_max=float(times[-1]) + 0.01 * model.L, step=0.04 * model.L / abs(xi0))
    rows = path.sample(times)
    xs = rows[:, 0]
    if clip is not None:
        xs = np.maximum(xs, clip)
    return xs


# ---------------------------------------------------------------------------
# quadrant scans


@dataclass(frozen=True)
class ScanRow:
    t: float
    s: float
    sign_content_plus: float  # mass fraction in the (+,+) quadrant
    sign_content_minus: float  # mass fraction in the (-,-) quadrant
    cross: float  # mass fraction in the two mixed quadrants


def _line_set(support: str, lo: int, hi: int) -> str | None:
    """Which lines the kernel has on the lags lo..hi (grid units): "direct"
    (a on e^{+i omega tau}, b on e^{-i omega tau}), "swapped" (b, a: "abs"
    at tau <= 0), "zero", or None where the support factor jumps."""
    if support == "all" or (support == "abs" and lo >= 0) or (support == "future" and lo > 0) \
            or (support == "past" and hi < 0):
        return "direct"
    if support == "abs" and hi <= 0:
        return "swapped"
    if (support == "future" and hi <= 0) or (support == "past" and lo >= 0):
        return "zero"
    return None


def _line_masses(kernel: LineSpectrum, swapped: bool, taper: np.ndarray, offsets: list[int]) -> list[tuple]:
    """Quadrant mass fractions of the windows at the given offsets, from the
    kernel's lines.

    The window is sum_j gamma_j u_j[a] conj(u_j[b]) with u_j[a] =
    taper[a] e^{i nu_j dt a} and gamma_j = c_j e^{i nu_j dt offset}, so its
    t-slot transform is U_j = fft(u_j) and its s-slot transform is U_j read
    at -q, conjugated.  The power summed over a pair of bin sets is then the
    Hermitian form of gamma with the elementwise product of the two slots'
    J x J Gram matrices of U over those sets.  The phases e^{i nu_j dt k}
    are read from the branch's phase table, nu = (omega, -omega).
    """
    a, b = (kernel.b, kernel.a) if swapped else (kernel.a, kernel.b)
    h = 0.5 / kernel.omega
    c = np.concatenate([h * a, h * b])
    keep = c != 0
    n_w = taper.size
    e = np.take(kernel.branch.lag_phases(kernel.dt, kernel.T), kernel.T - 1 + np.r_[0:n_w, offsets], axis=1)
    e = np.concatenate([e, e.conj()])[keep]  # e^{i nu_j dt k} on the lags 0 .. n_w-1, then the offsets
    u = np.fft.fft(taper * e[:, :n_w], axis=1)
    sgn_t = np.sign(np.fft.fftfreq(n_w))
    # primed s-slot sign of the bin that reads U at p; it differs from sgn_t
    # only at the Nyquist bin of an even n_w
    sgn_s = -sgn_t[-np.arange(n_w)]

    def gram(sel):
        part = u[:, sel]
        return part @ part.conj().T

    tp, tm, sp, sm, every = (gram(sel) for sel in (sgn_t > 0, sgn_t < 0, sgn_s > 0, sgn_s < 0, slice(None)))
    forms = (tp * sp.conj(), tm * sm.conj(), tp * sm.conj() + tm * sp.conj(), every * every.conj())
    gamma = c[keep] * e[:, n_w:].T
    # one window at a time, so that its rounding does not depend on the offsets that share this call
    plus, minus, cross, total = (np.array([(g @ f @ g.conj()).real for g in gamma]) for f in forms)
    total = total + 1e-300
    return list(zip(plus / total, minus / total, cross / total))


def _trace_masses(kernel: LineSpectrum, taper: np.ndarray, offsets: list[int]) -> list[tuple]:
    """Quadrant mass fractions of the windows at the given offsets, from the
    trace on the 2T-1 lags and one ``fft2`` per offset."""
    n_w = taper.size
    sgn = np.sign(np.fft.fftfreq(n_w))
    sgn_t, sgn_s = sgn[:, None], -sgn[None, :]
    q_pp = (sgn_t > 0) & (sgn_s > 0)
    q_mm = (sgn_t < 0) & (sgn_s < 0)
    q_x = ((sgn_t > 0) & (sgn_s < 0)) | ((sgn_t < 0) & (sgn_s > 0))
    trace = kernel.trace()
    # index of lag a - b, lag 0 sitting at T - 1
    lag_index = (kernel.T - 1) + np.subtract.outer(np.arange(n_w), np.arange(n_w))
    out = []
    for offset in offsets:
        windowed = taper[:, None] * trace[lag_index + offset] * taper[None, :]
        power = np.abs(np.fft.fft2(windowed)) ** 2
        total = float(power.sum()) + 1e-300
        out.append(tuple(float(power[q].sum()) / total for q in (q_pp, q_mm, q_x)))
    return out


def kernel_wavefront_scan(kernel: LineSpectrum, length: float, n_centers: int,
                          band: float | None = None) -> list[ScanRow]:
    """Windowed two-slot Fourier quadrant masses of a kernel trace.

    The n_centers x n_centers windows of duration ``length`` start at
    indices spread evenly, in each slot, from the first grid point to the
    last start where a full window fits; their DPSS taper is matched to the
    kernel's ``omega_floor`` with a 0.9 safety factor.  For each pair of
    windows (one per time slot) the tapered trace k(t - s) is transformed
    in both slots and the power is binned by the primed signs (sign
    Omega_t, sign -Omega_s).  A vacuum positive kernel concentrates in
    (+,+), its conjugate in (-,-), the causal kernel splits across both
    without mixed mass, and the Feynman kernel switches quadrant across
    t = s.  The expected pattern and the line sets follow from the kernel's
    kind, through its ``support`` and ``frequency_sign``.  With ``band``
    set, a window whose row times have |t - s| <= band (the test
    ``off_pattern`` skips it by) is neither formed nor returned.

    The window starting at grid indices (i0, j0) reads the trace at lag
    dt (i0 - j0 + a - b), so its masses depend on the offset i0 - j0 only
    and are computed once per distinct offset.  Where the support factor is
    one fixed line set on the window's lags, the masses come from the lines
    (``_line_masses``); no trace sample and no 2-D transform is formed.  A
    window whose lags straddle a jump of the support (tau = 0 for the
    retarded, advanced and time-ordered kinds) is read from the trace,
    evaluated once on the 2T-1 lags, and transformed by ``fft2``.
    """
    if not (length > 0.0 and n_centers >= 1):
        raise ValueError(f"scan needs window length > 0 and n_centers >= 1; got {length}, {n_centers}")
    t = kernel.t_grid
    dt = kernel.dt
    span = float(t[-1] - t[0])
    if length > span:
        raise ValueError(f"window length {length} exceeds the grid span {span}")
    n_w = int(round(length / dt)) + 1
    nw = 0.9 * length * kernel.omega_floor / (2.0 * math.pi)
    if nw < _MIN_NW:
        raise ValueError(
            f"window too short for the spectral gap: time-bandwidth {nw:.2f} < {_MIN_NW}; "
            "lengthen the window"
        )
    taper = kernel.taper(n_w, nw)
    starts = np.rint(np.linspace(0, t.size - n_w, n_centers)).astype(int)
    centers = {int(i0): float(np.mean(t[i0 : i0 + n_w])) for i0 in starts}
    windows = [(int(i0), int(j0)) for i0, j0 in itertools.product(starts, starts)
               if band is None or not abs(centers[i0] - centers[j0]) <= band]

    offsets = sorted({i0 - j0 for i0, j0 in windows})
    groups: dict[str | None, list[int]] = {}
    for offset in offsets:
        groups.setdefault(_line_set(kernel.support, offset - (n_w - 1), offset + (n_w - 1)), []).append(offset)
    masses = dict.fromkeys(groups.pop("zero", []), (0.0, 0.0, 0.0))
    straddling = groups.pop(None, [])
    for lines, offs in groups.items():
        masses.update(zip(offs, _line_masses(kernel, lines == "swapped", taper, offs)))
    if straddling:
        masses.update(zip(straddling, _trace_masses(kernel, taper, straddling)))

    return [ScanRow(centers[i0], centers[j0], *map(float, masses[i0 - j0])) for i0, j0 in windows]


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
class StatePair:
    """Two states on one grid: the input pair A, the rotated pair B and the
    occupations that B adds to A."""

    lp_a: LineSpectrum
    lp_b: LineSpectrum
    lm_b: LineSpectrum
    occupation: np.ndarray

    def difference(self) -> LineSpectrum:
        """lp_b - lp_a (= lm_b - lm_a): sum_k n_k cos(omega_k tau) / omega_k,
        real (its lines are conjugate, so its gains are float64) and even in
        tau, with no spatial factor."""
        n, lp = self.occupation, self.lp_a
        return LineSpectrum("difference", lp.t_grid, lp.branch, n, n)


def _parse_rotation(spec, omega: np.ndarray) -> np.ndarray:
    """Occupations n_k = sinh^2 r_k of the thermal rotation {"thermal": beta}:
    tanh r_k = e^{-beta omega_k / 2}, so n_k = 1/(e^{beta omega_k} - 1).
    Any other spec is refused."""
    if not (isinstance(spec, dict) and set(spec) == {"thermal"}):
        raise ValueError(f"rotation spec must be {{'thermal': beta}}, got {spec!r}")
    beta = float(spec["thermal"])
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("thermal spec needs a positive finite beta")
    with np.errstate(over="ignore"):  # e^{beta omega_k} = inf past beta omega_k ~ 709, where n_k is exactly 0
        return 1.0 / np.expm1(beta * omega)


def make_perturbed_state(lp: LineSpectrum, lm: LineSpectrum, rotation) -> StatePair:
    """Bogoliubov-rotate a two-point pair into a thermal state on the same grid.

    ``rotation`` is {"thermal": beta}.  The input may be any unmutated pair,
    the vacuum or an already rotated one.  The Bose occupations n_k add to
    both line coefficients of each member, so the rotated kernels keep the
    wave equation, Hermiticity, positivity and the exact commutator, and the
    difference from the input pair is the mode sum with exactly the injected
    occupations.
    """
    if lp.kind != "lambda_plus" or lm.kind != "lambda_minus":
        raise ValueError("expected a (lambda_plus, lambda_minus) pair")
    _check_one_grid(lp, lm)
    if np.any(lp.flipped) or np.any(lm.flipped):
        raise ValueError("cannot rotate a sign-mutated pair")
    n = _parse_rotation(rotation, lp.omega)
    lp_b, lm_b = (replace(k, a=k.a + n, b=k.b + n) for k in (lp, lm))
    return StatePair(lp_a=lp, lp_b=lp_b, lm_b=lm_b, occupation=n)


def smoothness_decay_order(kernel: LineSpectrum) -> float:
    """Decay order of a kernel trace's lines: -d log(read) / d log(omega) over
    the lines whose read reaches ``_DECAY_FLOOR`` of the strongest (refusing
    fewer than 4; below it taper leakage from the strong lines swamps them).

    A line is read at its own frequency, |sum_tau taper trace e^(-i omega_k tau)|
    on the 2T-1 lags under a Slepian taper of half-bandwidth ``_DECAY_NW``
    (Thomson's line-component estimate, Proc. IEEE 70(9), 1982), all lines in
    one product with the branch's phase table.  Smooth (superpolynomially
    decaying) kernels read a large order, the vacuum kernels near 1."""
    trace = kernel.trace()
    taper = kernel.taper(trace.size, _DECAY_NW)
    reads = np.abs(kernel.branch.lag_phases(kernel.dt, kernel.T) @ np.conj(taper * trace))
    keep = reads >= _DECAY_FLOOR * reads.max()
    if np.count_nonzero(keep) < 4:
        raise ValueError(f"fewer than 4 lines read above {_DECAY_FLOOR:g} of the strongest to fit a decay order")
    slope, _ = np.polyfit(np.log(kernel.omega[keep]), np.log(reads[keep]), 1)
    return float(-slope)
