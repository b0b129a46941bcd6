"""Mode-sum space-time kernels for the conjugated wave operator.

With eigenpairs (omega_k^2, phi_k) of A, every distinguished inverse and
two-point function of d^2/dt^2 + A is a stationary mode sum in tau = t - s:

    retarded      theta(tau)  sin(omega tau)/omega        (theta(0) = 0)
    advanced     -theta(-tau) sin(omega tau)/omega
    causal        sin(omega tau)/omega                    (retarded - advanced)
    lambda_plus   (2 omega)^-1 exp(+i omega tau)
    lambda_minus  (2 omega)^-1 exp(-i omega tau)
    feynman      -i (2 omega)^-1 exp(+i omega |tau|)
    antifeynman  +i (2 omega)^-1 exp(-i omega |tau|)

each multiplied by phi_k phi_k^T and summed over retained modes.  One value
type, ``LineSpectrum``, carries every kernel: the gain of mode k is
h_k [a_k e^{+i omega_k tau} + b_k e^{-i omega_k tau}] S(tau), times the
spatial factor when there is one.  ``make_propagator`` fills (a, b, S) from
the table above; a sign flip swaps a and b, occupations add to both, and
state differences and boundary kernels carry lines with no spatial factor.
The normalization is pinned by the pair of identities

    lambda_plus - lambda_minus = i * causal
    feynman = -i lambda_plus + advanced = -i lambda_minus + retarded

which the verification ops measure per mode on every lag of the time
grid, as they do Hermiticity, the adjoint pairing and the supports: all
kinds share the spatial factor.  A kernel's gains exist only on the
integer lags tau = dt k of its grid: ``gains`` and ``trace`` read them from
the one phase table exp(i omega_k tau) of its branch and grid
(``SpectralBranch.lag_phases``), which every kernel on that branch and
grid shares, derived kernels included; a kernel builds its gains on the
2T-1 lags once and reads every other lag set from them, as float64 for
conjugate lines, b = conj a (a real kernel).  These ops return
measurements (defects, residuals with their data-dependent scale, Gram
eigenvalues, mass fractions); tolerances and verdicts belong to the
caller, the check table of ``cli.run_verify``.  Every kernel lives in
the conjugated frame of the eigensolve; the physical weight
x^(n/2-1) beta^(-1/2) enters only at the boundary restriction
(``holography.boundary_fits``).

Kernel applications use trapezoid quadrature in s and batched FFT
convolution over the uniform time grid (every kernel above is a Toeplitz
matrix in time, whose entries are the gains on the 2T-1 lags), on the mode
coefficients of the branch: data on the grid (T, ndof) is projected and the
result synthesized, and coefficients (T, K) stay coefficients.  A real
kernel on real data takes rfft/irfft, anything else fft/ifft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .spectral import SpectralBranch, SpectralModel

__all__ = [
    "LineSpectrum",
    "KINDS",
    "make_propagator",
    "apply",
    "apply_wave_operator",
    "verify_two_point",
    "gram_eigenvalues",
    "frequency_sign_test",
    "make_feynman",
    "feynman_consistency",
    "time_slice_residuals",
    "support_check",
    "adjoint_check",
    "slepian_taper",
]

# Line coefficients (a, b) per kind in units of h_k = 1/(2 omega_k), and the
# support factor of the gain g_k(tau) = h_k [a e^{+i omega_k tau} +
# b e^{-i omega_k tau}] S(tau).
_LINES = {
    "retarded": (-1j, 1j, "future"),
    "advanced": (1j, -1j, "past"),
    "causal": (-1j, 1j, "all"),
    "lambda_plus": (1.0, 0.0, "all"),
    "lambda_minus": (0.0, 1.0, "all"),
    "feynman": (-1j, 0.0, "abs"),
    "antifeynman": (0.0, 1j, "abs"),
}
KINDS = tuple(_LINES)
_SIGNS = {"lambda_plus": +1, "plus": +1, "lambda_minus": -1, "minus": -1}
_GRAM_TIMES, _GRAM_VECS = 16, 6  # Gram test family: subsampled times, random mode vectors
_MIN_NW = 2.5  # least time-bandwidth of a slepian_taper window: the frequency-sign test's and a scan's


@dataclass(frozen=True, eq=False)
class LineSpectrum:
    """Stationary kernel with per-mode gain h_k [a_k e^{+i omega_k tau} +
    b_k e^{-i omega_k tau}] S(tau), h_k = 1/(2 omega_k), on a uniform grid.

    The lines sit on the frequencies omega of ``branch``, whose transverse
    mode is m.  The kind fixes the support S, "all" (1; every derived kind),
    "future" (theta(tau), theta(0) = 0), "past" (theta(-tau)) or "abs" (both
    exponentials taken at |tau|), and ``frequency_sign``, +1 / -1 for a
    one-sided claim, else 0.  ``spectral`` gives the spatial factor
    phi_k phi_k^T of the branch; it is None for kernels without one
    (boundary lines, state differences).
    A kernel is a frozen value: ``replace``, ``flip`` and ``mutated`` make a
    new one, which builds its own gains.
    """

    kind: str
    t_grid: np.ndarray
    branch: SpectralBranch
    a: np.ndarray
    b: np.ndarray
    spectral: SpectralModel | None = None

    @property
    def support(self) -> str:
        return _LINES[self.kind][2] if self.kind in _LINES else "all"

    @property
    def frequency_sign(self) -> int:
        return _SIGNS.get(self.kind, 0)

    @property
    def omega(self) -> np.ndarray:
        return self.branch.omega

    @property
    def m(self) -> int:
        return self.branch.m

    @property
    def omega_floor(self) -> float:
        """Lowest frequency a scan taper must separate from zero: the model's
        certified floor with a spatial factor, else the branch's least omega."""
        return self.spectral.m_floor_sqrt if self.spectral is not None else float(np.min(self.omega))

    @property
    def dt(self) -> float:
        # from the span: far from t = 0 a single step rounds at the ulp of |t|
        return float(self.t_grid[-1] - self.t_grid[0]) / (self.T - 1)

    @property
    def T(self) -> int:
        return self.t_grid.size

    @property
    def weights(self) -> np.ndarray:
        """Line weight per mode, (|a_k| + |b_k|) / (2 omega_k)."""
        return (np.abs(self.a) + np.abs(self.b)) / (2.0 * self.omega)

    @property
    def flipped(self) -> np.ndarray:
        """Mask of the modes whose dominant line sits on the forbidden side."""
        return self.frequency_sign * (np.abs(self.a) - np.abs(self.b)) < 0.0

    def gains(self, lags: np.ndarray | None = None) -> np.ndarray:
        """Per-mode gains at the integer lags k (tau = dt k), shape (K, len(lags));
        the default is all 2T-1 lags 1-T .. T-1 in increasing order, so
        reversing that lag axis maps tau to -tau exactly.  That array is built
        once per kernel and returned read-only; other lags are its columns.  It
        is float64 for conjugate lines (a real kernel), else complex."""
        k = None if lags is None else np.asarray(lags)
        if k is not None and k.size and int(np.abs(k).max()) >= self.T:
            raise ValueError(f"lags must lie in [1-T, T-1] = [{1 - self.T}, {self.T - 1}]")
        # np.take returns the columns row-major (g[:, idx] would not), which fixes the rounding of mode sums
        return self._lag_gains if k is None else np.take(self._lag_gains, self.T - 1 + k, axis=1)

    @cached_property
    def _lag_gains(self) -> np.ndarray:
        k = np.arange(1 - self.T, self.T)
        e = self.branch.lag_phases(self.dt, self.T)
        if self.support == "abs":
            e = np.take(e, self.T - 1 + np.abs(k), axis=1)
        h = 0.5 / self.omega[:, None]
        if np.array_equal(self.b, np.conj(self.a)):  # a real kernel: a e + conj(a e) = 2 Re(a e)
            g, h = self.a.real[:, None] * e.real, 2.0 * h
            g -= self.a.imag[:, None] * e.imag
        else:  # (a e + b conj(e)) in place, skipping a line whose coefficients are all zero
            g = self.a[:, None] * e if self.a.any() or not self.b.any() else None
            if self.b.any():
                lower = e.conj()
                np.multiply(self.b[:, None], lower, out=lower)
                g = lower if g is None else np.add(g, lower, out=g)
        g *= h
        if self.support in ("future", "past"):
            g[:, ~(k > 0 if self.support == "future" else k < 0)] = 0.0
        g.setflags(write=False)
        return g

    def trace(self, lags: np.ndarray | None = None) -> np.ndarray:
        """Mode-summed gains sum_k g_k at the lags of ``gains`` (the kernel's
        trace in the assembled inner product)."""
        return self.gains(lags).sum(axis=0)

    def taper(self, n: int, nw: float) -> np.ndarray:
        """``slepian_taper(n, nw)``, eigensolved once per branch and shared
        read-only with every kernel on it."""
        return self.branch.table(("taper", int(n), float(nw)), lambda: slepian_taper(n, nw))

    def flip(self, modes) -> "LineSpectrum":
        """Copy with the two lines swapped on the given modes, which fakes a
        frequency-sign fault; only the one-sided kernels make a claim to break."""
        sel = np.zeros(self.omega.size, dtype=bool)
        sel[modes] = True
        if sel.any() and self.frequency_sign == 0:
            raise ValueError("frequency-sign flips apply to the lambda kernels only")
        return replace(self, a=np.where(sel, self.b, self.a), b=np.where(sel, self.a, self.b))

    def mutated(self, fraction: float = 0.01) -> "LineSpectrum":
        """Copy with the frequency sign flipped on the lowest ceil(fraction*K)
        modes."""
        return self.flip(np.arange(max(1, math.ceil(fraction * self.omega.size))))

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "m": self.m,
            "T": self.T,
            "t0": float(self.t_grid[0]),
            "dt": self.dt,
            "n_flipped": int(np.sum(self.flipped)),
        }


def make_propagator(
    sm: SpectralModel,
    kind: str,
    t_grid: np.ndarray,
    weighting: str = "tilde",
    m: int = 0,
) -> LineSpectrum:
    """Build a mode-sum kernel on a finite, strictly increasing uniform time grid.

    Rejects grids that undersample the largest retained frequency
    (``_sampled_step``: omega_max * dt must stay below pi).  ``weighting`` ("tilde" or
    "physical") changes nothing, as every kernel lives in one frame; only
    the benchmark passes it, until the ROADMAP's benchmark upkeep.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if weighting not in ("tilde", "physical"):
        raise ValueError(f"unknown weighting {weighting!r}; expected 'tilde' or 'physical'")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 32:
        raise ValueError("time grid too coarse: need T >= 32")
    if not np.isfinite(t_grid).all():
        raise ValueError(f"time grid must be finite, got t = {float(t_grid[~np.isfinite(t_grid)][0])!r}")
    steps = np.diff(t_grid)
    if not steps[0] > 0.0:
        raise ValueError(f"time grid must be strictly increasing, got step dt = {steps[0]!r}")
    dt = float(t_grid[-1] - t_grid[0]) / (t_grid.size - 1)
    # each grid time is rounded at the ulp of max |t|, so its steps scatter by a few of them
    if np.max(np.abs(steps - dt)) > 4.0 * np.spacing(np.max(np.abs(t_grid))):
        raise ValueError("time grid must be uniform")
    br = sm.branch(m)
    _sampled_step(br, dt)
    a, b, _ = _LINES[kind]
    return LineSpectrum(kind, t_grid, br, np.full(br.omega.size, a), np.full(br.omega.size, b), sm)


def _sampled_step(branch: SpectralBranch, dt: float, refine: bool = False) -> tuple[float, int]:
    """The one sampling rule: (dt / r, r), least r with omega_max dt / r < pi; r > 1 is refused unless ``refine``."""
    wdt = float(branch.omega[-1]) * dt
    if wdt >= math.pi and not refine:
        raise ValueError(f"dt undersamples the largest retained frequency: omega_max*dt = {wdt:.3f} >= pi; "
                         "refine dt or retain fewer modes")
    r = math.floor(wdt / math.pi) + 1
    return dt / r, r


def _coefficients(sm: SpectralModel, m: int, f: np.ndarray, T: int | None = None) -> tuple[np.ndarray, bool]:
    """Branch-m mode coefficients of space-time data given on the grid (T, ndof)
    or as those coefficients (T, K), and whether it came on the grid; the last
    axis picks the frame, as K <= N/4 < ndof."""
    f = np.asarray(f)
    ndof, K, rows = sm.grid.ndof, sm.branch(m).omega.size, "T" if T is None else f"T={T}"
    if f.ndim != 2 or f.shape[1] not in (ndof, K) or (T is not None and f.shape[0] != T):
        raise ValueError(f"{f.shape} is neither grid data ({rows}, ndof={ndof}) nor mode coefficients ({rows}, K={K})")
    return (sm.project(f, m=m), True) if f.shape[1] == ndof else (f, False)


def apply(kernel: LineSpectrum, f: np.ndarray) -> np.ndarray:
    """Apply the kernel to space-time data f, on the grid (T, ndof) or as the
    mode coefficients (T, K) of its branch, and return the result in that frame.

    Trapezoid quadrature in s; the stationary mode sums make this a batched
    Toeplitz product, done by FFT per mode on a circular buffer of the
    kernel's ``gains`` on its 2T-1 lags: rfft/irfft when gains and data are real, else fft/ifft.
    """
    if kernel.spectral is None:
        raise ValueError(f"{kernel.kind} kernel has no spatial factor to apply")
    T, sm = kernel.T, kernel.spectral
    a, on_grid = _coefficients(sm, kernel.m, f, T)
    a = a * kernel.dt  # (T, K) with the trapezoid weights in s; never scales f in place
    a[[0, -1]] *= 0.5

    # circular length: the least power of two >= 2T-1 (2T-1 itself can be prime,
    # pocketfft's slow path); lag -m sits at L-m with zeros in the middle
    L = 1 << (2 * T - 2).bit_length()
    g = kernel.gains()
    # a real kernel on real data takes the half spectrum; eight modes at a time keep the buffers small
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(a) or np.iscomplexobj(g) else (np.fft.rfft, np.fft.irfft)
    conv = np.empty((g.shape[0], T), dtype=np.result_type(a, g))
    for rows in (slice(k, k + 8) for k in range(0, g.shape[0], 8)):
        gains = np.zeros((g[rows].shape[0], L), dtype=g.dtype)
        gains[:, :T] = g[rows, T - 1:]
        gains[:, L + 1 - T:] = g[rows, :T - 1]
        conv[rows] = ifft(fft(a.T[rows], n=L, axis=1) * fft(gains, axis=1), n=L, axis=1)[:, :T]
    return sm.synthesize(conv.T, m=kernel.m) if on_grid else conv.T


def apply_wave_operator(sm: SpectralModel, f: np.ndarray, dt: float) -> np.ndarray:
    """Discrete d^2/dt^2 + A of branch 0 on the retained modes of f, given as
    grid data (T, ndof) or mode coefficients (T, K): the central stencil in t
    plus omega_k^2 on the coefficients; the T-2 interior rows, in f's frame.
    On the span of the modes A is the assembled M^-1 K up to eigensolve
    round-off; the rest is dropped."""
    c, on_grid = _coefficients(sm, 0, f)
    p = (c[2:] - 2.0 * c[1:-1] + c[:-2]) / dt**2 + sm.branch(0).omega2 * c[1:-1]
    return sm.synthesize(p) if on_grid else p


def _gram_matrix(kernel: LineSpectrum, n_times: int = _GRAM_TIMES, coeffs: np.ndarray | None = None) -> np.ndarray:
    """Hermitian space-time Gram of the kernel on a test family.

    Entries <(t_i, c_a), K (t_j, c_b)> over n_times subsampled grid times
    t_i and the mode-space vectors c_a, the rows of ``coeffs`` (default:
    _GRAM_VECS seeded random unit vectors).  The pairing is the mode-space
    one, which is the weighted pairing of the conjugated frame, so no
    measure density enters.  The gains
    are read once per distinct integer lag idx_i - idx_j, and the
    contraction over modes is one product of the vector pairs
    conj(c_ak) c_bk with them.
    """
    if coeffs is None:
        coeffs = np.random.default_rng(1234).standard_normal((_GRAM_VECS, kernel.omega.size))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    n_v, n_k = coeffs.shape
    idx = np.linspace(0, kernel.T - 1, n_times).round().astype(int)
    lags, where = np.unique(idx[:, None] - idx[None, :], return_inverse=True)
    pairs = (coeffs.conj()[:, None, :] * coeffs[None, :, :]).reshape(-1, n_k)  # ((a, b), K)
    gram = (pairs @ kernel.gains(lags))[:, where.ravel()]  # ((a, b), (i, j))
    n = n_times * n_v
    return gram.reshape(n_v, n_v, n_times, n_times).transpose(2, 0, 3, 1).reshape(n, n)


def gram_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a Gram matrix."""
    return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))


def _check_one_grid(*kernels: LineSpectrum) -> None:
    """Refuse kernels that do not share one spectral model, branch and time grid."""
    first = kernels[0]
    if any(k.spectral is not first.spectral or k.m != first.m or not np.array_equal(k.t_grid, first.t_grid)
           for k in kernels[1:]):
        raise ValueError("kernels must share one spectral model, transverse mode and time grid")


def _grid_gains(*kernels: LineSpectrum) -> list[np.ndarray]:
    """Per-mode gains on the 2T-1 lags of kernels that share one grid and
    spatial factor: identities between such kernels are
    identities between these arrays, all read from one lag phase table."""
    _check_one_grid(*kernels)
    return [k.gains() for k in kernels]


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def verify_two_point(lp: LineSpectrum, lm: LineSpectrum, g: LineSpectrum) -> dict:
    """Measurements of the algebra of a two-point-function pair and the
    commutator, as plain values; the verdicts are the caller's.

    "wave_op": largest wave-operator residual of both lambda kernels,
    relative to the mode amplitude, and "wave_op_bound": its O(dt^2) scale
    2 dt^2 omega_max^2 (second-order time stencil); "commutator" and
    "hermiticity": largest per-mode defects of lambda_plus - lambda_minus =
    i*causal on every lag and of K(t,s) = K(s,t)^H on tau >= 0, as d(-tau) =
    -conj d(tau); "gram_plus", "gram_minus": ascending space-time Gram eigenvalues.
    """
    if lp.kind != "lambda_plus" or lm.kind != "lambda_minus" or g.kind != "causal":
        raise ValueError("expected (lambda_plus, lambda_minus, causal) kernels")
    gp, gm, gg = _grid_gains(lp, lm, g)

    # wave-operator residual on the lags tau >= 0, exact in space, O(dt^2)
    # from the time stencil
    dt, w = lp.dt, lp.omega
    wave_op = 0.0
    for gains in (gp[:, lp.T - 1 :], gm[:, lp.T - 1 :]):
        stencil = (gains[:, 2:] - 2.0 * gains[:, 1:-1] + gains[:, :-2]) / dt**2
        resid = stencil + w[:, None] ** 2 * gains[:, 1:-1]
        # scale by the mode amplitude so the number is a relative residual
        wave_op = max(wave_op, float(np.max(np.abs(resid) * (2.0 * w[:, None]) / w[:, None] ** 2)))
    gram_plus, gram_minus = (gram_eigenvalues(_gram_matrix(k)) for k in (lp, lm))
    commutator = gp - gm  # minus i gg part by part: a real (conjugate-line) gg moves only the imaginary part
    commutator.real += gg.imag
    commutator.imag -= gg.real
    return {
        "wave_op": wave_op,
        "wave_op_bound": 2.0 * dt**2 * float(np.max(w)) ** 2,
        "commutator": _max_abs(commutator),
        # d(tau) = g(tau) - conj g(-tau) on tau >= 0 only: d(-tau) = -conj d(tau) bit for bit
        "hermiticity": max(_max_abs(gk[:, lp.T - 1 :] - gk[:, lp.T - 1 :: -1].conj()) for gk in (gp, gm)),
        "gram_plus": gram_plus,
        "gram_minus": gram_minus,
    }


def support_check(kernel: LineSpectrum) -> float:
    """Largest mode-summed gain magnitude on the forbidden lags (retarded:
    t <= s; advanced: t >= s).  Exact zero by construction of the theta
    factor; returned so tests can assert it."""
    if kernel.kind not in ("retarded", "advanced"):
        raise ValueError("support check applies to retarded/advanced kernels")
    gains = kernel.gains()
    forbidden = gains[:, : kernel.T] if kernel.kind == "retarded" else gains[:, kernel.T - 1 :]
    return _max_abs(np.abs(forbidden).sum(axis=0))


def adjoint_check(ret: LineSpectrum, adv: LineSpectrum) -> float:
    """Largest per-mode |retarded(s,t)^T - advanced(t,s)| over every lag."""
    if ret.kind != "retarded" or adv.kind != "advanced":
        raise ValueError("expected (retarded, advanced)")
    g_ret, g_adv = _grid_gains(ret, adv)
    return _max_abs(g_ret[:, ::-1] - g_adv)


def slepian_taper(M: int, NW: float) -> np.ndarray:
    """Zeroth discrete prolate spheroidal (Slepian) sequence of length M with
    time-half-bandwidth NW, scaled to unit peak.

    The leading eigenvector of the Slepian tridiagonal matrix (Percival &
    Walden 1993, ch. 8), signed to a positive sum, divided by its maximum
    and, for even M, multiplied by M^2 / (M^2 + NW).  This is the arithmetic
    of scipy.signal.windows.dpss(M, NW), which costs a scipy.signal import.
    """
    if not 0.0 < NW < M / 2.0:
        raise ValueError(f"taper needs 0 < NW < M/2; got NW={NW} for M={M}")
    n = np.arange(M, dtype=float)
    d = ((M - 1 - 2 * n) / 2.0) ** 2 * np.cos(2 * np.pi * (float(NW) / M))
    e = n[1:] * (M - n[1:]) / 2.0
    _, v = eigh_tridiagonal(d, e, select="i", select_range=(M - 1, M - 1))
    taper = v[:, 0]
    if taper.sum() < 0:
        taper = -taper
    taper = taper / taper.max()
    if M % 2 == 0:
        taper = taper * (M**2 / float(M**2 + NW))
    return taper


def frequency_sign_test(kernel: LineSpectrum, m_floor_sqrt: float) -> dict:
    """Windowed-DFT measurement of the one-sided frequency support.

    Works on any line spectrum with a one-sided claim; its
    ``frequency_sign`` sets it (+1: support must lie in D_t-frequencies >
    m/2; -1: mirror), and a kernel without one (sign 0) is refused.
    "forbidden_fraction" is the power fraction on the forbidden side of the
    cut; also returned are the window length and taper NW actually used.
    The verdict is the caller's.  The window covers every lag of the
    kernel's grid, and is a single Slepian taper whose concentration band
    is matched to the spectral gap, so a grid spanning 20/m (a window of
    40/m) already resolves fractions near 1e-6.
    """
    if kernel.frequency_sign == 0:
        raise ValueError(f"a {kernel.kind!r} kernel makes no one-sided frequency claim")
    T_eff = 2.0 * kernel.dt * (kernel.T - 1)
    nw = 0.95 * T_eff * m_floor_sqrt / (4.0 * math.pi)
    # the floor also keeps the resolution 2 pi / T_eff below m/4: there nw is 1.9
    if nw < _MIN_NW:
        raise ValueError("window too short for a concentrated taper; lengthen the time grid")
    trace = kernel.trace()
    freq = 2.0 * math.pi * np.fft.fftfreq(trace.size, d=kernel.dt)
    power = np.abs(np.fft.fft(trace * kernel.taper(trace.size, nw))) ** 2
    total = float(power.sum())
    forbidden = float(power[kernel.frequency_sign * freq <= m_floor_sqrt / 2.0].sum()) / total
    return {"window": float(T_eff), "nw": float(nw), "forbidden_fraction": forbidden}


def feynman_consistency(lp: LineSpectrum, lm: LineSpectrum, ret: LineSpectrum, adv: LineSpectrum) -> float:
    """Largest per-mode magnitude of (1/i)Lambda_plus + advanced - (1/i)Lambda_minus
    - retarded over every lag, formed part by part ((1/i) z = Im z - i Re z exactly);
    it vanishes iff the commutator identity holds."""
    gp, gm, g_ret, g_adv = _grid_gains(lp, lm, ret, adv)
    return float(np.max(np.hypot(gp.imag + g_adv - (gm.imag + g_ret), gm.real - gp.real)))


def make_feynman(
    lp: LineSpectrum, lm: LineSpectrum, ret: LineSpectrum, adv: LineSpectrum
) -> tuple[LineSpectrum, LineSpectrum]:
    """Time-ordered and anti-time-ordered inverses from the vacuum two-point
    data (vacuum only).

    Refuses a pair whose lines are not the vacuum lambda_plus / lambda_minus
    lines (an occupied state or a sign flip): the commutator identity holds
    for every state, but the returned kernels are the vacuum ones.  Checks
    the construction identity (1/i)Lambda_plus + advanced =
    (1/i)Lambda_minus + retarded to 1e-12 before returning the pair.
    """
    for k, kind in ((lp, "lambda_plus"), (lm, "lambda_minus")):
        a, b, _ = _LINES[kind]
        if k.kind != kind or not (np.all(k.a == a) and np.all(k.b == b)):
            raise ValueError(f"make_feynman is vacuum only: the {kind} slot does not carry the vacuum {kind} lines")
    resid = feynman_consistency(lp, lm, ret, adv)
    if resid > 1e-12:
        raise ValueError(f"feynman consistency identity violated: {resid:.3e} > 1e-12")
    f, fbar = (make_propagator(lp.spectral, kind, lp.t_grid, m=lp.m) for kind in ("feynman", "antifeynman"))
    return f, fbar


def time_slice_residuals(
    sm: SpectralModel, seed: int, base_dt: float, span: float, levels: tuple
) -> tuple[list[float], float, float]:
    """Time-slice identity G [P, chi] u = u on branch 0 over [0, span] at the
    steps base_dt * level, the levels halving.

    u is a seeded sum of up to ten modes; chi rises from 0 to 1 over
    [0.2, 0.4] span, quintic so that the second-order stencil of P sees a C^2
    function; G applies the causal kernel, and all act on u's mode
    coefficients.  A residual is max |G P(chi u) - u| on the grid relative
    to max |u|, over the first step's rows clear of the stencil edges at
    every step, so that the sampling does not move the maximum.
    Returns (residuals, order, prediction): the order is fitted from the
    first two runs and extrapolated to the last step, which it predicts
    independently.
    """
    rng = np.random.default_rng(seed)
    br = sm.branch(0)
    n_sel = min(10, br.omega.size)
    sel = np.sort(rng.choice(br.omega.size, size=n_sel, replace=False))
    amp = rng.standard_normal(n_sel)
    amp /= np.linalg.norm(amp)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_sel)
    t0, t1 = 0.2 * span, 0.4 * span

    res = []
    for level in levels:
        dt = base_dt * level
        t = dt * np.arange(int(round(span / dt)) + 1)
        coef = np.zeros((t.size, br.omega.size))
        coef[:, sel] = amp[None, :] * np.cos(br.omega[sel][None, :] * t[:, None] + phase[None, :])
        g = make_propagator(sm, "causal", t)
        s = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)
        pv = np.zeros_like(coef)
        pv[1:-1] = apply_wave_operator(sm, (s**3 * (10.0 - 15.0 * s + 6.0 * s**2))[:, None] * coef, g.dt)
        err = np.abs(sm.synthesize((apply(g, pv) - coef)[::levels[0] // level])).max(axis=1)
        res.append(float(err[2:-2].max()) / float(np.abs(sm.synthesize(coef)).max()))
    order = math.log2(res[0] / res[1]) if res[1] > 0.0 else math.inf
    prediction = res[1] / 2.0**order if math.isfinite(order) else 0.0
    return res, order, prediction
