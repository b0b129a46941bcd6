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

each multiplied by phi_k phi_k^T and summed over retained modes; these
gains, like those of occupied states and boundary kernels, are line spectra
(``LineSpectrum``).  The normalization is pinned by the pair of identities

    lambda_plus - lambda_minus = i * causal
    feynman = -i lambda_plus + advanced = -i lambda_minus + retarded

which the verification ops measure per mode on every lag of the time
grid, as they do Hermiticity, the adjoint pairing and the supports: all
kinds share the spatial factor.  These ops return measurements (defects,
residuals with their data-dependent scale, Gram eigenvalues, mass
fractions); tolerances and verdicts belong to the caller, the check table
of ``cli.run_verify``.  "tilde" weighting is the conjugated frame the
eigensolve lives in; "physical" weighting multiplies by x^(n/2-1)
beta^(-1/2) on the left slot and x^(-n/2-1) beta^(-1/2) on the right slot.
The weights conjugate the spatial factor and leave the gains alone, so the
per-mode checks state each identity in the weighted pairing.

Kernel applications use trapezoid quadrature in s and batched FFT
convolution over the uniform time grid (every kernel above is a Toeplitz
matrix in time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .spectral import SpectralModel

__all__ = [
    "LineSpectrum",
    "BiKernel",
    "KINDS",
    "WEIGHTINGS",
    "make_propagator",
    "apply",
    "apply_wave_operator",
    "verify_two_point",
    "gram_eigenvalues",
    "frequency_sign_test",
    "make_feynman",
    "feynman_consistency",
    "time_slice_check",
    "TimeCutoff",
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
WEIGHTINGS = ("tilde", "physical")
_GRAM_TIMES, _GRAM_VECS = 16, 6  # Gram test family: subsampled times, random mode vectors


class LineSpectrum:
    """Stationary kernel with per-mode gain h_k [a_k e^{+i omega_k tau} +
    b_k e^{-i omega_k tau}] S(tau), h_k = 1/(2 omega_k).

    The support S is "all" (1), "future" (theta(tau), theta(0) = 0), "past"
    (theta(-tau)) or "abs" (both exponentials taken at |tau|).  Subclasses
    provide ``t_grid``, ``omega``, ``kind`` and ``lines()`` -> (a, b, S);
    ``frequency_sign`` is +1 / -1 for a one-sided claim, else 0.
    """

    frequency_sign = 0

    def lines(self) -> tuple[np.ndarray, np.ndarray, str]:
        raise NotImplementedError

    @property
    def dt(self) -> float:
        return float(self.t_grid[1] - self.t_grid[0])

    @property
    def T(self) -> int:
        return self.t_grid.size

    @property
    def omega_floor(self) -> float:
        """Lowest frequency a scan taper must separate from zero."""
        return float(np.min(self.omega))

    def lags(self) -> np.ndarray:
        """The 2T-1 lags t_i - t_j of the grid in increasing order; reversing
        the lag axis maps tau to -tau exactly."""
        return self.dt * np.arange(1 - self.T, self.T)

    def mode_gain(self, tau: np.ndarray) -> np.ndarray:
        """Per-mode temporal factor, shape (K, len(tau))."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        a, b, support = self.lines()
        w = self.omega[:, None]
        e = np.exp(1j * (w * (np.abs(tau) if support == "abs" else tau)[None, :]))
        g = (a[:, None] * e + b[:, None] * e.conj()) * (0.5 / w)
        if support == "future":
            return np.where(tau > 0.0, g, 0.0)
        if support == "past":
            return np.where(tau < 0.0, g, 0.0)
        return g

    def trace_series(self, tau: np.ndarray) -> np.ndarray:
        """Mode-summed temporal signal sum_k g_k(tau) (the kernel's trace in
        the assembled inner product)."""
        return self.mode_gain(tau).sum(axis=0)


@dataclass
class BiKernel(LineSpectrum):
    """Stationary two-time kernel on a uniform grid, as a lazy mode sum.

    ``signs`` is +1 per mode; the mutation harness flips entries to -1 to
    fake a frequency-sign fault in the lambda kernels (a flip swaps the two
    lines of a mode).
    """

    spectral: SpectralModel
    kind: str
    t_grid: np.ndarray
    weighting: str = "tilde"
    m: int = 0
    signs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {self.weighting!r}; expected one of {WEIGHTINGS}")
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        if self.t_grid.size < 32:
            raise ValueError("time grid too coarse: need T >= 32")
        steps = np.diff(self.t_grid)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("time grid must be uniform")
        if self.signs is None:
            self.signs = np.ones(self.spectral.branch(self.m).omega2.size)
        if np.any(self.signs < 0) and self.frequency_sign == 0:
            raise ValueError("frequency-sign flips apply to the lambda kernels only")

    @property
    def omega(self) -> np.ndarray:
        return self.spectral.branch(self.m).omega

    @property
    def omega_floor(self) -> float:
        return self.spectral.m_floor_sqrt

    @property
    def frequency_sign(self) -> int:
        """+1 / -1 for the one-sided kernels, 0 for the two-sided ones."""
        return {"lambda_plus": +1, "lambda_minus": -1}.get(self.kind, 0)

    def lines(self) -> tuple[np.ndarray, np.ndarray, str]:
        a, b, support = _LINES[self.kind]
        flip = self.signs < 0
        return np.where(flip, b, a), np.where(flip, a, b), support

    def mutated(self, fraction: float = 0.01) -> "BiKernel":
        """Copy with the frequency sign flipped on the lowest ceil(fraction*K)
        modes; only meaningful for the lambda kernels."""
        if self.kind not in ("lambda_plus", "lambda_minus"):
            raise ValueError("mutation targets the lambda kernels")
        k = self.omega.size
        n_flip = max(1, math.ceil(fraction * k))
        signs = self.signs.copy()
        signs[:n_flip] = -signs[:n_flip]
        return replace(self, signs=signs)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "weighting": self.weighting,
            "m": self.m,
            "T": self.T,
            "t0": float(self.t_grid[0]),
            "dt": self.dt,
            "n_flipped": int(np.sum(self.signs < 0)),
        }


def make_propagator(
    sm: SpectralModel,
    kind: str,
    t_grid: np.ndarray,
    weighting: str = "tilde",
    m: int = 0,
) -> BiKernel:
    """Build a mode-sum kernel on a uniform time grid.

    Rejects grids that undersample the largest retained frequency
    (omega_max * dt must stay below pi).
    """
    kernel = BiKernel(spectral=sm, kind=kind, t_grid=np.asarray(t_grid, float), weighting=weighting, m=m)
    w_max = float(kernel.omega[-1])
    if w_max * kernel.dt >= math.pi:
        raise ValueError(
            f"time grid too coarse: omega_max*dt = {w_max * kernel.dt:.3f} >= pi; "
            "refine dt or retain fewer modes"
        )
    return kernel


def _trap_weights(T: int) -> np.ndarray:
    w = np.ones(T)
    w[0] = w[-1] = 0.5
    return w


def apply(kernel: BiKernel, f: np.ndarray) -> np.ndarray:
    """Apply the kernel to space-time data f of shape (T, ndof).

    Trapezoid quadrature in s; the stationary mode sums make this a batched
    Toeplitz product, done by FFT per mode.  Physical weighting conjugates
    by the stored weight vectors.
    """
    f = np.asarray(f)
    T = kernel.T
    if f.shape != (T, kernel.spectral.grid.ndof):
        raise ValueError(f"data shape {f.shape} does not match (T={T}, ndof={kernel.spectral.grid.ndof})")
    sm = kernel.spectral
    g = f * sm.weight_right[None, :] if kernel.weighting == "physical" else f
    a = sm.project(g, m=kernel.m)  # (T, K)
    a = a * (_trap_weights(T) * kernel.dt)[:, None]

    tau_wrapped = np.concatenate([kernel.t_grid - kernel.t_grid[0], (kernel.t_grid[:-1] - kernel.t_grid[-1])])
    gains = kernel.mode_gain(tau_wrapped)  # (K, 2T-1), circularly ordered
    L = 2 * T - 1
    A_hat = np.fft.fft(a.T, n=L, axis=1)
    G_hat = np.fft.fft(gains, n=L, axis=1)
    conv = np.fft.ifft(A_hat * G_hat, axis=1)[:, :T]  # (K, T)
    a_lines, b_lines, _ = kernel.lines()
    if not np.iscomplexobj(f) and np.array_equal(b_lines, np.conj(a_lines)):
        conv = conv.real  # conjugate lines make a real kernel
    out = sm.synthesize(conv.T, m=kernel.m)
    if kernel.weighting == "physical":
        out = out * sm.weight_left[None, :]
    return out


def apply_wave_operator(sm: SpectralModel, f: np.ndarray, dt: float, m: int = 0) -> np.ndarray:
    """Discrete d^2/dt^2 + A on space-time data (T, ndof), second-order
    central stencil in t; returns the T-2 interior rows."""
    f = np.asarray(f)
    dtt = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dt**2
    return dtt + sm.apply_A(f[1:-1], m=m)


def _gram_matrix(kernel: BiKernel) -> np.ndarray:
    """Hermitian space-time Gram of the kernel on a test family.

    Entries <(t_i, f_a), K (t_j, f_b)> over _GRAM_TIMES subsampled times
    and _GRAM_VECS seeded random mode-space vectors.  The pairing is the
    mode-space one, which is the weighted pairing in either weighting (the
    weights conjugate the spatial factor), so no measure density enters.
    """
    idx = np.linspace(0, kernel.T - 1, _GRAM_TIMES).round().astype(int)
    times = kernel.t_grid[idx]
    coeffs = np.random.default_rng(1234).standard_normal((_GRAM_VECS, kernel.omega.size))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)  # (a, K)
    tau = times[:, None] - times[None, :]
    gains = kernel.mode_gain(tau.ravel()).reshape(-1, _GRAM_TIMES, _GRAM_TIMES)  # (K, i, j)
    gram = np.einsum("ak,kij,bk->iajb", coeffs.conj(), gains, coeffs)
    n = _GRAM_TIMES * _GRAM_VECS
    return gram.reshape(n, n)


def gram_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a Gram matrix."""
    return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))


def _lag_gains(*kernels: BiKernel) -> list[np.ndarray]:
    """Per-mode gains on the 2T-1 lags of kernels that share one grid,
    weighting and spatial factor: identities between such kernels are
    identities between these arrays."""
    first = kernels[0]
    for k in kernels[1:]:
        if k.spectral is not first.spectral or (k.m, k.weighting) != (first.m, first.weighting):
            raise ValueError("kernels must share one spectral model, transverse mode and weighting")
        if not np.array_equal(k.t_grid, first.t_grid):
            raise ValueError("kernels must share one time grid")
    tau = first.lags()
    return [k.mode_gain(tau) for k in kernels]


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x)))


def verify_two_point(lp: BiKernel, lm: BiKernel, g: BiKernel) -> dict:
    """Measurements of the algebra of a two-point-function pair and the
    commutator, as plain values; the verdicts are the caller's.

    "wave_op": largest wave-operator residual of both lambda kernels,
    relative to the mode amplitude, and "wave_op_bound": its O(dt^2) scale
    2 dt^2 omega_max^2 (second-order time stencil); "commutator" and
    "hermiticity": largest per-mode defects of lambda_plus - lambda_minus =
    i*causal and of K(t,s) = K(s,t)^H on every lag; "gram_plus",
    "gram_minus": ascending eigenvalues of the space-time Gram matrices.
    """
    if lp.kind != "lambda_plus" or lm.kind != "lambda_minus" or g.kind != "causal":
        raise ValueError("expected (lambda_plus, lambda_minus, causal) kernels")
    gp, gm, gg = _lag_gains(lp, lm, g)

    # wave-operator residual on the lags tau >= 0, exact in space, O(dt^2)
    # from the time stencil
    dt = lp.dt
    w = lp.omega
    wave_op = 0.0
    for gains in (gp[:, lp.T - 1 :], gm[:, lp.T - 1 :]):
        stencil = (gains[:, 2:] - 2.0 * gains[:, 1:-1] + gains[:, :-2]) / dt**2
        resid = stencil + w[:, None] ** 2 * gains[:, 1:-1]
        # scale by the mode amplitude so the number is a relative residual
        wave_op = max(wave_op, float(np.max(np.abs(resid) * (2.0 * w[:, None]) / w[:, None] ** 2)))
    gram_plus, gram_minus = (gram_eigenvalues(_gram_matrix(k)) for k in (lp, lm))
    return {
        "wave_op": wave_op,
        "wave_op_bound": 2.0 * dt**2 * float(np.max(w)) ** 2,
        "commutator": _max_abs(gp - gm - 1j * gg),
        # reversing the lag axis maps tau to -tau
        "hermiticity": max(_max_abs(gk - gk[:, ::-1].conj()) for gk in (gp, gm)),
        "gram_plus": gram_plus,
        "gram_minus": gram_minus,
    }


def support_check(kernel: BiKernel) -> float:
    """Largest mode-summed gain magnitude on the forbidden lags (retarded:
    t <= s; advanced: t >= s).  Exact zero by construction of the theta
    factor; returned so tests can assert it."""
    if kernel.kind not in ("retarded", "advanced"):
        raise ValueError("support check applies to retarded/advanced kernels")
    tau = kernel.lags()
    forbidden = tau[tau <= 0.0] if kernel.kind == "retarded" else tau[tau >= 0.0]
    return _max_abs(np.abs(kernel.mode_gain(forbidden)).sum(axis=0))


def adjoint_check(ret: BiKernel, adv: BiKernel) -> float:
    """Largest per-mode |retarded(s,t)^T - advanced(t,s)| over every lag."""
    if ret.kind != "retarded" or adv.kind != "advanced":
        raise ValueError("expected (retarded, advanced)")
    g_ret, g_adv = _lag_gains(ret, adv)
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


def frequency_sign_test(kernel: LineSpectrum, m_floor_sqrt: float, T_w: float | None = None) -> dict:
    """Windowed-DFT measurement of the one-sided frequency support.

    Works on any line spectrum; its ``frequency_sign`` sets the claim (+1:
    support must lie in D_t-frequencies > m/2; -1: mirror; 0: no one-sided
    claim), and "forbidden_fraction" is the power fraction on the forbidden
    side of the cut (for 0, the smaller of the two).  Also returned: the
    window length and taper NW actually used and both half-line masses; the
    verdict is the caller's.  The window is a single Slepian taper whose
    concentration band is matched to the spectral gap, so the minimal
    admissible window T_w = 40/m already resolves fractions near 1e-6.
    """
    dt = kernel.dt
    span = float(kernel.t_grid[-1] - kernel.t_grid[0])
    if T_w is None:
        T_w = 2.0 * span
    half = min(T_w / 2.0, span)
    n_half = int(math.floor(half / dt))
    tau = dt * np.arange(-n_half, n_half + 1)
    T_eff = tau[-1] - tau[0]
    if 2.0 * math.pi / T_eff >= m_floor_sqrt / 4.0:
        raise ValueError(
            f"window too short: frequency resolution {2 * math.pi / T_eff:.3e} "
            f"exceeds m/4 = {m_floor_sqrt / 4.0:.3e}"
        )
    nw = 0.95 * T_eff * m_floor_sqrt / (4.0 * math.pi)
    if nw < 2.5:
        raise ValueError("window too short for a concentrated taper; enlarge T_w")
    window = slepian_taper(tau.size, nw)
    sig = kernel.trace_series(tau) * window
    spec = np.fft.fft(sig)
    freq = 2.0 * math.pi * np.fft.fftfreq(tau.size, d=dt)
    power = np.abs(spec) ** 2
    total = float(power.sum())
    cut = m_floor_sqrt / 2.0
    mass_low = float(power[freq <= -cut].sum()) / total
    mass_high = float(power[freq >= cut].sum()) / total
    mass_below_cut = float(power[freq <= cut].sum()) / total
    mass_above_negcut = float(power[freq >= -cut].sum()) / total
    if kernel.frequency_sign > 0:
        forbidden = mass_below_cut
    elif kernel.frequency_sign < 0:
        forbidden = mass_above_negcut
    else:
        forbidden = min(mass_below_cut, mass_above_negcut)
    return {
        "window": float(T_eff),
        "nw": float(nw),
        "forbidden_fraction": forbidden,
        "mass_negative_half": mass_low,
        "mass_positive_half": mass_high,
    }


def feynman_consistency(lp: BiKernel, lm: BiKernel, ret: BiKernel, adv: BiKernel) -> float:
    """Largest per-mode magnitude of (1/i)Lambda_plus + advanced -
    (1/i)Lambda_minus - retarded over every lag, which vanishes iff the
    commutator identity holds."""
    gp, gm, g_ret, g_adv = _lag_gains(lp, lm, ret, adv)
    return _max_abs(-1j * gp + g_adv - (-1j * gm + g_ret))


def make_feynman(lp: BiKernel, lm: BiKernel, ret: BiKernel, adv: BiKernel) -> tuple[BiKernel, BiKernel]:
    """Time-ordered and anti-time-ordered inverses from the two-point data.

    Checks the construction identity (1/i)Lambda_plus + advanced =
    (1/i)Lambda_minus + retarded to 1e-12 before returning the pair.
    """
    resid = feynman_consistency(lp, lm, ret, adv)
    if resid > 1e-12:
        raise ValueError(f"feynman consistency identity violated: {resid:.3e} > 1e-12")
    f = BiKernel(spectral=lp.spectral, kind="feynman", t_grid=lp.t_grid, weighting=lp.weighting, m=lp.m)
    fbar = BiKernel(spectral=lp.spectral, kind="antifeynman", t_grid=lp.t_grid, weighting=lp.weighting, m=lp.m)
    return f, fbar


@dataclass(frozen=True)
class TimeCutoff:
    """Smooth step from 0 (past) to 1 (future) over [t0, t1], quintic in the
    transition so the second-order stencil sees a C^2 function."""

    t0: float
    t1: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = np.clip((t - self.t0) / (self.t1 - self.t0), 0.0, 1.0)
        return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def time_slice_check(g: BiKernel, sm: SpectralModel, chi: TimeCutoff, u: np.ndarray) -> float:
    """Residual of the time-slice identity G [P, chi] u = u on a solution u.

    u is sampled on (T, ndof); chi must be constant outside the grid
    interior.  P acts by the second-order stencil plus the assembled form
    matrix, G by trapezoid mode-sum application, and the residual is the max
    norm of G P(chi u) - u over rows clear of the stencil edges, relative to
    the max norm of u.
    """
    if g.kind != "causal":
        raise ValueError("the time-slice identity uses the causal kernel")
    t = g.t_grid
    if not (t[1] < chi.t0 and chi.t1 < t[-2]):
        raise ValueError("cutoff must vary strictly inside the time grid")
    u = np.asarray(u)
    v_in = chi(t)[:, None] * u
    pv = np.zeros_like(u)
    pv[1:-1] = apply_wave_operator(sm, v_in, g.dt, m=g.m)
    w = apply(g, pv)
    err = np.abs(w - u).max(axis=1)
    scale = float(np.abs(u).max())
    interior = slice(2, len(t) - 2)
    return float(err[interior].max()) / scale
