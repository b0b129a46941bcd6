"""Broken-ray tracing in compressed phase-space coordinates.

Null rays of the warped metrics are reparametrized null geodesics of the
smooth rescaled metric -dx^2 + beta dt^2 - k dy^2, so singularities travel
along the Hamilton flow of

    p(x, y, t, xi, zeta, tau) = tau^2 / beta(x) - xi^2 - zeta^2 / k(x)

restricted to p = 0.  The sign convention is fixed so that tau > 0 means t
increases along the ray:

    dx/ds = 2 xi                 dxi/ds  = -tau^2 b'/b^2 + zeta^2 k'/k^2
    dy/ds = 2 zeta / k(x)        dzeta/ds = 0
    dt/ds = 2 tau / beta(x)      dtau/ds  = 0

(an overall sign of the flow is a reparametrization; this choice keeps t
and the flow parameter aligned for tau > 0).  Rays meeting x = 0 (the
conformal boundary) or x = L (the artificial wall) reflect specularly: xi
flips sign, the tangential data (t, y, tau, zeta) are continuous, and the
compressed momentum xi_bar = x*xi passes through 0.  On the toy models the
flow is piecewise linear with |dx/dt| = 1.  A phase point always carries all
six coordinates; y and zeta default to 0.

Integration is the 4-stage Gauss-Legendre implicit Runge-Kutta scheme
(order 8, symplectic), which conserves p to roundoff on the toys; wall
contact is located by bisection on the step length to |x - wall| <= 1e-13.
Glancing incidence (|xi| ~ 0 at a wall) is out of scope and aborts.

A step is plain Python float arithmetic on the state tuple
(x, y, t, xi, zeta, tau): the stage sums, right-hand sides and update are
float expressions, and each right-hand-side evaluation makes one
``model.warps`` call (beta, k, beta', k' together) on the list of stage
abscissae (one point for f0, four per fixed-point iteration): constants on
the toys, one call of each of the model's splines on custom tables.  zeta
and tau are constants of motion and pass through unchanged.  Each arc's flow-parameter
budget is capped so that it carries t at most 2L past t_max, which bounds
the work of a trace by t_max even for nearly tangential rays.
``GBBPath.sample`` reads a time off the stored rows by cubic Hermite
interpolation in t, whose slopes are the flow divided by dt/ds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import MetricModel, conformal_symbol

__all__ = [
    "PhasePointB",
    "Segment",
    "ReflectionEvent",
    "GBBPath",
    "make_null_point",
    "flow_segment",
    "reflect",
    "trace_gbb",
]

_X_TOL = 1e-13
_GLANCE_TOL = 1e-8
_FP_TOL = 1e-14
_FP_MAXIT = 60
_SYMBOL_TOL = 1e-8
_MAX_REFLECTIONS = 64


def _gl_tableau(s: int = 4) -> tuple[list[float], list[list[float]]]:
    nodes, weights = np.polynomial.legendre.leggauss(s)
    c = 0.5 * (nodes + 1.0)
    b = 0.5 * weights
    # collocation conditions: sum_j a_ij c_j^k = c_i^(k+1) / (k+1), k = 0..s-1
    P = np.vander(c, s, increasing=True).T
    R = np.array([[ci ** (k + 1) / (k + 1) for k in range(s)] for ci in c])
    A = np.linalg.solve(P, R.T).T
    return b.tolist(), A.tolist()


_GL_B, _GL_A = _gl_tableau(4)


@dataclass(frozen=True)
class PhasePointB:
    """Point (x, y, t, xi, zeta, tau) of phase space over the slab, with the
    uncompressed xi; the compressed momentum is the property xi_bar = x*xi,
    so it vanishes over the boundary x = 0.

    Invariants: every coordinate is finite; x >= 0; the momenta (tau, xi,
    zeta) do not all vanish.
    """

    x: float
    t: float
    tau: float
    xi: float
    y: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        for name in ("x", "t", "tau", "xi", "y", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if self.x < 0.0:
            raise ValueError("x must be >= 0")
        if self.tau == 0.0 and self.xi == 0.0 and self.zeta == 0.0:
            raise ValueError("momenta (tau, xi, zeta) must not all vanish")

    @property
    def xi_bar(self) -> float:
        return self.x * self.xi

    def as_array(self) -> np.ndarray:
        """(x, y, t, xi, zeta, tau)."""
        return np.array([self.x, self.y, self.t, self.xi, self.zeta, self.tau])


@dataclass
class Segment:
    """One smooth Hamilton arc, sampled along the flow parameter, with the
    largest drift |p(row) - p(first row)| of the symbol over its rows."""

    s: np.ndarray
    data: np.ndarray  # (n, 6) rows (x, y, t, xi, zeta, tau)
    drift: float
    hit: str | None = None  # None, "boundary", or "wall"

    def point(self, i: int) -> PhasePointB:
        x, y, t, xi, zeta, tau = self.data[i].tolist()
        return PhasePointB(x=x, t=t, tau=tau, xi=xi, y=y, zeta=zeta)


@dataclass
class ReflectionEvent:
    s: float
    wall: str  # "boundary" (x = 0) or "wall" (x = L, artificial)
    xi_in: float
    point: PhasePointB  # the reflected point: its t and xi are the event's time and outgoing xi


@dataclass
class GBBPath:
    model: MetricModel
    segments: list[Segment]
    reflections: list[ReflectionEvent]
    energy_sign: str  # "plus" iff tau > 0

    @property
    def symbol_drift(self) -> float:
        """Largest symbol drift of any arc, as ``flow_segment`` measured it."""
        return max((seg.drift for seg in self.segments), default=0.0)

    @property
    def tangential_jump(self) -> float:
        """Largest jump of (t, zeta, tau) across a reflection: the k-th
        reflection against the last row of the k-th arc that hit a wall."""
        hits = [seg.data[-1] for seg in self.segments if seg.hit is not None]
        jumps = [np.abs(pre - ev.point.as_array())[[2, 4, 5]] for pre, ev in zip(hits, self.reflections)]
        return float(np.max(jumps, initial=0.0))

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Rows (x, y, t, xi, zeta, tau) at the requested coordinate times.

        t is strictly monotone along the path, so it is the ray's coordinate:
        within a stored step each column is the cubic Hermite interpolant in t
        of the step's end rows, with slopes dy/dt = (dy/ds) / (dt/ds) read from
        the flow (exact on the toys, where arcs are straight lines).  A stored
        knot time returns its stored row, the outgoing one at a reflection.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        rows = np.vstack([seg.data for seg in self.segments])
        slopes = np.vstack([_rhs_rows(self.model, seg.data) for seg in self.segments])
        slopes /= slopes[:, 2:3]
        t_hist = rows[:, 2]
        sign = 1.0 if t_hist[-1] >= t_hist[0] else -1.0
        th, tq = sign * t_hist, sign * times
        if np.any(tq < th[0] - 1e-12) or np.any(tq > th[-1] + 1e-12):
            raise ValueError("requested time outside the traced range")
        j = np.clip(np.searchsorted(th, tq, side="right") - 1, 0, len(th) - 2)
        h = (t_hist[j + 1] - t_hist[j])[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.clip((times[:, None] - t_hist[j, None]) / h, 0.0, 1.0)
        one = 1.0 - sig
        out = ((1 + 2 * sig) * one**2 * rows[j] + sig * one**2 * h * slopes[j]
               + sig**2 * (3 - 2 * sig) * rows[j + 1] + sig**2 * (sig - 1) * h * slopes[j + 1])
        # a step of zero length in t, as at a reflection, returns its first row
        return np.where(h == 0.0, rows[j], out)

    def to_rows(self) -> list[list]:
        """CSV rows (s, t, x, y, xi_bar, xi, zeta, tau, segment_id, event)."""
        rows = []
        for sid, seg in enumerate(self.segments):
            n = len(seg.s)
            for i in range(n):
                x, y, t, xi, zeta, tau = seg.data[i]
                event = ""
                if i == n - 1 and seg.hit is not None:
                    event = f"reflect_{seg.hit}"
                rows.append([seg.s[i], t, x, y, x * xi, xi, zeta, tau, sid, event])
        return rows


def _rhs_rows(model: MetricModel, rows: np.ndarray) -> np.ndarray:
    """Right-hand sides of rows on one arc as (n, 6) rows with zero zeta and tau
    columns; zeta and tau are constant on an arc, so they are read from its first row."""
    out = np.zeros_like(rows)
    out[:, :4] = _stage_rhs(model, rows[:, 0].tolist(), rows[:, 3].tolist(), *rows[0, 4:].tolist())
    return out


def _stage_rhs(model: MetricModel, xs: list, xis: list, zeta: float, tau: float) -> list[tuple]:
    """Right-hand sides (dx, dy, dt, dxi) at the stage points (xs, xis): one
    warp evaluation on the whole stage set; dzeta = dtau = 0."""
    b, k, db, dk = model.warps(xs)
    return [
        (2.0 * xi, 2.0 * zeta / ki, 2.0 * tau / bi, -(tau * tau) * dbi / (bi * bi) + zeta * zeta * dki / (ki * ki))
        for xi, bi, ki, dbi, dki in zip(xis, b, k, db, dk)
    ]


def _irk_step(model: MetricModel, state: tuple, h: float) -> tuple:
    """One Gauss-Legendre IRK step on the state (x, y, t, xi, zeta, tau),
    stages solved by fixed-point iteration in Python floats."""
    x, y, t, xi, zeta, tau = state
    (f0,) = _stage_rhs(model, [x], [xi], zeta, tau)
    K = [f0] * 4
    scale = max(abs(v) for v in f0) + 1.0
    for _ in range(_FP_MAXIT):
        k0, k1, k2, k3 = K
        xs = [x + h * (a0 * k0[0] + a1 * k1[0] + a2 * k2[0] + a3 * k3[0]) for a0, a1, a2, a3 in _GL_A]
        xis = [xi + h * (a0 * k0[3] + a1 * k1[3] + a2 * k2[3] + a3 * k3[3]) for a0, a1, a2, a3 in _GL_A]
        K_new = _stage_rhs(model, xs, xis, zeta, tau)
        delta = max(abs(u - v) for new, old in zip(K_new, K) for u, v in zip(new, old))
        K = K_new
        if delta <= _FP_TOL * scale:
            break
    else:
        raise RuntimeError(f"implicit stage iteration stalled at step size {h:.3e}")
    b0, b1, b2, b3 = _GL_B
    k0, k1, k2, k3 = K
    return (
        x + h * (b0 * k0[0] + b1 * k1[0] + b2 * k2[0] + b3 * k3[0]),
        y + h * (b0 * k0[1] + b1 * k1[1] + b2 * k2[1] + b3 * k3[1]),
        t + h * (b0 * k0[2] + b1 * k1[2] + b2 * k2[2] + b3 * k3[2]),
        xi + h * (b0 * k0[3] + b1 * k1[3] + b2 * k2[3] + b3 * k3[3]),
        zeta,
        tau,
    )


def make_null_point(
    model: MetricModel,
    x: float,
    tau: float,
    zeta: float = 0.0,
    direction: int = -1,
) -> PhasePointB:
    """Interior null phase point at t = y = 0 with xi solved from the symbol;
    direction < 0 points toward the conformal boundary."""
    if not 0.0 < x < model.L:
        raise ValueError("starting point must be strictly inside (0, L)")
    xi2 = tau**2 / float(model.beta(x)) - zeta**2 / float(model.k(x))
    if xi2 <= 0.0:
        raise ValueError("no real null xi: need tau^2/beta > zeta^2/k")
    xi = math.copysign(math.sqrt(xi2), float(direction))
    return PhasePointB(x=x, t=0.0, tau=tau, xi=xi, zeta=zeta)


def flow_segment(
    model: MetricModel,
    p0: PhasePointB,
    dt_param: float,
    step: float,
    s0: float = 0.0,
) -> Segment:
    """Integrate one smooth Hamilton arc from an interior point.

    Stops when the flow parameter has advanced by dt_param or the ray
    contacts x = 0 / x = L (located by bisection; the final sample then sits
    on the wall and Segment.hit names it).  Raises if the symbol drifts by
    more than 1e-8 of the momentum scale along the arc, and keeps that drift
    on the segment otherwise.
    """
    if not (0.0 <= p0.x <= model.L):
        raise ValueError(f"flow_segment starts inside [0, L]; got x = {p0.x}")
    # a start on either wall is allowed right after a reflection, but only
    # with strictly inward momentum; otherwise the arc would leave the slab
    if p0.x <= _X_TOL and p0.xi <= 0.0:
        raise ValueError("start on the conformal boundary needs xi > 0 (inward)")
    if p0.x >= model.L - _X_TOL and p0.xi >= 0.0:
        raise ValueError("start on the wall x = L needs xi < 0 (inward)")
    if not (step > 0.0 and dt_param > 0.0 and math.isfinite(step)):  # NaN fails too
        raise ValueError(f"step and dt_param must be positive and the step finite, got step={step!r}")
    scale = max(p0.tau**2, p0.xi**2, p0.zeta**2)
    p_val = conformal_symbol(model, p0)
    if abs(p_val) > 1e-8 * scale:
        raise ValueError(f"initial data is not null: p = {p_val:.3e}")

    state = tuple(p0.as_array().tolist())
    s_now = s0
    s_hist = [s_now]
    hist = [state]
    hit = None
    remaining = dt_param
    while remaining > 1e-15 * dt_param:
        h = min(step, remaining)
        trial = _irk_step(model, state, h)
        if 0.0 < trial[0] < model.L:
            state = trial
            s_now += h
            remaining -= h
        else:
            wall_x = 0.0 if trial[0] <= 0.0 else model.L
            hit = "boundary" if trial[0] <= 0.0 else "wall"
            lo, hi = 0.0, h
            land = trial
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                cand = _irk_step(model, state, mid)
                if (cand[0] - wall_x) * (trial[0] - wall_x) > 0.0:
                    hi = mid
                    land = cand
                else:
                    lo = mid
                if abs(land[0] - wall_x) <= _X_TOL:
                    break
            state = (wall_x,) + land[1:]
            s_now += hi  # land is the step of length hi
        s_hist.append(s_now)
        hist.append(state)
        if hit is not None:
            break

    data = np.array(hist)
    x, _, _, xi, zeta, tau = data.T
    vals = tau**2 / model.beta(x) - xi**2 - zeta**2 / model.k(x)
    drift = float(np.max(np.abs(vals - vals[0])))
    if drift > _SYMBOL_TOL * scale:
        raise RuntimeError(
            f"integrator could not hold the null condition: drift {drift:.3e} "
            f"exceeds {_SYMBOL_TOL:.0e} x momentum scale; reduce the step"
        )
    return Segment(s=np.array(s_hist), data=data, drift=drift, hit=hit)


def reflect(p_in: PhasePointB, L: float | None = None) -> PhasePointB:
    """Specular reflection law at the conformal boundary (or, with L given,
    at the artificial wall x = L): xi flips, tangential data unchanged."""
    at_boundary = abs(p_in.x) <= _X_TOL
    at_wall = L is not None and abs(p_in.x - L) <= _X_TOL
    if not (at_boundary or at_wall):
        raise ValueError(f"not at boundary: x = {p_in.x}")
    if at_boundary and p_in.xi >= 0.0:
        raise ValueError("boundary reflection expects incoming xi < 0")
    if at_wall and p_in.xi <= 0.0:
        raise ValueError("wall reflection expects incoming xi > 0")
    return replace(p_in, xi=-p_in.xi)


def trace_gbb(
    model: MetricModel,
    p0: PhasePointB,
    t_max: float,
    step: float = 1e-3,
) -> GBBPath:
    """Concatenate Hamilton arcs and reflections until |t| passes t_max.

    p0 must be an interior null point with tau != 0 (t strictly monotone).
    Wall events at x = L are tagged "wall" so callers can separate the
    artificial truncation from genuine boundary physics.
    """
    if p0.tau == 0.0:
        raise ValueError("tau must be nonzero: t would not be monotone")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got t_max={t_max}")
    t_dir = 1.0 if p0.tau > 0 else -1.0
    segments: list[Segment] = []
    reflections: list[ReflectionEvent] = []
    point = p0
    s_now = 0.0
    # flow-parameter budget per arc: enough to cross the slab a few times
    # over, and never more than carries t past t_max by 2L (ds = dt beta / 2|tau|);
    # arc ends come from wall contact or the t_max check
    span = 2.0 * model.L / max(2.0 * (abs(point.xi) or 1.0), 1e-12)
    while t_dir * point.t < t_dir * t_max:
        t_left = t_dir * (t_max - point.t) + 2.0 * model.L
        budget = min(span, t_left * float(model.beta([point.x])[0]) / (2.0 * abs(point.tau)))
        seg = flow_segment(model, point, dt_param=budget, step=step, s0=s_now)
        segments.append(seg)
        s_now = float(seg.s[-1])
        end = seg.point(-1)
        if seg.hit is None:
            point = end
            continue
        if abs(end.xi) < _GLANCE_TOL * max(abs(p0.tau), 1.0):
            raise RuntimeError(f"glancing contact at {seg.hit} (|xi| = {abs(end.xi):.3e}); aborting")
        out = reflect(end, L=model.L if seg.hit == "wall" else None)
        reflections.append(ReflectionEvent(s=s_now, wall=seg.hit, xi_in=end.xi, point=out))
        if len(reflections) > _MAX_REFLECTIONS:
            raise RuntimeError(f"exceeded {_MAX_REFLECTIONS} reflections")
        point = out
    return GBBPath(
        model=model,
        segments=segments,
        reflections=reflections,
        energy_sign="plus" if p0.tau > 0 else "minus",
    )
