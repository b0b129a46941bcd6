import math
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg import bchar
from adskg.bchar import (
    PhasePointB,
    flow_segment,
    make_null_point,
    reflect,
    trace_gbb,
)
from adskg.geometry import MetricModel, conformal_symbol, load_model, make_toy_model


@pytest.fixture(scope="module")
def toy():
    return make_toy_model("ads2_strip", nu=1.0, L=1.0)


@pytest.fixture(scope="module")
def cyl():
    return make_toy_model("ads3_cylinder", nu=1.0, L=1.0)


@pytest.fixture(scope="module")
def table():
    """A custom n = 3 model whose warp factors are 8-knot splines."""
    xs = np.linspace(0.0, 1.0, 8)
    return load_model({
        "kind": "custom", "n": 3, "nu": 1.0, "L": 1.0,
        "beta_table": [list(xs), list(1.0 + 0.3 * xs**2)],
        "k_table": [list(xs), list(1.0 + 0.2 * xs**2)],
    })


def _rows(path):
    return np.vstack([seg.data for seg in path.segments])


def test_phase_point_invariants():
    p = PhasePointB(x=0.3, t=0.0, tau=1.0, xi=-1.0)
    assert p.xi_bar == -0.3
    assert (p.y, p.zeta) == (0.0, 0.0)
    assert PhasePointB(x=0.0, t=0.0, tau=1.0, xi=-2.0).xi_bar == 0.0  # compressed over the boundary
    assert p.as_array().tolist() == [0.3, 0.0, 0.0, -1.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="x must be"):
        PhasePointB(x=-0.1, t=0.0, tau=1.0, xi=1.0)
    with pytest.raises(TypeError, match="xi"):
        PhasePointB(x=0.3, t=0.0, tau=1.0)
    with pytest.raises(ValueError, match="not all vanish"):
        PhasePointB(x=0.0, t=0.0, tau=0.0, xi=0.0)
    with pytest.raises(FrozenInstanceError):
        p.xi_bar = 0.0


def test_make_null_point(toy):
    p = make_null_point(toy, x=0.4, tau=2.0)
    assert conformal_symbol(toy, p) == 0.0
    assert p.xi == -2.0  # default direction points at the conformal boundary
    q = make_null_point(toy, x=0.4, tau=2.0, direction=+1)
    assert q.xi == 2.0
    with pytest.raises(ValueError, match="strictly inside"):
        make_null_point(toy, x=0.0, tau=1.0)
    m3 = make_toy_model("ads3_cylinder", nu=1.0, L=1.0)
    with pytest.raises(ValueError, match="no real null xi"):
        make_null_point(m3, x=0.4, tau=1.0, zeta=2.0)


def test_flow_segment_straight_on_toy(toy):
    p = make_null_point(toy, x=0.5, tau=1.0, direction=+1)
    seg = flow_segment(toy, p, dt_param=0.2, step=1e-3)
    assert seg.hit is None
    x, _, t, xi, _, tau = seg.data.T
    # on the toy the arc is an exact straight line: x = x0 + 2 xi s, t = 2 tau s
    assert x == pytest.approx(0.5 + 2.0 * seg.s, abs=1e-12)
    assert t == pytest.approx(2.0 * seg.s, abs=1e-12)
    assert np.all(xi == xi[0]) and np.all(tau == tau[0])


def test_flow_segment_lands_on_wall(toy):
    p = make_null_point(toy, x=0.9, tau=1.0, direction=+1)
    seg = flow_segment(toy, p, dt_param=5.0, step=1e-3)
    assert seg.hit == "wall"
    assert seg.data[-1, 0] == toy.L


def test_flow_segment_start_validation(toy):
    inward = PhasePointB(x=0.0, t=0.0, tau=1.0, xi=1.0)
    seg = flow_segment(toy, inward, dt_param=0.05, step=1e-3)
    assert seg.data[0, 0] == 0.0 and seg.data[-1, 0] > 0.0
    with pytest.raises(ValueError, match="needs xi > 0"):
        flow_segment(toy, PhasePointB(x=0.0, t=0.0, tau=1.0, xi=-1.0), dt_param=0.1, step=1e-3)
    with pytest.raises(ValueError, match="needs xi < 0"):
        flow_segment(toy, PhasePointB(x=1.0, t=0.0, tau=1.0, xi=1.0), dt_param=0.1, step=1e-3)
    with pytest.raises(ValueError, match="not null"):
        flow_segment(toy, PhasePointB(x=0.5, t=0.0, tau=2.0, xi=1.0), dt_param=0.1, step=1e-3)


def test_reflection_law(toy):
    p_in = PhasePointB(x=0.0, t=0.7, tau=2.0, xi=-2.0)
    out = reflect(p_in)
    assert out.xi == 2.0 and out.tau == 2.0 and out.t == 0.7 and out.x == 0.0
    wall_in = PhasePointB(x=1.0, t=0.3, tau=2.0, xi=2.0)
    w_out = reflect(wall_in, L=1.0)
    assert w_out.xi == -2.0
    with pytest.raises(ValueError, match="incoming xi < 0"):
        reflect(PhasePointB(x=0.0, t=0.0, tau=1.0, xi=1.0))
    with pytest.raises(ValueError, match="incoming xi > 0"):
        reflect(PhasePointB(x=1.0, t=0.0, tau=1.0, xi=-1.0), L=1.0)
    with pytest.raises(ValueError, match="not at boundary"):
        reflect(PhasePointB(x=0.5, t=0.0, tau=1.0, xi=-1.0))


def test_trace_bounces_at_known_times(toy):
    p0 = make_null_point(toy, x=0.4, tau=2.0)
    path = trace_gbb(toy, p0, t_max=2.4, step=2e-3)
    assert path.energy_sign == "plus"
    assert path.symbol_drift == 0.0
    walls = [ev.wall for ev in path.reflections]
    times = [ev.point.t for ev in path.reflections]
    assert walls == ["boundary", "wall", "boundary"]
    assert times == pytest.approx([0.4, 1.4, 2.4], abs=1e-9)
    for ev in path.reflections:
        assert ev.point.xi == -ev.xi_in


@pytest.mark.parametrize("step", [1e-3, 2e-3, 5e-3])
@pytest.mark.parametrize("tau", [1.0, 2.0, 3.3])
def test_flow_parameter_holds_at_wall_landings(toy, tau, step):
    """On the toy t = 2 tau s on every row, reflections included: a wall
    landing advances s by the step that landed, also when a full step ends
    exactly on the wall and the bracket stops after one halving."""
    for x0 in (0.123, 0.3, 0.4, 0.5, 0.77):
        rows = np.array([r[:2] for r in trace_gbb(toy, make_null_point(toy, x0, tau), 3.0, step).to_rows()])
        assert np.max(np.abs(rows[:, 1] - 2.0 * tau * rows[:, 0])) <= 1e-12, x0


def test_trace_sample_matches_closed_form(toy):
    p0 = make_null_point(toy, x=0.4, tau=2.0)
    path = trace_gbb(toy, p0, t_max=2.4, step=2e-3)
    t = np.linspace(0.0, 2.3, 47)
    rows = path.sample(t)
    # speed |dx/dt| = 1 on the toy; bounce at x=0 (t=0.4) and x=1 (t=1.4)
    want = np.empty_like(t)
    for i, ti in enumerate(t):
        if ti <= 0.4:
            want[i] = 0.4 - ti
        elif ti <= 1.4:
            want[i] = ti - 0.4
        else:
            want[i] = 1.0 - (ti - 1.4)
    assert rows[:, 0] == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError, match="outside the traced range"):
        path.sample(np.array([5.0]))


def test_trace_rejects_zero_tau(toy):
    with pytest.raises(ValueError, match="tau must be nonzero"):
        trace_gbb(toy, PhasePointB(x=0.5, t=0.0, tau=0.0, xi=1.0), t_max=1.0)


@pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan])
def test_trace_rejects_non_finite_t_max(toy, t_max):
    with pytest.raises(ValueError, match="t_max must be finite"):
        trace_gbb(toy, make_null_point(toy, x=0.4, tau=2.0), t_max=t_max)


def test_trace_runs_backward(toy):
    p0 = make_null_point(toy, x=0.4, tau=-2.0)
    path = trace_gbb(toy, p0, t_max=-1.0, step=2e-3)
    assert path.energy_sign == "minus"
    assert path.segments[-1].data[-1, 2] <= -1.0


@settings(max_examples=10)
@given(
    x0=st.floats(min_value=0.15, max_value=0.85),
    tau=st.floats(min_value=0.5, max_value=3.0),
)
def test_symbol_exactly_conserved(x0, tau):
    toy = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    p0 = make_null_point(toy, x=x0, tau=tau)
    path = trace_gbb(toy, p0, t_max=1.1, step=2e-3)
    assert path.symbol_drift == 0.0
    assert len(path.reflections) >= 1


def test_trace_keeps_zeta_without_y(cyl):
    """A ray given zeta but no y starts at y = 0, keeps zeta on every arc, and
    carries y continuously across each reflection (it is tangential data)."""
    zeta = math.sqrt(1.75)
    path = trace_gbb(cyl, PhasePointB(x=0.4, t=0.0, tau=2.0, xi=-1.5, zeta=zeta), t_max=3.0, step=2e-3)
    assert len(path.reflections) == 3
    assert np.all(_rows(path)[:, 4] == zeta)
    assert path.segments[0].data[0, 1] == 0.0
    for prev, nxt in zip(path.segments, path.segments[1:]):
        assert nxt.data[0, 1] == prev.data[-1, 1] > 0.0
    for ev, seg in zip(path.reflections, path.segments):
        assert ev.point.zeta == zeta and ev.point.y == seg.data[-1, 1]


def test_trace_work_bounded_by_t_max(cyl):
    """A nearly tangential ray (|xi| = 1e-4) would get an arc budget of 1e4 L
    of flow parameter from xi alone; the t_max cap ends its one arc once t
    has passed t_max by 2L: (0.1 + 2) / (2 tau) / step = 525 steps."""
    p0 = PhasePointB(x=0.5, t=0.0, tau=2.0, xi=1e-4, zeta=math.sqrt(4.0 - 1e-8))
    path = trace_gbb(cyl, p0, t_max=0.1, step=1e-3)
    assert [len(seg.s) for seg in path.segments] == [526]
    assert path.segments[-1].data[-1, 2] >= 0.1


def _irk_step_tableau(model, state, h):
    """The Gauss-Legendre step in numpy tableau form: stage sums as A @ K,
    right-hand sides as one (4, 6) array per fixed-point iteration."""
    A, B = np.array(bchar._GL_A), np.array(bchar._GL_B)
    arr = np.array(state)
    f0 = bchar._rhs_rows(model, arr[None, :])[0]
    K = np.tile(f0, (4, 1))
    scale = np.max(np.abs(f0)) + 1.0
    for _ in range(bchar._FP_MAXIT):
        K_new = bchar._rhs_rows(model, arr[None, :] + h * (A @ K))
        delta = np.max(np.abs(K_new - K))
        K = K_new
        if delta <= bchar._FP_TOL * scale:
            break
    else:
        raise RuntimeError("stalled")
    return tuple((arr + h * (B @ K)).tolist())


@pytest.mark.parametrize("model, zeta, t_max, exact", [
    ("toy", None, 24.0, True),
    ("cyl", 0.7, 25.0, True),
    ("table", 0.7, 6.0, False),
])
def test_irk_step_matches_tableau_form(request, monkeypatch, model, zeta, t_max, exact):
    """Float stage sums give the tableau form's rays: bit for bit on the toys
    over 25 reflections; on a spline table the tableau's BLAS products round
    differently, so the rows agree to 1e-13."""
    m = request.getfixturevalue(model)
    # zeta None: the toy's point takes the default zeta = 0
    p0 = make_null_point(m, x=0.4, tau=2.0) if zeta is None else make_null_point(m, x=0.4, tau=2.0, zeta=zeta)
    got = trace_gbb(m, p0, t_max=t_max, step=2e-3)
    monkeypatch.setattr(bchar, "_irk_step", _irk_step_tableau)
    want = trace_gbb(m, p0, t_max=t_max, step=2e-3)
    assert len(got.reflections) == len(want.reflections) >= (25 if exact else 5)
    assert _rows(got).shape == _rows(want).shape
    if exact:
        assert np.array_equal(_rows(got), _rows(want))
    else:
        assert np.max(np.abs(_rows(got) - _rows(want))) <= 1e-13


def _sample_per_time(path, times):
    """Reference sampler: the cubic Hermite interpolant in the flow parameter
    s, inverted for t by one scalar Newton iteration per requested time."""
    s_all = np.concatenate([seg.s for seg in path.segments])
    rows = _rows(path)
    derivs = np.vstack([bchar._rhs_rows(path.model, seg.data) for seg in path.segments])
    th = rows[:, 2] * (1.0 if rows[-1, 2] >= rows[0, 2] else -1.0)
    tq = times * (1.0 if rows[-1, 2] >= rows[0, 2] else -1.0)
    out = np.empty((times.size, 6))
    for i, j in enumerate(np.clip(np.searchsorted(th, tq, side="right") - 1, 0, len(th) - 2)):
        t_want = times[i]
        ds = s_all[j + 1] - s_all[j]
        y0, y1 = rows[j], rows[j + 1]
        if ds == 0.0:
            out[i] = y0
            continue
        d0, d1 = derivs[j] * ds, derivs[j + 1] * ds

        def eval_at(sig):
            h00 = (1 + 2 * sig) * (1 - sig) ** 2
            h10 = sig * (1 - sig) ** 2
            h01 = sig**2 * (3 - 2 * sig)
            h11 = sig**2 * (sig - 1)
            return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1

        denom = y1[2] - y0[2]
        sig = 0.5 if denom == 0.0 else (t_want - y0[2]) / denom
        sig = min(max(sig, 0.0), 1.0)
        for _ in range(30):
            st_ = eval_at(sig)
            dt_dsig = d0[2] * (1 - 4 * sig + 3 * sig**2) + d1[2] * (3 * sig**2 - 2 * sig) + 6 * sig * (1 - sig) * denom
            if dt_dsig == 0.0:
                break
            step = (st_[2] - t_want) / dt_dsig
            sig -= step
            if abs(step) < 1e-15:
                break
        out[i] = eval_at(min(max(sig, 0.0), 1.0))
    return out


@pytest.mark.parametrize("model, tau, t_max", [
    ("toy", 2.0, 24.0),
    ("toy", -2.0, -6.0),
    ("cyl", 2.0, 12.0),
    ("table", 2.0, 6.0),
])
def test_sample_is_hermite_in_t(request, model, tau, t_max):
    """Stored knot times return the stored rows bit for bit (at a reflection,
    where two rows share t, the outgoing one).  Between knots the samples are
    within 1e-10 of a 16x-finer trace of the path's first third; on the
    spline table they are no farther from it than the Newton-in-s oracle, and
    on the toys, whose arcs are straight, they are the oracle's to round-off."""
    m = request.getfixturevalue(model)
    p0 = make_null_point(m, x=0.4, tau=tau, zeta=0.0 if model == "toy" else 0.7)
    path = trace_gbb(m, p0, t_max=t_max, step=2e-3)
    rows = _rows(path)
    got = path.sample(rows[:, 2])
    last = np.append(rows[1:, 2] != rows[:-1, 2], True)  # the last row of each knot time
    # the path stops at its last reflection, so that one has no outgoing row
    assert (~last).sum() == len(path.reflections) - (path.segments[-1].hit is not None) > 0
    assert np.array_equal(got[last], rows[last])
    assert np.array_equal(got[~last], rows[np.flatnonzero(~last) + 1])

    times = np.linspace(0.0, t_max / 3, 259)
    fine = trace_gbb(m, p0, t_max=t_max / 3, step=2e-3 / 16).sample(times)
    got, want = path.sample(times), _sample_per_time(path, times)
    err = np.max(np.abs(got - fine), axis=0)
    assert np.all(err <= 1e-10)
    if model == "table":
        assert err.max() <= np.max(np.abs(want - fine))
    else:  # both are exact up to the round-off of the two traces
        assert np.max(np.abs(got - want)) <= 1e-14


def test_warp_calls_per_step(monkeypatch, cyl):
    """One step makes one warp evaluation for f0 and one per fixed-point
    iteration on the whole stage set; a toy converges in one, and so does a
    model with constant tables.  A model whose tables were replaced steps on
    the replacements, never on the old splines, and no model can be changed
    in place."""
    evals, calls = Counter(), Counter()
    warps, warp = MetricModel.warps, MetricModel._warp

    def counted_warps(self, xs):
        evals[len(xs)] += 1
        return warps(self, xs)

    def counted_warp(self, name, x, const):
        calls[name] += 1
        return warp(self, name, x, const)

    monkeypatch.setattr(MetricModel, "warps", counted_warps)
    monkeypatch.setattr(MetricModel, "_warp", counted_warp)
    state = tuple(make_null_point(cyl, x=0.4, tau=2.0, zeta=0.7).as_array().tolist())
    calls.clear()
    toy_step = bchar._irk_step(cyl, state, 2e-3)
    assert evals == {1: 1, 4: 1} and not calls

    ones = _custom(beta=(_X41, np.ones(41)), k=(_X41, np.ones(41)))
    evals.clear()
    assert bchar._irk_step(ones, state, 2e-3) == toy_step
    assert evals == {1: 1, 4: 1}
    assert calls == dict.fromkeys(("beta", "k", "dbeta", "dk"), 2)
    # replaced tables reach the step: beta = 2 halves dt/ds
    doubled = replace(ones, tables=dict(ones.tables, beta=(_X41, np.full(41, 2.0))))
    assert doubled.warps([0.1, 0.9]) == ([2.0, 2.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    assert bchar._irk_step(doubled, state, 2e-3)[2] == pytest.approx(0.5 * toy_step[2], rel=1e-12)
    with pytest.raises(FrozenInstanceError):
        ones.tables = doubled.tables


def _custom(**tables):
    cfg = {"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0}
    cfg.update({f"{name}_table": [list(xs), list(vs)] for name, (xs, vs) in tables.items()})
    return load_model(cfg)


_X8, _X41 = np.linspace(0.0, 1.0, 8), np.linspace(0.0, 1.0, 41)


@pytest.mark.parametrize("model", ["toy", "cyl", "table", "beta_only", "constant"])
def test_warps_match_the_callables(request, model):
    """One warp evaluation gives the four callables' values bit for bit, as
    float lists: the constants on the toys, the splines on tables (a
    beta-only table keeps k = 1, k' = 0), and constant tables."""
    m = {
        "beta_only": lambda: _custom(beta=(_X8, 1.0 + 0.3 * _X8**2)),
        "constant": lambda: _custom(beta=(_X41, np.ones(41)), k=(_X41, np.ones(41))),
    }.get(model, lambda: request.getfixturevalue(model))()
    xs = np.linspace(-0.05, 1.05, 331).tolist() + _X8.tolist() + _X41.tolist()
    got = m.warps(xs)
    assert all(type(col) is list and len(col) == len(xs) for col in got)
    want = (m.beta(xs), m.k(xs), m.dbeta(xs), m.dk(xs))
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    if model in ("toy", "cyl", "beta_only"):
        assert got[1] == [1.0] * len(xs) and got[3] == [0.0] * len(xs)


@pytest.mark.parametrize("model, zeta", [("toy", 0.0), ("cyl", 0.7), ("table", 0.7)])
def test_symbol_drift_is_the_arcs_own(request, monkeypatch, model, zeta):
    """``symbol_drift`` is the largest |p(row) - p(first row)| over the rows
    of every arc, bit for bit, read from what ``flow_segment`` measured: it
    evaluates no symbol."""
    m = request.getfixturevalue(model)
    path = trace_gbb(m, make_null_point(m, x=0.4, tau=2.0, zeta=zeta), t_max=6.0, step=2e-3)
    want = 0.0
    for seg in path.segments:
        x, _, _, xi, z, tau = seg.data.T
        p = tau**2 / m.beta(x) - xi**2 - z**2 / m.k(x)
        want = max(want, float(np.max(np.abs(p - p[0]))))
    assert (want > 0.0) == (model == "table")
    monkeypatch.setattr(MetricModel, "_warp", None)  # no warp to read
    assert path.symbol_drift == want


def test_tangential_jump_pairs_each_reflection_with_its_arc():
    """On a steep table an arc can end on its budget without a hit: to t = 24
    the ray has 57 arcs and 55 reflections.  The k-th reflection is read
    against the last row of the k-th arc that hit a wall, so a jump put on
    the last reflection is measured, and the traced ray has none."""
    steep = _custom(beta=(_X8, 1.0 + 30.0 * _X8**2))
    path = trace_gbb(steep, make_null_point(steep, x=0.4, tau=2.0), t_max=24.0, step=2e-3)
    hits = [seg for seg in path.segments if seg.hit is not None]
    assert (len(path.segments), len(path.reflections), len(hits)) == (57, 55, 55)
    assert path.segments[-1].hit is None and any(seg.hit is None for seg in path.segments[:-1])
    for seg, ev in zip(hits, path.reflections):
        assert seg.hit == ev.wall and seg.data[-1, 2] == ev.point.t
    assert path.tangential_jump == 0.0
    last = path.reflections[-1]
    path.reflections[-1] = replace(last, point=replace(last.point, t=last.point.t + 1e-3))
    assert path.tangential_jump == pytest.approx(1e-3, rel=1e-9)
