import math
import tracemalloc
import warnings

import numpy as np
import pytest

from adskg import microlocal
from adskg.geometry import load_model, make_toy_model
from adskg.microlocal import (
    evolve_and_track,
    gbb_reference,
    kernel_wavefront_scan,
    make_perturbed_state,
    make_wavepacket,
    off_pattern,
    smoothness_decay_order,
)
from adskg.propagators import LineSpectrum, make_propagator, slepian_taper
from adskg.spectral import Grid1D, build_spectral
from oracles import line_gains, thermal_occupation_mp

SCAN = (6.5, 3)  # window length, window starts per slot


def test_wavepacket_preconditions(sm192):
    with pytest.raises(ValueError, match="touches a boundary"):
        make_wavepacket(sm192, x0=0.2, xi0=-60.0, sigma=0.1)
    with pytest.raises(ValueError, match="oscillatory"):
        make_wavepacket(sm192, x0=0.5, xi0=-20.0, sigma=0.1)
    with pytest.raises(ValueError, match="truncation tail"):
        make_wavepacket(sm192, x0=0.5, xi0=-120.0, sigma=0.1)
    with pytest.raises(ValueError, match="sign"):
        make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1, sign=2)


def test_wavepacket_moments(sm192, monkeypatch):
    """The Gaussian's moments, x ~ (0.5, sigma^2/2) and xi ~ (-40, 1/(2 sigma^2)),
    all four read off one ``eval_gauss`` call."""
    calls = []
    eval_gauss = Grid1D.eval_gauss
    monkeypatch.setattr(Grid1D, "eval_gauss", lambda self, vec: calls.append(vec.shape) or eval_gauss(self, vec))
    sigma = 0.1
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=sigma)
    assert len(calls) == 1
    assert w.tail <= 1e-6
    assert np.sum(np.abs(w.coefficients) ** 2) == pytest.approx(1.0, rel=1e-12)
    assert w.x_mean == pytest.approx(0.5, rel=1e-5)
    assert w.x_var == pytest.approx(0.5 * sigma**2, rel=1e-5)
    assert w.xi_mean == pytest.approx(-40.0, rel=1e-5)
    assert w.xi_var == pytest.approx(0.5 / sigma**2, rel=1e-5)


def test_wavepacket_field_peaks_at_center(sm192):
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    vals = np.abs(sm192.synthesize(w.coefficients, m=w.m))
    x_peak = sm192.grid.dof_x[int(np.argmax(vals))]
    assert abs(x_peak - 0.5) < 0.05


def test_evolution_nyquist_guard(sm192):
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    with pytest.raises(ValueError, match="undersamples"):
        evolve_and_track(sm192, w, t_max=0.5, dt=0.1)


@pytest.mark.parametrize("dt", [0.04, 0.1])
def test_kernels_and_tracks_refuse_a_step_in_one_text(sm192, dt):
    """Kernel grids and packet tracks obey one sampling rule, so a step with
    omega_max * dt >= pi is refused by both with the same message."""
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    texts = []
    for build in (lambda: make_propagator(sm192, "causal", dt * np.arange(64)),
                  lambda: evolve_and_track(sm192, w, t_max=0.5, dt=dt)):
        with pytest.raises(ValueError) as err:
            build()
        texts.append(str(err.value))
    wdt = float(sm192.branch(0).omega[-1]) * dt
    assert texts == [f"dt undersamples the largest retained frequency: omega_max*dt = {wdt:.3f} >= pi; "
                     "refine dt or retain fewer modes"] * 2


def test_short_track_stays_put(sm192):
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    tr = evolve_and_track(sm192, w, t_max=0.2, dt=0.005)
    assert tr.status == "ok"
    assert tr.centroid[0] == pytest.approx(0.5, abs=0.02)
    # the packet moves toward the boundary at unit speed
    drop = tr.centroid[0] - tr.centroid[-1]
    assert drop == pytest.approx(0.2, abs=0.03)


def _track_loop(sm, w, t_max, dt):
    """Reference tracker: one synthesize + eval_gauss pass per time step,
    stopping at the first spread above _DISPERSE_FRACTION L."""
    br = sm.branch(w.m)
    times = np.arange(0.0, t_max + 0.5 * dt, dt)
    sel = sm.grid.gauss_x >= 2.0 * w.width
    wq, xq = sm.grid.gauss_w[sel], sm.grid.gauss_x[sel]
    cent, spr, status = [], [], "ok"
    for t in times:
        a = w.coefficients * np.exp(-1j * w.energy_sign * br.omega * t)
        _, ux = sm.grid.eval_gauss(sm.synthesize(a, m=w.m))
        ut, _ = sm.grid.eval_gauss(sm.synthesize(-1j * w.energy_sign * br.omega * a, m=w.m))
        dens = (np.abs(ut) ** 2 + np.abs(ux) ** 2)[sel] * wq
        cent.append(float((dens * xq).sum() / dens.sum()))
        spr.append(math.sqrt(max(float((dens * (xq - cent[-1]) ** 2).sum() / dens.sum()), 0.0)))
        if spr[-1] > microlocal._DISPERSE_FRACTION * sm.grid.L:
            status = "partial"
            break
    return times[: len(cent)], np.array(cent), np.array(spr), status


def _assert_track_matches_loop(sm, w, t_max, dt):
    tr = evolve_and_track(sm, w, t_max=t_max, dt=dt)
    times, cent, spr, status = _track_loop(sm, w, t_max, dt)
    assert tr.status == status
    assert np.array_equal(tr.times, times)
    assert tr.centroid == pytest.approx(cent, rel=0.0, abs=1e-13)
    assert tr.spread == pytest.approx(spr, rel=0.0, abs=1e-13)
    return tr


@pytest.fixture(scope="module")
def cyl192():
    cyl = make_toy_model("ads3_cylinder", nu=1.0, L=1.0, ell=2.0 * math.pi)
    return build_spectral(cyl, N=192, n_modes=32, m_max=2)


@pytest.fixture(scope="module")
def table192():
    """The 8-knot spline-table model of the ray tests, nonconstant beta and k."""
    xs = np.linspace(0.0, 1.0, 8)
    model = load_model({
        "kind": "custom", "n": 3, "nu": 1.0, "L": 1.0,
        "beta_table": [list(xs), list(1.0 + 0.3 * xs**2)],
        "k_table": [list(xs), list(1.0 + 0.2 * xs**2)],
    })
    return build_spectral(model, N=192, n_modes=32)


@pytest.mark.parametrize(
    "model, sign, m", [("strip", 1, 0), ("strip", -1, 0), ("cylinder", 1, 1), ("table", 1, 0)]
)
def test_track_matches_per_step_loop(sm192, cyl192, table192, model, sign, m):
    sm = {"strip": sm192, "cylinder": cyl192, "table": table192}[model]
    w = make_wavepacket(sm, x0=0.5, xi0=-40.0, sigma=0.1, sign=sign, m=m)
    tr = _assert_track_matches_loop(sm, w, t_max=1.3, dt=0.005)
    assert tr.times.size == 261


def test_track_spans_several_time_tiles(sm192):
    """A track of 601 times runs through five tiles of times, the last one
    partial, and still matches the per-step loop time by time."""
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    tr = _assert_track_matches_loop(sm192, w, t_max=3.0, dt=0.005)
    assert tr.status == "ok"
    assert tr.times.size == 601 and 4 * microlocal._TILE_TIMES < 601 < 5 * microlocal._TILE_TIMES


def test_track_partial_cut_inside_a_tile(sm192, monkeypatch):
    """A spread limit first crossed in the middle of a tile of times after
    the first keeps exactly the times up to the crossing, as the per-step
    loop does."""
    w = make_wavepacket(sm192, x0=0.5, xi0=-40.0, sigma=0.1)
    _, _, spr, _ = _track_loop(sm192, w, 1.3, 0.005)
    tile = microlocal._TILE_TIMES
    cut = next(i for i in range(tile, spr.size) if 0 < i % tile < tile - 1 and spr[i] > spr[:i].max() + 1e-9)
    monkeypatch.setattr(microlocal, "_DISPERSE_FRACTION", 0.5 * (spr[:cut].max() + spr[cut]) / sm192.grid.L)
    tr = _assert_track_matches_loop(sm192, w, t_max=1.3, dt=0.005)
    assert tr.status == "partial"
    assert tr.times.size == cut + 1


def test_track_memory_at_stress_size():
    sm = build_spectral(make_toy_model("ads2_strip", nu=1.0, L=1.0), N=2000, n_modes=32)
    w = make_wavepacket(sm, x0=0.5, xi0=-40.0, sigma=0.1)
    tracemalloc.start()
    try:
        evolve_and_track(sm, w, t_max=1.3, dt=0.005)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_gbb_reference_closed_form(ads2):
    t = np.linspace(0.0, 0.3, 31)
    xs = gbb_reference(ads2, 0.5, -40.0, t)
    assert xs == pytest.approx(0.5 - t, abs=1e-9)
    clipped = gbb_reference(ads2, 0.5, -40.0, np.linspace(0.0, 0.9, 61), clip=0.2)
    assert clipped.min() >= 0.2


@pytest.mark.parametrize("L", [1e-4, 1.0, 1e3])
def test_gbb_reference_steps_with_the_slab(monkeypatch, L):
    """The reference ray steps by 0.04 L / |xi0| and runs 0.01 L past the last
    time, so it is the same ray in units of L at every L (1e-3 and 0.01 at
    L = 1, |xi0| = 40).  A launch with xi0 = 0 has no step and is refused."""
    calls = []
    trace = microlocal.trace_gbb
    monkeypatch.setattr(microlocal, "trace_gbb", lambda *a, **kw: calls.append(kw) or trace(*a, **kw))
    model = make_toy_model("ads2_strip", nu=1.0, L=L)
    t = L * np.linspace(0.0, 0.9, 61)
    assert gbb_reference(model, 0.5 * L, -40.0 / L, t) == pytest.approx(np.abs(0.5 * L - t), abs=1e-9 * L)
    assert calls == [{"t_max": 0.9 * L + 0.01 * L, "step": 0.04 * L / (40.0 / L)}]
    if L == 1.0:
        assert calls == [{"t_max": 0.9 + 1e-2, "step": 1e-3}]
    with pytest.raises(ValueError, match="xi0 != 0"):
        gbb_reference(model, 0.5 * L, 0.0, t)


def test_scan_quadrants_vacuum(zoo):
    rows = kernel_wavefront_scan(zoo["lambda_plus"], *SCAN)
    assert len(rows) == 9
    assert off_pattern(rows, zoo["lambda_plus"]) <= 1e-6
    rows_m = kernel_wavefront_scan(zoo["lambda_minus"], *SCAN)
    assert off_pattern(rows_m, zoo["lambda_minus"]) <= 1e-6
    for r in rows_m:
        assert r.sign_content_minus > 0.999


def test_scan_causal_avoids_mixed_quadrants(zoo):
    rows = kernel_wavefront_scan(zoo["causal"], *SCAN)
    assert off_pattern(rows, zoo["causal"]) <= 1e-6
    for r in rows:
        assert r.sign_content_plus == pytest.approx(0.5, abs=0.05)
        assert r.sign_content_minus == pytest.approx(0.5, abs=0.05)


def test_scan_detects_mutation(zoo):
    bad = zoo["lambda_plus"].mutated(0.01)
    rows = kernel_wavefront_scan(bad, *SCAN)
    assert off_pattern(rows, bad) >= 0.1


def test_scan_window_validation(zoo):
    with pytest.raises(ValueError, match="window too short"):
        kernel_wavefront_scan(zoo["lambda_plus"], 3.0, 2)
    with pytest.raises(ValueError, match="exceeds the grid span"):
        kernel_wavefront_scan(zoo["lambda_plus"], 30.0, 2)


def test_window_spec_validation(zoo):
    with pytest.raises(ValueError, match="n_centers"):
        kernel_wavefront_scan(zoo["lambda_plus"], 6.5, 0)
    with pytest.raises(ValueError, match="n_centers"):
        kernel_wavefront_scan(zoo["lambda_plus"], 6.5, -3)
    with pytest.raises(ValueError, match="length"):
        kernel_wavefront_scan(zoo["lambda_plus"], 0.0, 4)


def _direct_scan(kernel, length, n_centers):
    """Reference scan: the trace evaluated on t_i - t_j of every window."""
    t, dt = kernel.t_grid, kernel.dt
    n_w = int(round(length / dt)) + 1
    taper = slepian_taper(n_w, 0.9 * length * kernel.omega_floor / (2.0 * math.pi))
    half = 0.5 * length
    pts = np.linspace(t[0] + half, t[-1] - half, n_centers)
    sgn = np.sign(np.fft.fftfreq(n_w, d=dt))
    sgn_t, sgn_s = sgn[:, None], -sgn[None, :]
    out = []
    for t0 in pts:
        for s0 in pts:
            i0 = int(np.searchsorted(t, t0 - half - 0.25 * dt))
            j0 = int(np.searchsorted(t, s0 - half - 0.25 * dt))
            tt, ss = t[i0 : i0 + n_w], t[j0 : j0 + n_w]
            # the trace at every t_i - t_j, evaluated once per distinct value
            tau, inverse = np.unique(tt[:, None] - ss[None, :], return_inverse=True)
            vals = line_gains(kernel, tau).sum(axis=0)[inverse].reshape(n_w, n_w)
            power = np.abs(np.fft.fft2(taper[:, None] * vals * taper[None, :])) ** 2
            total = power.sum() or 1.0  # a zero window has zero masses
            out.append(
                (
                    tt.mean(),
                    ss.mean(),
                    power[(sgn_t > 0) & (sgn_s > 0)].sum() / total,
                    power[(sgn_t < 0) & (sgn_s < 0)].sum() / total,
                    power[sgn_t * sgn_s < 0].sum() / total,
                )
            )
    return out


@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_lag_gather_matches_direct_windows(sm192, tgrid, t0):
    """Line-form and straddling windows against the per-window oracle, for
    every support factor.  The 769-point grid with 6.4-long windows
    (n_w = 257, starts 0/256/512) puts window lag ranges that start or end
    exactly at tau = 0, where theta(0) = 0 decides; the 6.475-long windows
    have an even n_w, whose Nyquist bin is negative in the t slot and
    positive in the s slot."""
    grid = t0 + tgrid
    edge_grid = t0 + 0.025 * np.arange(769)
    lp = make_propagator(sm192, "lambda_plus", grid)
    lm = make_propagator(sm192, "lambda_minus", grid)
    pair = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    edge, even = (6.4, 3), (6.475, 3)
    cases = [
        (lp, SCAN),
        (lp.mutated(0.01), SCAN),
        (pair.lp_b, SCAN),
        (lm, SCAN),
        (make_propagator(sm192, "causal", grid), SCAN),
        (make_propagator(sm192, "feynman", grid), (5.0, 4)),
    ]
    cases += [(make_propagator(sm192, kind, grid), spec) for kind in ("retarded", "advanced", "feynman", "antifeynman")
              for spec in (SCAN, even)]
    cases += [(make_propagator(sm192, kind, edge_grid), edge)
              for kind in ("lambda_plus", "retarded", "advanced", "feynman", "antifeynman")]
    zero_windows = 0
    for kern, spec in cases:
        rows = kernel_wavefront_scan(kern, *spec)
        ref = _direct_scan(kern, *spec)
        assert len(rows) == len(ref) == spec[1] ** 2
        for r, (t, s, plus, minus, cross) in zip(rows, ref):
            assert (r.t, r.s) == (t, s)
            assert r.sign_content_plus == pytest.approx(plus, abs=1e-14)
            assert r.sign_content_minus == pytest.approx(minus, abs=1e-14)
            assert r.cross == pytest.approx(cross, abs=1e-14)
            # every lag of the window on the zero side of the support, tau = 0 included
            toward_support = {"retarded": r.t - r.s, "advanced": r.s - r.t}.get(kern.kind)
            if toward_support is not None and toward_support + spec[0] <= 1e-9:
                assert (r.sign_content_plus, r.sign_content_minus, r.cross) == (0.0, 0.0, 0.0)
                zero_windows += 1
    # per kind: one window of SCAN, one of the even grid, three of the edge grid
    assert zero_windows == 2 * (1 + 1 + 3)


def test_scan_takes_masses_from_lines(zoo, sm192, monkeypatch):
    """Kernels whose support factor is fixed on every window never form the
    trace or a 2-D transform; the Feynman scan reads the trace once, on the
    2T - 1 lags, and transforms only its three offsets whose lags straddle
    tau = 0."""
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": 5.0 / sm192.m_floor_sqrt})
    sizes, ffts = [], []
    trace, fft2 = LineSpectrum.trace, np.fft.fft2

    def counting_trace(self, lags=None):
        out = trace(self, lags)
        sizes.append(out.size)
        return out

    def counting_fft2(x, *args, **kwargs):
        ffts.append(np.shape(x))
        return fft2(x, *args, **kwargs)

    monkeypatch.setattr(LineSpectrum, "trace", counting_trace)
    monkeypatch.setattr(np.fft, "fft2", counting_fft2)
    for kern in (zoo["lambda_plus"], zoo["lambda_plus"].mutated(0.01), pair.lp_b):
        assert len(kernel_wavefront_scan(kern, *SCAN)) == 9
    assert sizes == [] and ffts == []
    kern = zoo["feynman"]
    rows = kernel_wavefront_scan(kern, 5.0, 4)
    assert len(rows) == 16
    assert sizes == [2 * kern.T - 1]
    assert ffts == [(201, 201)] * 3


def test_scan_forms_no_window_inside_the_band(zoo, monkeypatch):
    """Given the diagonal band, the Feynman scan keeps only the windows that
    ``off_pattern`` would read, at the full scan's row times and masses.  The
    10 L band holds every offset whose lags straddle tau = 0, so that scan
    forms neither the trace nor a 2-D transform; a 3 L band leaves the two
    offsets +-189 to transform.  The masses agree bit for bit: each window's
    Hermitian forms are evaluated on their own, whichever offsets share the
    line set."""
    kern = zoo["feynman"]
    full = kernel_wavefront_scan(kern, 5.0, 4)
    calls = []
    trace, fft2 = LineSpectrum.trace, np.fft.fft2
    monkeypatch.setattr(LineSpectrum, "trace", lambda self, lags=None: calls.append("trace") or trace(self, lags))
    monkeypatch.setattr(np.fft, "fft2", lambda x, *a, **kw: calls.append("fft2") or fft2(x, *a, **kw))
    for band, n_rows, formed in ((10.0, 2, []), (3.0, 12, ["trace", "fft2", "fft2"])):
        calls.clear()
        rows = kernel_wavefront_scan(kern, 5.0, 4, band=band)
        assert calls == formed, band
        want = [r for r in full if abs(r.t - r.s) > band]
        assert len(rows) == n_rows and [(r.t, r.s) for r in rows] == [(r.t, r.s) for r in want], band
        for r, w in zip(rows, want):
            assert (r.sign_content_plus, r.sign_content_minus, r.cross) == \
                (w.sign_content_plus, w.sign_content_minus, w.cross), band
    with pytest.raises(ValueError, match="outside the diagonal band"):
        off_pattern(kernel_wavefront_scan(kern, 5.0, 4, band=15.0), kern, band=15.0)


def test_feynman_scan_flips_across_diagonal(zoo):
    rows = kernel_wavefront_scan(zoo["feynman"], 5.0, 4)
    assert off_pattern(rows, zoo["feynman"], band=10.0) <= 1e-5
    future = [r for r in rows if r.t - r.s > 10.0]
    past = [r for r in rows if r.s - r.t > 10.0]
    assert future and past
    assert all(r.sign_content_plus > 0.999 for r in future)
    assert all(r.sign_content_minus > 0.999 for r in past)
    with pytest.raises(ValueError, match="band"):
        off_pattern(rows, zoo["feynman"])
    with pytest.raises(ValueError, match="outside the diagonal band"):
        off_pattern(rows, zoo["feynman"], band=50.0)


@pytest.mark.parametrize("m", [1, 2])
def test_gbb_reference_cylinder_branch(m):
    """On a cylinder branch m >= 1 the ray carries zeta = 2 pi m / ell and no
    y; it moves at |dx/dt| = |xi0| / tau and bounces off x = 0."""
    cyl = make_toy_model("ads3_cylinder", nu=1.0, L=1.0)
    t = np.linspace(0.0, 0.9, 61)
    speed = 40.0 / math.sqrt(40.0**2 + m**2)
    assert gbb_reference(cyl, 0.5, -40.0, t, m=m) == pytest.approx(np.abs(0.5 - speed * t), abs=1e-9)


def test_bogoliubov_reduces_to_vacuum(zoo, sm192):
    # a cold thermal state is the vacuum: beta omega_k >= 40 on every mode, and where
    # e^{beta omega_k} overflows to inf the occupation is exactly zero, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": 40.0 / sm192.m_floor_sqrt})
    assert float(pair.lp_b.omega[-1]) * 40.0 / sm192.m_floor_sqrt > 709.0 and pair.occupation[-1] == 0.0
    assert np.all(pair.occupation <= math.exp(-40.0))
    lags = np.array([-52, 0, 16])  # tau = -1.3, 0, 0.4
    for bk, vac in ((pair.lp_b, zoo["lambda_plus"]), (pair.lm_b, zoo["lambda_minus"])):
        assert bk.gains(lags) == pytest.approx(vac.gains(lags), abs=1e-15)


def test_perturbed_state_thermal_occupations(zoo, sm192):
    beta = 5.0 / sm192.m_floor_sqrt
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    want = thermal_occupation_mp(beta, zoo["lambda_plus"].omega)
    assert pair.occupation == pytest.approx(want, rel=1e-12)


def test_perturbed_state_commutator_preserved(zoo, sm192):
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": 0.5 / sm192.m_floor_sqrt})
    lags = np.array([-80, 28, 200])  # tau = -2, 0.7, 5
    comm_a = zoo["lambda_plus"].gains(lags) - zoo["lambda_minus"].gains(lags)
    comm_b = pair.lp_b.gains(lags) - pair.lm_b.gains(lags)
    assert comm_b == pytest.approx(comm_a, abs=1e-15)


def test_perturbed_state_difference_is_exact(zoo, sm192, tgrid):
    beta = 2.0 / sm192.m_floor_sqrt
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    d = pair.difference()
    lags = np.arange(-160, 161, 10)  # tau = dt k on [-4, 4], 33 lags
    direct = pair.lp_b.trace(lags) - pair.lp_a.trace(lags)
    assert d.trace(lags) == pytest.approx(direct, abs=1e-14)
    # the Bose mode sum sum_k n_k cos(omega_k tau) / omega_k, with mpmath occupations
    omega = zoo["lambda_plus"].omega
    tau = (tgrid[1] - tgrid[0]) * lags
    want = np.cos(np.outer(tau, omega)) @ (thermal_occupation_mp(beta, omega) / omega)
    assert d.trace(lags) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_rotating_a_rotated_pair_adds_its_occupations(zoo, sm192):
    # the input pair may itself be rotated: the new difference is exactly
    # the newly injected mode sum, the old occupations are kept
    p1 = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": 5.0 / sm192.m_floor_sqrt})
    p2 = make_perturbed_state(p1.lp_b, p1.lm_b, {"thermal": 2.0 / sm192.m_floor_sqrt})
    lags = np.arange(-160, 161, 10)  # tau = dt k on [-4, 4], 33 lags
    d = p2.difference().trace(lags)
    scale = float(np.abs(d).max())
    for new, old in ((p2.lp_b, p1.lp_b), (p2.lm_b, p1.lm_b)):
        direct = new.trace(lags) - old.trace(lags)
        assert float(np.abs(d - direct).max()) <= 1e-14 * scale
    n = p1.occupation + p2.occupation
    assert p2.lp_b.a == pytest.approx(1.0 + n, rel=1e-15) and p2.lp_b.b == pytest.approx(n, rel=1e-15)


def test_perturbed_state_rejections(zoo):
    with pytest.raises(ValueError, match="pair"):
        make_perturbed_state(zoo["lambda_plus"], zoo["causal"], {"thermal": 1.0})
    with pytest.raises(ValueError, match="sign-mutated"):
        make_perturbed_state(
            zoo["lambda_plus"].mutated(0.01), zoo["lambda_minus"], {"thermal": 1.0}
        )
    with pytest.raises(ValueError, match="positive finite beta"):
        make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": -2.0})
    with pytest.raises(ValueError, match="transverse mode and time grid"):
        make_perturbed_state(zoo["lambda_plus"], make_propagator(zoo["lambda_minus"].spectral, "lambda_minus",
                                                                 0.02 * np.arange(768)), {"thermal": 1.0})
    # the rotation is thermal: a string, a list of (mode, r) pairs or a mixed dict is refused
    for spec in ("thermal", [(0, 0.5)], [], {"thermal": 1.0, "modes": [(0, 0.5)]}):
        with pytest.raises(ValueError, match="rotation spec"):
            make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], spec)


@pytest.mark.parametrize("nu", [1.0, 2.5])
def test_perturbed_state_refuses_a_pair_on_two_models(nu):
    """A lambda_minus on another spectral model of the same grid and m would be
    rotated with lambda_plus's frequencies; the pair is refused up front, as
    every identity between kernels refuses it."""
    t = 0.025 * np.arange(768)
    lp, lm = (make_propagator(build_spectral(make_toy_model("ads2_strip", nu=v, L=1.0), N=128, n_modes=16), kind, t)
              for v, kind in ((1.0, "lambda_plus"), (nu, "lambda_minus")))
    with pytest.raises(ValueError, match="share one spectral model"):
        make_perturbed_state(lp, lm, {"thermal": 1.0})


def test_thermal_state_passes_scan(zoo, sm192):
    beta = 5.0 / sm192.m_floor_sqrt
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    for kern in (pair.lp_b, pair.lm_b):
        assert off_pattern(kernel_wavefront_scan(kern, *SCAN), kern) <= 1e-4


def test_smoothness_orders(zoo, sm192):
    beta = 5.0 / sm192.m_floor_sqrt
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    assert smoothness_decay_order(pair.difference()) >= 6.0
    assert smoothness_decay_order(zoo["lambda_plus"]) < 2.0


def _verify_state_pair(nu: float, gamma: float = 2.0):
    """The thermal state pair of ``verify``'s defaults (N = 192, K = 32, its
    plan's kernel grid and beta = 5 / m) on the strip at nu, on a mesh graded by gamma."""
    from adskg.cli import RunConfig, _plan

    sm = build_spectral(make_toy_model("ads2_strip", nu=nu, L=1.0), N=192, n_modes=32, gamma=gamma)
    dt, T = _plan(RunConfig(), sm).kernel_grid
    lp, lm = (make_propagator(sm, kind, dt * np.arange(T)) for kind in ("lambda_plus", "lambda_minus"))
    return make_perturbed_state(lp, lm, {"thermal": 5.0 / sm.m_floor_sqrt})


def _decay_fit(kernel: LineSpectrum, monkeypatch) -> tuple[float, np.ndarray, np.ndarray]:
    """``smoothness_decay_order`` of the kernel, with the frequencies and line
    reads its log-log fit takes."""
    fits, polyfit = [], np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda x, y, deg: fits.append((x, y)) or polyfit(x, y, deg))
    order = smoothness_decay_order(kernel)
    monkeypatch.undo()
    return order, np.exp(fits[-1][0]), np.exp(fits[-1][1])


@pytest.mark.parametrize("nu", [0.3, 1.0, 8.0])
def test_polynomial_occupations_read_a_low_order(nu):
    """The ``difference_smoothness`` row can fail: a bulk difference whose
    occupations fall only like omega_k^-3 reads a decay order of 4, the
    power of its lines n_k / (2 omega_k), below the row's tolerance of 6,
    where the Bose occupations of the same run read above it."""
    diff = _verify_state_pair(nu).difference()
    n = (diff.omega[0] / diff.omega) ** 3
    assert smoothness_decay_order(diff) >= 6.0
    assert smoothness_decay_order(LineSpectrum("difference", diff.t_grid, diff.branch, n, n)) == pytest.approx(
        4.0, abs=1e-6
    )


def test_decay_order_reads_the_injected_lines(monkeypatch):
    """At nu = 1 each line read is the injected content n_k / (2 omega_k)
    times the taper's sum, to 1e-3 on every line above 1e-9 of the strongest."""
    pair = _verify_state_pair(1.0)
    diff = pair.difference()
    _, omega, reads = _decay_fit(diff, monkeypatch)
    assert np.allclose(omega, diff.omega[: omega.size], rtol=1e-12, atol=0.0)  # the Bose lines fall in order
    content = (pair.occupation / (2.0 * diff.omega))[: omega.size] * diff.taper(2 * diff.T - 1, 8.0).sum()
    strong = reads >= 1e-9 * reads.max()
    assert np.count_nonzero(strong) >= 5
    assert np.max(np.abs(reads[strong] / content[strong] - 1.0)) <= 1e-3


@pytest.mark.parametrize("gamma", [3.0, 6.0, 12.0])
def test_decay_order_resolves_small_nu(gamma, monkeypatch):
    """At nu = 0.1 on the meshes graded for it, the Bose difference reads an
    order of at least 6 on 4 lines; the binned envelope resolved too few bins."""
    order, omega, _ = _decay_fit(_verify_state_pair(0.1, gamma).difference(), monkeypatch)
    assert omega.size == 4 and order >= 6.0


def test_omega_floor_follows_the_spatial_factor(zoo, sm192, ads2):
    """A kernel with a spatial factor takes its model's certified floor; the
    boundary and difference lines, without one, the least omega of their branch."""
    from adskg.holography import boundary_two_point

    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    pair = make_perturbed_state(lp, lm, {"thermal": 2.0})
    with_factor = [*zoo.values(), lp.mutated(0.1), lm.mutated(0.1), pair.lp_b, pair.lm_b]
    assert all(k.omega_floor == sm192.m_floor_sqrt for k in with_factor)
    for k in (boundary_two_point(lp, ads2), pair.difference()):
        assert k.spectral is None and k.omega_floor == float(np.min(sm192.branch(0).omega))
