"""Acceptance suite: one test per release criterion, one printed verdict each.

Each test prints a single "ACCEPTANCE Cnn PASS/FAIL" line with the measured
numbers so the suite output doubles as a sign-off record.  Thresholds are
fixed here and must not be loosened to make a run pass.
"""

import json
import math
import time

import numpy as np

from adskg.cli import RunConfig, _default_tolerances, _plan, main
from adskg.geometry import make_toy_model
from adskg.holography import (
    boundary_gram,
    boundary_two_point,
    build_series,
    indicial_polynomial,
    mellin_exponent_probe,
)
from adskg.microlocal import (
    evolve_and_track,
    gbb_reference,
    kernel_wavefront_scan,
    make_perturbed_state,
    make_wavepacket,
    off_pattern,
    smoothness_decay_order,
)
from adskg.propagators import (
    adjoint_check,
    apply,
    apply_wave_operator,
    feynman_consistency,
    frequency_sign_test,
    make_propagator,
    support_check,
    time_slice_residuals,
    verify_two_point,
)
from adskg.spectral import build_spectral
from oracles import bessel_zeros_mp, line_weights_mp

TOL = _default_tolerances()


def _report(n: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE C{n:02d} {verdict} {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_spectral_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (0.5, 1.0, 2.5):
        model = make_toy_model("ads2_strip", nu=nu, L=1.0)
        sm = build_spectral(model, N=2000, n_modes=10)
        zeros = np.array(bessel_zeros_mp(nu, 10))
        rel = np.abs(sm.branch(0).omega**2 - zeros**2) / zeros**2
        worst = max(worst, float(rel.max()))
        if nu == 0.5:
            kpi = np.pi * np.arange(1, 11)
            exact = float(np.max(np.abs(sm.branch(0).omega**2 - kpi**2) / kpi**2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and exact <= 1e-6 and elapsed <= 30.0
    _report(1, ok, f"rel_err={worst:.3e} (tol 1e-3), half-integer rel={exact:.3e} "
                   f"(tol 1e-6), elapsed={elapsed:.1f}s (limit 30s)")


def test_criterion_02_propagator_algebra(zoo):
    rec = verify_two_point(zoo["lambda_plus"], zoo["lambda_minus"], zoo["causal"])
    comm = rec["commutator"]
    herm = rec["hermiticity"]
    psd_ok = all(rec[k][0] >= -TOL["psd"] * np.abs(rec[k]).max() for k in ("gram_plus", "gram_minus"))
    adj = adjoint_check(zoo["retarded"], zoo["advanced"])
    sup_r = support_check(zoo["retarded"])
    sup_a = support_check(zoo["advanced"])
    ok = comm <= 1e-12 and herm <= 1e-12 and psd_ok and adj <= 1e-12 \
        and sup_r == 0.0 and sup_a == 0.0
    _report(2, ok, f"commutator={comm:.2e} hermiticity={herm:.2e} adjoint={adj:.2e} "
                   f"support=({sup_r},{sup_a}) psd_ok={psd_ok} (tols 1e-12, exact support)")


def test_criterion_03_stencil_convergence(ads2):
    sm = build_spectral(ads2, N=64, n_modes=8)
    span = 2.56
    lam_res, inv_res = [], []
    for dt in (8e-3, 4e-3, 2e-3):
        t = dt * np.arange(int(round(span / dt)))
        lp = make_propagator(sm, "lambda_plus", t)
        lm = make_propagator(sm, "lambda_minus", t)
        g = make_propagator(sm, "causal", t)
        ret = make_propagator(sm, "retarded", t)
        rec = verify_two_point(lp, lm, g)
        lam_res.append(rec["wave_op"])

        env = np.exp(-(((t - 0.5 * span) / 0.25) ** 2))
        coef = np.zeros((t.size, 8))
        for k in range(5):
            coef[:, k] = env * np.cos(sm.branch(0).omega[k] * t / (k + 2.0))
        f = sm.synthesize(coef, m=0)
        u = apply(ret, f)
        pu = apply_wave_operator(sm, u, dt)
        inv_res.append(float(np.max(np.abs(pu - f[1:-1]))))
    lam_orders = [math.log2(a / b) for a, b in zip(lam_res[:-1], lam_res[1:])]
    inv_orders = [math.log2(a / b) for a, b in zip(inv_res[:-1], inv_res[1:])]
    ok = all(o >= 1.9 for o in lam_orders + inv_orders)
    _report(3, ok, f"wave-op-on-lambda orders={[f'{o:.2f}' for o in lam_orders]} "
                   f"inverse-identity orders={[f'{o:.2f}' for o in inv_orders]} (floor 1.9)")


def test_criterion_04_frequency_sign(sm192):
    # the window is the grid's lag range: 209 samples at dt = 0.025 give the minimal window 40/m
    grid = 0.025 * np.arange(209)
    kernels = {kind: make_propagator(sm192, kind, grid) for kind in ("lambda_plus", "lambda_minus")}
    worst = 0.0
    for kernel in kernels.values():
        res = frequency_sign_test(kernel, sm192.m_floor_sqrt)
        worst = max(worst, res["forbidden_fraction"])
    bad = frequency_sign_test(kernels["lambda_plus"].mutated(0.01), sm192.m_floor_sqrt)
    ratio = bad["forbidden_fraction"] / 1e-6
    ok = worst <= 1e-6 and ratio >= 1e3
    _report(4, ok, f"forbidden_mass={worst:.2e} (tol 1e-6), "
                   f"mutation_ratio={ratio:.1f}x (floor 1000x)")


def test_criterion_05_time_slice(sm192):
    res, order, prediction = time_slice_residuals(sm192, 1234, *_plan(RunConfig(), sm192).time_slice)
    bound = max(5.0 * prediction, 1e-15)
    ok = order >= 1.9 and res[2] <= bound
    _report(5, ok, f"residuals={[f'{r:.2e}' for r in res]} order={order:.2f} "
                   f"finest<=5x prediction ({res[2]:.2e} vs {bound:.2e})")


def test_criterion_06_indicial_suite(sm192):
    model = make_toy_model("ads2_strip", nu=2.5, L=1.0)
    root = indicial_polynomial(model, model.nu_plus)
    slopes = [build_series(model, w0=1.0, K=k, sigma=1.3).residual_slope
              for k in range(5)]
    gain = (slopes[4] - slopes[0]) / 4.0

    L = sm192.model.L
    expo_err = abs(mellin_exponent_probe(sm192, (L / 400.0, L / 20.0)) - 1.5)
    ok = root == 0.0 and gain >= 0.9 and expo_err <= 1e-2
    _report(6, ok, f"indicial_root={root} slope_gain/order={gain:.2f} (floor 0.9) "
                   f"exponent_err={expo_err:.2e} (tol 1e-2)")


def test_criterion_07_wavepacket_vs_gbb(sm192):
    t0 = time.perf_counter()
    configs = [(0.5, -40.0, 1.3), (0.35, 40.0, 1.1), (0.65, -45.0, 1.2)]
    sigma = 0.1
    worst = 0.0
    statuses = []
    for x0, xi0, t_max in configs:
        w = make_wavepacket(sm192, x0=x0, xi0=xi0, sigma=sigma)
        track = evolve_and_track(sm192, w, t_max=t_max, dt=0.005)
        statuses.append(track.status)
        ref = gbb_reference(sm192.model, x0, xi0, track.times, clip=track.window_floor)
        worst = max(worst, float(np.max(np.abs(track.centroid - ref))))
        if (x0, xi0) == (0.5, -40.0):
            after = (track.times > x0) & (track.centroid >= x0)
            t_return = float(track.times[np.argmax(after)])
            return_err = abs(t_return - 2.0 * x0)
    elapsed = time.perf_counter() - t0
    ok = all(s == "ok" for s in statuses) and worst <= sigma \
        and return_err <= 2.0 * sigma and elapsed <= 120.0
    _report(7, ok, f"max|centroid-ray|={worst:.3f} (tol sigma={sigma}), "
                   f"reflection_time_err={return_err:.3f} (tol {2 * sigma}), "
                   f"statuses={statuses}, elapsed={elapsed:.1f}s (limit 120s)")


def test_criterion_08_boundary_kernel(sm192, tgrid):
    lp = make_propagator(sm192, "lambda_plus", tgrid)
    bk = boundary_two_point(lp, sm192.model)
    want = np.array(line_weights_mp(1.0, 1.0, 5))
    rel = float(np.max(np.abs(bk.weights[:5] - want) / want))
    eig = np.linalg.eigvalsh(boundary_gram(bk))
    psd_ok = bool(eig.min() >= -1e-10 * eig.max())
    fs = frequency_sign_test(bk, sm192.m_floor_sqrt)
    ok = rel <= 1e-2 and psd_ok and fs["forbidden_fraction"] <= 1e-6
    _report(8, ok, f"weight_rel_err={rel:.2e} (tol 1e-2), gram_min_eig={eig.min():.2e}, "
                   f"forbidden_mass={fs['forbidden_fraction']:.2e} (tol 1e-6)")


def test_criterion_09_state_pair(zoo, sm192):
    beta = 5.0 / sm192.m_floor_sqrt
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    off_a = off_pattern(kernel_wavefront_scan(pair.lp_b, 6.5, 3), pair.lp_b)
    off_b = off_pattern(kernel_wavefront_scan(pair.lm_b, 6.5, 3), pair.lm_b)
    order = smoothness_decay_order(pair.difference())
    ok = off_a <= 1e-4 and off_b <= 1e-4 and order >= 6.0
    _report(9, ok, f"scan_off_pattern=({off_a:.2e},{off_b:.2e}) (tol 1e-4), "
                   f"difference_decay_order={order:.2f} (floor 6)")


def test_criterion_10_feynman_structure(zoo):
    ident = feynman_consistency(zoo["lambda_plus"], zoo["lambda_minus"],
                                zoo["retarded"], zoo["advanced"])
    rows = kernel_wavefront_scan(zoo["feynman"], 5.0, 4)
    off = off_pattern(rows, zoo["feynman"], band=10.0)
    ok = ident <= 1e-12 and off <= 1e-5
    _report(10, ok, f"consistency={ident:.2e} (tol 1e-12), "
                    f"off_pattern={off:.2e} outside band (tol 1e-5)")


def test_criterion_11_verify_deterministic(verify_run, tmp_path):
    code, report_bytes, elapsed = verify_run
    rerun_dir = tmp_path / "rerun"
    code2 = main(["verify", "--out-dir", str(rerun_dir)])
    rerun_bytes = (rerun_dir / "report.json").read_bytes()
    report = json.loads(report_bytes)
    ok = code == 0 and code2 == 0 and elapsed <= 600.0 \
        and rerun_bytes == report_bytes and report["pass"] is True
    _report(11, ok, f"exit={code} checks={report['n_checks']} "
                    f"failed={report['n_failed']} elapsed={elapsed:.1f}s (limit 600s) "
                    f"rerun_identical={rerun_bytes == report_bytes}")
