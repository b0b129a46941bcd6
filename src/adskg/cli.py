"""Command-line entry point: subcommands, config handling, verify report.

The module top imports only the standard library so that thread-count
environment variables (ADSKG_THREADS or --threads) can be exported before
numpy first loads; the numerical modules are imported inside the handlers.

Exit codes: 0 all requested checks pass, 1 a numerical check failed,
2 usage or configuration error (bad flags, unparseable config, parameters
outside the supported regime).

The verify report is deterministic by construction: fixed check order, a
seeded generator for every randomized probe, shortest round-trip float
serialization, and no timestamps or environment capture.  Re-running with
the same config and seed must produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _export_threads(argv: list[str]) -> None:
    """Export thread-count env vars before numpy is imported anywhere."""
    n = os.environ.get("ADSKG_THREADS")
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif a.startswith("--threads="):
            n = a.split("=", 1)[1]
    if n is None:
        return
    if not n.isdigit() or int(n) < 1:
        raise SystemExit(f"--threads expects a positive integer, got {n!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, n)


def _default_tolerances() -> dict:
    return {
        "algebra": 1e-12,
        "psd": 1e-10,
        "freq_mass": 1e-6,
        "mutation_ratio": 1e3,
        "eig_rel": 1e-3,
        "eig_exact": 1e-6,
        "symbol_drift": 1e-8,
        "gain_per_order": 0.9,
        "exponent": 1e-2,
        "weights_rel": 1e-2,
        "scan_vacuum": 1e-6,
        "scan_state": 1e-4,
        "scan_feynman": 1e-5,
        "smooth_order": 6.0,
        "time_slice_factor": 5.0,
    }


@dataclass
class RunConfig:
    """Everything a verify run depends on.

    The model block follows the geometry loader's schema; numerics fix the
    discretization and the shared kernel time grid; the seed drives every
    randomized probe so reports are reproducible byte for byte.
    """

    model: dict = field(default_factory=lambda: {"kind": "ads2_strip", "nu": 1.0, "L": 1.0})
    N: int = 192
    n_modes: int = 32
    m_max: int = 0
    T: int = 768
    dt: float = 0.025
    gamma: float = 2.0
    tolerances: dict = field(default_factory=_default_tolerances)
    out_dir: str = "."
    seed: int = 1234
    inject_sign_flip: bool = False

    def validate(self) -> None:
        for name, val in self.tolerances.items():
            if not (isinstance(val, (int, float)) and val > 0.0):
                raise ValueError(f"tolerance {name!r} must be positive, got {val!r}")
        if self.T < 32:
            raise ValueError("T must be at least 32")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_sources(cls, path: str | None, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if path is not None:
            with open(path) as fh:
                raw = json.load(fh)
            known = {f for f in cls.__dataclass_fields__}
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            if "tolerances" in raw:
                tols = _default_tolerances()
                tols.update(raw.pop("tolerances"))
                raw["tolerances"] = tols
            cfg = replace(cfg, **raw)
        for name in ("N", "n_modes", "m_max", "T", "seed"):
            val = getattr(args, name.replace("-", "_"), None)
            if val is not None:
                cfg = replace(cfg, **{name: int(val)})
        if getattr(args, "dt", None) is not None:
            cfg = replace(cfg, dt=float(args.dt))
        if getattr(args, "nu", None) is not None:
            cfg.model = dict(cfg.model, nu=float(args.nu))
        if getattr(args, "L", None) is not None:
            cfg.model = dict(cfg.model, L=float(args.L))
        if getattr(args, "out_dir", None) is not None:
            cfg = replace(cfg, out_dir=args.out_dir)
        if getattr(args, "inject_sign_flip", False):
            cfg = replace(cfg, inject_sign_flip=True)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# blob helpers


def _save_kernel(kernel, path: str) -> None:
    from . import binio
    from .spectral import save_spectral

    save_spectral(kernel.spectral, path)
    meta, arrays = binio.read_blob(path)
    meta["payload"] = "kernel"
    meta["kernel"] = {"kind": kernel.kind, "weighting": kernel.weighting, "m": kernel.m}
    arrays["t_grid"] = kernel.t_grid
    arrays["signs"] = kernel.signs
    binio.write_blob(path, meta, arrays)


def _load_kernel(path: str):
    from . import binio
    from .propagators import BiKernel
    from .spectral import load_spectral

    meta, arrays = binio.read_blob(path)
    if meta.get("payload") != "kernel":
        raise ValueError(f"{path}: blob does not hold a kernel")
    sm = load_spectral(path)
    kmeta = meta["kernel"]
    return BiKernel(
        spectral=sm,
        kind=kmeta["kind"],
        t_grid=arrays["t_grid"],
        weighting=kmeta["weighting"],
        m=int(kmeta["m"]),
        signs=arrays["signs"],
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_trace_gbb(args) -> int:
    from . import binio
    from .bchar import PhasePointB, trace_gbb
    from .geometry import load_model

    model = load_model(_model_cfg(args))
    p0 = PhasePointB(
        x=args.x0, t=args.t0, tau=args.tau, xi=args.xi0, y=args.y0, zeta=args.zeta0
    )
    path = trace_gbb(model, p0, t_max=args.tmax, step=args.step)
    binio.write_csv(
        args.out,
        ["s", "t", "x", "y", "xi_bar", "xi", "zeta", "tau", "segment_id", "event"],
        path.to_rows(),
    )
    print(
        json.dumps(
            {
                "out": args.out,
                "segments": len(path.segments),
                "reflections": len(path.reflections),
                "energy_sign": path.energy_sign,
                "symbol_drift": path.symbol_drift,
            }
        )
    )
    return EXIT_PASS


def _cmd_build_spectral(args) -> int:
    from .geometry import load_model
    from .spectral import build_spectral, save_spectral

    model = load_model(_model_cfg(args))
    sm = build_spectral(model, N=args.N, m_max=args.m_max, n_modes=args.n_modes, gamma=args.gamma)
    save_spectral(sm, args.out)
    print(json.dumps({"out": args.out, **sm.describe()}))
    return EXIT_PASS


def _cmd_kernels(args) -> int:
    import numpy as np

    from .propagators import make_propagator
    from .spectral import load_spectral

    sm = load_spectral(args.model_bin)
    t_grid = args.t0 + args.dt * np.arange(args.T)
    kernel = make_propagator(sm, args.kind, t_grid, weighting=args.weighting, m=args.m)
    _save_kernel(kernel, args.out)
    print(json.dumps({"out": args.out, **kernel.describe()}))
    return EXIT_PASS


def _cmd_wavepacket(args) -> int:
    import numpy as np

    from . import binio
    from .microlocal import evolve_and_track, gbb_reference, make_wavepacket
    from .spectral import load_spectral

    sm = load_spectral(args.model_bin)
    w = make_wavepacket(sm, x0=args.x0, xi0=args.xi0, sigma=args.sigma, sign=args.sign)
    track = evolve_and_track(sm, w, t_max=args.tmax, dt=args.dt)
    gx = gbb_reference(sm.model, args.x0, args.xi0, track.times, clip=track.window_floor)
    dev = np.abs(track.centroid - gx)
    rows = list(zip(track.times, track.centroid, track.spread, gx, dev))
    binio.write_csv(args.out, ["t", "centroid", "spread", "gbb_x", "deviation"], rows)
    print(
        json.dumps(
            {
                "out": args.out,
                "status": track.status,
                "max_deviation": float(dev.max()),
                "width": args.sigma,
                "tail": w.tail,
            }
        )
    )
    return EXIT_PASS


def _cmd_wf_scan(args) -> int:
    from . import binio
    from .microlocal import WindowSpec, kernel_wavefront_scan

    kernel = _load_kernel(args.kernel_bin)
    rows = kernel_wavefront_scan(kernel, WindowSpec(length=args.window, n_centers=args.centers))
    binio.write_csv(
        args.out,
        ["t", "s", "sign_content_plus", "sign_content_minus", "cross"],
        [(r.t, r.s, r.sign_content_plus, r.sign_content_minus, r.cross) for r in rows],
    )
    print(json.dumps({"out": args.out, "windows": len(rows), "kind": kernel.kind}))
    return EXIT_PASS


def _cmd_boundary_2pt(args) -> int:
    import numpy as np

    from . import binio
    from .holography import boundary_two_point
    from .propagators import make_propagator
    from .spectral import load_spectral

    sm = load_spectral(args.model_bin)
    t_grid = args.dt * np.arange(args.T)
    lp = make_propagator(sm, "lambda_plus", t_grid, weighting="physical")
    window = (args.fit_lo, args.fit_hi) if args.fit_lo is not None else None
    bk = boundary_two_point(lp, sm.model, fit_window=window)
    rows = [
        (k + 1, float(bk.omega[k]), float(bk.amplitudes[k]), float(bk.weights[k]), float(bk.fit_quality[k]))
        for k in range(bk.omega.size)
    ]
    binio.write_csv(args.out, ["mode", "omega", "amplitude", "weight", "fit_quality"], rows)
    print(json.dumps({"out": args.out, "kind": bk.kind, "modes": len(rows)}))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


def _record(checks: list, name: str, identity: str, value: float, tol: float, ok: bool) -> None:
    checks.append(
        {
            "check": name,
            "identity": identity,
            "value": float(value),
            "tolerance": float(tol),
            "pass": bool(ok),
        }
    )


def _leq(checks: list, name: str, identity: str, value: float, tol: float) -> None:
    _record(checks, name, identity, value, tol, value <= tol)


def _geq(checks: list, name: str, identity: str, value: float, tol: float) -> None:
    _record(checks, name, identity, value, tol, value >= tol)


def _time_slice_suite(sm, seed: int, m: int = 0):
    """Residuals of G [P, chi] u = u at three time steps (4h, 2h, h).

    Returns (residuals, order, prediction): the convergence order is fitted
    from the two coarse runs and extrapolated to the finest step, so the
    finest residual can be judged against an independent prediction.
    """
    import numpy as np

    from .propagators import TimeCutoff, make_propagator, time_slice_check

    rng = np.random.default_rng(seed)
    br = sm.branch(m)
    n_sel = min(10, br.omega.size)
    sel = np.sort(rng.choice(br.omega.size, size=n_sel, replace=False))
    amp = rng.standard_normal(n_sel)
    amp /= np.linalg.norm(amp)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_sel)

    base_dt = 1e-3
    span = 0.256
    res = []
    for level in (4, 2, 1):
        dt = base_dt * level
        t = dt * np.arange(int(round(span / dt)) + 1)
        coef = np.zeros((t.size, br.omega.size))
        coef[:, sel] = amp[None, :] * np.cos(br.omega[sel][None, :] * t[:, None] + phase[None, :])
        u = sm.synthesize(coef, m=m)
        g = make_propagator(sm, "causal", t, weighting="tilde", m=m)
        chi = TimeCutoff(t0=0.2 * span, t1=0.4 * span)
        res.append(time_slice_check(g, sm, chi, u))
    order = math.log2(res[0] / res[1]) if res[1] > 0.0 else math.inf
    prediction = res[1] / 2.0**order if math.isfinite(order) else 0.0
    return res, order, prediction


def run_verify(config: RunConfig) -> tuple[int, dict]:
    """Execute the ordered check suite and assemble the JSON report."""
    import numpy as np

    from .bchar import make_null_point, reflect, trace_gbb
    from .bessel import toy_frequencies, toy_line_weights
    from .geometry import conformal_symbol, load_model, make_toy_model
    from .holography import (
        boundary_two_point,
        build_series,
        extract_boundary,
        indicial_polynomial,
        mellin_exponent_probe,
    )
    from .microlocal import (
        WindowSpec,
        kernel_wavefront_scan,
        make_perturbed_state,
        make_wavepacket,
        evolve_and_track,
        gbb_reference,
        off_pattern,
        smoothness_decay_order,
    )
    from .propagators import (
        adjoint_check,
        feynman_consistency,
        frequency_sign_test,
        make_feynman,
        make_propagator,
        support_check,
        verify_two_point,
    )
    from .spectral import bessel_collocation_eigs, build_spectral

    tol = config.tolerances
    checks: list[dict] = []
    model = load_model(config.model)
    is_toy_ads2 = model.kind == "ads2_strip"

    # -- geometry ------------------------------------------------------------
    _leq(
        checks,
        "indicial_sum",
        "nu_plus + nu_minus = n - 1",
        abs(model.nu_plus + model.nu_minus - (model.n - 1)),
        1e-14 * max(1.0, model.n - 1.0),
    )
    _leq(
        checks,
        "indicial_gap",
        "nu_plus - nu_minus = 2 nu",
        abs(model.nu_plus - model.nu_minus - 2.0 * model.nu),
        1e-14 * max(1.0, 2.0 * model.nu),
    )
    x0a = np.asarray([0.0])
    _leq(
        checks,
        "even_warp_slope",
        "beta' (0) = k'(0) = 0",
        abs(float(model.dbeta(x0a)[0])) + abs(float(model.dk(x0a)[0])),
        1e-12,
    )
    pt = make_null_point(model, x=0.5 * model.L, tau=1.0)
    _leq(
        checks,
        "null_point_symbol",
        "p(x, xi, zeta, tau) = 0 on the characteristic set",
        abs(conformal_symbol(model, pt)),
        1e-13,
    )

    # -- broken bicharacteristics ---------------------------------------------
    p0 = make_null_point(model, x=0.4 * model.L, tau=2.0)
    path = trace_gbb(model, p0, t_max=2.4 * model.L, step=2e-3)
    _leq(checks, "gbb_symbol_drift", "p = 0 along Hamilton arcs", path.symbol_drift, tol["symbol_drift"] * 4.0)
    _geq(checks, "gbb_reflections", "maximal GBBs reflect at the walls", float(len(path.reflections)), 1.0)
    xi_flip = max((abs(ev.xi_out + ev.xi_in) for ev in path.reflections), default=math.inf)
    _leq(checks, "gbb_reflection_law", "xi -> -xi, tangential data fixed", xi_flip, 0.0)
    tang = 0.0
    for i, ev in enumerate(path.reflections):
        pre = path.segments[i].data[-1]
        post = path.segments[i + 1].data[0] if i + 1 < len(path.segments) else ev.point.as_array()
        tang = max(tang, abs(pre[2] - post[2]), abs(pre[5] - post[5]), abs(pre[4] - post[4]))
    _leq(checks, "gbb_tangential_continuity", "(t, zeta, tau) continuous at reflection", tang, 0.0)

    # -- spectral ---------------------------------------------------------------
    sm = build_spectral(model, N=config.N, m_max=config.m_max, n_modes=config.n_modes, gamma=config.gamma)
    if model.kind in ("ads2_strip", "ads3_cylinder"):
        n_cmp = min(10, config.n_modes)
        oracle = toy_frequencies(model, n_cmp)
        rel = float(np.max(np.abs(np.sqrt(sm.branch(0).omega2[:n_cmp]) - oracle) / oracle))
        _leq(checks, "eigenvalue_oracle", "omega_k = j_{nu,k} / L (toy line)", rel, tol["eig_rel"])
        coll = bessel_collocation_eigs(model, n_basis=24, n_modes=4)
        rel_c = float(np.max(np.abs(np.sqrt(coll) - oracle[:4]) / oracle[:4]))
        _leq(checks, "collocation_oracle", "independent basis reproduces the line", rel_c, 1e-8)
    if is_toy_ads2:
        half = make_toy_model("ads2_strip", nu=0.5, L=model.L)
        sm_half = build_spectral(half, N=max(128, config.N), n_modes=8)
        kpi = (np.arange(1, 5) * math.pi / model.L) ** 2
        rel_h = float(np.max(np.abs(sm_half.branch(0).omega2[:4] - kpi) / kpi))
        _leq(checks, "eigenvalue_exact_half", "nu = 1/2 line is (k pi / L)^2", rel_h, tol["eig_exact"])
    w1sq = float(sm.branch(0).omega2[0])
    floor_gap = (w1sq - sm.m2_floor) / w1sq
    _record(
        checks,
        "spectral_floor",
        "0 < m2_floor <= omega_1^2",
        floor_gap,
        2e-6,
        0.0 < floor_gap <= 2e-6,
    )

    # -- propagator algebra -----------------------------------------------------
    t_grid = config.dt * np.arange(config.T)
    lp = make_propagator(sm, "lambda_plus", t_grid, weighting="tilde")
    lm = make_propagator(sm, "lambda_minus", t_grid, weighting="tilde")
    g = make_propagator(sm, "causal", t_grid, weighting="tilde")
    ret = make_propagator(sm, "retarded", t_grid, weighting="tilde")
    adv = make_propagator(sm, "advanced", t_grid, weighting="tilde")
    rep = verify_two_point(lp, lm, g)
    for name in ("wave_op_on_lambda", "commutator_identity", "hermiticity", "psd_lambda_plus", "psd_lambda_minus"):
        rec = rep[name]
        _record(checks, name, rec["identity"], rec["value"], rec["tol"], rec["pass"])
    _leq(checks, "support_retarded", "retarded kernel vanishes for t <= s", support_check(ret), 0.0)
    _leq(checks, "adjoint_pair", "retarded(s,t)^T = advanced(t,s)", adjoint_check(ret, adv), tol["algebra"])
    _leq(
        checks,
        "feynman_consistency",
        "(1/i) Lambda_plus + advanced = (1/i) Lambda_minus + retarded",
        feynman_consistency(lp, lm, ret, adv),
        tol["algebra"],
    )

    lp_freq = lp.mutated(0.01) if config.inject_sign_flip else lp
    fs_p = frequency_sign_test(lp_freq, sm.m_floor_sqrt)
    _leq(checks, "frequency_sign_plus", fs_p["identity"], fs_p["forbidden_fraction"], tol["freq_mass"])
    fs_m = frequency_sign_test(lm, sm.m_floor_sqrt)
    _leq(checks, "frequency_sign_minus", fs_m["identity"], fs_m["forbidden_fraction"], tol["freq_mass"])
    fs_mut = frequency_sign_test(lp.mutated(0.01), sm.m_floor_sqrt)
    _geq(
        checks,
        "frequency_sign_mutation",
        "1% flipped modes must fail the one-sided test",
        fs_mut["forbidden_fraction"] / tol["freq_mass"],
        tol["mutation_ratio"],
    )

    res, order, prediction = _time_slice_suite(sm, config.seed)
    _geq(checks, "time_slice_order", "G [P, chi] u - u shrinks at stencil order", order, 1.9)
    _leq(
        checks,
        "time_slice_residual",
        "G [P, chi] u = u (interior of the cutoff window)",
        res[2],
        max(tol["time_slice_factor"] * prediction, 1e-15),
    )

    # -- indicial / boundary ------------------------------------------------------
    _leq(
        checks,
        "indicial_roots_annihilated",
        "c_alpha = 0 at alpha = nu_minus, nu_plus",
        abs(indicial_polynomial(model, model.nu_plus)) + abs(indicial_polynomial(model, model.nu_minus)),
        0.0,
    )
    _leq(
        checks,
        "indicial_midpoint",
        "c at the midpoint of the roots equals nu^2",
        abs(indicial_polynomial(model, 0.5 * (model.nu_plus + model.nu_minus)) - model.nu**2),
        1e-13 * max(1.0, model.nu**2),
    )
    series_model = model if abs(2.0 * model.nu - round(2.0 * model.nu)) > 1e-9 or 2.0 * model.nu > 4 else make_toy_model(
        "ads2_strip", nu=2.5, L=model.L
    )
    slopes = {}
    for K in (0, 2, 4):
        s = build_series(series_model, w0=1.0, K=K, sigma=1.3)
        slopes[K] = s.residual_slope
    gain = (slopes[4] - slopes[0]) / 4.0
    _geq(checks, "series_order_gain", "each series order gains one residual power", gain, tol["gain_per_order"])
    try:
        build_series(make_toy_model("ads2_strip", nu=1.0, L=model.L), w0=1.0, K=2)
        refused = 0.0
    except ValueError:
        refused = 1.0
    _geq(checks, "series_resonance_refusal", "integer 2 nu <= K must be refused", refused, 1.0)

    phi1 = sm.branch(0).phi[:, 0]
    alpha_hat, r2 = mellin_exponent_probe(phi1, model, x=sm.grid.dof_x)
    _leq(
        checks,
        "mode_boundary_exponent",
        "eigenmodes carry the x^(nu + 1/2) branch",
        abs(alpha_hat - (model.nu + 0.5)),
        tol["exponent"],
    )
    if is_toy_ads2:
        from .bessel import toy_boundary_amplitudes

        fit = extract_boundary(
            sm.weight_left * phi1, model, fit_window=(model.L / 400.0, model.L / 12.0), x=sm.grid.dof_x, weighting="physical"
        )
        c_oracle = toy_boundary_amplitudes(model, 1)[0]
        _leq(
            checks,
            "boundary_amplitude_mode1",
            "weighted restriction matches the line amplitude",
            abs(abs(float(np.real(fit.value))) - c_oracle) / c_oracle,
            tol["weights_rel"],
        )
        lp_phys = make_propagator(sm, "lambda_plus", t_grid, weighting="physical")
        bk = boundary_two_point(lp_phys, model)
        w_oracle = toy_line_weights(model, 5)
        rel_w = float(np.max(np.abs(bk.weights[:5] - w_oracle) / w_oracle))
        _leq(checks, "boundary_weights_oracle", "line weights c_k^2/(2 omega_k)", rel_w, tol["weights_rel"])
        gram = bk.gram()
        evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
        _geq(
            checks,
            "boundary_psd",
            "(f | k_plus f) >= 0",
            float(evals[0]),
            -tol["psd"] * float(np.max(np.abs(evals))),
        )
        fs_b = frequency_sign_test(bk, sm.m_floor_sqrt)
        _leq(checks, "boundary_one_sided", fs_b["identity"], fs_b["forbidden_fraction"], tol["freq_mass"])

    # -- wavepacket / GBB ----------------------------------------------------------
    sigma, xi0, x0 = 0.1 * model.L, -40.0 / model.L, 0.5 * model.L
    packet = make_wavepacket(sm, x0=x0, xi0=xi0, sigma=sigma)
    mom_ratio = max(packet.x_var / (2.0 * sigma**2), packet.xi_var / (2.0 / sigma**2))
    _leq(checks, "packet_moments", "second moments within 2 sigma^2 and 2/sigma^2", mom_ratio, 1.0)
    track = evolve_and_track(sm, packet, t_max=1.3 * model.L, dt=0.005 * model.L)
    gx = gbb_reference(model, x0, xi0, track.times, clip=track.window_floor)
    dev = float(np.max(np.abs(track.centroid - gx)))
    ok_dev = dev <= sigma and track.status == "ok"
    _record(checks, "packet_follows_gbb", "centroid tracks the reflected ray", dev / sigma, 1.0, ok_dev)
    after = track.times > 1.2 * x0
    t_back = float(track.times[after][np.argmin(np.abs(track.centroid[after] - x0))])
    _leq(checks, "packet_reflection_time", "round trip takes 2 x0 / speed", abs(t_back - 2.0 * x0), 2.0 * sigma)

    # -- state pair / scans -----------------------------------------------------------
    scan_len = 6.5 * model.L
    spec_scan = WindowSpec(length=scan_len, n_centers=3)
    _leq(
        checks,
        "scan_vacuum_plus",
        "vacuum kernel mass sits in one sign quadrant",
        off_pattern(kernel_wavefront_scan(lp, spec_scan), lp),
        tol["scan_vacuum"],
    )
    _geq(
        checks,
        "scan_mutation",
        "1% flipped modes must fail the quadrant scan",
        off_pattern(kernel_wavefront_scan(lp.mutated(0.01), spec_scan), lp) / tol["scan_state"],
        tol["mutation_ratio"],
    )
    pair = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm.m_floor_sqrt})
    off_b = max(
        off_pattern(kernel_wavefront_scan(pair.lp_b, spec_scan), pair.lp_b),
        off_pattern(kernel_wavefront_scan(pair.lm_b, spec_scan), pair.lm_b),
    )
    _leq(checks, "scan_thermal_state", "perturbed state stays Hadamard-graded", off_b, tol["scan_state"])
    rep_b = verify_two_point(pair.lp_b, pair.lm_b, g)
    for name in ("wave_op_on_lambda", "commutator_identity", "psd_lambda_plus", "psd_lambda_minus"):
        rec = rep_b[name]
        _record(checks, f"state_{name}", rec["identity"], rec["value"], rec["tol"], rec["pass"])
    diff = pair.difference()
    taus = config.dt * np.arange(0, config.T, 7)
    d_num = pair.lp_b.trace_series(taus) - pair.lp_a.trace_series(taus)
    d_ana = diff.trace_series(taus)
    _leq(
        checks,
        "difference_coefficients",
        "state difference is the injected mode sum",
        float(np.max(np.abs(d_num - d_ana))),
        1e-13 * float(np.max(np.abs(d_ana)) + 1.0),
    )
    _geq(
        checks,
        "difference_smoothness",
        "difference kernel decays superpolynomially in frequency",
        smoothness_decay_order(diff),
        tol["smooth_order"],
    )
    feyn, _ = make_feynman(lp, lm, ret, adv)
    spec_f = WindowSpec(length=5.0 * model.L, n_centers=4)
    _leq(
        checks,
        "scan_feynman_flip",
        "time-ordered pattern flips across t = s",
        off_pattern(kernel_wavefront_scan(feyn, spec_f), feyn, band=2.0 * spec_f.length),
        tol["scan_feynman"],
    )

    n_failed = sum(1 for c in checks if not c["pass"])
    report = {
        "config": {
            "model": config.model,
            "N": config.N,
            "n_modes": config.n_modes,
            "m_max": config.m_max,
            "T": config.T,
            "dt": config.dt,
            "gamma": config.gamma,
            "seed": config.seed,
            "inject_sign_flip": config.inject_sign_flip,
            "tolerances": config.tolerances,
        },
        "n_checks": len(checks),
        "n_failed": n_failed,
        "pass": n_failed == 0,
        "checks": checks,
    }
    return (EXIT_PASS if n_failed == 0 else EXIT_FAIL), report


def _cmd_verify(args) -> int:
    try:
        config = RunConfig.from_sources(args.config, args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report = run_verify(config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = json.dumps(report, indent=2)
    out_path = args.out
    if out_path is None:
        os.makedirs(config.out_dir, exist_ok=True)
        out_path = os.path.join(config.out_dir, "report.json")
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
    if args.csv is not None:
        from . import binio

        binio.write_csv(
            args.csv,
            ["check", "identity", "value", "tolerance", "pass"],
            [[c["check"], c["identity"], c["value"], c["tolerance"], int(c["pass"])] for c in report["checks"]],
        )
    for c in report["checks"]:
        mark = "ok  " if c["pass"] else "FAIL"
        print(f"{mark} {c['check']}: value={c['value']:.6e} tol={c['tolerance']:.6e}", file=sys.stderr)
    print(f"report: {out_path} ({report['n_checks']} checks, {report['n_failed']} failed)", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# parser


def _model_cfg(args) -> dict:
    if getattr(args, "model_json", None):
        return args.model_json
    cfg = {"kind": args.model, "nu": args.nu, "L": args.L}
    if getattr(args, "ell", None) is not None:
        cfg["ell"] = args.ell
    return cfg


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="ads2_strip", help="ads2_strip | ads3_cylinder | custom (config file)")
    p.add_argument("--model-json", default=None, help="JSON model config file (overrides the flags)")
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--ell", type=float, default=None, help="transverse circumference (n = 3)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="adskg", description="Warped-slab wave kernels: build, probe, verify.")
    ap.add_argument("--threads", type=int, default=None, help="thread count (also: ADSKG_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace-gbb", help="integrate a broken bicharacteristic to CSV")
    _add_model_flags(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--xi0", type=float, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=None)
    p.add_argument("--zeta0", type=float, default=None)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_trace_gbb)

    p = sub.add_parser("build-spectral", help="discretize, diagonalize, save a model blob")
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=192)
    p.add_argument("--n-modes", dest="n_modes", type=int, default=16)
    p.add_argument("--m-max", dest="m_max", type=int, default=0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_spectral)

    p = sub.add_parser("kernels", help="build a propagator kernel blob from a model blob")
    p.add_argument("--model-bin", required=True)
    p.add_argument("--kind", required=True, help="kernel kind (propagators.KINDS)")
    p.add_argument("--T", type=int, default=256)
    p.add_argument("--dt", type=float, default=0.025)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--weighting", default="tilde", choices=["tilde", "physical"])
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("wavepacket", help="evolve a packet and compare against the ray")
    p.add_argument("--model-bin", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--xi0", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--sign", type=int, default=1, choices=[1, -1])
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--dt", type=float, default=5e-3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wavepacket)

    p = sub.add_parser("wf-scan", help="windowed quadrant scan of a kernel blob")
    p.add_argument("--kernel-bin", required=True)
    p.add_argument("--window", type=float, required=True, help="window length in time units")
    p.add_argument("--centers", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wf_scan)

    p = sub.add_parser("boundary-2pt", help="boundary two-point lines from a model blob")
    p.add_argument("--model-bin", required=True)
    p.add_argument("--T", type=int, default=256)
    p.add_argument("--dt", type=float, default=0.025)
    p.add_argument("--fit-lo", dest="fit_lo", type=float, default=None)
    p.add_argument("--fit-hi", dest="fit_hi", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_boundary_2pt)

    p = sub.add_parser("verify", help="run the full ordered check suite")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n-modes", dest="n_modes", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--out", default=None, help="report path (default: out_dir/report.json)")
    p.add_argument("--csv", default=None, help="also write the check table as CSV")
    p.add_argument("--inject-sign-flip", action="store_true", help="fault injection: flip 1%% of mode signs")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _export_threads(argv)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
