"""Command-line entry point: subcommands, config handling, verify report.

The module top imports only the standard library so that thread-count
environment variables (ADSKG_THREADS or --threads) can be exported before
numpy first loads; the numerical modules are imported inside the handlers.

Exit codes: 0 all requested checks pass; 1 a numerical check failed, or a
numerical precondition failed inside a verify check (recorded against that
check, with its message); 2 usage or configuration error (bad flags,
unparseable config, a model or eigenbasis that cannot be built).

The verify report is deterministic by construction: fixed check order, a
seeded generator for every randomized probe, shortest round-trip float
serialization, and no timestamps or environment capture.  Re-running with
the same config and seed must produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, replace
from functools import cache

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
    discretization (the kernel time grid is worked out from L and the
    spectrum by ``run_verify``); the seed drives every randomized probe so
    reports are reproducible byte for byte.
    """

    model: dict = field(default_factory=lambda: {"kind": "ads2_strip", "nu": 1.0, "L": 1.0})
    N: int = 192
    n_modes: int = 32
    m_max: int = 0
    tolerances: dict = field(default_factory=_default_tolerances)
    out_dir: str = "."
    seed: int = 1234
    inject_sign_flip: bool = False

    def validate(self) -> None:
        for name, val in self.tolerances.items():
            if not (isinstance(val, (int, float)) and val > 0.0):
                raise ValueError(f"tolerance {name!r} must be positive, got {val!r}")
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
        for name in ("N", "n_modes", "m_max", "seed"):
            val = getattr(args, name, None)
            if val is not None:
                cfg = replace(cfg, **{name: int(val)})
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


def _time_slice_suite(sm, seed: int, m: int = 0):
    """Residuals of G [P, chi] u = u at three time steps (4h, 2h, h), h = L/1000.

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

    base_dt = 1e-3 * sm.model.L
    span = 0.256 * sm.model.L
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


def _tangential_jump(path) -> float:
    """Largest jump of (t, zeta, tau) across the reflections of a GBB."""
    jump = 0.0
    for i, ev in enumerate(path.reflections):
        pre = path.segments[i].data[-1]
        post = path.segments[i + 1].data[0] if i + 1 < len(path.segments) else ev.point.as_array()
        jump = max(jump, abs(pre[2] - post[2]), abs(pre[5] - post[5]), abs(pre[4] - post[4]))
    return jump


def _resonance_refused(model) -> float:
    """1.0 when the series builder refuses the resonant case 2 nu = 2 <= K."""
    from .geometry import make_toy_model
    from .holography import build_series

    try:
        build_series(make_toy_model("ads2_strip", nu=1.0, L=model.L), w0=1.0, K=2)
    except ValueError:
        return 1.0
    return 0.0


def run_verify(config: RunConfig) -> tuple[int, dict]:
    """Evaluate the ordered check table and assemble the JSON report.

    Each row is (name, identity, value, tolerance, passes): value and
    tolerance are thunks, evaluated in report order, and passes(value, tol)
    gives the verdict.  Identity texts, tolerances and comparisons live
    only here; the library functions the rows call return measurements.
    Objects that several rows share are built on first use by caches local
    to this call.  A ValueError or RuntimeError raised
    inside a row fails that row alone: its entry has null value and
    tolerance and the message under "error", and the next row runs.  The
    model and the eigenbasis are built before any row, so their errors
    reach the caller.
    """
    import numpy as np

    from .bchar import make_null_point, trace_gbb
    from .bessel import toy_boundary_amplitudes, toy_frequencies, toy_line_weights
    from .geometry import conformal_symbol, load_model, make_toy_model
    from .holography import boundary_two_point, build_series, extract_boundary, indicial_polynomial
    from .holography import mellin_exponent_probe
    from .microlocal import (
        WindowSpec,
        evolve_and_track,
        gbb_reference,
        kernel_wavefront_scan,
        make_perturbed_state,
        make_wavepacket,
        off_pattern,
        smoothness_decay_order,
    )
    from .propagators import (
        adjoint_check,
        feynman_consistency,
        frequency_sign_test,
        gram_eigenvalues,
        make_feynman,
        make_propagator,
        support_check,
        verify_two_point,
    )
    from .spectral import bessel_collocation_eigs, build_spectral

    tol = config.tolerances
    model = load_model(config.model)
    sm = build_spectral(model, N=config.N, m_max=config.m_max, n_modes=config.n_modes)
    L, nu = model.L, model.nu
    # kernel time grid: step 0.025 L, divided by the least integer that keeps
    # omega_max dt below pi; the span stays 19.2 L
    refine = math.floor(0.025 * L * float(sm.branch(0).omega[-1]) / math.pi) + 1
    dt, T = 0.025 * L / refine, 768 * refine
    t_grid = dt * np.arange(T)
    sigma, xi0, x0 = 0.1 * L, -40.0 / L, 0.5 * L
    n_cmp = min(10, config.n_modes)
    phi1 = sm.branch(0).phi[:, 0]
    le, ge = operator.le, operator.ge

    @cache
    def kernel(kind: str, weighting: str = "tilde"):
        return make_propagator(sm, kind, t_grid, weighting=weighting)

    @cache
    def mutant():
        return kernel("lambda_plus").mutated(0.01)

    @cache
    def feynman():
        return make_feynman(*map(kernel, ("lambda_plus", "lambda_minus", "retarded", "advanced")))[0]

    @cache
    def gbb():
        return trace_gbb(model, make_null_point(model, x=0.4 * L, tau=2.0), t_max=2.4 * L, step=2e-3 * L)

    @cache
    def oracle():
        return toy_frequencies(model, n_cmp)

    @cache
    def two_point():
        return verify_two_point(*map(kernel, ("lambda_plus", "lambda_minus", "causal")))

    @cache
    def time_slice():
        return _time_slice_suite(sm, config.seed)

    @cache
    def boundary():
        return boundary_two_point(kernel("lambda_plus", "physical"), model)

    @cache
    def packet():
        return make_wavepacket(sm, x0=x0, xi0=xi0, sigma=sigma)

    @cache
    def track():
        return evolve_and_track(sm, packet(), t_max=1.3 * L, dt=0.005 * L)

    @cache
    def pair():
        return make_perturbed_state(kernel("lambda_plus"), kernel("lambda_minus"), {"thermal": 5.0 / sm.m_floor_sqrt})

    @cache
    def state_two_point():
        return verify_two_point(pair().lp_b, pair().lm_b, kernel("causal"))

    @cache
    def difference_traces():
        taus = dt * np.arange(0, T, 7)
        return pair().lp_b.trace_series(taus) - pair().lp_a.trace_series(taus), pair().difference().trace_series(taus)

    def forbidden(k) -> float:
        return frequency_sign_test(k, sm.m_floor_sqrt)["forbidden_fraction"]

    def scan_off(k, ref=None, length: float = 6.5 * L, n_centers: int = 3, band: float | None = None) -> float:
        rows = kernel_wavefront_scan(k, WindowSpec(length=length, n_centers=n_centers))
        return off_pattern(rows, k if ref is None else ref, band=band)

    def rel_err(got, want) -> float:
        return float(np.max(np.abs(got - want) / want))

    def series_gain() -> float:
        resonant = abs(2.0 * nu - round(2.0 * nu)) <= 1e-9 and 2.0 * nu <= 4
        series_model = make_toy_model("ads2_strip", nu=2.5, L=L) if resonant else model
        slope = {K: build_series(series_model, w0=1.0, K=K, sigma=1.3).residual_slope for K in (0, 4)}
        return (slope[4] - slope[0]) / 4.0

    def half_line_error() -> float:
        sm_half = build_spectral(make_toy_model("ads2_strip", nu=0.5, L=L), N=max(128, config.N), n_modes=8)
        kpi = (np.arange(1, 5) * math.pi / L) ** 2
        return rel_err(sm_half.branch(0).omega2[:4], kpi)

    def amplitude_error() -> float:
        window = (L / 400.0, L / 12.0)
        fit = extract_boundary(sm.weight_left * phi1, model, fit_window=window, x=sm.grid.dof_x, weighting="physical")
        c_oracle = toy_boundary_amplitudes(model, 1)[0]
        return abs(abs(float(np.real(fit.value))) - c_oracle) / c_oracle

    def packet_deviation() -> float:
        tr = track()
        gx = gbb_reference(model, x0, xi0, tr.times, clip=tr.window_floor)
        return float(np.max(np.abs(tr.centroid - gx))) / sigma

    def reflection_time_error() -> float:
        tr = track()
        after = tr.times > 1.2 * x0
        t_back = float(tr.times[after][np.argmin(np.abs(tr.centroid[after] - x0))])
        return abs(t_back - 2.0 * x0)

    def psd(name: str, identity: str, evals) -> tuple:
        """Row of the PSD rule: least Gram eigenvalue >= -psd * max |eigenvalue|."""
        evals = cache(evals)  # a thunk of ascending eigenvalues, read by both thunks of the row
        return name, identity, lambda: evals()[0], lambda: -tol["psd"] * float(np.max(np.abs(evals()))), ge

    wave_op_identity, comm_identity = "P Lambda_pm = 0", "Lambda_plus - Lambda_minus = i G"
    psd_identity = "(f | Lambda_pm f) >= 0"
    sign_identity = "chi_mp(D_t) Lambda_pm = 0"
    rows = [
        # geometry
        ("indicial_sum", "nu_plus + nu_minus = n - 1",
         lambda: abs(model.nu_plus + model.nu_minus - (model.n - 1)), lambda: 1e-14 * max(1.0, model.n - 1.0), le),
        ("indicial_gap", "nu_plus - nu_minus = 2 nu",
         lambda: abs(model.nu_plus - model.nu_minus - 2.0 * nu), lambda: 1e-14 * max(1.0, 2.0 * nu), le),
        ("even_warp_slope", "beta' (0) = k'(0) = 0",
         lambda: abs(float(model.dbeta(np.zeros(1))[0])) + abs(float(model.dk(np.zeros(1))[0])), lambda: 1e-12, le),
        ("null_point_symbol", "p(x, xi, zeta, tau) = 0 on the characteristic set",
         lambda: abs(conformal_symbol(model, make_null_point(model, x=0.5 * L, tau=1.0))), lambda: 1e-13, le),
        # broken bicharacteristics
        ("gbb_symbol_drift", "p = 0 along Hamilton arcs",
         lambda: gbb().symbol_drift, lambda: tol["symbol_drift"] * 4.0, le),
        ("gbb_reflections", "maximal GBBs reflect at the walls", lambda: len(gbb().reflections), lambda: 1.0, ge),
        ("gbb_reflection_law", "xi -> -xi, tangential data fixed",
         lambda: max((abs(ev.xi_out + ev.xi_in) for ev in gbb().reflections), default=math.inf), lambda: 0.0, le),
        ("gbb_tangential_continuity", "(t, zeta, tau) continuous at reflection",
         lambda: _tangential_jump(gbb()), lambda: 0.0, le),
        # spectral
        *([
            ("eigenvalue_oracle", "omega_k = j_{nu,k} / L (toy line)",
             lambda: rel_err(np.sqrt(sm.branch(0).omega2[:n_cmp]), oracle()), lambda: tol["eig_rel"], le),
            ("collocation_oracle", "independent basis reproduces the line",
             lambda: rel_err(np.sqrt(bessel_collocation_eigs(model, n_basis=24, n_modes=4)), oracle()[:4]),
             lambda: 1e-8, le),
        ] if model.kind in ("ads2_strip", "ads3_cylinder") else []),
        *([
            ("eigenvalue_exact_half", "nu = 1/2 line is (k pi / L)^2", half_line_error, lambda: tol["eig_exact"], le),
        ] if model.kind == "ads2_strip" else []),
        ("spectral_floor", "0 < m2_floor <= omega_1^2",
         lambda: (sm.branch(0).omega2[0] - sm.m2_floor) / sm.branch(0).omega2[0], lambda: 2e-6,
         lambda v, t: 0.0 < v <= t),
        # propagator algebra
        ("wave_op_on_lambda", wave_op_identity,
         lambda: two_point()["wave_op"], lambda: two_point()["wave_op_bound"], le),
        ("commutator_identity", comm_identity,
         lambda: two_point()["commutator"], lambda: tol["algebra"], le),
        ("hermiticity", "Lambda_pm(t,s) = Lambda_pm(s,t)*",
         lambda: two_point()["hermiticity"], lambda: tol["algebra"], le),
        psd("psd_lambda_plus", psd_identity, lambda: two_point()["gram_plus"]),
        psd("psd_lambda_minus", psd_identity, lambda: two_point()["gram_minus"]),
        ("support_retarded", "retarded kernel vanishes for t <= s",
         lambda: support_check(kernel("retarded")), lambda: 0.0, le),
        ("adjoint_pair", "retarded(s,t)^T = advanced(t,s)",
         lambda: adjoint_check(kernel("retarded"), kernel("advanced")), lambda: tol["algebra"], le),
        ("feynman_consistency", "(1/i) Lambda_plus + advanced = (1/i) Lambda_minus + retarded",
         lambda: feynman_consistency(*map(kernel, ("lambda_plus", "lambda_minus", "retarded", "advanced"))),
         lambda: tol["algebra"], le),
        ("frequency_sign_plus", sign_identity,
         lambda: forbidden(mutant() if config.inject_sign_flip else kernel("lambda_plus")),
         lambda: tol["freq_mass"], le),
        ("frequency_sign_minus", sign_identity,
         lambda: forbidden(kernel("lambda_minus")), lambda: tol["freq_mass"], le),
        ("frequency_sign_mutation", "1% flipped modes must fail the one-sided test",
         lambda: forbidden(mutant()) / tol["freq_mass"], lambda: tol["mutation_ratio"], ge),
        ("time_slice_order", "G [P, chi] u - u shrinks at stencil order", lambda: time_slice()[1], lambda: 1.9, ge),
        ("time_slice_residual", "G [P, chi] u = u (interior of the cutoff window)",
         lambda: time_slice()[0][2], lambda: max(tol["time_slice_factor"] * time_slice()[2], 1e-15), le),
        # indicial / boundary
        ("indicial_roots_annihilated", "c_alpha = 0 at alpha = nu_minus, nu_plus",
         lambda: abs(indicial_polynomial(model, model.nu_plus)) + abs(indicial_polynomial(model, model.nu_minus)),
         lambda: 0.0, le),
        ("indicial_midpoint", "c at the midpoint of the roots equals nu^2",
         lambda: abs(indicial_polynomial(model, 0.5 * (model.nu_plus + model.nu_minus)) - nu**2),
         lambda: 1e-13 * max(1.0, nu**2), le),
        ("series_order_gain", "each series order gains one residual power",
         series_gain, lambda: tol["gain_per_order"], ge),
        ("series_resonance_refusal", "integer 2 nu <= K must be refused",
         lambda: _resonance_refused(model), lambda: 1.0, ge),
        ("mode_boundary_exponent", "eigenmodes carry the x^(nu + 1/2) branch",
         lambda: abs(mellin_exponent_probe(phi1, model, x=sm.grid.dof_x)[0] - (nu + 0.5)), lambda: tol["exponent"], le),
        *([
            ("boundary_amplitude_mode1", "weighted restriction matches the line amplitude",
             amplitude_error, lambda: tol["weights_rel"], le),
            ("boundary_weights_oracle", "line weights c_k^2/(2 omega_k)",
             lambda: rel_err(boundary().weights[:5], toy_line_weights(model, 5)), lambda: tol["weights_rel"], le),
            psd("boundary_psd", "(f | k_plus f) >= 0", lambda: gram_eigenvalues(boundary().gram())),
            ("boundary_one_sided", sign_identity, lambda: forbidden(boundary()), lambda: tol["freq_mass"], le),
        ] if model.kind == "ads2_strip" else []),
        # wavepacket / GBB
        ("packet_moments", "second moments within 2 sigma^2 and 2/sigma^2",
         lambda: max(packet().x_var / (2.0 * sigma**2), packet().xi_var / (2.0 / sigma**2)), lambda: 1.0, le),
        ("packet_follows_gbb", "centroid tracks the reflected ray",
         packet_deviation, lambda: 1.0, lambda v, t: v <= t and track().status == "ok"),
        ("packet_reflection_time", "round trip takes 2 x0 / speed",
         reflection_time_error, lambda: 2.0 * sigma, le),
        # state pair / scans
        ("scan_vacuum_plus", "vacuum kernel mass sits in one sign quadrant",
         lambda: scan_off(kernel("lambda_plus")), lambda: tol["scan_vacuum"], le),
        ("scan_mutation", "1% flipped modes must fail the quadrant scan",
         lambda: scan_off(mutant(), ref=kernel("lambda_plus")) / tol["scan_state"], lambda: tol["mutation_ratio"], ge),
        ("scan_thermal_state", "perturbed state stays Hadamard-graded",
         lambda: max(scan_off(pair().lp_b), scan_off(pair().lm_b)), lambda: tol["scan_state"], le),
        ("state_wave_op_on_lambda", wave_op_identity,
         lambda: state_two_point()["wave_op"], lambda: state_two_point()["wave_op_bound"], le),
        ("state_commutator_identity", comm_identity,
         lambda: state_two_point()["commutator"], lambda: tol["algebra"], le),
        psd("state_psd_lambda_plus", psd_identity, lambda: state_two_point()["gram_plus"]),
        psd("state_psd_lambda_minus", psd_identity, lambda: state_two_point()["gram_minus"]),
        ("difference_coefficients", "state difference is the injected mode sum",
         lambda: float(np.max(np.abs(np.subtract(*difference_traces())))),
         lambda: 1e-13 * (float(np.max(np.abs(difference_traces()[1]))) + 1.0), le),
        ("difference_smoothness", "difference kernel decays superpolynomially in frequency",
         lambda: smoothness_decay_order(pair().difference()), lambda: tol["smooth_order"], ge),
        ("scan_feynman_flip", "time-ordered pattern flips across t = s",
         lambda: scan_off(feynman(), length=5.0 * L, n_centers=4, band=10.0 * L), lambda: tol["scan_feynman"], le),
    ]

    checks = []
    for name, identity, value, tolerance, passes in rows:
        entry = {"check": name, "identity": identity}
        try:
            v, t = float(value()), float(tolerance())
            entry.update({"value": v, "tolerance": t, "pass": bool(passes(v, t))})
        except (ValueError, RuntimeError) as exc:
            entry.update({"value": None, "tolerance": None, "pass": False, "error": str(exc)})
        checks.append(entry)

    n_failed = sum(1 for c in checks if not c["pass"])
    report = {
        "config": {
            "model": config.model,
            "N": config.N,
            "n_modes": config.n_modes,
            "m_max": config.m_max,
            "T": T,
            "dt": dt,
            "gamma": sm.grid.gamma,
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
        detail = f"error: {c['error']}" if "error" in c else f"value={c['value']:.6e} tol={c['tolerance']:.6e}"
        print(f"{mark} {c['check']}: {detail}", file=sys.stderr)
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
    p.add_argument("--weighting", default="tilde", help="kernel weighting (propagators.WEIGHTINGS)")
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
