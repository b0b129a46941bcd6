"""Command-line entry point: subcommands, config handling, verify report.

The module top imports only the standard library so that thread-count
environment variables (ADSKG_THREADS or --threads) can be exported before
numpy first loads; the numerical modules are imported inside the handlers.

Exit codes: 0 all requested checks pass; 1 a numerical check failed, a
numerical precondition failed inside a verify check (recorded against that
check, with its message), or another subcommand hit a numerical failure (a
RuntimeError, printed as "error: <message>"); 2 usage or configuration error (bad flags, a
transverse mode the model blob was not built with, unparseable config, a
model or eigenbasis that cannot be built).

The verify report is deterministic by construction: fixed check order, a
seeded generator for every randomized probe, shortest round-trip float
serialization, and no timestamps or environment capture.  Re-running with
the same config, seed and thread count must produce byte-identical output;
some BLAS products round differently at another thread count, so the count
defaults to one BLAS thread when neither --threads nor ADSKG_THREADS is
given.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_KERNEL_DT, _TRACK_DT = 0.025, 0.005  # kernel and tracking steps in units of L, before _sampled_step refines them


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
    spectrum by ``_plan``); the seed drives every randomized probe so
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
        for name, kind in (("N", int), ("n_modes", int), ("m_max", int), ("seed", int),
                           ("inject_sign_flip", bool), ("model", dict), ("tolerances", dict)):
            val = getattr(self, name)
            if type(val) is not kind:  # exact type: a bool is no integer here
                raise ValueError(f"{name} must be of type {kind.__name__}, got {val!r}")
        unknown = set(self.tolerances) - set(_default_tolerances())
        if unknown:
            raise ValueError(f"unknown tolerances: {sorted(unknown)}")
        for name, val in self.tolerances.items():
            if isinstance(val, bool) or not (isinstance(val, (int, float)) and val > 0.0):
                raise ValueError(f"tolerance {name!r} must be positive, got {val!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    @classmethod
    def from_sources(cls, path: str | None, args: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        if path is not None:
            with open(path) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ValueError(f"a config file holds one JSON object, got {type(raw).__name__}")
            known = {f for f in cls.__dataclass_fields__}
            unknown = set(raw) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    """Write a kernel blob: its model's spectral record plus the kernel's
    kind, transverse mode and time grid."""
    from . import binio
    from .spectral import _spectral_record

    if kernel.flipped.any():
        raise ValueError("a kernel blob holds an unmutated kernel; this one has flipped modes")
    meta, arrays = _spectral_record(kernel.spectral)
    meta["payload"] = "kernel"
    meta["kernel"] = {"kind": kernel.kind, "m": kernel.m}
    arrays["t_grid"] = kernel.t_grid
    binio.write_blob(path, meta, arrays)


def _load_kernel(path: str):
    from . import binio
    from .propagators import make_propagator
    from .spectral import _spectral_from_record

    meta, arrays = binio.read_blob(path)
    if meta.get("payload") != "kernel":
        raise ValueError(f"{path}: blob does not hold a kernel")
    sm = _spectral_from_record(meta, arrays, path)
    try:
        kmeta, t_grid = meta["kernel"], arrays["t_grid"]
        kind, m = kmeta["kind"], int(kmeta["m"])  # a "weighting" key of older blobs is ignored
    except (KeyError, TypeError) as exc:
        raise binio.malformed(path, exc) from None
    return make_propagator(sm, kind, t_grid, m=m)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_trace_gbb(args) -> int:
    from . import binio
    from .bchar import PhasePointB, trace_gbb
    from .geometry import load_model

    model = load_model(_model_cfg(args))
    p0 = PhasePointB(x=args.x0, t=args.t0, tau=args.tau, xi=args.xi0, y=args.y0, zeta=args.zeta0)
    path = trace_gbb(model, p0, t_max=args.tmax, step=args.step)
    header = ["s", "t", "x", "y", "xi_bar", "xi", "zeta", "tau", "segment_id", "event"]
    binio.write_csv(args.out, header, path.to_rows())
    print(json.dumps({"out": args.out, "segments": len(path.segments), "reflections": len(path.reflections),
                      "energy_sign": path.energy_sign, "symbol_drift": path.symbol_drift}))
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

    from .propagators import _sampled_step, make_propagator
    from .spectral import load_spectral

    sm = load_spectral(args.model_bin)
    dt = args.dt if args.dt is not None else _sampled_step(sm.branch(args.m), _KERNEL_DT * sm.model.L, refine=True)[0]
    kernel = make_propagator(sm, args.kind, args.t0 + dt * np.arange(args.T), m=args.m)
    _save_kernel(kernel, args.out)
    print(json.dumps({"out": args.out, **kernel.describe()}))
    return EXIT_PASS


def _cmd_wavepacket(args) -> int:
    import numpy as np

    from . import binio
    from .microlocal import evolve_and_track, gbb_reference, make_wavepacket
    from .propagators import _sampled_step
    from .spectral import load_spectral

    sm = load_spectral(args.model_bin)
    w = make_wavepacket(sm, x0=args.x0, xi0=args.xi0, sigma=args.sigma, sign=args.sign)
    dt = args.dt if args.dt is not None else _sampled_step(sm.branch(w.m), _TRACK_DT * sm.model.L, refine=True)[0]
    track = evolve_and_track(sm, w, t_max=args.tmax, dt=dt)
    # a sign -1 packet is the conjugate of the sign +1 launch with -xi0, so it follows that ray
    gx = gbb_reference(sm.model, args.x0, args.sign * args.xi0, track.times, clip=track.window_floor)
    dev = np.abs(track.centroid - gx)
    rows = list(zip(track.times, track.centroid, track.spread, gx, dev))
    binio.write_csv(args.out, ["t", "centroid", "spread", "gbb_x", "deviation"], rows)
    print(json.dumps({"out": args.out, "status": track.status, "max_deviation": float(dev.max()),
                      "width": args.sigma, "tail": w.tail}))
    return EXIT_PASS


def _cmd_wf_scan(args) -> int:
    from . import binio
    from .microlocal import kernel_wavefront_scan

    kernel = _load_kernel(args.kernel_bin)
    rows = kernel_wavefront_scan(kernel, args.window, args.centers)
    binio.write_csv(args.out, ["t", "s", "sign_content_plus", "sign_content_minus", "cross"],
                    [(r.t, r.s, r.sign_content_plus, r.sign_content_minus, r.cross) for r in rows])
    print(json.dumps({"out": args.out, "windows": len(rows), "kind": kernel.kind}))
    return EXIT_PASS


def _cmd_boundary_2pt(args) -> int:
    from . import binio
    from .holography import boundary_fits
    from .spectral import load_spectral

    if (args.fit_lo is None) != (args.fit_hi is None):
        raise ValueError("--fit-lo and --fit-hi must be given together")
    sm = load_spectral(args.model_bin)
    window = (args.fit_lo, args.fit_hi) if args.fit_lo is not None else None
    amps, quals = boundary_fits(sm, fit_window=window)
    omega = sm.branch(0).omega
    # the weights c_k^2 / (2 omega_k) of the boundary lines (c_k^2, 0)
    weights = amps**2 / (2.0 * omega)
    rows = [(k + 1, float(omega[k]), float(amps[k]), float(weights[k]), float(quals[k])) for k in range(amps.size)]
    binio.write_csv(args.out, ["mode", "omega", "amplitude", "weight", "fit_quality"], rows)
    print(json.dumps({"out": args.out, "kind": "plus", "modes": len(rows)}))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class VerifyPlan:
    """Every value verify picks for itself, in report order, set only by ``_plan``, time steps by ``_sampled_step``."""

    null_point: tuple  # (x, tau) of the symbol probe
    gbb: tuple  # launch (x, tau), t_max, step
    n_cmp: int  # eigenvalues compared with the toy oracle
    collocation: tuple  # (n_basis, n_modes)
    half_line: tuple  # (N, K, eigenvalues compared) of the nu = 1/2 line
    kernel_grid: tuple  # (dt, T) of every kernel: 0.025 L / r and 768 r, so the grid spans 19.2 L
    time_slice: tuple  # (base step, span, step multiples)
    series: tuple  # (sigma, orders)
    exponent_window: tuple  # from the fits' accuracy floor on mode 1 to max(L/20, twice that floor)
    n_weights: int  # boundary line weights compared with the oracle
    packet: tuple  # (x0, xi0, sigma)
    track: tuple  # (t_max, dt), dt = 0.005 L / r
    scan: tuple  # (length, starts) of the vacuum and state scans
    thermal_beta: float
    difference_stride: int  # lag stride of the state-difference check
    feynman_scan: tuple  # (length, starts, band)


def _plan(config: RunConfig, sm) -> VerifyPlan:
    from .holography import fit_floor
    from .propagators import _sampled_step

    L, nu, br = sm.model.L, sm.model.nu, sm.branch(0)
    dt, r = _sampled_step(br, _KERNEL_DT * L, refine=True)
    # scan windows keep time-bandwidth 0.9 l omega_1 / 2 pi >= 3.5 and 2.7; 6.5 L and 5 L do only at nu >= 1
    gap = 2.0 * math.pi / (0.9 * sm.m_floor_sqrt)
    floor = float(fit_floor(br.phi[:, 0], sm.grid.dof_x, L))
    return VerifyPlan(
        null_point=(0.5 * L, 1.0), gbb=(0.4 * L, 2.0, 2.2 * L, 2e-3 * L),
        n_cmp=min(10, config.n_modes), collocation=(24, 4), half_line=(max(128, config.N), 8, 4),
        kernel_grid=(dt, 768 * r), time_slice=(1e-3 * L, 0.256 * L, (4, 2, 1)), series=(1.3, (0, 4)),
        exponent_window=(floor, max(L / 20.0, 2.0 * floor)), n_weights=5,
        # xi0 grows with nu, so the packet stays semiclassical for the ray, which drops (nu^2 - 1/4)/x^2
        packet=(0.5 * L, -max(40.0, 7.5 * nu) / L, 0.1 * L),
        track=(1.3 * L, _sampled_step(br, _TRACK_DT * L, refine=True)[0]), scan=(max(6.5 * L, 3.5 * gap), 3),
        thermal_beta=5.0 / sm.m_floor_sqrt, difference_stride=7, feynman_scan=(max(5.0 * L, 2.7 * gap), 4, 10.0 * L),
    )


class VerifyRun:
    """What the rows of one verify run read: config, tolerances, eigenbasis and
    plan, whose kernel grid every kernel takes.  Objects that rows share are cached
    properties, kernels go through ``kernel``, and library functions are read
    off the modules held here at call time (the ``cli`` module top has no numpy)."""

    def __init__(self, config: RunConfig, tol: dict, sm, plan: VerifyPlan):
        import numpy as np

        from . import bchar, bessel, geometry, holography, microlocal, propagators, spectral

        self.config, self.tol, self.sm, self.plan = config, tol, sm, plan
        self.model, self.t_grid, self.kernels = sm.model, plan.kernel_grid[0] * np.arange(plan.kernel_grid[1]), {}
        self.np, self.bchar, self.bessel, self.geometry = np, bchar, bessel, geometry
        self.holography, self.microlocal = holography, microlocal
        self.propagators, self.spectral = propagators, spectral

    def kernel(self, kind: str):
        """The kernel of one kind on the run's grid, made on its first request."""
        if kind not in self.kernels:
            self.kernels[kind] = self.propagators.make_propagator(self.sm, kind, self.t_grid)
        return self.kernels[kind]

    @cached_property
    def mutant(self):
        return self.kernel("lambda_plus").mutated(0.01)

    @cached_property
    def gbb(self):
        return self.bchar.trace_gbb(self.model, self.bchar.make_null_point(self.model, *self.plan.gbb[:2]),
                                    *self.plan.gbb[2:])

    @cached_property
    def two_point(self) -> dict:
        return self.propagators.verify_two_point(*map(self.kernel, ("lambda_plus", "lambda_minus", "causal")))

    @cached_property
    def time_slice(self) -> tuple:
        return self.propagators.time_slice_residuals(self.sm, self.config.seed, *self.plan.time_slice)

    @cached_property
    def boundary(self):
        return self.holography.boundary_two_point(self.kernel("lambda_plus"), self.model)

    @cached_property
    def boundary_evals(self):
        return self.propagators.gram_eigenvalues(self.holography.boundary_gram(self.boundary))

    @cached_property
    def packet(self):
        return self.microlocal.make_wavepacket(self.sm, *self.plan.packet)

    @cached_property
    def track(self):
        return self.microlocal.evolve_and_track(self.sm, self.packet, *self.plan.track)

    @cached_property
    def pair(self):
        thermal = {"thermal": self.plan.thermal_beta}
        return self.microlocal.make_perturbed_state(self.kernel("lambda_plus"), self.kernel("lambda_minus"), thermal)

    @cached_property
    def state_two_point(self) -> dict:
        return self.propagators.verify_two_point(self.pair.lp_b, self.pair.lm_b, self.kernel("causal"))

    @cached_property
    def difference(self):
        return self.pair.difference()

    @cached_property
    def difference_traces(self) -> tuple:
        lags = self.np.arange(0, self.t_grid.size, self.plan.difference_stride)
        return self.pair.lp_b.trace(lags) - self.pair.lp_a.trace(lags), self.difference.trace(lags)

    def forbidden(self, k) -> float:
        return self.propagators.frequency_sign_test(k, self.sm.m_floor_sqrt)["forbidden_fraction"]

    def scan_off(self, k, length: float, starts: int, band=None) -> float:
        scan = self.microlocal.kernel_wavefront_scan(k, length, starts, band)
        return self.microlocal.off_pattern(scan, k, band=band)


@dataclass(frozen=True)
class Row:
    """One verify check.  ``value(run)`` and then ``tolerance(run)`` are read
    in report order, and ``passes(value, tolerance)`` gives the verdict.  A
    row with ``kinds`` runs only on models of those kinds."""

    name: str
    identity: str
    value: Callable
    tolerance: Callable
    passes: Callable = operator.le
    kinds: tuple = ()


def _rel_err(got, want) -> float:
    """Largest relative error on the leading entries the two arrays share."""
    n = min(len(got), len(want))
    return float((abs(got[:n] - want[:n]) / want[:n]).max())


def _series_gain(r: VerifyRun) -> float:
    sigma, (k0, k1) = r.plan.series
    slope = {K: r.holography.build_series(r.model, w0=1.0, K=K, sigma=sigma).residual_slope for K in (k0, k1)}
    return (slope[k1] - slope[k0]) / (k1 - k0)


def _resonance_refused(r: VerifyRun) -> float:
    """1.0 when the series builder refuses the nu_minus recursion at the resonant order 2 nu = 2 <= K."""
    toy = r.geometry.make_toy_model("ads2_strip", nu=1.0, L=r.model.L)
    try:
        r.holography.build_series(toy, w0=1.0, K=2, alpha=toy.nu_minus)
    except ValueError:
        return 1.0
    return 0.0


def _half_line_error(r: VerifyRun) -> float:
    N_half, K_half, n_half = r.plan.half_line
    toy = r.geometry.make_toy_model("ads2_strip", nu=0.5, L=r.model.L)
    sm_half = r.spectral.build_spectral(toy, N=N_half, n_modes=K_half)
    return _rel_err(sm_half.branch(0).omega2, (r.np.arange(1, n_half + 1) * math.pi / r.model.L) ** 2)


def _amplitude_error(r: VerifyRun) -> float:
    """Mode 1 of the fits the boundary kernel reads, against its toy amplitude."""
    c_oracle = r.bessel.toy_boundary_amplitudes(r.model, 1)[0]
    return abs(r.holography.boundary_fits(r.sm)[0][0] - c_oracle) / c_oracle


def _packet_deviation(r: VerifyRun) -> float:
    if r.track.status != "ok":
        raise ValueError(f"the packet dispersed at t = {r.track.times[-1]:g}, before t_max = {r.plan.track[0]:g}")
    gx = r.microlocal.gbb_reference(r.model, *r.plan.packet[:2], r.track.times, clip=r.track.window_floor)
    return float(abs(r.track.centroid - gx).max()) / r.plan.packet[2]


def _reflection_time_error(r: VerifyRun) -> float:
    """|t_back - 2 x0|, t_back the tracked time after 1.2 x0 whose centroid comes closest to x0."""
    tr, x0 = r.track, r.plan.packet[0]
    after = tr.times > 1.2 * x0
    if not after.any():
        raise ValueError(f"the track ended at t = {tr.times[-1]:g}, before the return window t > 1.2 x0 = {1.2 * x0:g}")
    return abs(float(tr.times[after][abs(tr.centroid[after] - x0).argmin()]) - 2.0 * x0)


def _psd(name: str, identity: str, evals, kinds: tuple = ()) -> Row:
    """Row of the PSD rule on the ascending eigenvalues evals(run): the least is >= -psd * max |eigenvalue|."""
    return Row(name, identity, lambda r: evals(r)[0], lambda r: -r.tol["psd"] * float(abs(evals(r)).max()),
               operator.ge, kinds)


_TOYS, _STRIP = ("ads2_strip", "ads3_cylinder"), ("ads2_strip",)
_WAVE_OP, _COMMUTATOR = "P Lambda_pm = 0", "Lambda_plus - Lambda_minus = i G"
_PSD, _SIGN = "(f | Lambda_pm f) >= 0", "chi_mp(D_t) Lambda_pm = 0"
_FEYNMAN_PARTS = ("lambda_plus", "lambda_minus", "retarded", "advanced")

# The verify checks in report order.  Identity texts, tolerances and
# comparisons live only here; the library functions the rows call return
# measurements, and every other value a row uses comes from the run's plan.
ROWS = (
    # geometry
    Row("indicial_sum", "nu_plus + nu_minus = n - 1",
        lambda r: abs(r.model.nu_plus + r.model.nu_minus - (r.model.n - 1)),
        lambda r: 1e-14 * max(1.0, r.model.n - 1.0)),
    Row("indicial_gap", "nu_plus - nu_minus = 2 nu",
        lambda r: abs(r.model.nu_plus - r.model.nu_minus - 2.0 * r.model.nu),
        lambda r: 1e-14 * max(1.0, 2.0 * r.model.nu)),
    Row("even_warp_slope", "beta' (0) = k'(0) = 0",
        lambda r: abs(float(r.model.dbeta(r.np.zeros(1))[0])) + abs(float(r.model.dk(r.np.zeros(1))[0])),
        lambda r: 1e-12),
    Row("null_point_symbol", "p(x, xi, zeta, tau) = 0 on the characteristic set",
        lambda r: abs(r.geometry.conformal_symbol(r.model, r.bchar.make_null_point(r.model, *r.plan.null_point))),
        lambda r: 1e-13),
    # broken bicharacteristics
    Row("gbb_symbol_drift", "p = 0 along Hamilton arcs",
        lambda r: r.gbb.symbol_drift, lambda r: r.tol["symbol_drift"] * 4.0),
    Row("gbb_reflections", "maximal GBBs reflect at the walls",
        lambda r: len(r.gbb.reflections), lambda r: 1.0, operator.ge),
    Row("gbb_reflection_law", "xi -> -xi, tangential data fixed",
        lambda r: max((abs(ev.point.xi + ev.xi_in) for ev in r.gbb.reflections), default=math.inf), lambda r: 0.0),
    Row("gbb_tangential_continuity", "(t, zeta, tau) continuous at reflection",
        lambda r: r.gbb.tangential_jump, lambda r: 0.0),
    # spectral
    Row("eigenvalue_oracle", "omega_k = j_{nu,k} / L (toy line)",
        lambda r: _rel_err(r.np.sqrt(r.sm.branch(0).omega2), r.bessel.toy_frequencies(r.model, r.plan.n_cmp)),
        lambda r: r.tol["eig_rel"], kinds=_TOYS),
    Row("collocation_oracle", "independent basis reproduces the line",
        lambda r: _rel_err(r.np.sqrt(r.bessel.bessel_collocation_eigs(r.model, *r.plan.collocation)),
                           r.bessel.toy_frequencies(r.model, r.plan.n_cmp)), lambda r: 1e-8, kinds=_TOYS),
    Row("eigenvalue_exact_half", "nu = 1/2 line is (k pi / L)^2",
        _half_line_error, lambda r: r.tol["eig_exact"], kinds=_STRIP),
    Row("spectral_floor", "0 < m2_floor <= omega_1^2",
        lambda r: (r.sm.branch(0).omega2[0] - r.sm.m2_floor) / r.sm.branch(0).omega2[0], lambda r: 2e-6,
        lambda v, t: 0.0 < v <= t),
    # propagator algebra
    Row("wave_op_on_lambda", _WAVE_OP, lambda r: r.two_point["wave_op"], lambda r: r.two_point["wave_op_bound"]),
    Row("commutator_identity", _COMMUTATOR, lambda r: r.two_point["commutator"], lambda r: r.tol["algebra"]),
    Row("hermiticity", "Lambda_pm(t,s) = Lambda_pm(s,t)*",
        lambda r: r.two_point["hermiticity"], lambda r: r.tol["algebra"]),
    _psd("psd_lambda_plus", _PSD, lambda r: r.two_point["gram_plus"]),
    _psd("psd_lambda_minus", _PSD, lambda r: r.two_point["gram_minus"]),
    Row("support_retarded", "retarded kernel vanishes for t <= s",
        lambda r: r.propagators.support_check(r.kernel("retarded")), lambda r: 0.0),
    Row("adjoint_pair", "retarded(s,t)^T = advanced(t,s)",
        lambda r: r.propagators.adjoint_check(r.kernel("retarded"), r.kernel("advanced")), lambda r: r.tol["algebra"]),
    Row("feynman_consistency", "(1/i) Lambda_plus + advanced = (1/i) Lambda_minus + retarded",
        lambda r: r.propagators.feynman_consistency(*map(r.kernel, _FEYNMAN_PARTS)), lambda r: r.tol["algebra"]),
    Row("frequency_sign_plus", _SIGN,
        lambda r: r.forbidden(r.mutant if r.config.inject_sign_flip else r.kernel("lambda_plus")),
        lambda r: r.tol["freq_mass"]),
    Row("frequency_sign_minus", _SIGN, lambda r: r.forbidden(r.kernel("lambda_minus")), lambda r: r.tol["freq_mass"]),
    Row("frequency_sign_mutation", "1% flipped modes must fail the one-sided test",
        lambda r: r.forbidden(r.mutant) / r.tol["freq_mass"], lambda r: r.tol["mutation_ratio"], operator.ge),
    Row("time_slice_order", "G [P, chi] u - u shrinks at stencil order",
        lambda r: r.time_slice[1], lambda r: 1.9, operator.ge),
    Row("time_slice_residual", "G [P, chi] u = u (interior of the cutoff window)",
        lambda r: r.time_slice[0][2], lambda r: max(r.tol["time_slice_factor"] * r.time_slice[2], 1e-15)),
    # indicial / boundary
    Row("indicial_roots_annihilated", "c_alpha = 0 at alpha = nu_minus, nu_plus",
        lambda r: abs(r.holography.indicial_polynomial(r.model, r.model.nu_plus))
        + abs(r.holography.indicial_polynomial(r.model, r.model.nu_minus)), lambda r: 0.0),
    Row("indicial_midpoint", "c at the midpoint of the roots equals nu^2",
        lambda r: abs(r.holography.indicial_polynomial(r.model, 0.5 * (r.model.nu_plus + r.model.nu_minus))
                      - r.model.nu**2),
        lambda r: 1e-13 * max(1.0, r.model.nu**2)),
    Row("series_order_gain", "each series order gains one residual power",
        _series_gain, lambda r: r.tol["gain_per_order"], operator.ge),
    Row("series_resonance_refusal", "integer 2 nu <= K must be refused",
        _resonance_refused, lambda r: 1.0, operator.ge),
    Row("mode_boundary_exponent", "eigenmodes carry the x^(nu + 1/2) branch",
        lambda r: abs(r.holography.mellin_exponent_probe(r.sm, r.plan.exponent_window) - (r.model.nu + 0.5)),
        lambda r: r.tol["exponent"]),
    Row("boundary_amplitude_mode1", "weighted restriction matches the line amplitude",
        _amplitude_error, lambda r: r.tol["weights_rel"], kinds=_STRIP),
    Row("boundary_weights_oracle", "line weights c_k^2/(2 omega_k)",
        lambda r: _rel_err(r.boundary.weights, r.bessel.toy_line_weights(r.model, r.plan.n_weights)),
        lambda r: r.tol["weights_rel"], kinds=_STRIP),
    _psd("boundary_psd", "(f | k_plus f) >= 0", lambda r: r.boundary_evals, _STRIP),
    Row("boundary_one_sided", _SIGN, lambda r: r.forbidden(r.boundary), lambda r: r.tol["freq_mass"], kinds=_STRIP),
    # wavepacket / GBB
    Row("packet_moments", "second moments within 2 sigma^2 and 2/sigma^2",
        lambda r: max(r.packet.x_var / (2.0 * r.packet.width**2), r.packet.xi_var / (2.0 / r.packet.width**2)),
        lambda r: 1.0),
    Row("packet_follows_gbb", "centroid tracks the reflected ray",
        _packet_deviation, lambda r: 1.0),
    Row("packet_reflection_time", "round trip takes 2 x0 / speed",
        _reflection_time_error, lambda r: 2.0 * r.plan.packet[2]),
    # state pair / scans
    Row("scan_vacuum_plus", "vacuum kernel mass sits in one sign quadrant",
        lambda r: r.scan_off(r.kernel("lambda_plus"), *r.plan.scan), lambda r: r.tol["scan_vacuum"]),
    Row("scan_mutation", "1% flipped modes must fail the quadrant scan",
        lambda r: r.scan_off(r.mutant, *r.plan.scan) / r.tol["scan_state"], lambda r: r.tol["mutation_ratio"],
        operator.ge),
    Row("scan_thermal_state", "perturbed state stays Hadamard-graded",
        lambda r: max(r.scan_off(r.pair.lp_b, *r.plan.scan), r.scan_off(r.pair.lm_b, *r.plan.scan)),
        lambda r: r.tol["scan_state"]),
    Row("state_wave_op_on_lambda", _WAVE_OP,
        lambda r: r.state_two_point["wave_op"], lambda r: r.state_two_point["wave_op_bound"]),
    Row("state_commutator_identity", _COMMUTATOR,
        lambda r: r.state_two_point["commutator"], lambda r: r.tol["algebra"]),
    _psd("state_psd_lambda_plus", _PSD, lambda r: r.state_two_point["gram_plus"]),
    _psd("state_psd_lambda_minus", _PSD, lambda r: r.state_two_point["gram_minus"]),
    Row("difference_coefficients", "state difference is the injected mode sum",
        lambda r: float(abs(r.difference_traces[0] - r.difference_traces[1]).max()),
        lambda r: 1e-13 * (float(abs(r.difference_traces[1]).max()) + 1.0)),
    Row("difference_smoothness", "difference kernel decays superpolynomially in frequency",
        lambda r: r.microlocal.smoothness_decay_order(r.difference), lambda r: r.tol["smooth_order"], operator.ge),
    Row("scan_feynman_flip", "time-ordered pattern flips across t = s",
        lambda r: r.scan_off(r.propagators.make_feynman(*map(r.kernel, _FEYNMAN_PARTS))[0], *r.plan.feynman_scan),
        lambda r: r.tol["scan_feynman"]),
)


def run_verify(config: RunConfig) -> tuple[int, dict]:
    """Evaluate the ``ROWS`` that apply to the model, in order, on one
    ``VerifyRun``, and assemble the JSON report.

    The config is validated and the model and the eigenbasis are built
    before any row, so their errors reach the caller; tolerances the config
    leaves out take their defaults.  A ValueError or RuntimeError raised
    inside a row fails that row alone: its entry has null value and
    tolerance and the message under "error", and the next row runs.
    """
    from .bessel import model_zeros
    from .geometry import load_model
    from .spectral import build_spectral

    config.validate()
    tol = {**_default_tolerances(), **config.tolerances}
    model = load_model(config.model)
    sm = build_spectral(model, N=config.N, m_max=config.m_max, n_modes=config.n_modes)
    plan = _plan(config, sm)
    if model.is_toy:  # the toy rows slice one J_nu zero scan, made here at the longest count they read
        model_zeros(model, max(plan.n_cmp, plan.collocation[0], plan.n_weights))
    run = VerifyRun(config, tol, sm, plan)
    checks = []
    for row in ROWS:
        if row.kinds and model.kind not in row.kinds:
            continue
        entry = {"check": row.name, "identity": row.identity}
        try:
            v, t = float(row.value(run)), float(row.tolerance(run))
            entry.update({"value": v, "tolerance": t, "pass": bool(row.passes(v, t))})
        except (ValueError, RuntimeError) as exc:
            entry.update({"value": None, "tolerance": None, "pass": False, "error": str(exc)})
        checks.append(entry)

    n_failed = sum(1 for c in checks if not c["pass"])
    report = {
        "config": {"model": config.model, "N": config.N, "n_modes": config.n_modes, "m_max": config.m_max,
                   "T": plan.kernel_grid[1], "dt": plan.kernel_grid[0], "gamma": sm.grid.gamma, "seed": config.seed,
                   "inject_sign_flip": config.inject_sign_flip, "tolerances": tol},
        "n_checks": len(checks), "n_failed": n_failed, "pass": n_failed == 0, "checks": checks,
    }
    return (EXIT_PASS if n_failed == 0 else EXIT_FAIL), report


def _cmd_verify(args) -> int:
    try:
        config = RunConfig.from_sources(args.config, args)
        code, report = run_verify(config)
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_path = args.out
    if out_path is None:
        os.makedirs(config.out_dir, exist_ok=True)
        out_path = os.path.join(config.out_dir, "report.json")
    with open(out_path, "w") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    if args.csv is not None:
        from . import binio

        rows = [[c["check"], c["identity"], c["value"], c["tolerance"], int(c["pass"])] for c in report["checks"]]
        binio.write_csv(args.csv, ["check", "identity", "value", "tolerance", "pass"], rows)
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
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--zeta0", type=float, default=0.0)
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
    p.add_argument("--dt", type=float, default=None, help="default: 0.025 L / r, least r with omega_max dt < pi on --m")
    p.add_argument("--t0", type=float, default=0.0)
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
    p.add_argument("--dt", type=float, default=None,
                   help="default: verify's tracking step 0.005 L / r, least r with omega_max dt < pi")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # the thread count of --threads, else ADSKG_THREADS, else 1, exported before a
    # handler first loads numpy; a BLAS variable already set in the environment is kept
    n = os.environ.get("ADSKG_THREADS", "1") if args.threads is None else str(args.threads)
    if not n.isdigit() or int(n) < 1:
        print(f"the thread count must be a positive integer, got {n!r}", file=sys.stderr)
        return EXIT_USAGE
    for var in _THREAD_VARS:
        os.environ.setdefault(var, n)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # KeyError: SpectralModel.branch on a mode not built
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a numerical failure outside verify's check rows, e.g. a ray the step cannot hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
