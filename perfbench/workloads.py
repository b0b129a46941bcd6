"""The benchmark's workloads.

Each workload makes its inputs from the seed, then yields the operations of
one pass as (name, call, check) triples.  The runner times ``call`` only;
``check`` is the operation's correctness gate and runs untimed with tracing
off, as does the generator code between two yields (input preparation).
A check returns None when the output is correct, else the reason.

Both are closed loops with one client: the next operation starts when the
previous one has finished.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle

# The 47 verify checks, in the order the report lists them.
VERIFY_CHECKS = (
    "indicial_sum", "indicial_gap", "even_warp_slope", "null_point_symbol",
    "gbb_symbol_drift", "gbb_reflections", "gbb_reflection_law", "gbb_tangential_continuity",
    "eigenvalue_oracle", "collocation_oracle", "eigenvalue_exact_half", "spectral_floor",
    "wave_op_on_lambda", "commutator_identity", "hermiticity", "psd_lambda_plus", "psd_lambda_minus",
    "support_retarded", "adjoint_pair", "feynman_consistency",
    "frequency_sign_plus", "frequency_sign_minus", "frequency_sign_mutation",
    "time_slice_order", "time_slice_residual",
    "indicial_roots_annihilated", "indicial_midpoint", "series_order_gain", "series_resonance_refusal",
    "mode_boundary_exponent", "boundary_amplitude_mode1", "boundary_weights_oracle", "boundary_psd",
    "boundary_one_sided",
    "packet_moments", "packet_follows_gbb", "packet_reflection_time",
    "scan_vacuum_plus", "scan_mutation", "scan_thermal_state",
    "state_wave_op_on_lambda", "state_commutator_identity", "state_psd_lambda_plus", "state_psd_lambda_minus",
    "difference_coefficients", "difference_smoothness", "scan_feynman_flip",
)


def _tolerances() -> dict:
    from adskg.cli import RunConfig

    return RunConfig().tolerances


def _worst_rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


class VerifyDefault:
    """The release sign-off path: ``run_verify`` at the defaults (N=192,
    K=32, T=768), in process.  Quadrant scans and the dense kernel_matrix
    identity loops dominate it."""

    name = "verify_default"
    min_passes = 2  # the determinism gate compares a pass with the first one

    def __init__(self, seed: int, workdir: Path):
        from adskg import cli

        self.cli = cli
        self.config_seed = seed % 2**32
        self.first_text = None

    def ops(self, pass_id: int):
        config = self.cli.RunConfig(seed=self.config_seed)
        yield "verify", lambda: self.cli.run_verify(config), self._check

    def _check(self, result):
        code, report = result
        if code != 0:
            return f"exit code {code}"
        names = tuple(c["check"] for c in report["checks"])
        if names != VERIFY_CHECKS:
            return f"check names/order differ: {names}"
        failed = [c["check"] for c in report["checks"] if not c["pass"]]
        if failed or report["n_failed"] != 0:
            return f"failed checks {failed}"
        text = json.dumps(report, indent=2)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            return "report text differs from the first pass with the same seed"
        return None


class StressLong:
    """The stress size N=2000, T=4096, in process: spectral synthesis, the
    FFT ``apply`` and the ray layers do most of the work.  A save/load round
    trip of the cylinder eigenbasis keeps blob I/O (``binio``) measured.

    It runs no quadrant scan and no dense identity check, so it is the
    bypass side for optimisations of those.  In particular it never calls
    ``support_check``: that builds a K x T^2 gain array, about 2 x 4.3 GB at
    T=4096, which does not fit the 8 GB machine the benchmark is sized for.
    Keep ``support_check`` at T <= 768.
    """

    name = "stress_long"
    min_passes = 1

    N, K, T, DT = 2000, 32, 4096, 0.025
    ELL = 2.0 * math.pi
    M_MAX = 2
    SIGMA = 0.1
    RAY_TMAX = 24.0  # about 25 reflections

    def __init__(self, seed: int, workdir: Path):
        from adskg import bchar, geometry, holography, microlocal, propagators, spectral

        self.bchar, self.geometry, self.holography = bchar, geometry, holography
        self.microlocal, self.propagators, self.spectral = microlocal, propagators, spectral
        self.workdir = workdir
        self.tol = _tolerances()
        rng = np.random.default_rng(seed)
        self.coef = rng.standard_normal((self.T, self.K))
        self.packet_x0 = float(rng.uniform(0.48, 0.52))
        self.packet_xi0 = float(rng.uniform(-44.0, -40.0))
        self.beta_scale = float(rng.uniform(4.0, 5.0))
        self.t = self.DT * np.arange(self.T)
        self.zeros = oracle.bessel_zeros(1.0, self.K)
        self.weights5 = oracle.line_weights(1.0, 1.0, 5)

    def ops(self, pass_id: int):
        geo, spec, prop = self.geometry, self.spectral, self.propagators
        ml, st = self.microlocal, {}

        def build_strip():
            st["model"] = geo.make_toy_model("ads2_strip", nu=1.0, L=1.0)
            st["sm"] = spec.build_spectral(st["model"], N=self.N, n_modes=self.K)
            return st["sm"]

        def build_cylinder():
            cyl = geo.make_toy_model("ads3_cylinder", nu=1.0, L=1.0, ell=self.ELL)
            st["cyl"] = spec.build_spectral(cyl, N=self.N, n_modes=self.K, m_max=self.M_MAX)
            return st["cyl"]

        yield "build_strip", build_strip, lambda sm: self._check_eigs(sm, 0)
        yield "build_cylinder", build_cylinder, lambda sm: self._check_eigs(sm, self.M_MAX)

        blob = str(self.workdir / f"cylinder-pass{pass_id}.bin")

        def blob_round_trip():
            spec.save_spectral(st["cyl"], blob)
            return spec.load_spectral(blob)

        yield "blob_round_trip", blob_round_trip, lambda loaded: self._check_blob(st.pop("cyl"), loaded, blob)

        model, sm = st["model"], st["sm"]
        data = self.coef @ sm.branch(0).phi.T  # seeded mode data on the grid, (T, ndof)

        def run_apply():
            g = prop.make_propagator(sm, "causal", self.t)
            return prop.apply(g, data)

        yield "apply_causal", run_apply, lambda out: self._check_apply(sm, out)
        del data

        def freq_sign():
            st["lp"] = prop.make_propagator(sm, "lambda_plus", self.t)
            return prop.frequency_sign_test(st["lp"], sm.m_floor_sqrt)

        yield "frequency_sign", freq_sign, self._check_freq

        def boundary():
            lp_phys = prop.make_propagator(sm, "lambda_plus", self.t, weighting="physical")
            return self.holography.boundary_two_point(lp_phys, model)

        yield "boundary_two_point", boundary, self._check_boundary

        x0, xi0 = self.packet_x0, self.packet_xi0

        def packet():
            w = ml.make_wavepacket(sm, x0=x0, xi0=xi0, sigma=self.SIGMA)
            track = ml.evolve_and_track(sm, w, t_max=1.3, dt=0.005)
            return track, ml.gbb_reference(model, x0, xi0, track.times, clip=track.window_floor)

        yield "wavepacket", packet, self._check_packet

        def long_ray():
            p0 = self.bchar.make_null_point(model, x=0.4, tau=2.0)
            return self.bchar.trace_gbb(model, p0, t_max=self.RAY_TMAX, step=2e-3)

        yield "trace_gbb_long", long_ray, self._check_ray

        def smoothness():
            lm = prop.make_propagator(sm, "lambda_minus", self.t)
            pair = ml.make_perturbed_state(st["lp"], lm, {"thermal": self.beta_scale / sm.m_floor_sqrt})
            return ml.smoothness_decay_order(pair.difference())

        yield "smoothness_thermal", smoothness, self._check_smooth

    # -- gates ----------------------------------------------------------------

    def _check_eigs(self, sm, m_max):
        for m in range(m_max + 1):
            want = np.sqrt(self.zeros**2 + (2.0 * math.pi * m / self.ELL) ** 2)
            rel = _worst_rel(np.sqrt(sm.branch(m).omega2), want)
            if not rel <= self.tol["eig_rel"]:
                return f"branch m={m}: eigenvalue error {rel:.3e} > {self.tol['eig_rel']}"
        return None

    @staticmethod
    def _check_blob(saved, loaded, path):
        """The reloaded eigenbasis is the saved one, bit for bit."""
        Path(path).unlink()
        if sorted(loaded.branches) != sorted(saved.branches):
            return f"branches {sorted(loaded.branches)} after reload, saved {sorted(saved.branches)}"
        for m, br in saved.branches.items():
            got = loaded.branch(m)
            if not (np.array_equal(got.omega2, br.omega2) and np.array_equal(got.phi, br.phi)):
                return f"branch m={m} differs after a save/load round trip"
        return None

    def _check_apply(self, sm, out):
        """Rows of the FFT product against the direct trapezoid sum with
        the causal gains sin(omega tau)/omega written out here."""
        br = sm.branch(0)
        w = np.sqrt(br.omega2)
        quad = np.full(self.T, self.DT)
        quad[0] = quad[-1] = 0.5 * self.DT
        scale = float(np.max(np.abs(out)))
        for i in (0, self.T // 3, self.T - 1):
            gains = np.sin(w[:, None] * (self.t[i] - self.t)[None, :]) / w[:, None]
            row = br.phi @ (gains * (quad * self.coef.T)).sum(axis=1)
            err = float(np.max(np.abs(row - out[i]))) / scale
            if not err <= 1e-10:
                return f"apply row {i}: relative error {err:.3e} > 1e-10"
        return None

    def _check_freq(self, fs):
        val = fs["forbidden_fraction"]
        return None if val <= self.tol["freq_mass"] else f"forbidden fraction {val:.3e}"

    def _check_boundary(self, bk):
        rel = _worst_rel(bk.weights[:5], self.weights5)
        return None if rel <= self.tol["weights_rel"] else f"boundary weights error {rel:.3e}"

    def _check_packet(self, result):
        track, gx = result
        dev = float(np.max(np.abs(track.centroid - gx)))
        if track.status != "ok" or not dev <= self.SIGMA:
            return f"packet status {track.status}, deviation {dev:.3e}"
        return None

    def _check_ray(self, path):
        drift = path.symbol_drift
        if len(path.reflections) < 1 or not drift <= 4.0 * self.tol["symbol_drift"]:
            return f"{len(path.reflections)} reflections, symbol drift {drift:.3e}"
        return None

    def _check_smooth(self, order):
        return None if order >= self.tol["smooth_order"] else f"decay order {order:.3f}"


WORKLOADS = {w.name: w for w in (VerifyDefault, StressLong)}
