import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import feynman_consistency_complex, hermiticity_full_lags, lag_gains_complex, lag_phases_exp, line_gains
from scipy.signal.windows import dpss

import adskg
from adskg import propagators
from adskg.cli import RunConfig, _default_tolerances, run_verify
from adskg.geometry import load_model, make_toy_model
from adskg.holography import boundary_fits, boundary_two_point
from adskg.microlocal import kernel_wavefront_scan, make_perturbed_state
from adskg.propagators import (
    LineSpectrum,
    adjoint_check,
    apply,
    apply_wave_operator,
    feynman_consistency,
    frequency_sign_test,
    make_feynman,
    make_propagator,
    slepian_taper,
    support_check,
    time_slice_residuals,
    verify_two_point,
)
from adskg.spectral import SpectralBranch, SpectralModel, build_spectral

TOL = _default_tolerances()


def _psd_ok(evals: np.ndarray) -> bool:
    """The least Gram eigenvalue stays above -psd times the largest |eigenvalue|."""
    return bool(evals[0] >= -TOL["psd"] * np.abs(evals).max())


def _case_model(case: str, sm192: SpectralModel) -> tuple[SpectralModel, int]:
    """(model, branch m) of a bit-pin case: the shared strip, the cylinder's
    branch m = 1, or a beta = 1 + x^2 table."""
    if case == "strip":
        return sm192, 0
    if case == "cylinder":
        return build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, n_modes=16, m_max=1), 1
    xs = np.linspace(0.0, 1.0, 41)
    table = load_model({"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0, "beta_table": (xs, 1.0 + xs**2)})
    return build_spectral(table, N=64, n_modes=16), 0


def test_gains_closed_forms(zoo, sm192, ads2):
    # every gain on the 2T-1 integer lags k of the grid, tau = dt k, against its closed form
    g = zoo["causal"]
    k = np.arange(1 - g.T, g.T)
    tau = g.dt * k
    w = g.omega[:, None]
    ph = w * tau[None, :]
    plus, minus = np.exp(1j * ph) / (2 * w), np.exp(-1j * ph) / (2 * w)
    beta = 5.0 / sm192.m_floor_sqrt
    n = 1.0 / np.expm1(beta * w)
    pair = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": beta})
    flipped = np.arange(w.size)[:, None] < 2  # mutated(0.05) flips ceil(0.05 * 32) modes
    checks = {
        "retarded": (zoo["retarded"], np.where(tau > 0, np.sin(ph), 0.0) / w),
        "advanced": (zoo["advanced"], np.where(tau < 0, -np.sin(ph), 0.0) / w),
        "causal": (zoo["causal"], np.sin(ph) / w),
        "lambda_plus": (zoo["lambda_plus"], plus),
        "lambda_minus": (zoo["lambda_minus"], minus),
        "feynman": (zoo["feynman"], -1j * np.exp(1j * np.abs(ph)) / (2 * w)),
        "antifeynman": (zoo["antifeynman"], 1j * np.exp(-1j * np.abs(ph)) / (2 * w)),
        "mutated lambda_plus": (zoo["lambda_plus"].mutated(0.05), np.where(flipped, minus, plus)),
        "thermal lambda_plus": (pair.lp_b, (1 + n) * plus + n * minus),
        "thermal lambda_minus": (pair.lm_b, n * plus + (1 + n) * minus),
        "difference": (pair.difference(), n * np.cos(ph) / w),
    }
    some = k[::-7]  # an explicit lag list, decreasing, both signs
    for name, (kern, want) in checks.items():
        assert kern.gains() == pytest.approx(want, abs=1e-15), name
        assert kern.gains(some) == pytest.approx(want[:, kern.T - 1 + some], abs=1e-15), name
    # boundary lines weight_k e^{+-i omega_k tau}; weights reach 4e3, so
    # compare per unit weight
    for kind, sign in (("lambda_plus", 1), ("lambda_minus", -1)):
        bulk = zoo[kind]
        bk = boundary_two_point(bulk, ads2)
        weights = boundary_fits(sm192)[0][:, None] ** 2 / (2 * w)
        got = bk.gains() / weights
        assert got == pytest.approx(np.exp(sign * 1j * ph), abs=1e-15), kind


def test_every_kernel_is_one_line_spectrum(zoo, sm192, ads2, tgrid):
    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    pair = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    bulk = make_propagator(sm192, "lambda_plus", tgrid)
    built = {
        "make_propagator": lp,
        "mutated": lp.mutated(0.05),
        "make_feynman": zoo["feynman"],
        "make_feynman bar": zoo["antifeynman"],
        "lp_b": pair.lp_b,
        "lm_b": pair.lm_b,
        "difference": pair.difference(),
        "boundary_two_point": boundary_two_point(bulk, ads2),
    }
    for name, kern in built.items():
        assert type(kern) is LineSpectrum, name
    classes = {c for sub in adskg._SUBMODULES for c in vars(getattr(adskg, sub)).values()
               if isinstance(c, type) and c.__module__.startswith("adskg.")}
    for method in ("gains", "trace"):
        assert [c for c in classes if method in vars(c)] == [LineSpectrum], method
    for method in ("mode_gain", "trace_series", "lag_gains", "lag_trace"):
        assert [c for c in classes if method in vars(c)] == [], method
    assert [c for c in classes if issubclass(c, LineSpectrum)] == [LineSpectrum]
    # omega and m are the branch's, read through it, never stored on a kernel
    assert {"omega", "m"}.isdisjoint(f.name for f in fields(LineSpectrum))
    for name, kern in built.items():
        assert kern.branch is sm192.branch(0) and kern.m == 0, name


def _direct_lag_gains(kern):
    """The gains on the 2T-1 lags written out with their own np.exp."""
    return line_gains(kern, kern.dt * np.arange(1 - kern.T, kern.T))


def test_gains_read_one_shared_table(zoo, sm192, ads2, tgrid):
    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    pair = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    derived = {
        "mutated": lp.mutated(0.05),
        "lp_b": pair.lp_b,
        "lm_b": pair.lm_b,
        "difference": pair.difference(),
        "boundary_two_point": boundary_two_point(make_propagator(sm192, "lambda_plus", tgrid), ads2),
    }
    table = sm192.branch(0).lag_phases(lp.dt, lp.T)
    T = lp.T
    for name, kern in {**zoo, **derived}.items():
        want = _direct_lag_gains(kern)
        assert kern.branch.lag_phases(kern.dt, kern.T) is table, name
        assert np.array_equal(kern.gains(), want), name
        assert np.array_equal(kern.trace(), want.sum(axis=0)), name
        for n in (0, 100, T - 2):
            centred = np.arange(-n, n + 1)
            assert np.array_equal(kern.gains(centred), want[:, T - 1 - n : T + n]), (name, n)
            assert np.array_equal(kern.trace(centred), kern.gains(centred).sum(axis=0)), (name, n)
    assert {kern.support for kern in zoo.values()} == {"all", "future", "past", "abs"}
    assert not table.flags.writeable
    for bad in ([T], [-T], [0, T + 5]):
        with pytest.raises(ValueError, match="lags must lie"):
            lp.gains(bad)


def test_all_lag_gains_are_kept_read_only_per_kernel(sm192, tgrid):
    """A kernel builds its all-lag gains once and returns that array
    read-only. A mutant, a flip and a replaced kernel each build their own,
    and the original's stay as they were. A read at explicit lags, also the
    first read, gives the bits of the stored array's columns."""
    lp = make_propagator(sm192, "lambda_plus", tgrid)
    T = lp.T
    lags = np.random.default_rng(7).integers(1 - T, T, 300)
    first = lp.gains(lags)
    g = lp.gains()
    assert lp.gains() is g and not g.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        g[0, 0] = 0.0
    kept = g.copy()
    derived = {"mutated": lp.mutated(0.05), "flip": lp.flip([3]), "replace": replace(lp, a=2.0 * lp.a)}
    for name, kern in derived.items():
        assert kern.gains() is not g and not np.array_equal(kern.gains(), g), name
        assert np.array_equal(kern.gains(), _direct_lag_gains(kern)), name
    assert lp.gains() is g and np.array_equal(g, kept)
    assert np.array_equal(first, g[:, T - 1 + lags]) and np.array_equal(lp.gains(lags), first)
    assert np.array_equal(g, _direct_lag_gains(lp))
    assert lp.gains(lags).flags.writeable


def test_kernels_on_one_branch_share_a_taper(zoo, sm192):
    """A taper is eigensolved once per branch and (length, NW), read-only;
    it has the bits of ``slepian_taper``."""
    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    taper = lp.taper(201, 3.0)
    assert lm.taper(201, 3.0) is taper and not taper.flags.writeable
    assert np.array_equal(taper, slepian_taper(201, 3.0))
    assert lp.taper(201, 3.5) is not taper and lp.taper(202, 3.0) is not taper


def test_kind_gives_support_and_sign(zoo, sm192, ads2, tgrid):
    """Support factor and one-sided claim follow from the kind alone, for the
    seven propagator kinds, the boundary kinds and the state difference, and
    survive a sign mutation and a Bogoliubov rotation."""
    want = {
        "retarded": ("future", 0), "advanced": ("past", 0), "causal": ("all", 0),
        "lambda_plus": ("all", +1), "lambda_minus": ("all", -1), "feynman": ("abs", 0), "antifeynman": ("abs", 0),
        "plus": ("all", +1), "minus": ("all", -1), "difference": ("all", 0),
    }
    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    pair = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    kernels = [*zoo.values(), lp.mutated(0.05), lm.mutated(0.05), pair.lp_b, pair.lm_b, pair.difference()]
    kernels += [boundary_two_point(make_propagator(sm192, kind, tgrid), ads2)
                for kind in ("lambda_plus", "lambda_minus")]
    assert {k.kind for k in kernels} == set(want)
    for k in kernels:
        assert (k.support, k.frequency_sign) == want[k.kind], k.kind


def test_replaced_kernel_builds_its_own_table(zoo, sm192, tgrid):
    """A kernel reads the table of its own branch and grid: another grid or
    another branch gets another table, with the gains of its own lags."""
    lp = zoo["lambda_plus"]
    br = lp.branch
    table = br.lag_phases(lp.dt, lp.T)
    stiffer = replace(br, omega2=1.0201 * br.omega2)
    others = {
        "t_grid": replace(lp, t_grid=0.5 * tgrid),
        "shorter t_grid": replace(lp, t_grid=tgrid[:400]),
        "branch": replace(lp, branch=stiffer),
    }
    for name, kern in others.items():
        assert kern.branch.lag_phases(kern.dt, kern.T) is not table, name
        assert np.array_equal(kern.gains(), _direct_lag_gains(kern)), name
    assert np.array_equal(others["branch"].omega, stiffer.omega)
    assert others["branch"].omega == pytest.approx(1.01 * lp.omega, rel=1e-15)
    assert br.lag_phases(lp.dt, lp.T) is table


def test_spectral_models_never_share_a_table(ads2, tgrid):
    kernels = [make_propagator(build_spectral(ads2, N=64, n_modes=8), "lambda_plus", tgrid) for _ in range(2)]
    first, second = (k.branch.lag_phases(k.dt, k.T) for k in kernels)
    assert first is not second
    assert np.array_equal(first, second)


def test_verify_builds_one_table_per_branch_and_grid(monkeypatch, tmp_path):
    """A default verify reads one phase table for the kernel grid and one for
    each of the three time-slice grids (steps 4h, 2h, h, h = L/1000, span
    0.256 L), and every read of a grid gets the same table."""
    reads = {}
    lag_phases = SpectralBranch.lag_phases

    def recording(self, dt, T):
        table = lag_phases(self, dt, T)
        reads.setdefault((self.m, dt, T), []).append(table)
        return table

    monkeypatch.setattr(SpectralBranch, "lag_phases", recording)
    code, report = run_verify(RunConfig(out_dir=str(tmp_path)))
    assert code == 0
    slice_grids = [(0, 1e-3 * level, int(round(0.256 / (1e-3 * level))) + 1) for level in (4, 2, 1)]
    assert sorted(reads) == sorted([(0, report["config"]["dt"], report["config"]["T"]), *slice_grids])
    for key, tables in reads.items():
        assert all(t is tables[0] for t in tables), key


def test_apply_needs_a_spatial_factor(zoo, sm192, ads2, tgrid):
    bk = boundary_two_point(make_propagator(sm192, "lambda_plus", tgrid), ads2)
    diff = make_perturbed_state(zoo["lambda_plus"], zoo["lambda_minus"], {"thermal": 1.0}).difference()
    f = np.zeros((tgrid.size, sm192.grid.ndof))
    for kern in (bk, diff):
        with pytest.raises(ValueError, match="no spatial factor"):
            apply(kern, f)


def test_kernel_grid_validation(sm192):
    with pytest.raises(ValueError, match="T >= 32"):
        make_propagator(sm192, "causal", 0.025 * np.arange(8))
    with pytest.raises(ValueError, match="uniform"):
        make_propagator(sm192, "causal", np.array([0.0, 0.1, 0.15] + list(0.2 + 0.1 * np.arange(40))))
    with pytest.raises(ValueError, match="too coarse"):
        make_propagator(sm192, "causal", 0.2 * np.arange(64))
    with pytest.raises(ValueError, match="unknown kind"):
        make_propagator(sm192, "schwinger", 0.025 * np.arange(64))
    with pytest.raises(ValueError, match="unknown weighting"):
        make_propagator(sm192, "causal", 0.025 * np.arange(64), weighting="conformal")


@pytest.mark.parametrize("t0", [0.0, 100.0, 1000.0, 1e4])
def test_kernels_on_shifted_time_grids(sm192, t0):
    """Far from t = 0 each grid time rounds at the ulp of |t|: the grid is
    still uniform, its step comes from its span, the quadrant scan masses
    are those of the grid at t0 = 0, and the sign test windows all 2T - 1
    lags."""
    base = make_propagator(sm192, "lambda_plus", 0.025 * np.arange(768))
    kern = make_propagator(sm192, "lambda_plus", t0 + 0.025 * np.arange(768))
    assert kern.dt == pytest.approx(0.025, rel=1e-13)
    got, want = ([(r.sign_content_plus, r.sign_content_minus, r.cross) for r in kernel_wavefront_scan(k, 5.0, 4)]
                 for k in (kern, base))
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14
    window = frequency_sign_test(kern, sm192.m_floor_sqrt)["window"]
    assert round(window / kern.dt) + 1 == 2 * kern.T - 1


def test_two_point_algebra(zoo):
    rep = verify_two_point(zoo["lambda_plus"], zoo["lambda_minus"], zoo["causal"])
    assert rep["wave_op"] <= rep["wave_op_bound"]
    assert rep["commutator"] <= TOL["algebra"]
    assert rep["hermiticity"] <= TOL["algebra"]
    assert _psd_ok(rep["gram_plus"]) and _psd_ok(rep["gram_minus"])


def test_two_point_algebra_physical_weighting(zoo, sm192, ads2, tgrid):
    """The benchmark still builds its boundary kernel with
    ``weighting="physical"``: that keyword changes nothing, so those kernels
    have the default kernels' gains and two-point measurements, and the
    boundary restriction gives the same line weights."""
    kinds = ("lambda_plus", "lambda_minus", "causal")
    physical = [make_propagator(sm192, kind, tgrid, weighting="physical") for kind in kinds]
    for kind, kern in zip(kinds, physical):
        assert np.array_equal(kern.gains(), zoo[kind].gains()), kind
    rep, want = verify_two_point(*physical), verify_two_point(*map(zoo.get, kinds))
    assert rep.keys() == want.keys()
    assert all(np.array_equal(rep[key], want[key]) for key in rep)
    weights = [boundary_two_point(kern, ads2).weights for kern in (physical[0], zoo["lambda_plus"])]
    assert np.array_equal(*weights)


def _gram_by_einsum(kernel, dtype=float):
    """The Gram matrix as one dense einsum over all (i, j) lags, summed in
    ``dtype`` (np.longdouble makes it a reference for both float forms)."""
    n_t, n_v = propagators._GRAM_TIMES, propagators._GRAM_VECS
    idx = np.linspace(0, kernel.T - 1, n_t).round().astype(int)
    coeffs = np.random.default_rng(1234).standard_normal((n_v, kernel.omega.size))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    gains = kernel.gains((idx[:, None] - idx[None, :]).ravel()).reshape(-1, n_t, n_t)
    c = coeffs.astype(dtype)
    gram = [np.einsum("ak,kij,bk->iajb", c, part.astype(dtype), c) for part in (gains.real, gains.imag)]
    return (gram[0] + 1j * gram[1]).reshape(n_t * n_v, n_t * n_v)


def test_gram_matrix_is_one_product_on_distinct_lags(zoo, sm192, tgrid, monkeypatch):
    """The Gram matrix evaluates each distinct lag once. It agrees with the
    dense einsum to two rounding units of its largest entry, and with the
    long-double sum to four (either float form reaches ~3.7 units there)."""
    lp, lm = zoo["lambda_plus"], zoo["lambda_minus"]
    thermal = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt}).lp_b
    kernels = (lp, lm, thermal)
    wants = [(_gram_by_einsum(k), _gram_by_einsum(k, np.longdouble)) for k in kernels]
    sizes = []
    gains = LineSpectrum.gains
    monkeypatch.setattr(LineSpectrum, "gains", lambda self, lags: sizes.append(np.size(lags)) or gains(self, lags))
    for kernel, (want, exact) in zip(kernels, wants):
        got = propagators._gram_matrix(kernel)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 2.0 * np.finfo(float).eps * scale, kernel.kind
        assert np.max(np.abs(got - exact)) <= 4.0 * np.finfo(float).eps * scale, kernel.kind
    assert len(sizes) == len(kernels) and all(n < propagators._GRAM_TIMES**2 for n in sizes)


@pytest.mark.parametrize("case, T", [("strip", 768), ("strip", 769), ("strip", 4096), ("cylinder", 768),
                                     ("table", 768)])
def test_mirrored_lag_phases_match_complex_exp(case, T, sm192):
    """The phase table, cos and sin on tau >= 0 and their conjugate mirrored
    to tau < 0, has the bits of one complex exp over all 2T-1 lags: on the
    strip at even and odd T, on the cylinder's branch m = 1 and on a
    beta = 1 + x^2 table."""
    sm, m = _case_model(case, sm192)
    branch = sm.branch(m)
    assert branch.lag_phases(0.025, T).tobytes() == lag_phases_exp(branch.omega, 0.025, T).tobytes()


_REAL_KINDS = ("causal", "retarded", "advanced", "difference")  # conjugate lines, b = conj(a)


@pytest.mark.parametrize("T", [65, 768, 769, 4096])
@pytest.mark.parametrize("case", ["strip", "cylinder", "table"])
def test_conjugate_lines_give_real_gains_with_the_complex_bits(case, T, sm192):
    """Kernels whose lines are conjugate (causal, retarded, advanced, the
    thermal state difference) build float64 gains equal to the real part of
    the complex form, whose imaginary part is all zero; every other kind
    stays complex with the bits of that form."""
    sm, m = _case_model(case, sm192)
    t = 0.025 * np.arange(T)
    kernels = {kind: make_propagator(sm, kind, t, m=m) for kind in propagators.KINDS}
    pair = make_perturbed_state(kernels["lambda_plus"], kernels["lambda_minus"], {"thermal": 5.0 / sm.m_floor_sqrt})
    kernels["difference"] = pair.difference()
    for name, kern in kernels.items():
        got, want = kern.gains(), lag_gains_complex(kern)
        if name in _REAL_KINDS:
            assert got.dtype == np.float64 and np.array_equal(got, want.real) and not want.imag.any(), name
        else:
            assert got.dtype == np.complex128 and got.tobytes() == want.tobytes(), name


def test_non_conjugate_lines_stay_complex(zoo):
    """A fault on the causal lines breaks b = conj(a): its gains come back
    complex, with the complex form's bits and a nonzero imaginary part."""
    fault = replace(zoo["causal"], a=zoo["causal"].a * (1 + 1e-3))
    got = fault.gains()
    assert got.dtype == np.complex128 and np.abs(got.imag).max() > 0.0
    assert got.tobytes() == lag_gains_complex(fault).tobytes()


def test_feynman_consistency_keeps_the_bits_of_complex_products(zoo, sm192):
    """feynman_consistency forms the real and imaginary parts of its defect
    apart and takes their hypot.  That reads the float of the complex products
    on the vacuum, thermal and sign-flip pairs, and on a fault pair whose
    lambda_minus line is 1.5 times too strong, so that the defect's imaginary
    part is nonzero (np.hypot and numpy's complex abs can differ by an ulp on
    other data, so the pin is on these pairs)."""
    lp, lm, ret, adv = map(zoo.get, ("lambda_plus", "lambda_minus", "retarded", "advanced"))
    thermal = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    fault = (lp, replace(lm, b=1.5 * lm.b))
    assert np.abs(fault[0].gains().real - fault[1].gains().real).max() > 0.0
    for pair in ((lp, lm), (thermal.lp_b, thermal.lm_b), (lp.mutated(0.01), lm), fault):
        assert feynman_consistency(*pair, ret, adv) == feynman_consistency_complex(*pair, ret, adv)
    assert feynman_consistency(*fault, ret, adv) > 1e-3


def test_identity_measures_read_the_floats_of_complex_gains(zoo, sm192):
    """commutator, feynman_consistency, adjoint_check and support_check give
    the floats of their expressions on complex gains: on the vacuum pair, the
    thermal pair and the sign-flip mutant that verify --inject-sign-flip makes."""
    lp, lm, g, ret, adv = map(zoo.get, ("lambda_plus", "lambda_minus", "causal", "retarded", "advanced"))
    thermal = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    c_g, c_ret, c_adv = map(lag_gains_complex, (g, ret, adv))
    for pair in ((lp, lm), (thermal.lp_b, thermal.lm_b), (lp.mutated(0.01), lm)):
        c_p, c_m = map(lag_gains_complex, pair)
        commutator = verify_two_point(*pair, g)["commutator"]
        assert commutator == np.max(np.abs(c_p - c_m - 1j * c_g))
        assert feynman_consistency(*pair, ret, adv) == np.max(np.abs(-1j * c_p + c_adv - (-1j * c_m + c_ret)))
    assert commutator > 0.0  # the sign-flip pair breaks the identity
    assert adjoint_check(ret, adv) == np.max(np.abs(c_ret[:, ::-1] - c_adv))
    assert support_check(ret) == np.max(np.abs(c_ret[:, : ret.T]).sum(axis=0))
    assert support_check(adv) == np.max(np.abs(c_adv[:, adv.T - 1 :]).sum(axis=0))


def test_half_lag_hermiticity_matches_full_lags(zoo, sm192):
    """verify_two_point reads the Hermiticity defect on tau >= 0; that is the
    full-lag maximum on the vacuum and thermal pairs and on a fault kernel
    with a complex line coefficient, whose defect is positive."""
    lp, lm, g = zoo["lambda_plus"], zoo["lambda_minus"], zoo["causal"]
    thermal = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    fault = replace(lp, a=lp.a * (1 + 1e-3j))
    for pair in ((lp, lm), (thermal.lp_b, thermal.lm_b), (fault, lm)):
        assert verify_two_point(*pair, g)["hermiticity"] == hermiticity_full_lags(*pair)
    assert verify_two_point(fault, lm, g)["hermiticity"] > 0.0


def test_two_point_algebra_catches_sign_fault(zoo):
    bad = zoo["lambda_plus"].mutated(0.05)
    rep = verify_two_point(bad, zoo["lambda_minus"], zoo["causal"])
    assert rep["commutator"] > TOL["algebra"]


def test_mutation_bookkeeping(zoo):
    bad = zoo["lambda_plus"].mutated(0.01)
    assert bad.describe()["n_flipped"] == 1
    assert zoo["lambda_plus"].describe()["n_flipped"] == 0
    with pytest.raises(ValueError, match="lambda kernels"):
        zoo["causal"].mutated()
    with pytest.raises(ValueError, match="lambda kernels only"):
        zoo["causal"].flip(np.arange(zoo["causal"].omega.size))
    # flipping the same modes twice restores the kernel
    assert np.array_equal(bad.flip([0]).a, zoo["lambda_plus"].a)


def test_support_is_exact(zoo):
    assert support_check(zoo["retarded"]) == 0.0
    assert support_check(zoo["advanced"]) == 0.0
    with pytest.raises(ValueError, match="retarded/advanced"):
        support_check(zoo["causal"])


def test_support_check_memory(zoo):
    # K x (2T-1) gains, not K x T^2: at T=768 the peak stays far below 16 MB
    assert zoo["retarded"].T == 768
    tracemalloc.start()
    try:
        value = support_check(zoo["retarded"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0.0
    assert peak < 16 * 2**20


def test_identities_need_one_spatial_factor(tgrid):
    cyl = build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, m_max=1, n_modes=8)
    ret = make_propagator(cyl, "retarded", tgrid)
    other = make_propagator(cyl, "advanced", tgrid, m=1)
    assert (ret.m, other.m) == (0, 1) and other.branch is cyl.branch(1)
    with pytest.raises(ValueError, match="share one spectral model"):
        adjoint_check(ret, other)


def test_adjoint_pairing(zoo):
    assert adjoint_check(zoo["retarded"], zoo["advanced"]) <= 1e-12


def test_feynman_identity_and_construction(zoo):
    resid = feynman_consistency(
        zoo["lambda_plus"], zoo["lambda_minus"], zoo["retarded"], zoo["advanced"]
    )
    assert resid <= 1e-12
    f, fbar = make_feynman(
        zoo["lambda_plus"], zoo["lambda_minus"], zoo["retarded"], zoo["advanced"]
    )
    assert f.kind == "feynman" and fbar.kind == "antifeynman"


def test_make_feynman_is_vacuum_only(zoo, sm192):
    """The returned kernels are the vacuum ones, so a thermal pair or a
    sign-flipped lambda_plus is refused rather than silently replaced."""
    lp, lm, ret, adv = (zoo[k] for k in ("lambda_plus", "lambda_minus", "retarded", "advanced"))
    thermal = make_perturbed_state(lp, lm, {"thermal": 5.0 / sm192.m_floor_sqrt})
    for pair in ((thermal.lp_b, thermal.lm_b), (lp.mutated(0.01), lm), (lp, lm.mutated(0.01))):
        with pytest.raises(ValueError, match="vacuum only"):
            make_feynman(*pair, ret, adv)
    with pytest.raises(ValueError, match="vacuum only"):
        make_feynman(lm, lp, ret, adv)


def test_frequency_sign_one_sided(zoo, sm192):
    for kind in ("lambda_plus", "lambda_minus"):
        rep = frequency_sign_test(zoo[kind], sm192.m_floor_sqrt)
        assert sorted(rep) == ["forbidden_fraction", "nw", "window"]
        assert rep["forbidden_fraction"] <= TOL["freq_mass"]
    # the mirrored claim of the other member of the pair fails on each
    for kind, mirror in (("lambda_plus", "minus"), ("lambda_minus", "plus")):
        k = zoo[kind]
        other = LineSpectrum(mirror, k.t_grid, k.branch, k.a, k.b)
        assert frequency_sign_test(other, sm192.m_floor_sqrt)["forbidden_fraction"] > 0.99
    # a kernel with no one-sided claim is refused
    for kind in ("causal", "retarded", "feynman"):
        with pytest.raises(ValueError, match="no one-sided frequency claim"):
            frequency_sign_test(zoo[kind], sm192.m_floor_sqrt)


def test_frequency_sign_mutation_detected(zoo, sm192):
    broken = frequency_sign_test(zoo["lambda_plus"].mutated(0.01), sm192.m_floor_sqrt)
    assert broken["forbidden_fraction"] >= 1e3 * TOL["freq_mass"]


def test_frequency_sign_window_validation(sm192):
    """The window is the grid's lag range: a T = 32 grid cannot resolve the gap."""
    short = make_propagator(sm192, "lambda_plus", 0.025 * np.arange(32))
    with pytest.raises(ValueError, match="window too short"):
        frequency_sign_test(short, sm192.m_floor_sqrt)


def test_time_slice_identity(sm192):
    """The residual of G [P, chi] u = u on the seeded ten-mode solution is
    pure dt^2 stencil error: halving the step shrinks it fourfold."""
    resids, order, _ = time_slice_residuals(sm192, 1234, 1e-3, 0.256, (4, 2, 1))
    assert resids[2] <= 0.05
    assert order >= 1.8


@pytest.mark.parametrize("seed", [33, 45, 52, 93, 301, 313])
def test_time_slice_order_reads_one_set_of_times(sm192, seed):
    """Every step reads its error on the coarsest step's times, so the order
    of these seeds, whose per-level maxima once sat on different rows, holds
    verify's bound 1.9 and the last residual its 5x prediction."""
    resids, order, prediction = time_slice_residuals(sm192, seed, 1e-3, 0.256, (4, 2, 1))
    assert order >= 1.9
    assert resids[2] <= 5.0 * prediction


def test_time_slice_stays_on_mode_coefficients(sm192, monkeypatch):
    """P and G act on u's mode coefficients: no level projects, and each
    synthesizes twice, the error on the coarsest step's rows and u itself."""
    calls = {"project": 0, "synthesize": 0}
    for name in calls:

        def counting(self, *args, _name=name, _method=getattr(SpectralModel, name), **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(SpectralModel, name, counting)
    time_slice_residuals(sm192, 1234, 1e-3, 0.256, (4, 2, 1))
    assert calls == {"project": 0, "synthesize": 2 * 3}


def test_time_slice_is_the_same_at_one_and_two_blas_threads():
    """With no grid projection left in the time slice, two BLAS threads give
    the bits of one on the strip and the cylinder."""
    code = (
        "from adskg.geometry import make_toy_model\n"
        "from adskg.propagators import time_slice_residuals\n"
        "from adskg.spectral import build_spectral\n"
        "for kind in ('ads2_strip', 'ads3_cylinder'):\n"
        "    sm = build_spectral(make_toy_model(kind, nu=1.0, L=1.0), N=192, n_modes=32)\n"
        "    for seed in (1, 1234):\n"
        "        print(repr(time_slice_residuals(sm, seed, 1e-3, 0.256, (4, 2, 1))))\n"
    )
    one, two = (
        _run_fresh(code, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, ADSKG_THREADS=n) for n in ("1", "2")
    )
    assert len(one.splitlines()) == 4
    assert one == two


def test_apply_inverts_wave_operator(zoo, sm192):
    t = zoo["retarded"].t_grid
    br = sm192.branch(0)
    envelope = np.exp(-(((t - 6.0) / 1.5) ** 2))
    coef = np.zeros((t.size, br.omega.size))
    coef[:, 1] = envelope
    f = sm192.synthesize(coef)
    u = apply(zoo["retarded"], f)
    pu = apply_wave_operator(sm192, u, zoo["retarded"].dt)
    err = np.abs(pu[2:-2] - f[3:-3]).max() / np.abs(f).max()
    # second-order stencil: the defect is dt^2 omega^2 / 12 up to envelope terms
    stencil_scale = zoo["retarded"].dt ** 2 * br.omega[1] ** 2 / 12.0
    assert err <= 1.5 * stencil_scale


_CLOSED_GAINS = {  # per-mode gains g_k(tau), written out
    "causal": lambda w, tau: np.sin(w * tau) / w,
    "retarded": lambda w, tau: np.where(tau > 0, np.sin(w * tau), 0.0) / w,
    "lambda_plus": lambda w, tau: np.exp(1j * w * tau) / (2 * w),
}


@pytest.mark.parametrize("T", [64, 100])  # 2T-1 = 127 and 199, both prime
@pytest.mark.parametrize(
    "kind, weighting",
    [("causal", "tilde"), ("retarded", "tilde"), ("lambda_plus", "tilde"), ("causal", "physical")],
)
def test_apply_matches_direct_trapezoid_sum(sm192, kind, weighting, T):
    """Every kernel applies in the one conjugated frame; the benchmark's
    ``weighting="physical"`` keyword changes nothing."""
    t = 0.3 + 0.025 * np.arange(T)
    kern = make_propagator(sm192, kind, t, weighting=weighting)
    rng = np.random.default_rng(T)
    f = rng.standard_normal((T, sm192.grid.ndof))
    if kind == "lambda_plus":
        f = f + 1j * rng.standard_normal(f.shape)
    trap = np.full(T, 0.025)
    trap[[0, -1]] *= 0.5
    a = sm192.project(f) * trap[:, None]  # (T, K)
    w = sm192.branch(0).omega
    tau = t[:, None] - t[None, :]
    gains = _CLOSED_GAINS[kind](w[None, None, :], tau[:, :, None])  # (T, T, K)
    want = sm192.synthesize(np.einsum("ijk,jk->ik", gains, a))
    got = apply(kern, f)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _apply_by_pad_and_roll(sm: SpectralModel, kern: LineSpectrum, f: np.ndarray) -> np.ndarray:
    """Real grid data f under the kernel, with every mode's gains padded and
    rolled onto the circular buffer and transformed in one call: fft/ifft
    for complex gains, rfft/irfft (the half spectrum) for real ones."""
    T = kern.T
    L = 1 << (2 * T - 2).bit_length()
    rolled = np.roll(np.pad(kern.gains(), ((0, 0), (0, L + 1 - 2 * T))), 1 - T, axis=1)
    a = sm.project(f) * kern.dt
    a[[0, -1]] *= 0.5
    if np.iscomplexobj(kern.gains()):
        conv = np.fft.ifft(np.fft.fft(a.T, n=L, axis=1) * np.fft.fft(rolled, axis=1), axis=1)[:, :T]
    else:
        conv = np.fft.irfft(np.fft.rfft(a.T, n=L, axis=1) * np.fft.rfft(rolled, axis=1), n=L, axis=1)[:, :T]
    return sm.synthesize(conv.T)


@pytest.mark.parametrize("kind, T", [("lambda_plus", 32), ("retarded", 33), ("causal", 768), ("lambda_minus", 1000)])
def test_apply_gain_buffer_keeps_the_bits_of_pad_and_roll(sm192, kind, T):
    """``apply`` lays the 2T-1 lag gains on its circular buffer with two slice
    copies; the result keeps the bits of the padded and rolled buffer."""
    kern = make_propagator(sm192, kind, 0.1 + 0.025 * np.arange(T))
    f = np.random.default_rng(T).standard_normal((T, sm192.grid.ndof))
    assert np.array_equal(apply(kern, f), _apply_by_pad_and_roll(sm192, kern, f))


@pytest.mark.parametrize("kind", ["causal", "lambda_plus"])
def test_apply_in_blocks_of_modes_keeps_the_bits_of_one_transform(kind):
    """``apply`` transforms a few modes at a time; on 13 modes, whose last
    block is short, that keeps the bits of one transform over all of them."""
    sm = build_spectral(make_toy_model("ads2_strip", nu=1.0, L=1.0), N=96, n_modes=13)
    kern = make_propagator(sm, kind, 0.1 + 0.025 * np.arange(100))
    f = np.random.default_rng(13).standard_normal((kern.T, sm.grid.ndof))
    assert np.array_equal(apply(kern, f), _apply_by_pad_and_roll(sm, kern, f))


@pytest.mark.parametrize("kind", ["causal", "retarded"])
def test_real_kernel_on_complex_data_takes_the_full_transform(sm192, kind, monkeypatch):
    """Complex data under a real kernel runs through fft/ifft, not the half
    spectrum, and gives apply on its real part plus i times apply on its
    imaginary part."""
    kern = make_propagator(sm192, kind, 0.1 + 0.025 * np.arange(100))
    rng = np.random.default_rng(7)
    c = rng.standard_normal((kern.T, kern.omega.size)) + 1j * rng.standard_normal((kern.T, kern.omega.size))
    want = apply(kern, c.real) + 1j * apply(kern, c.imag)
    called = []
    for name in ("fft", "rfft"):
        monkeypatch.setattr(np.fft, name, _recording(getattr(np.fft, name), called))
    got = apply(kern, c)
    assert called and set(called) == {"fft"}
    assert got.dtype == np.complex128
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _recording(fn, called):
    def wrapper(*args, **kwargs):
        called.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("kind, m", [("causal", 0), ("retarded", 0), ("lambda_plus", 0), ("lambda_minus", 1)])
def test_apply_acts_in_the_frame_it_is_given(sm192, kind, m):
    """Mode coefficients (T, K) of the kernel's branch give coefficients: the
    projection of what their grid synthesis gives, with no grid round trip."""
    sm = build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, m_max=1, n_modes=8) if m else sm192
    kern = make_propagator(sm, kind, 0.1 + 0.025 * np.arange(100), m=m)
    rng = np.random.default_rng(5)
    c = rng.standard_normal((kern.T, kern.omega.size))
    if kind.startswith("lambda"):
        c = c + 1j * rng.standard_normal(c.shape)
    got = apply(kern, c)
    want = sm.project(apply(kern, sm.synthesize(c, m=m)), m=m)
    assert got.shape == c.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("complex_data", [False, True])
def test_wave_operator_acts_in_the_frame_it_is_given(sm192, complex_data):
    """P on mode coefficients gives the projection of P on their synthesis."""
    rng = np.random.default_rng(6)
    c = rng.standard_normal((40, sm192.n_modes))
    if complex_data:
        c = c + 1j * rng.standard_normal(c.shape)
    got = apply_wave_operator(sm192, c, 0.025)
    want = sm192.project(apply_wave_operator(sm192, sm192.synthesize(c), 0.025))
    assert got.shape == (38, sm192.n_modes)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_names_both_frames_on_a_foreign_shape(zoo, sm192):
    kern = zoo["causal"]
    T, K = kern.T, sm192.n_modes
    both = r"is neither grid data \(T=768, ndof=575\) nor mode coefficients \(T=768, K=32\)"
    for shape in ((T, K + 1), (T + 1, K)):
        with pytest.raises(ValueError, match=both):
            apply(kern, np.zeros(shape))
    with pytest.raises(ValueError, match=r"neither grid data \(T, ndof=575\) nor mode coefficients \(T, K=32\)"):
        apply_wave_operator(sm192, np.zeros((T, K + 1)), kern.dt)


@pytest.mark.parametrize("M", [201, 261, 262, 1535, 2000, 8191])
def test_slepian_taper_matches_scipy(M):
    for nw in (2.5, 4.0, 7.3):
        assert np.array_equal(slepian_taper(M, nw), dpss(M, nw))
    with pytest.raises(ValueError, match="NW"):
        slepian_taper(M, M / 2.0)


def _run_fresh(code: str, **env: str) -> str:
    """Run code in a fresh interpreter on this package, with env added to the
    environment before numpy loads; its stdout."""
    src = str(Path(adskg.__file__).resolve().parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_package_import_skips(module: str) -> None:
    """Load every submodule in a fresh interpreter; `module` must stay unloaded."""
    _run_fresh(
        "import sys, adskg\n"
        "for sub in adskg._SUBMODULES: getattr(adskg, sub)\n"
        f"assert {module!r} not in sys.modules, '{module} was imported'\n"
    )


def test_package_import_skips_scipy_signal():
    _assert_package_import_skips("scipy.signal")


def test_package_import_skips_scipy_optimize():
    _assert_package_import_skips("scipy.optimize")
