import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import boundary_amplitudes_mp, line_weights_mp

from adskg.bessel import toy_boundary_amplitudes
from adskg.cli import RunConfig, _default_tolerances, _plan
from adskg.geometry import make_toy_model
from adskg.holography import (
    boundary_fits,
    boundary_gram,
    boundary_two_point,
    build_series,
    extract_boundary,
    fit_floor,
    indicial_polynomial,
    mellin_exponent_probe,
)
from adskg.microlocal import make_perturbed_state, smoothness_decay_order
from adskg.propagators import LineSpectrum, frequency_sign_test, make_propagator
from adskg.spectral import build_spectral

FREQ_MASS = _default_tolerances()["freq_mass"]


@pytest.fixture(scope="module")
def nu25():
    return make_toy_model("ads2_strip", nu=2.5, L=1.0)


def test_indicial_roots_annihilate_exactly(nu25):
    assert indicial_polynomial(nu25, nu25.nu_plus) == 0.0
    assert indicial_polynomial(nu25, nu25.nu_minus) == 0.0
    mid = 0.5 * (nu25.nu_minus + nu25.nu_plus)
    assert indicial_polynomial(nu25, mid) == pytest.approx(nu25.nu**2, rel=1e-15)


def test_series_coefficients_follow_recursion(nu25):
    sigma = 1.3
    s = build_series(nu25, w0=2.0, K=4, sigma=sigma)
    # hand-rolled c(alpha) = (alpha - nu_minus)(nu_plus - alpha)
    def c(alpha):
        return (alpha - nu25.nu_minus) * (nu25.nu_plus - alpha)

    shift = 0.0 - sigma**2
    want1 = -shift * 2.0 / c(nu25.nu_plus + 2)
    want2 = -shift * want1 / c(nu25.nu_plus + 4)
    assert s.coeffs[0] == 2.0
    assert s.coeffs[1] == 0.0 and s.coeffs[3] == 0.0
    assert s.coeffs[2] == pytest.approx(want1, rel=1e-15)
    assert s.coeffs[4] == pytest.approx(want2, rel=1e-15)


def test_residual_slope_gains(nu25):
    slopes = [build_series(nu25, w0=1.0, K=k, sigma=1.3).residual_slope for k in range(5)]
    # even model: odd orders add nothing, even orders gain two each
    assert slopes[0] == pytest.approx(nu25.nu_plus + 2, abs=0.05)
    assert slopes[1] == pytest.approx(slopes[0], abs=1e-9)
    assert slopes[2] == pytest.approx(slopes[0] + 2, abs=0.05)
    assert slopes[4] == pytest.approx(slopes[0] + 4, abs=0.05)
    assert (slopes[4] - slopes[0]) / 4.0 >= 0.9


def test_resonant_orders_refused():
    """The nu_minus recursion divides by c_{nu_minus + k} = k (2 nu - k),
    which vanishes at the even order k = 2 nu <= K; below that order it
    builds.  A half-integer nu only hits odd orders, which vanish in the
    even recursion, so it is not resonant."""
    for nu, k in ((1.0, 2), (2.0, 4)):
        m = make_toy_model("ads2_strip", nu=nu, L=1.0)
        with pytest.raises(ValueError, match="resonant"):
            build_series(m, w0=1.0, K=k, sigma=0.5, alpha=m.nu_minus)
        assert build_series(m, w0=1.0, K=k - 1, sigma=0.5, alpha=m.nu_minus).alpha == m.nu_minus
    mh = make_toy_model("ads2_strip", nu=0.5, L=1.0)
    assert np.all(np.isfinite(build_series(mh, w0=1.0, K=4, sigma=0.5, alpha=mh.nu_minus).coeffs))


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_nu_plus_series_builds_at_integer_two_nu(nu):
    """c_{nu_plus + k} = -k (2 nu + k) never vanishes, so the nu_plus series
    builds at every nu where 2 nu is an integer and gains one residual
    order per term."""
    m = make_toy_model("ads2_strip", nu=nu, L=1.0)
    slopes = [build_series(m, w0=1.0, K=k, sigma=1.3).residual_slope for k in (0, 4)]
    assert (slopes[1] - slopes[0]) / 4.0 == pytest.approx(1.0, abs=1e-9)


def test_trivial_shift_gives_exact_series():
    m3 = make_toy_model("ads3_cylinder", nu=0.7, L=1.0, ell=2.0 * np.pi)
    mu = m3.transverse_mu(1)
    s = build_series(m3, w0=1.0, K=0, sigma=np.sqrt(mu), m=1)
    assert s.residual_slope == np.inf


def _series_on(model, x, sigma):
    """S_sigma on x: the nu_plus indicial series of frequency sigma, to 40 orders."""
    return np.polynomial.polynomial.polyval(x, build_series(model, w0=1.0, K=40, sigma=sigma).coeffs)


def test_extract_boundary_recovers_constant():
    # physical-frame data on the cylinder, where nu_plus = nu + 1 differs from the tilde exponent nu + 1/2;
    # the x^2 correction is a warp's, which the x^2 S_omega column carries
    m = make_toy_model("ads3_cylinder", nu=0.7, L=1.0)
    x = np.geomspace(1e-4, 0.3, 400)
    series = _series_on(m, x, 6.0)
    u = 3.0 * x**m.nu_plus * series * (1.0 + 0.1 * x**2)
    fit = extract_boundary(u, m, (1e-3, 0.25), x=x, series=series)
    assert fit.value == pytest.approx(3.0, rel=1e-9)
    assert fit.quality > 0.999
    assert fit.contamination <= 1e-6


@pytest.mark.parametrize("nu", [2.5, 4.0, 8.0])
def test_contamination_score_holds_at_large_nu(nu):
    """The x^(-2 nu) column is taken in x / x_mid, so a clean Dirichlet-branch
    series scores near zero however large nu is, and an admixture of the
    complementary branch still scores as its ratio at the window midpoint."""
    m = make_toy_model("ads2_strip", nu=nu, L=1.0)
    x = np.geomspace(1e-4, 0.3, 400)
    window = (1e-3, 0.05)
    series = _series_on(m, x, 0.0)  # the static series of the strip is 1
    clean = x**m.nu_plus * (1.0 - 0.2 * x**2)
    fit = extract_boundary(clean, m, window, x=x, series=series)
    assert fit.value == pytest.approx(1.0, rel=1e-9) and fit.contamination <= 1e-6
    x_mid = math.sqrt(window[0] * window[1])
    mixed = extract_boundary(clean + 1e-4 * x_mid ** (2.0 * nu) * x**m.nu_minus, m, window, x=x, series=series)
    assert mixed.contamination == pytest.approx(1e-4, rel=1e-3)


def test_contamination_warning_and_failure():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    x = np.geomspace(1e-4, 0.3, 400)
    series = np.ones_like(x)
    clean = x ** (m.nu + 0.5)
    fit = extract_boundary(clean + 1e-8 * x ** (m.nu + 0.5 - 2.0), m, (1e-3, 0.05), x=x, series=series)
    assert fit.contamination > 1e-6
    with pytest.raises(ValueError, match="contamination"):
        extract_boundary(clean + 1e-3 * x ** (m.nu + 0.5 - 2.0), m, (1e-3, 0.05), x=x, series=series)


def test_extract_boundary_window_validation():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    x = np.geomspace(1e-4, 0.3, 50)
    u, series = x ** (m.nu + 0.5), np.ones_like(x)
    with pytest.raises(ValueError, match="L/4"):
        extract_boundary(u, m, (1e-3, 0.26), x=x, series=series)
    with pytest.raises(ValueError, match="fewer than 8"):
        extract_boundary(u, m, (1e-3, 1.2e-3), x=x, series=series)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_boundary_fits_hold_every_mode(nu):
    """Each mode is fitted up to min(L/4, 4/omega), where the series is
    short, so all 32 amplitudes keep to the toy oracle at integer 2 nu too."""
    model = make_toy_model("ads2_strip", nu=nu, L=1.0)
    sm = build_spectral(model, N=192, n_modes=32)
    assert np.abs(boundary_fits(sm)[0] / toy_boundary_amplitudes(model, 32) - 1.0).max() <= 1e-3


def test_fit_floor_starts_above_round_off():
    """At nu = 8 the modes near x = L/400 are round-off, so the windows
    start where |u| first reaches 1e-12 of its maximum; at nu <= 4 that
    point lies below L/400 and the floor is L/400."""
    for nu in (1.0, 4.0, 8.0):
        sm = build_spectral(make_toy_model("ads2_strip", nu=nu, L=1.0), N=192, n_modes=8)
        phi, x = sm.branch(0).phi, sm.grid.dof_x
        floor = fit_floor(phi, x, 1.0)
        first = np.argmax(np.abs(phi) >= 1e-12 * np.abs(phi).max(axis=0), axis=0)
        assert np.array_equal(floor, np.maximum(1.0 / 400.0, x[first])), nu
        assert np.all(floor == 1.0 / 400.0) == (nu <= 4.0), nu


def test_mode_boundary_exponent(sm192, ads2):
    """With its indicial series divided out, mode 1 reads nu + 1/2 to 1e-6;
    the bare log-log slope of |phi_1| read 1.3e-3 off, the x^2 term of S_omega."""
    slope = mellin_exponent_probe(sm192, (ads2.L / 400.0, ads2.L / 20.0))
    assert abs(slope - (ads2.nu + 0.5)) <= 1e-6


@pytest.mark.parametrize("nu", [8.0, 10.0, 12.0])
def test_mode_boundary_exponent_at_large_nu(nu):
    """On verify's window the probe reads nu + 1/2 to 1e-4 up to nu = 12; from
    nu = 10 the fits' floor lies above L/40 and the window is (floor, 2 floor)."""
    sm = build_spectral(make_toy_model("ads2_strip", nu=nu, L=1.0), N=192, n_modes=32)
    window = _plan(RunConfig(), sm).exponent_window
    assert (window[1] > 1.0 / 20.0) == (nu >= 10.0)
    assert abs(mellin_exponent_probe(sm, window) - (nu + 0.5)) <= 1e-4


def test_boundary_two_point_matches_oracle(sm192, ads2, tgrid):
    lp = make_propagator(sm192, "lambda_plus", tgrid)
    bk = boundary_two_point(lp, ads2)
    fitted, quality = boundary_fits(sm192)
    amps = boundary_amplitudes_mp(1.0, 1.0, 5)
    weights = line_weights_mp(1.0, 1.0, 5)
    assert np.abs(fitted[:5] / amps - 1.0).max() <= 1e-2
    assert np.abs(bk.weights[:5] / weights - 1.0).max() <= 1e-2
    assert quality[:5].min() > 0.999


def test_boundary_two_point_validation(ads2, zoo):
    """Only a lambda kernel restricts, and only with its own model: a model
    with the same parameters that is not ``kernel.spectral.model`` is refused."""
    with pytest.raises(ValueError, match="lambda"):
        boundary_two_point(zoo["retarded"], ads2)
    with pytest.raises(ValueError, match="kernel's own"):
        boundary_two_point(zoo["lambda_plus"], make_toy_model("ads2_strip", nu=1.0, L=1.0))


def test_boundary_kernels_keep_their_lines(tgrid):
    """The restriction scales the bulk kernel's own lines by c_k^2: a thermal
    kernel keeps its occupations and a mutated one its flipped modes, so each
    restricts to its own state, not to the vacuum."""
    model = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    sm = build_spectral(model, N=96, n_modes=8)
    lp, lm = (make_propagator(sm, kind, tgrid) for kind in ("lambda_plus", "lambda_minus"))
    c2 = boundary_fits(sm)[0] ** 2
    vacuum = boundary_two_point(lp, model)
    thermal = boundary_two_point(make_perturbed_state(lp, lm, {"thermal": 1.0}).lp_b, model)
    assert vacuum.weights[0] == pytest.approx(5.905, abs=1e-3)
    assert thermal.weights[0] == pytest.approx(6.167, abs=1e-3)
    mutant = lp.mutated(0.5)
    bk = boundary_two_point(mutant, model)
    assert bk.kind == "plus"
    assert np.array_equal(bk.a, c2 * mutant.a) and np.array_equal(bk.b, c2 * mutant.b)
    assert np.array_equal(bk.flipped, mutant.flipped) and bk.flipped.sum() == 4
    assert frequency_sign_test(bk, sm.m_floor_sqrt)["forbidden_fraction"] >= 1e3 * FREQ_MASS


def test_boundary_fits_on_every_cylinder_branch():
    """The toy cylinder's branches m >= 1 share branch 0's modes, so every
    branch, fitted on its own default windows, gives the toy amplitudes.
    Each (branch, window) pair is fitted once and kept read-only."""
    model = make_toy_model("ads3_cylinder", nu=1.0, L=1.0)
    sm = build_spectral(model, N=192, m_max=2, n_modes=32)
    want = toy_boundary_amplitudes(model, 5)
    for m in range(3):
        amps, quals = boundary_fits(sm, m)
        assert np.abs(amps[:5] / want - 1.0).max() <= 1e-2, m
        assert quals[:5].min() > 0.999, m
        assert boundary_fits(sm, m)[0].base is amps.base and not amps.flags.writeable, m
    assert boundary_fits(sm, 0, (1e-3, 0.05))[0].base is not boundary_fits(sm, 0)[0].base


def test_boundary_kernel_structure(sm192, ads2, tgrid):
    lp = make_propagator(sm192, "lambda_plus", tgrid)
    bk = boundary_two_point(lp, ads2)
    assert bk.frequency_sign == +1
    assert bk.weights == pytest.approx(boundary_fits(sm192)[0] ** 2 / (2.0 * bk.omega), rel=1e-15)
    lags = np.array([12, 44])  # tau = 0.3, 1.1
    vals = bk.trace(lags)
    flipped = bk.trace(-lags)
    assert vals == pytest.approx(np.conj(flipped), rel=1e-14)
    gram = boundary_gram(bk)
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    assert evals[0] >= -1e-10 * float(np.abs(evals).max())
    rep = frequency_sign_test(bk, sm192.m_floor_sqrt)
    assert rep["forbidden_fraction"] <= FREQ_MASS


def test_boundary_gram_reads_distinct_lags(sm192, ads2, tgrid, monkeypatch):
    """One gains call on fewer than 48^2 lags gives the dense Gram matrix of
    traces to two rounding units of its largest entry, and no farther from
    the long-double mode sum than the trace is."""
    bk = boundary_two_point(make_propagator(sm192, "lambda_plus", tgrid), ads2)
    idx = np.linspace(0, bk.T - 1, 48).round().astype(int)
    gains = bk.gains((idx[:, None] - idx[None, :]).ravel())
    dense = gains.sum(axis=0).reshape(48, 48)
    exact = sum(part.astype(np.longdouble).sum(axis=0) * unit for part, unit in ((gains.real, 1), (gains.imag, 1j)))
    sizes = []
    gains_at = LineSpectrum.gains
    monkeypatch.setattr(LineSpectrum, "gains", lambda self, lags: sizes.append(np.size(lags)) or gains_at(self, lags))
    got = boundary_gram(bk)
    assert np.max(np.abs(got - dense)) <= 2.0 * np.finfo(float).eps * np.max(np.abs(dense))
    assert np.max(np.abs(got - exact.reshape(48, 48))) <= np.max(np.abs(dense - exact.reshape(48, 48)))
    assert len(sizes) == 1 and sizes[0] < 48**2


def test_minus_kernel_mirrors(sm192, ads2, tgrid):
    lm = make_propagator(sm192, "lambda_minus", tgrid)
    bk = boundary_two_point(lm, ads2)
    assert bk.kind == "minus" and bk.frequency_sign == -1
    rep = frequency_sign_test(bk, sm192.m_floor_sqrt)
    assert rep["forbidden_fraction"] <= FREQ_MASS


def test_mellin_probe_validation(sm192, ads2):
    x = sm192.grid.dof_x
    with pytest.raises(ValueError, match="at least 8"):
        mellin_exponent_probe(sm192, (x[20], x[26]))  # 7 dofs
    br = sm192.branch(0)
    dead = SimpleNamespace(omega2=br.omega2, phi=np.zeros_like(br.phi))
    zero = SimpleNamespace(model=sm192.model, grid=sm192.grid, branch=lambda m: dead)
    with pytest.raises(ValueError, match="strictly positive"):
        mellin_exponent_probe(zero, (ads2.L / 400.0, ads2.L / 20.0))


@pytest.mark.parametrize("nu", [0.3, 1.0, 2.5, 4.0, 8.0])
def test_state_difference_restricts_smoothly(nu, tgrid):
    """Uniqueness at the boundary: the thermal state differs from the vacuum
    by a kernel whose restriction to the boundary is smooth.  The restriction
    scales line k by c_k^2, a power of omega_k, so the difference's decay order
    is read relative to the vacuum boundary kernel's: at least 6 for the Bose
    occupations, and below 6 for a fault whose occupations fall only like
    omega_k^-3."""
    model = make_toy_model("ads2_strip", nu=nu, L=1.0)
    sm = build_spectral(model, N=192, n_modes=32)
    lp, lm = (make_propagator(sm, kind, tgrid) for kind in ("lambda_plus", "lambda_minus"))
    vacuum = boundary_two_point(lp, model)

    def relative_order(state):
        bk = boundary_two_point(state, model)
        diff = LineSpectrum("difference", bk.t_grid, bk.branch, bk.a - vacuum.a, bk.b - vacuum.b)
        return smoothness_decay_order(diff) - smoothness_decay_order(vacuum)

    assert relative_order(make_perturbed_state(lp, lm, {"thermal": 5.0 / sm.m_floor_sqrt}).lp_b) >= 6.0
    n = (lp.omega[0] / lp.omega) ** 3
    assert relative_order(replace(lp, a=lp.a + n, b=lp.b + n)) < 6.0
