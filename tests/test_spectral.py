import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded
from scipy.sparse.linalg import LinearOperator, eigsh, spsolve
from oracles import (
    J1_FIRST_ZERO,
    bessel_zeros_mp,
    solve_branch_cho_solve_banded,
    toy_frequencies_mp,
)

import dataclasses
from dataclasses import replace

from adskg import bessel, spectral
from adskg.bessel import (
    bessel_collocation_eigs,
    model_zeros,
    toy_boundary_amplitudes,
    toy_frequencies,
    toy_line_weights,
)
from adskg.geometry import load_model, make_toy_model
from adskg.spectral import (
    _GAUSS_R,
    _GAUSS_W,
    _REF_NODES,
    Grid1D,
    SpectralBranch,
    SpectralModel,
    _solve_branch,
    build_spectral,
    load_spectral,
    save_spectral,
)


def test_oracle_spot_values():
    # guard the oracle itself against misuse before trusting it elsewhere
    assert bessel_zeros_mp(1.0, 1)[0] == pytest.approx(J1_FIRST_ZERO, rel=1e-14)
    assert bessel_zeros_mp(0.5, 3) == pytest.approx(np.pi * np.arange(1, 4), rel=1e-14)


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 2.5, 4.0])
def test_bessel_zeros_match_mpmath(nu):
    want = bessel_zeros_mp(nu, 64)
    assert np.max(np.abs(bessel._scan_zeros(nu, 64) - want) / want) <= 4e-16


def test_grid_grading_and_quadrature():
    g = Grid1D(1.0, 24, gamma=2.0)
    assert g.edges == pytest.approx((np.arange(25) / 24.0) ** 2, rel=1e-15)
    assert g.ndof == 3 * 24 - 1
    # ten-point Gauss is exact far beyond cubic polynomials
    for p in (1, 3, 7):
        integral = float((g.gauss_w * g.gauss_x**p).sum())
        assert integral == pytest.approx(1.0 / (p + 1), rel=1e-14)


@pytest.mark.parametrize("L, n, gamma", [(1.0, 24, 2.0), (2.5, 7, 1.5), (0.5, 64, 1.0)])
def test_grid_is_its_closed_form(L, n, gamma):
    """Edges L (i/N)^gamma; element e holds the nodes at its edge plus h/3
    and 2h/3, the last node is L, and the Gauss points and weights are the
    reference rule scaled to each element."""
    g = Grid1D(L, n, gamma)
    edges = L * (np.arange(n + 1) / n) ** gamma
    h = np.diff(edges)
    assert np.array_equal(g.edges, edges)
    assert np.array_equal(g.nodes[:-1].reshape(n, 3), edges[:-1, None] + h[:, None] * _REF_NODES[None, :3])
    assert g.nodes[-1] == L and np.array_equal(g.dof_x, g.nodes[1:-1]) and g.ndof == 3 * n - 1
    assert np.array_equal(g.nodes[g.elem_dofs[:, [0, 3]]], np.stack([edges[:-1], edges[1:]], axis=1))
    assert np.array_equal(g.gauss_x, edges[:-1, None] + h[:, None] * _GAUSS_R[None, :])
    assert np.array_equal(g.gauss_w, h[:, None] * _GAUSS_W[None, :])


def test_value_types_take_only_their_inputs():
    from adskg.bchar import ReflectionEvent
    from adskg.holography import IndicialSeries
    from adskg.microlocal import StatePair, Wavepacket
    from adskg.propagators import LineSpectrum

    def inputs(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert inputs(Grid1D) == ["L", "n_elements", "gamma"]
    assert inputs(SpectralBranch) == ["m", "omega2", "phi"]
    assert inputs(SpectralModel) == ["model", "grid", "branches", "M"]
    assert inputs(LineSpectrum) == ["kind", "t_grid", "branch", "a", "b", "spectral"]
    assert inputs(Wavepacket) == ["width", "energy_sign", "coefficients", "m", "x_mean", "x_var", "xi_mean",
                                  "xi_var", "tail"]
    assert inputs(IndicialSeries) == ["alpha", "coeffs", "residual_slope"]
    assert inputs(ReflectionEvent) == ["s", "wall", "xi_in", "point"]
    assert inputs(StatePair) == ["lp_a", "lp_b", "lm_b", "occupation"]


@pytest.mark.parametrize(
    "module", ["geometry", "spectral", "bessel", "binio", "bchar", "propagators", "holography", "microlocal"]
)
def test_all_lists_the_public_definitions(module):
    """A layer's ``__all__`` names exactly the public functions and classes
    it defines (it may name constants besides)."""
    import importlib
    import inspect

    mod = importlib.import_module(f"adskg.{module}")
    defined = {name for name, obj in vars(mod).items() if not name.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__}
    listed = {name for name in mod.__all__ if inspect.isfunction(getattr(mod, name))
              or inspect.isclass(getattr(mod, name))}
    assert listed == defined


def _stiffness(sm: SpectralModel) -> dict:
    """The stiffness K_m of each branch of sm, assembled as the build assembles it."""
    stiffness = spectral._assemble_operators(sm.model, sm.grid)[1]
    return {m: stiffness(m) for m in sorted(sm.branches)}


def _count_assembles(monkeypatch) -> list:
    calls = []
    assemble = spectral._assemble
    monkeypatch.setattr(spectral, "_assemble", lambda grid, elem: calls.append(elem) or assemble(grid, elem))
    return calls


def test_mass_matrix_is_assembled_once(monkeypatch):
    """Every branch shares one mass matrix: a three-branch build assembles
    it once, and the stiffness of each branch it solves once, which on the
    separable cylinder is branch 0 alone."""
    calls = _count_assembles(monkeypatch)
    sm = build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, n_modes=4, m_max=2)
    elems = list(calls)
    assert len(elems) == 1 + 1
    assert _same_csc(spectral._assemble(sm.grid, elems[0]), sm.M)
    assert _same_csc(spectral._assemble(sm.grid, elems[1]), _stiffness(sm)[0])


def test_loading_a_blob_assembles_only_the_mass_matrix(tmp_path, monkeypatch):
    """A model is its eigendata and M: loading a three-branch blob assembles
    M once and no stiffness."""
    sm = build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, n_modes=4, m_max=2)
    path = str(tmp_path / "cyl.bin")
    save_spectral(sm, path)
    calls = _count_assembles(monkeypatch)
    back = load_spectral(path)
    assert len(calls) == 1
    assert _same_csc(back.M, sm.M)


def test_eigenvalues_match_bessel_oracle(sm192):
    want = toy_frequencies_mp(1.0, 1.0, 10) ** 2
    got = sm192.branch(0).omega2[:10]
    rel = np.abs(got / want - 1.0)
    assert rel.max() < 1e-5


def test_half_order_is_sine_series():
    m = make_toy_model("ads2_strip", nu=0.5, L=1.0)
    sm = build_spectral(m, N=128, n_modes=6)
    want = (np.pi * np.arange(1, 7)) ** 2
    assert sm.branch(0).omega2 == pytest.approx(want, rel=1e-7)


def test_modes_mass_orthonormal(sm192):
    phi = sm192.branch(0).phi
    gram = phi.T @ (sm192.M @ phi)
    assert gram == pytest.approx(np.eye(gram.shape[0]), abs=1e-10)


def test_m2_floor_tracks_lowest_eigenvalue(sm192):
    w1 = float(sm192.branch(0).omega2[0])
    assert 0.0 < sm192.m2_floor <= w1
    assert sm192.m2_floor == pytest.approx(w1, rel=5e-3)
    assert sm192.m_floor_sqrt == pytest.approx(np.sqrt(sm192.m2_floor), rel=1e-15)


def test_project_synthesize_roundtrip(sm192):
    rng = np.random.default_rng(3)
    a = rng.standard_normal(sm192.n_modes) + 1j * rng.standard_normal(sm192.n_modes)
    f = sm192.synthesize(a)
    assert sm192.project(f) == pytest.approx(a, abs=1e-10)


@pytest.mark.parametrize("case", ["1", "cylinder", "table"])
def test_modal_wave_operator_matches_the_grid_operator(case):
    """On data in the span of the modes, the modal d^2/dt^2 + A equals the
    grid stencil plus the assembled M^-1 K (a sparse solve) of branch 0."""
    from adskg.propagators import apply_wave_operator

    model, m_max = _eigen_case(case)
    sm = build_spectral(model, N=96, n_modes=16, m_max=m_max)
    M, stiffness, _ = spectral._assemble_operators(model, sm.grid)
    K = stiffness(0)
    rng = np.random.default_rng(11)
    f = sm.synthesize(rng.standard_normal((5, sm.n_modes)) + 1j * rng.standard_normal((5, sm.n_modes)))
    dt = 0.1
    want = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dt**2 + np.stack([spsolve(M, K @ row) for row in f[1:-1]])
    got = apply_wave_operator(sm, f, dt)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("nu", [0.3, 1.0])
@pytest.mark.parametrize("kind, m_max", [("ads2_strip", 0), ("ads3_cylinder", 2)])
def test_eigensolve_matches_superlu_shift_invert(kind, m_max, nu):
    """The standard-form solve on the Cholesky-reduced pencil against SciPy's
    default (SuperLU) shift-invert at the stress size, where K is worst conditioned at small nu;
    on the cylinder this checks the branches m >= 1 that are branch 0 shifted
    by mu_m against a solve of their own K_m."""
    sm = build_spectral(make_toy_model(kind, nu=nu, L=1.0), N=2000, n_modes=32, m_max=m_max)
    M, K = sm.M, _stiffness(sm)
    for m, br in sm.branches.items():
        v0 = np.full(M.shape[0], 1.0 / np.sqrt(M.shape[0]))
        want = np.sort(eigsh(K[m], k=32, M=M, sigma=0.0, which="LM", v0=v0, return_eigenvectors=False))
        assert np.abs(br.omega2 / want - 1.0).max() <= 1e-10, m
        assert np.abs(br.phi.T @ (M @ br.phi) - np.eye(32)).max() <= 1e-12, m


def _generalized_oracle(K, M, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The generalized-mode solve the standard form replaced: ARPACK shift-invert
    (mode 3) of K w = omega^2 M w at sigma = 0 with K's banded Cholesky solve."""
    k_factor = spectral._banded_cholesky(K)
    k_inv = LinearOperator(K.shape, matvec=lambda b: cho_solve_banded((k_factor, False), b), dtype=float)
    v0 = np.full(K.shape[0], 1.0 / np.sqrt(K.shape[0]))
    vals, vecs = eigsh(K, k=n_modes, M=M, sigma=0.0, which="LM", v0=v0, OPinv=k_inv)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _relative_residuals(K, M, omega2, phi) -> np.ndarray:
    """|K phi_k - omega_k^2 M phi_k| / (omega_k^2 |M phi_k|) per mode."""
    m_phi = M @ phi
    return np.linalg.norm(K @ phi - m_phi * omega2, axis=0) / (omega2 * np.linalg.norm(m_phi, axis=0))


def _eigen_case(case: str):
    """(model, m_max) of an eigensolver case: the strip at nu, the cylinder or a table."""
    if case == "cylinder":
        return make_toy_model("ads3_cylinder", nu=1.0, L=1.0), 2
    if case == "table":
        xs = np.linspace(0.0, 1.0, 41)
        return load_model({"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0, "beta_table": (xs, 1.0 + xs**2)}), 0
    return make_toy_model("ads2_strip", nu=float(case), L=1.0), 0


def _assert_matches_oracle(sm, orth_tol: float) -> list:
    """Every branch against the generalized oracle on its own K_m: eigenvalues
    to 1e-13 relative, sign-aligned eigenvectors to 1e-11, M-orthonormality
    to orth_tol; returns the (got, oracle) residual pairs per branch.  A
    branch that shares branch 0's modes (the separable cylinder) is branch 0
    shifted by mu_m, which the assembled K_m matches to 1.6e-13 relative,
    as before the standard form; its eigenvalues are held to 1e-12."""
    residuals = []
    K = _stiffness(sm)
    for m, br in sm.branches.items():
        vals, vecs = _generalized_oracle(K[m], sm.M, sm.n_modes)
        shifted = m > 0 and br.phi is sm.branch(0).phi
        assert np.abs(br.omega2 / vals - 1.0).max() <= (1e-12 if shifted else 1e-13), m
        signs = np.sign(np.sum(br.phi * vecs, axis=0))
        assert np.abs(br.phi - vecs * signs).max() <= 1e-11, m
        assert np.abs(br.phi.T @ (sm.M @ br.phi) - np.eye(sm.n_modes)).max() <= orth_tol, m
        residuals.append((_relative_residuals(K[m], sm.M, br.omega2, br.phi),
                          _relative_residuals(K[m], sm.M, vals, vecs)))
    return residuals


@pytest.mark.parametrize("N", [64, 192])
@pytest.mark.parametrize("case", ["0.05", "1", "8", "cylinder", "table"])
def test_standard_form_solve_matches_generalized_oracle(case, N):
    """The Lanczos solve of R K^-1 R^T y = y / omega^2 against the generalized
    shift-invert solve of K w = omega^2 M w, on every branch, with residuals
    within 1e-10 omega^2 |M phi|."""
    model, m_max = _eigen_case(case)
    sm = build_spectral(model, N=N, n_modes=min(32, N // 4), m_max=m_max)
    for got, _ in _assert_matches_oracle(sm, orth_tol=1e-13):
        assert got.max() <= 1e-10


def test_standard_form_solve_matches_generalized_oracle_at_stress_size():
    """At N = 2000 and nu = 0.05, where K is worst conditioned, the solve still
    matches the oracle.  The forward error of K^-1 R^T y leaves M-orthonormality
    at 2.2e-13 (the oracle's 2.4e-15), and round-off in K phi puts either
    solve's relative residual near 3e-9, so it is held to the oracle's own."""
    sm = build_spectral(make_toy_model("ads2_strip", nu=0.05, L=1.0), N=2000, n_modes=32)
    [(got, want)] = _assert_matches_oracle(sm, orth_tol=1e-12)
    assert got.max() <= want.max()


@pytest.mark.parametrize("N", [64, 192])
@pytest.mark.parametrize("case", ["1", "cylinder", "table"])
def test_branch_solve_through_dpbtrs_matches_cho_solve_banded(case, N):
    """K^-1 applied by LAPACK dpbtrs directly gives the eigenpairs of the
    same solve through scipy's cho_solve_banded wrapper, bit for bit, on
    every branch's own K_m."""
    model, m_max = _eigen_case(case)
    sm = build_spectral(model, N=N, n_modes=min(32, N // 4), m_max=m_max)
    m_factor = spectral._banded_cholesky(sm.M)
    for m, K in _stiffness(sm).items():
        got, want = _solve_branch(K, m_factor, sm.n_modes), solve_branch_cho_solve_banded(K, m_factor, sm.n_modes)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), m


def test_mass_factor_is_computed_once_per_model(monkeypatch):
    """One banded Cholesky factor of M per build, shared by every branch
    solve; each solved branch factors its own K_m once."""
    factored = []
    factor = spectral._banded_cholesky
    monkeypatch.setattr(spectral, "_banded_cholesky", lambda A: factored.append(A) or factor(A))
    xs = np.linspace(0.0, 1.0, 41)
    model = load_model({"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0,
                        "beta_table": (xs, 2.0 + xs**2), "k_table": (xs, 1.0 + 0.2 * xs**2)})
    sm = build_spectral(model, N=64, n_modes=4, m_max=2)
    assert len(factored) == 4
    assert factored[0] is sm.M
    for m, K in _stiffness(sm).items():
        assert _same_csc(factored[1 + m], K), m


@pytest.mark.parametrize("shape", [(575,), (3, 575), (65, 575), (768, 575), (4096, 575), (2, 5, 575)])
@pytest.mark.parametrize("complex_data", [False, True])
def test_project_keeps_the_bits_of_data_times_m_phi(sm192, shape, complex_data):
    """``project`` multiplies 2-D data with the thin factor M phi leading and
    keeps the bits of f @ (M phi); 1-D and 3-D data take f @ (M phi) itself."""
    rng = np.random.default_rng(len(shape) * shape[0])
    f = rng.standard_normal(shape)
    if complex_data:
        f = f + 1j * rng.standard_normal(shape)
    got = sm192.project(f)
    assert got.shape == shape[:-1] + (sm192.n_modes,)
    assert np.array_equal(got, f @ (sm192.M @ sm192.branch(0).phi))


def test_negative_stiffness_fails_the_spectral_floor(sm192):
    with pytest.raises(ValueError, match="spectral floor assumption fails"):
        _solve_branch(-_stiffness(sm192)[0], spectral._banded_cholesky(sm192.M), 4)


def test_transverse_branches_shift_in_quadrature():
    m = make_toy_model("ads3_cylinder", nu=1.0, L=1.0, ell=2.0 * np.pi)
    sm = build_spectral(m, N=96, n_modes=4, m_max=2)
    assert sorted(sm.branches) == [0, 1, 2]
    base = sm.branch(0).omega2
    for mm in (1, 2):
        assert np.array_equal(sm.branch(mm).omega2, base + m.transverse_mu(mm))
    with pytest.raises(KeyError):
        sm.branch(3)


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = spectral._solve_branch
    monkeypatch.setattr(spectral, "_solve_branch", lambda K, M, n: calls.append(K) or solve(K, M, n))
    return calls


def _residuals(sm: SpectralModel, m: int) -> np.ndarray:
    """|K_m phi_k - omega_k^2 M phi_k| / omega_k^2 per mode of branch m."""
    br = sm.branch(m)
    return np.linalg.norm(_stiffness(sm)[m] @ br.phi - (sm.M @ br.phi) * br.omega2, axis=0) / br.omega2


def test_separable_branches_share_one_solve(monkeypatch):
    """With k = beta (the toy cylinder) A_m = A_0 + mu_m: one solve, and the
    branches m >= 1 carry branch 0's modes, shifted exactly by mu_m, which
    are eigenpairs of their own assembled K_m."""
    calls = _count_solves(monkeypatch)
    model = make_toy_model("ads3_cylinder", nu=1.0, L=1.0)
    sm = build_spectral(model, N=64, n_modes=4, m_max=2)
    assert len(calls) == 1
    base = sm.branch(0)
    for m in (1, 2):
        br = sm.branch(m)
        assert np.array_equal(br.omega2, base.omega2 + model.transverse_mu(m))
        assert np.array_equal(br.phi, base.phi)
        assert _residuals(sm, m).max() <= 1e-9


def test_non_separable_branches_solve_each(monkeypatch):
    """With k != beta the transverse term is not a multiple of the mass
    density, so every branch runs its own solve."""
    calls = _count_solves(monkeypatch)
    xs = np.linspace(0.0, 1.0, 41)
    model = load_model({"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0,
                        "beta_table": (xs, 2.0 + xs**2), "k_table": (xs, 1.0 + 0.2 * xs**2)})
    sm = build_spectral(model, N=64, n_modes=4, m_max=2)
    assert len(calls) == 3
    for m, K in _stiffness(sm).items():
        assert _same_csc(calls[m], K), m
        assert _residuals(sm, m).max() <= 1e-9
        phi = sm.branch(m).phi
        assert np.abs(phi.T @ (sm.M @ phi) - np.eye(4)).max() <= 1e-12


def test_collocation_crosscheck_small_nu():
    m = make_toy_model("ads2_strip", nu=0.7, L=1.0)
    vals = bessel_collocation_eigs(m, n_basis=12, n_modes=5)
    want = toy_frequencies_mp(0.7, 1.0, 5) ** 2
    assert vals == pytest.approx(want, rel=1e-8)


def _collocation_grid(nu: float, n_basis: int = 24):
    """The nodes and Bessel arguments u = z_j x / L of
    ``bessel_collocation_eigs`` (L = 1): 2 n_basis + 16 Gauss-Jacobi nodes."""
    x = bessel._jacobi_rule(2 * n_basis + 16, 2.0 * nu - 1.0)[0]
    return x, x[:, None] * bessel._scan_zeros(nu, n_basis)[None, :]


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 2.5, 4.0])
def test_collocation_derivative_recurrence(nu):
    """psi' = ((nu + 1/2) J_nu(u) - u J_{nu+1}(u)) / sqrt(x) (DLMF 10.6.2)
    agrees with the product rule on scipy's jvp on every basis function."""
    x, u = _collocation_grid(nu)
    sq = np.sqrt(x)[:, None]
    j = scipy.special.jv(nu, u)
    by_jvp = 0.5 / sq * j + sq * (u / x[:, None]) * scipy.special.jvp(nu, u)
    by_recurrence = ((nu + 0.5) * j - u * scipy.special.jv(nu + 1.0, u)) / sq
    err = np.max(np.abs(by_recurrence - by_jvp), axis=0) / np.max(np.abs(by_jvp), axis=0)
    assert np.max(err) <= 1e-13


def test_collocation_takes_two_bessel_passes(monkeypatch):
    """The basis and its derivative cost two jv evaluations on the
    (nodes x basis) grid, and jvp is never called."""
    shapes = []
    jv = scipy.special.jv

    def counting_jv(order, u):
        shapes.append(np.shape(u))
        return jv(order, u)

    def no_jvp(*args):
        raise AssertionError("jvp called")

    monkeypatch.setattr(bessel, "jv", counting_jv)
    monkeypatch.setattr(scipy.special, "jvp", no_jvp)
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    bessel_collocation_eigs(m, n_basis=24, n_modes=4)
    assert shapes.count((64, 24)) == 2


def _collocation_error(nu: float, L: float = 1.0, kind: str = "ads2_strip", m: int = 0) -> float:
    """The ``collocation_oracle`` value: worst relative error of the first
    four frequencies against mpmath."""
    model = make_toy_model(kind, nu=nu, L=L)
    want = toy_frequencies_mp(nu, L, 4, model.transverse_mu(m))
    return float(np.max(np.abs(np.sqrt(bessel_collocation_eigs(model, n_basis=24, n_modes=4, m=m)) - want) / want))


@pytest.mark.parametrize("nu", [0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.5, 4.0, 8.0])
def test_collocation_oracle_at_round_off(nu):
    """One Gauss-Jacobi rule integrates the x^(2 nu - 1) (entire) integrands
    exactly, so the oracle sits at round-off on both sides of nu = 1."""
    assert max(_collocation_error(nu, L) for L in (0.5, 1.0, 2.0)) <= 1e-13


@pytest.mark.parametrize("m", [1, 2])
def test_collocation_cylinder_branches(m):
    assert _collocation_error(1.0, kind="ads3_cylinder", m=m) <= 1e-13


@pytest.mark.parametrize("nu", [0.3, 1.0, 4.0])
def test_collocation_converged_at_its_node_count(monkeypatch, nu):
    """Doubling the rule's 64 nodes (at 24 basis functions) moves no
    eigenvalue beyond round-off."""
    model = make_toy_model("ads2_strip", nu=nu, L=1.0)
    rule, counts = bessel._jacobi_rule, []
    monkeypatch.setattr(bessel, "_jacobi_rule", lambda n, b: counts.append(n) or rule(n, b))
    vals = bessel_collocation_eigs(model, n_basis=24, n_modes=4)
    monkeypatch.setattr(bessel, "_jacobi_rule", lambda n, b: counts.append(2 * n) or rule(2 * n, b))
    doubled = bessel_collocation_eigs(model, n_basis=24, n_modes=4)
    assert counts == [64, 128]
    assert np.max(np.abs(doubled - vals) / vals) <= 1e-13


@pytest.mark.parametrize("n", [16, 64, 128])
@pytest.mark.parametrize("b", [-0.8, -0.4, 0.0, 1.0, 15.0])
def test_jacobi_rule_is_exact_on_polynomials(n, b):
    """The n-point rule integrates y^k against y^b on (0, 1) exactly for
    k <= 2n - 1: sum w y^k = 1 / (b + k + 1)."""
    y, w = bessel._jacobi_rule(n, b)
    assert y.shape == w.shape == (n,) and 0.0 < y[0] and y[-1] < 1.0
    k = np.arange(2 * n)[:, None]
    assert np.max(np.abs((w * y**k).sum(axis=1) * (b + k[:, 0] + 1.0) - 1.0)) <= 1e-13


def test_collocation_refuses_custom_models():
    """The rule is exact only for constant beta and k: a custom table is
    refused, not integrated inaccurately."""
    xs = np.linspace(0.0, 1.0, 8)
    model = load_model({"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0, "beta_table": [list(xs), list(1.0 + xs**2)]})
    with pytest.raises(ValueError, match="toy models"):
        bessel_collocation_eigs(model, n_basis=24, n_modes=4)


def test_toy_line_weights_find_zeros_once(monkeypatch):
    """The toy oracles of one model share its longest zero scan: a shorter
    request is a slice of it, and a longer one scans again."""
    zeros = bessel._scan_zeros(1.5, 40)
    want = toy_boundary_amplitudes(make_toy_model("ads2_strip", nu=1.5, L=2.0), 32) ** 2 / (2.0 * (zeros[:32] / 2.0))
    m = make_toy_model("ads2_strip", nu=1.5, L=2.0)
    bisected = []
    bisect = bessel._bisect
    monkeypatch.setattr(bessel, "_bisect", lambda nu, starts: bisected.append(starts.size) or bisect(nu, starts))
    assert np.array_equal(toy_line_weights(m, 32), want)
    assert bisected == [32]
    assert np.array_equal(toy_frequencies(m, 5), zeros[:5] / 2.0)
    assert bisected == [32]
    assert np.array_equal(model_zeros(m, 40), zeros)
    assert bisected == [32, 40]
    with pytest.raises(ValueError, match="read-only"):
        model_zeros(m, 3)[0] = 0.0
    with pytest.raises(ValueError, match="count must be >= 1"):
        model_zeros(m, 0)


def _walked_brackets(nu: float, count: int) -> np.ndarray:
    """Left ends of the first ``count`` sign-change brackets of a scan that
    walks x0, x0 + 0.5, ... one step and one jv call at a time."""
    x = max(nu, 0.1) + 1e-9
    f, starts = scipy.special.jv(nu, x), []
    while len(starts) < count:
        f_next = scipy.special.jv(nu, x + 0.5)
        if f == 0.0 or f * f_next < 0.0:
            starts.append(x)
        x, f = x + 0.5, f_next
    return np.array(starts)


@pytest.mark.parametrize("nu", [0.01, 0.3, 1.0, 4.0, 12.0])
def test_zero_scan_brackets_are_those_of_a_walked_scan(monkeypatch, nu):
    """The one vectorized jv call brackets the zeros at the bits of a
    step-by-step scan, so the zeros are the bisections of its brackets."""
    brackets, bisect = [], bessel._bisect
    monkeypatch.setattr(bessel, "_bisect", lambda nu, starts: brackets.append(starts) or bisect(nu, starts))
    zeros = bessel._scan_zeros(nu, 100)
    walked = _walked_brackets(nu, 100)
    assert len(brackets) == 1 and np.array_equal(brackets[0], walked)
    assert np.array_equal(zeros, bisect(nu, walked))


@pytest.mark.parametrize("nu", [0.05, 0.5, 1.0, 2.5, 8.0])
def test_zero_scan_extends_with_the_bits_of_one_scan(nu):
    """A model's scan extended request by request gives the bits of one
    standalone scan of the longest count."""
    m = make_toy_model("ads2_strip", nu=nu, L=1.0)
    whole = bessel._scan_zeros(nu, 64)
    for count in (1, 10, 5, 24, 64, 33):
        assert np.array_equal(model_zeros(m, count), whole[:count]), count


@settings(max_examples=40)
@given(nu=st.floats(min_value=0.01, max_value=12.0), counts=st.lists(st.integers(1, 100), min_size=1, max_size=6))
def test_model_zeros_are_one_scan_of_the_longest_count(nu, counts):
    """Whatever the order of the requests, a model's zeros are the bits of
    one standalone scan of the longest count asked for."""
    m = make_toy_model("ads2_strip", nu=nu, L=1.0)
    whole = bessel._scan_zeros(nu, max(counts))
    for count in counts:
        assert np.array_equal(model_zeros(m, count), whole[:count]), count


def test_blob_roundtrip(tmp_path, sm192):
    path = str(tmp_path / "model.npz")
    save_spectral(sm192, path)
    back = load_spectral(path)
    assert back.describe() == sm192.describe()
    assert np.array_equal(back.branch(0).omega2, sm192.branch(0).omega2)
    assert np.array_equal(back.branch(0).phi, sm192.branch(0).phi)
    assert np.array_equal(back.M.toarray(), sm192.M.toarray())
    assert np.array_equal(back.grid.dof_x, sm192.grid.dof_x)


def _same_csc(a, b) -> bool:
    return all(np.array_equal(getattr(a, part), getattr(b, part)) for part in ("data", "indices", "indptr"))


def _assert_same_operators(back, sm):
    """The loaded model's M, omega^2 and phi equal the built one's, bit for bit."""
    assert _same_csc(back.M, sm.M)
    assert sorted(back.branches) == sorted(sm.branches)
    for m, br in sm.branches.items():
        assert np.array_equal(back.branch(m).omega2, br.omega2) and np.array_equal(back.branch(m).phi, br.phi), m


@pytest.fixture(scope="module")
def cyl96():
    return build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=96, n_modes=8, m_max=2)


def test_separable_blob_stores_one_eigenbasis(tmp_path, cyl96):
    """The toy cylinder's branches share branch 0's modes: the blob holds
    each omega^2 and one phi, and the reload shares that phi again; M is
    assembled on load to the built matrix."""
    from adskg import binio

    path = str(tmp_path / "cyl.bin")
    save_spectral(cyl96, path)
    _, arrays = binio.read_blob(path)
    assert sorted(arrays) == ["omega2_0", "omega2_1", "omega2_2", "phi_0"]
    back = load_spectral(path)
    assert all(back.branch(m).phi is back.branch(0).phi for m in (1, 2))
    _assert_same_operators(back, cyl96)


def test_non_separable_blob_keeps_each_eigenbasis(tmp_path):
    """With k != beta each branch has its own modes, so the blob keeps each
    phi; M still comes back from the recipe and its tables."""
    from adskg import binio

    xs = np.linspace(0.0, 1.0, 41)
    model = load_model({"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0,
                        "beta_table": (xs, 2.0 + xs**2), "k_table": (xs, 1.0 + 0.2 * xs**2)})
    sm = build_spectral(model, N=64, n_modes=4, m_max=1)
    path = str(tmp_path / "custom3.bin")
    save_spectral(sm, path)
    _, arrays = binio.read_blob(path)
    names = sorted(name for name in arrays if not name.startswith("table_"))
    assert names == ["omega2_0", "omega2_1", "phi_0", "phi_1"]
    back = load_spectral(path)
    assert back.branch(1).phi is not back.branch(0).phi
    _assert_same_operators(back, sm)


def test_parent_format_blob_still_loads(tmp_path, cyl96):
    """A blob of the older layout (M and K_m as CSC parts, a phi copy per
    branch, a per-mode signs array) loads to the same model."""
    from adskg import binio

    meta, _ = spectral._spectral_record(cyl96)
    arrays = {f"M_{part}": getattr(cyl96.M, part) for part in ("data", "indices", "indptr")}
    K = _stiffness(cyl96)
    for m, br in cyl96.branches.items():
        arrays.update({f"omega2_{m}": br.omega2, f"phi_{m}": br.phi.copy()})
        arrays.update({f"K_{part}_{m}": getattr(K[m], part) for part in ("data", "indices", "indptr")})
    arrays["signs"] = np.ones(cyl96.n_modes)
    path = str(tmp_path / "old.bin")
    binio.write_blob(path, meta, arrays)
    _assert_same_operators(load_spectral(path), cyl96)


def test_blob_derives_mode_count_and_floor(tmp_path):
    """A blob stores neither the mode count nor the floor: both come back,
    bit for bit, from the saved eigenvalues."""
    from adskg import binio

    sm = build_spectral(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), N=64, n_modes=5, m_max=2)
    path = str(tmp_path / "cyl.bin")
    save_spectral(sm, path)
    meta, _ = binio.read_blob(path)
    assert not {"n_modes", "m2_floor"} & set(meta)
    back = load_spectral(path)
    assert back.n_modes == sm.n_modes == 5
    assert back.m2_floor == sm.m2_floor
    assert sm.m2_floor == min(float(sm.branch(m).omega2[0]) for m in range(3)) * (1.0 - spectral._FLOOR_DEFLATION)


def test_blob_arrays_are_real(tmp_path):
    """write_blob refuses a complex array (a cast would drop its imaginary
    part) and writes nothing; read_blob refuses a complex dtype."""
    import json
    import struct

    from adskg import binio

    path = tmp_path / "complex.bin"
    with pytest.raises(ValueError, match="complex"):
        binio.write_blob(str(path), {}, {"re": np.ones(3), "z": np.ones(3) * (1.0 + 2.0j)})
    assert not path.exists()
    header = json.dumps({"meta": {}, "arrays": [{"name": "z", "dtype": "<c16", "shape": [1]}]}).encode()
    path.write_bytes(binio.MAGIC + struct.pack("<II", binio.VERSION, len(header)) + header + bytes(16))
    with pytest.raises(ValueError, match="disallowed dtype"):
        binio.read_blob(str(path))
    binio.write_blob(str(path), {"k": 1}, {"i": np.arange(3), "x": np.linspace(0.0, 1.0, 3)})
    meta, arrays = binio.read_blob(str(path))
    assert meta == {"k": 1} and arrays["i"].dtype == np.int64 and arrays["x"].dtype == np.float64


def test_blob_roundtrip_custom_model(tmp_path):
    xs = np.linspace(0.0, 1.0, 161)
    m = load_model(
        {
            "kind": "custom",
            "n": 2,
            "nu": 1.2,
            "L": 1.0,
            "beta_table": (xs, 1.0 + 0.1 * xs**2),
            "k_table": (xs, np.ones_like(xs)),
        }
    )
    sm = build_spectral(m, N=64, n_modes=4)
    path = str(tmp_path / "custom.npz")
    save_spectral(sm, path)
    back = load_spectral(path)
    assert np.array_equal(back.branch(0).omega2, sm.branch(0).omega2)
    xq = np.array([0.2, 0.5])
    assert back.model.beta(xq) == pytest.approx(m.beta(xq), rel=1e-12)


def test_blob_roundtrip_replaced_tables(tmp_path):
    """A variant with new tables is saved with the eigendata of those tables
    and reloads with the same warp factors."""
    xs = np.linspace(0.0, 1.0, 41)
    m = load_model({"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0, "beta_table": (xs, 1.0 + 0.3 * xs**2)})
    v = replace(m, tables={"beta": (xs, 2.0 + xs**2), "k": (xs, 1.0 + 0.2 * xs**2)})
    sm = build_spectral(v, N=64, n_modes=4)
    path = str(tmp_path / "replaced.bin")
    save_spectral(sm, path)
    back = load_spectral(path)
    xq = np.linspace(0.0, 1.0, 9)
    for name in ("beta", "k", "dbeta", "dk"):
        assert np.array_equal(getattr(back.model, name)(xq), getattr(v, name)(xq)), name
    assert back.model.beta(0.5) == pytest.approx(2.25, rel=1e-12)
    assert np.array_equal(back.branch(0).omega2, build_spectral(back.model, N=64, n_modes=4).branch(0).omega2)
