"""Spectral data for the spatial operator of the conjugated wave equation.

After stripping the weight x^(n/2-1) beta^(-1/2) from the Klein-Gordon
operator on a static warped model, the evolution takes the form

    d^2/dt^2 + A,     A = beta^(1/2) ( -d^2/dx^2 + (nu^2 - 1/4)/x^2
                                       + mu_m / k(x) ) beta^(1/2),

per transverse Fourier mode m, with mu_m = (2 pi m / ell)^2.  A is kept as
its Friedrichs realization: the quadratic form lives on functions vanishing
at both ends of (0, L), and the inverse-square potential selects the
x^(nu + 1/2) branch at the conformal boundary.

Discretization: cubic Lagrange elements on a boundary-graded mesh with
element edges at L (i/N)^gamma (gamma = 2 by default), assembled by
Gauss-Legendre quadrature.  On the first element every retained shape
function vanishes linearly at x = 0, so the singular potential integrand is
a polynomial there and the quadrature is exact.  The mass matrix is
assembled and Cholesky-factored (M = R^T R, banded with half-bandwidth 3:
an element couples its four dofs) once per build.  The eigenpairs of
K w = omega^2 M w come from a Lanczos solve of the standard symmetric
problem R K^-1 R^T y = y / omega^2, with K^-1 applied through K's own banded
Cholesky factor and a fixed starting vector, so rebuilds are deterministic.
One solve serves every branch when k = beta (the toy cylinder): then
mu_m / k times beta is the constant mu_m, so A_m = A_0 + mu_m exactly, and
branch m >= 1 reuses branch 0's modes with omega^2 shifted by mu_m.
Otherwise each branch is solved.  The model is then its eigendata and M:
the factors and the K_m are dropped, and A acts on the retained modes as
omega^2 (``propagators.apply_wave_operator``).  A blob keeps the recipe,
each omega^2 and each distinct eigenbasis; loading assembles M again.

``Grid1D(L, N, gamma)`` derives its nodes and quadrature points, and
``SpectralModel`` its mode count and certified floor m2_floor (the least
eigenvalue over the branches, deflated by ``_FLOOR_DEFLATION``).

For models with nonconstant beta the eigenvectors are stored in the "form
frame" w = beta^(1/2) u, where the discrete inner product is the assembled
mass matrix; divide by beta^(1/2) to recover field values.  For the exact
toys the two frames coincide; their closed-form references, the
collocation oracle included, live in ``bessel``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.linalg import LinearOperator, eigsh

from .geometry import MetricModel

__all__ = [
    "Grid1D",
    "SpectralBranch",
    "SpectralModel",
    "build_spectral",
    "save_spectral",
    "load_spectral",
]

_REF_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_N_GAUSS = 10
_FLOOR_DEFLATION = 1e-6  # relative margin of the certified spectral floor below the least eigenvalue
_BAND = _REF_NODES.size - 1  # half-bandwidth of M and K: an element couples its four dofs
_NCV_EXTRA = 24  # Lanczos vectors beyond the wanted modes: 2K+1 is slower, K+16 and K+24 tie at K = 32
_FLOOR_FAILS = "the spectral floor assumption fails for this model/discretization"


def _reference_shapes(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic Lagrange shape values and derivatives at reference points r."""
    vals = np.empty((r.size, 4))
    ders = np.empty((r.size, 4))
    for j in range(4):
        num = 1.0
        poly = np.poly1d([1.0])
        for m in range(4):
            if m == j:
                continue
            poly *= np.poly1d([1.0, -_REF_NODES[m]])
            num *= _REF_NODES[j] - _REF_NODES[m]
        poly /= num
        vals[:, j] = poly(r)
        ders[:, j] = poly.deriv()(r)
    return vals, ders


def _gauss_tables() -> tuple[np.ndarray, ...]:
    """Gauss-Legendre abscissae and weights on the reference element [0, 1]
    and the shape values and derivatives there, read-only: every grid shares
    them."""
    gq, gw = np.polynomial.legendre.leggauss(_N_GAUSS)
    rg = 0.5 * (gq + 1.0)
    tables = (rg, 0.5 * gw, *_reference_shapes(rg))
    for t in tables:
        t.setflags(write=False)
    return tables


_GAUSS_R, _GAUSS_W, _SHAPE_G, _DSHAPE_G = _gauss_tables()


@dataclass
class Grid1D:
    """Boundary-graded cubic-element mesh on (0, L) with element edges at
    L (i/N)^gamma, N = n_elements; nodes and Gauss points follow from them."""

    L: float
    n_elements: int
    gamma: float = 2.0
    edges: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    elem_dofs: np.ndarray = field(init=False, repr=False)
    gauss_x: np.ndarray = field(init=False, repr=False)
    gauss_w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_elements
        self.edges = self.L * (np.arange(n + 1) / n) ** self.gamma
        h = np.diff(self.edges)
        # each element contributes its first three nodes; node ids are 3e + local
        self.nodes = np.append((self.edges[:-1, None] + h[:, None] * _REF_NODES[None, :3]).ravel(), self.L)
        self.elem_dofs = 3 * np.arange(n)[:, None] + np.arange(4)[None, :]
        self.gauss_x = self.edges[:-1, None] + h[:, None] * _GAUSS_R[None, :]
        self.gauss_w = h[:, None] * _GAUSS_W[None, :]

    @property
    def dof_x(self) -> np.ndarray:
        """Positions of the dofs: the nodes without the two Dirichlet endpoints."""
        return self.nodes[1:-1]

    @property
    def ndof(self) -> int:
        return self.nodes.size - 2

    def gather(self, vec: np.ndarray) -> np.ndarray:
        """Per-element coefficient table (E, 4) with Dirichlet zeros added."""
        pad = np.zeros(vec.shape[:-1] + (self.nodes.size,), dtype=vec.dtype)
        pad[..., 1:-1] = vec
        return pad[..., self.elem_dofs]

    def eval_gauss(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and x-derivatives of a dof vector at the quadrature points."""
        coef = self.gather(vec)
        h = np.diff(self.edges)
        vals = np.einsum("gi,...ei->...eg", _SHAPE_G, coef)
        ders = np.einsum("gi,...ei->...eg", _DSHAPE_G, coef) / h[:, None]
        return vals, ders


def _element_matrices(wq: np.ndarray, shapes: np.ndarray) -> np.ndarray:
    """Element matrices sum_g wq[e, g] shapes[g, i] shapes[g, j], shape (E, 4, 4),
    from the (E, G) quadrature-weighted samples wq."""
    return np.einsum("eg,gi,gj->eij", wq, shapes, shapes)


def _assemble(grid: Grid1D, elem: np.ndarray) -> sp.csc_matrix:
    """Global matrix on the dofs (Dirichlet endpoints dropped) of the element matrices elem."""
    rows = np.repeat(grid.elem_dofs, 4, axis=1).ravel()
    cols = np.tile(grid.elem_dofs, (1, 4)).ravel()
    nn = grid.nodes.size
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()[1:-1, 1:-1].tocsc()


@dataclass
class SpectralBranch:
    """Eigendata of one transverse Fourier mode.

    Also holds the read-only tables derived from it (the lag phases of each
    uniform time grid, each DPSS taper a scan or sign test reads, the
    boundary fits of each fit window), built on first use and freed with the
    model.
    """

    m: int
    omega2: np.ndarray
    phi: np.ndarray  # (ndof, n_modes), orthonormal in the assembled mass matrix
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def omega(self) -> np.ndarray:
        return np.sqrt(self.omega2)

    def table(self, key: tuple, build) -> np.ndarray:
        """The array ``build()``, built on the first request for ``key`` and
        shared, read-only, by every later one."""
        if key not in self._tables:
            table = build()
            table.setflags(write=False)
            self._tables[key] = table
        return self._tables[key]

    def lag_phases(self, dt: float, T: int) -> np.ndarray:
        """Phases exp(i omega_k tau) on the 2T-1 lags tau = dt (1-T .. T-1) of the
        grid (dt, T), shape (K, 2T-1), shared by every kernel on that grid: cos and
        sin on tau >= 0 into its real and imaginary parts, their conjugate on tau < 0."""

        def build() -> np.ndarray:
            e, x = np.empty((self.omega.size, 2 * T - 1), complex), self.omega[:, None] * (dt * np.arange(T))
            np.cos(x, out=e.real[:, T - 1 :])
            np.sin(x, out=e.imag[:, T - 1 :])
            np.conjugate(e[:, : T - 1 : -1], out=e[:, : T - 1])
            return e

        return self.table(("lag_phases", float(dt), int(T)), build)


@dataclass
class SpectralModel:
    """Grid, eigendata and mass matrix for one metric model; the retained
    mode count and the spectral floor follow from them."""

    model: MetricModel
    grid: Grid1D
    branches: dict[int, SpectralBranch]
    M: sp.csc_matrix = field(repr=False)

    @property
    def n_modes(self) -> int:
        """Retained eigenpairs per branch."""
        return next(iter(self.branches.values())).phi.shape[1]

    @property
    def m2_floor(self) -> float:
        """Certified spectral floor: the least eigenvalue over the branches,
        deflated by the relative margin ``_FLOOR_DEFLATION``."""
        return min(float(b.omega2[0]) for b in self.branches.values()) * (1.0 - _FLOOR_DEFLATION)

    @property
    def m_floor_sqrt(self) -> float:
        return math.sqrt(self.m2_floor)

    def branch(self, m: int = 0) -> SpectralBranch:
        key = abs(int(m))
        if key not in self.branches:
            raise KeyError(f"transverse mode m={m} not built (have {sorted(self.branches)})")
        return self.branches[key]

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        return np.conj(u) @ (self.M @ v)

    def project(self, f: np.ndarray, m: int = 0) -> np.ndarray:
        """Mode coefficients <phi_k, f> of grid data f with shape (..., ndof).  2-D
        data takes the thin factor M phi first, ((M phi)^T f^T)^T: the bits of
        f @ (M phi), ~25% faster in OpenBLAS at (T, ndof) = (4096, 5999)."""
        f = np.asarray(f)
        m_phi = self.M @ self.branch(m).phi
        return (m_phi.T @ f.T).T if f.ndim == 2 else f @ m_phi

    def synthesize(self, a: np.ndarray, m: int = 0) -> np.ndarray:
        """Grid data sum_k a_k phi_k from coefficients with shape (..., K)."""
        return np.asarray(a) @ self.branch(m).phi.T

    def describe(self) -> dict:
        return {
            "model": self.model.describe(),
            "N": self.grid.n_elements,
            "gamma": self.grid.gamma,
            "n_modes": self.n_modes,
            "m_list": sorted(self.branches),
            "m2_floor": self.m2_floor,
        }


def _banded_cholesky(A: sp.csc_matrix) -> np.ndarray:
    """Upper factor R of a symmetric positive definite element matrix A = R^T R,
    in LAPACK upper band storage: ab[_BAND + i - j, j] = R[i, j]."""
    ab = np.zeros((_BAND + 1, A.shape[0]))
    for d in range(_BAND + 1):
        ab[_BAND - d, d:] = A.diagonal(d)
    try:
        return cholesky_banded(ab, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(f"element matrix is not positive definite; {_FLOOR_FAILS}") from None


def _solve_branch(K: sp.csc_matrix, m_factor: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_modes eigenpairs of K w = omega^2 M w, ascending, given M's
    banded Cholesky factor R (M = R^T R): the shift-invert transformation at
    sigma = 0 in standard form.  Lanczos (ARPACK mode 1) finds the largest
    eigenpairs theta, y of C = R K^-1 R^T, K^-1 applied by LAPACK dpbtrs on K's
    banded Cholesky factor; omega^2 = 1 / theta and w = K^-1 R^T y at unit M-norm |R w|.
    """
    k_factor = _banded_cholesky(K)

    def k_solve(b: np.ndarray) -> np.ndarray:
        x, info = dpbtrs(k_factor, b)
        if info != 0:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        return x

    R = sp.dia_matrix((m_factor[::-1], np.arange(_BAND + 1)), shape=K.shape).tocsr()
    Rt = R.T.tocsr()
    ndof = K.shape[0]
    v0 = np.full(ndof, 1.0 / math.sqrt(ndof))
    C = LinearOperator(K.shape, matvec=lambda y: R @ k_solve(Rt @ y), dtype=float)
    theta, y = eigsh(C, k=n_modes, which="LA", v0=v0, ncv=n_modes + _NCV_EXTRA)
    vals = 1.0 / theta
    vecs = k_solve(Rt @ y)
    vecs /= np.linalg.norm(R @ vecs, axis=0)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    # fix the sign convention deterministically: largest-magnitude entry positive
    signs = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vals, vecs * signs


def _assemble_operators(model: MetricModel, grid: Grid1D) -> tuple[sp.csc_matrix, Callable, bool]:
    """The mass matrix, the function that assembles the stiffness K_m of
    branch m, and whether k = beta at every Gauss point (then the branches
    separate)."""
    xg = grid.gauss_x
    k_g = model.k(xg)
    # quadrature weights times the measure k^((n-2)/2)
    wm = grid.gauss_w * k_g ** (0.5 * (model.n - 2)) if model.n >= 3 else grid.gauss_w
    beta_g = model.beta(xg)
    M = _assemble(grid, _element_matrices(wm * (1.0 / beta_g), _SHAPE_G))

    def stiffness(m: int) -> sp.csc_matrix:
        grad = _element_matrices(wm / np.diff(grid.edges)[:, None] ** 2, _DSHAPE_G)
        pot = (model.nu**2 - 0.25) / xg**2 + model.transverse_mu(m) / k_g
        # gradient and potential are summed per element, before assembly
        return _assemble(grid, grad + _element_matrices(wm * pot, _SHAPE_G))

    return M, stiffness, np.array_equal(k_g, beta_g)


def build_spectral(
    model: MetricModel,
    N: int,
    m_max: int = 0,
    n_modes: int = 16,
    gamma: float = 2.0,
) -> SpectralModel:
    """Discretize and diagonalize the spatial operator.

    Parameters
    ----------
    model : MetricModel
    N : int
        Number of mesh elements, >= 64.
    m_max : int
        Largest transverse Fourier index (n = 3 models only); branches are
        built for m = 0..m_max and looked up by |m|.
    n_modes : int
        Retained eigenpairs per transverse branch; at most N/4.
    gamma : float
        Mesh grading exponent; edges sit at L (i/N)^gamma.

    The mass matrix is assembled and factored once and shared by every
    branch solve, and each solved branch assembles its own stiffness K_m;
    the model keeps neither factor nor K_m.  When k = beta at every Gauss
    point the transverse term mu_m / k is mu_m times the mass density
    1 / beta, so K_m = K_0 + mu_m M and the branches m >= 1 take branch 0's
    modes with omega^2 + mu_m instead of a solve of their own.
    """
    if N < 64:
        raise ValueError(f"N={N} too small; need at least 64 elements")
    if not (1 <= n_modes <= N // 4):
        raise ValueError(f"n_modes={n_modes} outside [1, N/4={N // 4}]")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if model.n == 2 and m_max != 0:
        raise ValueError("ads2_strip has no transverse modes; m_max must be 0")
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError(f"mesh grading gamma must be finite and > 0, got gamma={gamma}")

    grid = Grid1D(model.L, N, gamma)
    M, stiffness, separable = _assemble_operators(model, grid)
    m_factor = _banded_cholesky(M)
    branches = {}
    for m in range(m_max + 1):
        if separable and m > 0:
            vals, vecs = branches[0].omega2 + model.transverse_mu(m), branches[0].phi
        else:
            vals, vecs = _solve_branch(stiffness(m), m_factor, n_modes)
        if vals[0] <= 0.0:
            raise ValueError(f"lowest eigenvalue {vals[0]:.3e} is not positive; {_FLOOR_FAILS}")
        branches[m] = SpectralBranch(m=m, omega2=vals, phi=vecs)
    return SpectralModel(model=model, grid=grid, branches=branches, M=M)


def _spectral_record(sm: SpectralModel) -> tuple[dict, dict[str, np.ndarray]]:
    """The (meta, arrays) record of a spectral model that a blob stores."""
    meta = {
        "payload": "spectral_model",
        "model": {"kind": sm.model.kind, "n": sm.model.n, "nu": sm.model.nu, "L": sm.model.L, "ell": sm.model.ell},
        "N": sm.grid.n_elements,
        "gamma": sm.grid.gamma,
        "m_list": sorted(sm.branches),
    }
    phi0 = sm.branch(0).phi
    arrays = {"phi_0": phi0}
    for m, br in sorted(sm.branches.items()):
        arrays[f"omega2_{m}"] = br.omega2
        if br.phi is not phi0:
            arrays[f"phi_{m}"] = br.phi
    if sm.model.kind == "custom":
        tables = sm.model.tables or {}
        for name, (tx, tv) in tables.items():
            arrays[f"table_{name}_x"] = tx
            arrays[f"table_{name}_v"] = tv
        meta["tables"] = sorted(tables)
    return meta, arrays


def _spectral_from_record(meta: dict, arrays: dict[str, np.ndarray], path: str) -> SpectralModel:
    """Rebuild the spectral model of a record read from the blob at ``path``:
    M is assembled again from the recipe, and a branch without its own
    eigenbasis takes branch 0's."""
    from .binio import malformed

    if meta.get("payload") not in ("spectral_model", "kernel"):
        raise ValueError(f"{path}: blob does not hold a spectral model")
    try:
        recipe = meta["model"]
        tables = {name: (arrays[f"table_{name}_x"], arrays[f"table_{name}_v"]) for name in meta.get("tables", ())}
        model = MetricModel(**recipe, tables=tables if recipe["kind"] == "custom" else None)
        grid = Grid1D(model.L, int(meta["N"]), float(meta["gamma"]))
        omega2 = {m: arrays[f"omega2_{m}"] for m in map(int, meta["m_list"])}
        phi = {m: arrays.get(f"phi_{m}", arrays["phi_0"]) for m in omega2}
    except (KeyError, TypeError) as exc:
        raise malformed(path, exc) from None
    if not omega2 or any(w2.ndim != 1 or phi[m].shape != (grid.ndof, w2.size) for m, w2 in omega2.items()):
        raise ValueError(f"{path}: the blob's eigendata does not fit its grid of {grid.ndof} dofs")
    M, _, _ = _assemble_operators(model, grid)
    branches = {m: SpectralBranch(m=m, omega2=w2, phi=phi[m]) for m, w2 in omega2.items()}
    return SpectralModel(model=model, grid=grid, branches=branches, M=M)


def save_spectral(sm: SpectralModel, path: str) -> None:
    """Write a spectral model to a versioned binary blob.

    Stores the model recipe, every branch's omega^2 and each distinct
    eigenbasis once: a branch that shares branch 0's modes (a separable
    model) stores no phi of its own.  Loading assembles M again with the
    build's own code, so it reproduces the object bit for bit without
    re-solving.  A custom model's recipe includes its warp tables
    (``model.tables``), its only warp state; the toy models reconstruct from
    their parameters alone.
    """
    from . import binio

    binio.write_blob(path, *_spectral_record(sm))


def load_spectral(path: str) -> SpectralModel:
    """Rebuild a spectral model saved by :func:`save_spectral` (or the model
    of a kernel blob)."""
    from . import binio

    return _spectral_from_record(*binio.read_blob(path), path)
