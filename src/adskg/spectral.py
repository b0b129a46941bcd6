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
a polynomial there and the quadrature is exact.  Eigenpairs come from a
shift-invert Lanczos solve of K w = omega^2 M w with a fixed starting
vector, so rebuilds are deterministic.

For models with nonconstant beta the eigenvectors are stored in the "form
frame" w = beta^(1/2) u, where the discrete inner product is the assembled
mass matrix; divide by beta^(1/2) to recover field values.  For the exact
toys the two frames coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, splu

from .geometry import MetricModel

__all__ = [
    "Grid1D",
    "SpectralBranch",
    "SpectralModel",
    "build_spectral",
    "bessel_collocation_eigs",
]

_REF_NODES = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
_N_GAUSS = 10
_FLOOR_DEFLATION = 1e-6  # relative margin of the certified spectral floor below the least eigenvalue


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


@dataclass
class Grid1D:
    """Boundary-graded cubic-element mesh on (0, L)."""

    L: float
    n_elements: int
    gamma: float
    edges: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)
    dof_x: np.ndarray = field(repr=False)
    elem_dofs: np.ndarray = field(repr=False)
    gauss_x: np.ndarray = field(repr=False)
    gauss_w: np.ndarray = field(repr=False)
    shape_g: np.ndarray = field(repr=False)
    dshape_g: np.ndarray = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.dof_x.size

    def gather(self, vec: np.ndarray) -> np.ndarray:
        """Per-element coefficient table (E, 4) with Dirichlet zeros added."""
        pad = np.zeros(vec.shape[:-1] + (self.nodes.size,), dtype=vec.dtype)
        pad[..., 1:-1] = vec
        return pad[..., self.elem_dofs]

    def eval_gauss(self, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and x-derivatives of a dof vector at the quadrature points."""
        coef = self.gather(vec)
        h = np.diff(self.edges)
        vals = np.einsum("gi,...ei->...eg", self.shape_g, coef)
        ders = np.einsum("gi,...ei->...eg", self.dshape_g, coef) / h[:, None]
        return vals, ders

    def evaluate(self, vec: np.ndarray, xq: np.ndarray) -> np.ndarray:
        """Evaluate the piecewise-cubic interpolant of a dof vector at xq."""
        xq = np.asarray(xq, dtype=float)
        e = np.clip(np.searchsorted(self.edges, xq, side="right") - 1, 0, self.n_elements - 1)
        h = np.diff(self.edges)
        r = (xq - self.edges[e]) / h[e]
        shp, _ = _reference_shapes(np.atleast_1d(r))
        coef = self.gather(vec)
        return np.einsum("qi,...qi->...q", shp, coef[..., e, :])


def make_grid(L: float, n_elements: int, gamma: float = 2.0) -> Grid1D:
    edges = L * (np.arange(n_elements + 1) / n_elements) ** gamma
    h = np.diff(edges)
    nodes = (edges[:-1, None] + h[:, None] * _REF_NODES[None, :]).ravel()
    nodes = np.append(nodes[np.arange(nodes.size) % 4 != 3][: 3 * n_elements], L)
    # node ids are 3e + local; dofs drop the two Dirichlet endpoints
    elem_dofs = 3 * np.arange(n_elements)[:, None] + np.arange(4)[None, :]
    dof_x = nodes[1:-1]
    gq, gw = np.polynomial.legendre.leggauss(_N_GAUSS)
    rg = 0.5 * (gq + 1.0)
    wg = 0.5 * gw
    shape_g, dshape_g = _reference_shapes(rg)
    gauss_x = edges[:-1, None] + h[:, None] * rg[None, :]
    gauss_w = h[:, None] * wg[None, :]
    return Grid1D(
        L=L,
        n_elements=n_elements,
        gamma=gamma,
        edges=edges,
        nodes=nodes,
        dof_x=dof_x,
        elem_dofs=elem_dofs,
        gauss_x=gauss_x,
        gauss_w=gauss_w,
        shape_g=shape_g,
        dshape_g=dshape_g,
    )


def _assemble(grid: Grid1D, pot_g: np.ndarray, meas_g: np.ndarray, mass_g: np.ndarray):
    """Assemble stiffness-plus-potential and mass matrices.

    pot_g, meas_g, mass_g are (E, G) samples at the quadrature points of the
    potential, the common measure weight, and the extra mass weight.
    """
    h = np.diff(grid.edges)
    wm = grid.gauss_w * meas_g
    grad = np.einsum("eg,gi,gj->eij", wm / h[:, None] ** 2, grid.dshape_g, grid.dshape_g)
    potl = np.einsum("eg,gi,gj->eij", wm * pot_g, grid.shape_g, grid.shape_g)
    mass = np.einsum("eg,gi,gj->eij", wm * mass_g, grid.shape_g, grid.shape_g)
    rows = np.repeat(grid.elem_dofs, 4, axis=1).ravel()
    cols = np.tile(grid.elem_dofs, (1, 4)).ravel()
    nn = grid.nodes.size
    K = sp.coo_matrix(((grad + potl).ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    M = sp.coo_matrix((mass.ravel(), (rows, cols)), shape=(nn, nn)).tocsr()
    return K[1:-1, 1:-1].tocsc(), M[1:-1, 1:-1].tocsc()


@dataclass
class SpectralBranch:
    """Eigendata of one transverse Fourier mode."""

    m: int
    mu: float
    omega2: np.ndarray
    phi: np.ndarray  # (ndof, n_modes), orthonormal in the assembled mass matrix
    K: sp.csc_matrix = field(repr=False)

    @property
    def omega(self) -> np.ndarray:
        return np.sqrt(self.omega2)


@dataclass
class SpectralModel:
    """Grid, eigendata, and weight vectors for one metric model."""

    model: MetricModel
    grid: Grid1D
    branches: dict[int, SpectralBranch]
    M: sp.csc_matrix = field(repr=False)
    n_modes: int = 0
    m2_floor: float = 0.0
    weight_left: np.ndarray = field(default=None, repr=False)
    weight_right: np.ndarray = field(default=None, repr=False)
    _M_lu: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.weight_left is None:
            x = self.grid.dof_x
            b = self.model.beta(x)
            n = self.model.n
            self.weight_left = x ** (0.5 * n - 1.0) / np.sqrt(b)
            self.weight_right = x ** (-0.5 * n - 1.0) / np.sqrt(b)

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
        """Mode coefficients <phi_k, f> of grid data f with shape (..., ndof)."""
        return np.asarray(f) @ (self.M @ self.branch(m).phi)

    def synthesize(self, a: np.ndarray, m: int = 0) -> np.ndarray:
        """Grid data sum_k a_k phi_k from coefficients with shape (..., K)."""
        return np.asarray(a) @ self.branch(m).phi.T

    def gram(self, m: int = 0) -> np.ndarray:
        phi = self.branch(m).phi
        return phi.T @ (self.M @ phi)

    def apply_A(self, f: np.ndarray, m: int = 0) -> np.ndarray:
        """Apply the assembled operator M^-1 K to data with shape (..., ndof)."""
        if self._M_lu is None:
            self._M_lu = splu(self.M)
        g = np.asarray(f)
        kd = (self.branch(m).K @ g.reshape(-1, g.shape[-1]).T).T
        if np.iscomplexobj(kd):
            out = self._M_lu.solve(kd.real.T) + 1j * self._M_lu.solve(kd.imag.T)
        else:
            out = self._M_lu.solve(kd.T)
        return out.T.reshape(g.shape)

    def describe(self) -> dict:
        return {
            "model": self.model.describe(),
            "N": self.grid.n_elements,
            "gamma": self.grid.gamma,
            "n_modes": self.n_modes,
            "m_list": sorted(self.branches),
            "m2_floor": self.m2_floor,
        }


def _solve_branch(K: sp.csc_matrix, M: sp.csc_matrix, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    ndof = K.shape[0]
    v0 = np.full(ndof, 1.0 / math.sqrt(ndof))
    vals, vecs = eigsh(K, k=n_modes, M=M, sigma=0.0, which="LM", v0=v0)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    # fix the sign convention deterministically: largest-magnitude entry positive
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vals, vecs * signs


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

    The certified spectral floor m2_floor is the smallest computed
    eigenvalue deflated by the relative margin ``_FLOOR_DEFLATION``.
    """
    if N < 64:
        raise ValueError(f"N={N} too small; need at least 64 elements")
    if not (1 <= n_modes <= N // 4):
        raise ValueError(f"n_modes={n_modes} outside [1, N/4={N // 4}]")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if model.n == 2 and m_max != 0:
        raise ValueError("ads2_strip has no transverse modes; m_max must be 0")

    grid = make_grid(model.L, N, gamma)
    xg = grid.gauss_x
    beta_g = model.beta(xg)
    k_g = model.k(xg)
    meas_g = k_g ** (0.5 * (model.n - 2)) if model.n >= 3 else np.ones_like(xg)
    base_pot = (model.nu**2 - 0.25) / xg**2
    mass_g = 1.0 / beta_g

    branches: dict[int, SpectralBranch] = {}
    M = None
    for m in range(m_max + 1):
        mu = model.transverse_mu(m)
        K_m, M_m = _assemble(grid, base_pot + mu / k_g, meas_g, mass_g)
        if M is None:
            M = M_m
        vals, vecs = _solve_branch(K_m, M, n_modes)
        if vals[0] <= 0.0:
            raise ValueError(
                f"lowest eigenvalue {vals[0]:.3e} is not positive; the spectral "
                "floor assumption fails for this model/discretization"
            )
        branches[m] = SpectralBranch(m=m, mu=mu, omega2=vals, phi=vecs, K=K_m)

    floor = min(float(b.omega2[0]) for b in branches.values()) * (1.0 - _FLOOR_DEFLATION)
    return SpectralModel(
        model=model, grid=grid, branches=branches, M=M, n_modes=n_modes, m2_floor=floor
    )


def bessel_collocation_eigs(
    model: MetricModel,
    n_basis: int,
    n_modes: int,
    m: int = 0,
    n_panels: int = 96,
) -> np.ndarray:
    """Cross-check eigenvalues from a sqrt(x) J_nu basis recombination.

    Builds the Rayleigh-Ritz problem for the same quadratic form in the
    basis psi_j(x) = sqrt(x) J_nu(z_j x / L), where z_j runs over zeros of
    J_nu, and solves the dense generalized eigenproblem.  Independent of the
    element discretization; intended as a sanity path for 0 < nu < 1 where
    the boundary condition is the delicate part.
    """
    from scipy.special import jv, jvp

    from .bessel import bessel_zeros

    if n_modes > n_basis:
        raise ValueError("n_modes cannot exceed n_basis")
    nu, L = model.nu, model.L
    zeros = bessel_zeros(nu, n_basis)
    panels = make_grid(L, n_panels, gamma=2.0)
    x = panels.gauss_x.ravel()
    wq = panels.gauss_w.ravel()
    sq = np.sqrt(x)
    scale = zeros[None, :] / L
    arg = x[:, None] * scale
    psi = sq[:, None] * jv(nu, arg)
    dpsi = 0.5 / sq[:, None] * jv(nu, arg) + sq[:, None] * scale * jvp(nu, arg)
    pot = (model.nu**2 - 0.25) / x**2 + model.transverse_mu(m) / model.k(x)
    wbeta = 1.0 / model.beta(x)
    if model.n >= 3:
        wq = wq * model.k(x) ** (0.5 * (model.n - 2))
    S = dpsi.T @ (dpsi * wq[:, None]) + psi.T @ (psi * (wq * pot)[:, None])
    G = psi.T @ (psi * (wq * wbeta)[:, None])
    from scipy.linalg import eigh

    vals = eigh(S, G, eigvals_only=True)
    return vals[:n_modes]


def save_spectral(sm: SpectralModel, path: str) -> None:
    """Write a spectral model to a versioned binary blob.

    Stores the eigendata and assembled matrices together with the model
    recipe, so loading reproduces the object without re-solving.  Custom
    models must carry inline warp tables (``model.tables``) to be savable;
    the toy models reconstruct from their parameters alone.
    """
    from . import binio

    meta = {
        "payload": "spectral_model",
        "model": {"kind": sm.model.kind, "n": sm.model.n, "nu": sm.model.nu, "L": sm.model.L, "ell": sm.model.ell},
        "N": sm.grid.n_elements,
        "gamma": sm.grid.gamma,
        "n_modes": sm.n_modes,
        "m_list": sorted(sm.branches),
        "m2_floor": sm.m2_floor,
    }
    arrays: dict[str, np.ndarray] = {
        "M_data": sm.M.data,
        "M_indices": sm.M.indices,
        "M_indptr": sm.M.indptr,
    }
    for m, br in sorted(sm.branches.items()):
        arrays[f"omega2_{m}"] = br.omega2
        arrays[f"phi_{m}"] = br.phi
        arrays[f"K_data_{m}"] = br.K.data
        arrays[f"K_indices_{m}"] = br.K.indices
        arrays[f"K_indptr_{m}"] = br.K.indptr
    if sm.model.kind == "custom":
        if sm.model.tables is None:
            raise ValueError("custom models need inline warp tables to be saved")
        for name, (tx, tv) in sm.model.tables.items():
            arrays[f"table_{name}_x"] = tx
            arrays[f"table_{name}_v"] = tv
        meta["tables"] = sorted(sm.model.tables)
    binio.write_blob(path, meta, arrays)


def load_spectral(path: str) -> SpectralModel:
    """Rebuild a spectral model saved by :func:`save_spectral`."""
    from . import binio
    from .geometry import load_model, make_toy_model

    meta, arrays = binio.read_blob(path)
    if meta.get("payload") not in ("spectral_model", "kernel"):
        raise ValueError(f"{path}: blob does not hold a spectral model")
    mm = meta["model"]
    if mm["kind"] == "custom":
        cfg = {"kind": "custom", "n": mm["n"], "nu": mm["nu"], "L": mm["L"], "ell": mm["ell"]}
        for name in meta["tables"]:
            cfg[f"{name}_table"] = (arrays[f"table_{name}_x"], arrays[f"table_{name}_v"])
        model = load_model(cfg)
    else:
        model = make_toy_model(mm["kind"], nu=mm["nu"], L=mm["L"], ell=mm["ell"])
    grid = make_grid(model.L, int(meta["N"]), float(meta["gamma"]))
    ndof = grid.ndof
    M = sp.csc_matrix((arrays["M_data"], arrays["M_indices"], arrays["M_indptr"]), shape=(ndof, ndof))
    branches = {}
    for m in meta["m_list"]:
        m = int(m)
        K = sp.csc_matrix(
            (arrays[f"K_data_{m}"], arrays[f"K_indices_{m}"], arrays[f"K_indptr_{m}"]), shape=(ndof, ndof)
        )
        branches[m] = SpectralBranch(
            m=m, mu=model.transverse_mu(m), omega2=arrays[f"omega2_{m}"], phi=arrays[f"phi_{m}"], K=K
        )
    return SpectralModel(
        model=model,
        grid=grid,
        branches=branches,
        M=M,
        n_modes=int(meta["n_modes"]),
        m2_floor=float(meta["m2_floor"]),
    )
