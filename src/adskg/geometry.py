"""Warped product metric models with a conformal boundary at x = 0.

The models describe static Lorentzian metrics of the form

    g = (-dx^2 + beta(x) dt^2 - k(x) dy^2) / x^2        on (0, L) x R_t x Y,

conformally compactified at x = 0 and truncated by an artificial Dirichlet
wall at x = L.  The Klein-Gordon operator P = Box_g + m^2 is parameterized
by the order parameter nu > 0 rather than by the mass directly; the two are
tied by nu^2 = (n-1)^2/4 + m^2, so nu > 0 is exactly the strict positivity
(Breitenlohner-Freedman type) floor this package supports.

Two exact toys are provided:

* ``ads2_strip``     n = 2, no transverse directions, beta = 1.
* ``ads3_cylinder``  n = 3, transverse circle of circumference ell, k = 1.

Custom models supply sampled beta(x) and k(x) tables; these are interpolated
with cubic splines.  Only exactly-even toys are exercised by the acceptance
suite; custom tables are supported on a best-effort basis and oddness at
x = 0 is reported via a warning, not an error.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TOY_KINDS = ("ads2_strip", "ads3_cylinder")

__all__ = [
    "MetricModel",
    "make_toy_model",
    "load_model",
    "conformal_symbol",
    "TOY_KINDS",
]


def _const_fn(value: float) -> Callable[[np.ndarray], np.ndarray]:
    def f(x):
        return np.full_like(np.asarray(x, dtype=float), value)

    return f


def _zero_fn(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass
class MetricModel:
    """A static warped-product model of an asymptotically AdS metric.

    Attributes
    ----------
    kind : str
        "ads2_strip", "ads3_cylinder", or "custom".
    n : int
        Spacetime dimension (boundary dimension is n - 1).
    nu : float
        Order parameter, nu > 0.  Indicial roots are (n-1)/2 -+ nu.
    L : float
        Location of the artificial Dirichlet wall.
    ell : float
        Circumference of the transverse circle (n = 3 only).
    beta, k : callables
        Warp factors evaluated on arrays of x in [0, L].  For the toys both
        are identically 1.
    dbeta, dk : callables
        First derivatives of the warp factors (needed by the ray tracer).
    tables : dict or None
        The sampled (xs, values) warp tables of a custom model, by name
        ("beta", "k"); None for the toys.
    """

    kind: str
    n: int
    nu: float
    L: float
    ell: float = 2.0 * math.pi
    beta: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    k: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    dbeta: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    dk: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    tables: dict[str, tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"spacetime dimension must be >= 2, got n={self.n}")
        if not (self.nu > 0.0):
            raise ValueError(
                f"nu={self.nu} violates the positivity floor: this package "
                "requires nu > 0 (strictly above the instability threshold)"
            )
        if not (self.L > 0.0):
            raise ValueError(f"wall location must be positive, got L={self.L}")
        if self.n >= 3 and not (self.ell > 0.0):
            raise ValueError(f"transverse circumference must be positive, got ell={self.ell}")
        if self.beta is None:
            self.beta = _const_fn(1.0)
            self.dbeta = _zero_fn
        if self.k is None:
            self.k = _const_fn(1.0)
            self.dk = _zero_fn

    # -- derived constants -------------------------------------------------

    @property
    def nu_minus(self) -> float:
        return 0.5 * (self.n - 1) - self.nu

    @property
    def nu_plus(self) -> float:
        return 0.5 * (self.n - 1) + self.nu

    @property
    def kg_mass_squared(self) -> float:
        """Mass-squared of the Klein-Gordon operator implied by nu."""
        return self.nu**2 - 0.25 * (self.n - 1) ** 2

    @property
    def is_toy(self) -> bool:
        return self.kind in TOY_KINDS

    def transverse_mu(self, m: int) -> float:
        """Transverse Fourier eigenvalue (2 pi m / ell)^2; 0 when n = 2."""
        if self.n == 2:
            if m != 0:
                raise ValueError("ads2_strip has no transverse modes (m must be 0)")
            return 0.0
        return (2.0 * math.pi * m / self.ell) ** 2

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "nu": self.nu,
            "L": self.L,
            "ell": self.ell if self.n >= 3 else None,
            "nu_minus": self.nu_minus,
            "nu_plus": self.nu_plus,
            "kg_mass_squared": self.kg_mass_squared,
        }


def make_toy_model(kind: str, nu: float, L: float, ell: float = 2.0 * math.pi) -> MetricModel:
    """Build one of the exact toy models.

    Parameters
    ----------
    kind : str
        "ads2_strip" (n = 2) or "ads3_cylinder" (n = 3, transverse circle).
    nu : float
        Order parameter; must be > 0.
    L : float
        Dirichlet wall location, > 0.
    ell : float
        Circumference of the transverse circle (ads3_cylinder only).
    """
    if kind not in TOY_KINDS:
        raise ValueError(f"unknown toy kind {kind!r}; expected one of {TOY_KINDS}")
    n = 2 if kind == "ads2_strip" else 3
    return MetricModel(kind=kind, n=n, nu=float(nu), L=float(L), ell=float(ell))


def conformal_symbol(model: MetricModel, point) -> float:
    """Evaluate the boundary-rescaled principal symbol at a phase point.

    The value is p = tau^2/beta(x) - xi^2 - zeta^2/k(x); null covectors of
    the conformally rescaled metric satisfy p = 0.  ``point`` may be a
    PhasePointB-like object (attributes x, xi, zeta, tau, optionally xi_bar)
    or a mapping with those keys.  Over the boundary x = 0 the compressed
    momentum xi_bar = x*xi must vanish (points with xi_bar != 0 there are
    not in the compressed image and are rejected); the uncompressed xi, if
    recorded, still enters the symbol value.
    """
    if hasattr(point, "x"):
        x, zeta, tau = point.x, getattr(point, "zeta", 0.0), point.tau
        xi = getattr(point, "xi", None)
        xi_bar = getattr(point, "xi_bar", None)
    else:
        x = point["x"]
        xi = point.get("xi")
        xi_bar = point.get("xi_bar")
        zeta = point.get("zeta", 0.0)
        tau = point["tau"]
    if zeta is None:
        zeta = 0.0
    if x < 0.0 or x > model.L:
        raise ValueError(f"x={x} outside the slab [0, L={model.L}]")
    if x == 0.0 and xi_bar is not None and xi_bar != 0.0:
        raise ValueError("boundary phase point must have xi_bar = 0 (compression)")
    if xi is None:
        if x > 0.0:
            raise ValueError("interior phase point must carry the uncompressed xi")
        xi = 0.0
    xa = np.asarray([x], dtype=float)
    beta = float(model.beta(xa)[0])
    kk = float(model.k(xa)[0])
    val = tau**2 / beta - xi**2
    if model.n >= 3:
        val -= zeta**2 / kk
    elif zeta != 0.0:
        raise ValueError("zeta must vanish for n = 2 models")
    return float(val)


# -- config loading ---------------------------------------------------------


def _read_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column (x, value) CSV table with a header row."""
    xs, vs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 2:
            raise ValueError(f"table {path}: expected two columns (x, value)")
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    return _table_columns([xs, vs], f"table {path}")


def _table_columns(src, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a warp table given as the two columns [xs, values]."""
    try:
        x, v = np.asarray(src, dtype=float)  # ragged, non-numeric or not two rows: raises
        if x.ndim != 1:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"{label} must be the two columns [xs, values]") from None
    if x.size < 4:
        raise ValueError(f"{label}: need at least 4 samples for spline interpolation")
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{label}: x column must be strictly increasing")
    return x, v


def _spline_pair(x: np.ndarray, v: np.ndarray, name: str, L: float):
    from scipy.interpolate import CubicSpline

    if x[0] > 0.0 or x[-1] < L:
        raise ValueError(f"table for {name} must cover [0, L]; got [{x[0]}, {x[-1]}]")
    if np.any(v <= 0.0):
        raise ValueError(f"{name} must be positive on [0, L]")
    sp = CubicSpline(x, v)
    slope0 = float(sp(0.0, 1))
    if abs(slope0) > 1e-6 * max(1.0, abs(float(sp(0.0)))):
        warnings.warn(
            f"{name} has a nonzero odd part at x=0 (slope {slope0:.3e}); "
            "only even-to-third-order warp factors are fully supported",
            stacklevel=3,
        )
    dsp = sp.derivative()
    return (lambda xq: np.asarray(sp(xq), dtype=float)), (
        lambda xq: np.asarray(dsp(xq), dtype=float)
    )


def load_model(source) -> MetricModel:
    """Build a MetricModel from a config mapping or a JSON file path.

    Recognized keys: kind ("ads2_strip" | "ads3_cylinder" | "custom"),
    nu, L, ell, and for custom models n plus beta_table / k_table, each a
    path to a two-column (x, value) CSV file or the inline columns
    [xs, values].
    """
    if isinstance(source, str):
        with open(source) as fh:
            cfg = json.load(fh)
    else:
        cfg = dict(source)
    kind = cfg.get("kind")
    if kind in TOY_KINDS:
        return make_toy_model(
            kind,
            nu=float(cfg["nu"]),
            L=float(cfg["L"]),
            ell=float(cfg.get("ell", 2.0 * math.pi)),
        )
    if kind != "custom":
        raise ValueError(f"unknown model kind {kind!r}")
    n = int(cfg["n"])
    L = float(cfg["L"])
    tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in ("beta", "k"):
        src = cfg.get(f"{name}_table")
        if src is None:
            continue
        tables[name] = _read_table(src) if isinstance(src, str) else _table_columns(src, f"inline {name}_table")
    model = MetricModel(
        kind="custom",
        n=n,
        nu=float(cfg["nu"]),
        L=L,
        ell=float(cfg.get("ell", 2.0 * math.pi)),
        tables=tables,
    )
    for name, (tx, tv) in tables.items():
        fn, dfn = _spline_pair(tx, tv, name, L)
        if name == "beta":
            model.beta, model.dbeta = fn, dfn
        else:
            model.k, model.dk = fn, dfn
    return model
