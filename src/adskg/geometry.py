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

Custom models supply sampled beta(x) and k(x) tables; the tables are the
model's only warp state.  Each is interpolated once, at construction, by a
cubic spline and its derivative; a warp factor without a table is the
constant 1 (derivative 0).  Only exactly-even toys are exercised by the
acceptance suite; custom tables are supported on a best-effort basis and
oddness at x = 0 is reported via a warning, not an error.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

TOY_KINDS = ("ads2_strip", "ads3_cylinder")

__all__ = [
    "MetricModel",
    "make_toy_model",
    "load_model",
    "conformal_symbol",
    "TOY_KINDS",
]


@dataclass(frozen=True, eq=False)
class MetricModel:
    """A static warped-product model of an asymptotically AdS metric.

    Instances are frozen and compare by identity; ``dataclasses.replace``
    makes a variant, and a variant gets its own splines.

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
    tables : dict or None
        The sampled (xs, values) warp tables of a custom model, by name
        ("beta", "k"), stored as float arrays; None for the toys, which
        refuse tables.  The methods beta, k, dbeta and dk evaluate a table's
        cubic spline and its derivative, or the constants 1 and 0 where
        there is no table.
    """

    kind: str
    n: int
    nu: float
    L: float
    ell: float = 2.0 * math.pi
    tables: dict[str, tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"spacetime dimension must be >= 2, got n={self.n}")
        for name in ("nu", "L", "ell"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if not (self.nu > 0.0):
            raise ValueError(
                f"nu={self.nu} violates the positivity floor: this package "
                "requires nu > 0 (strictly above the instability threshold)"
            )
        if not (self.L > 0.0):
            raise ValueError(f"wall location must be positive, got L={self.L}")
        if self.n >= 3 and not (self.ell > 0.0):
            raise ValueError(f"transverse circumference must be positive, got ell={self.ell}")
        if self.tables is not None and self.is_toy:
            raise ValueError(f"toy model {self.kind!r} takes no warp tables")
        tables, splines = (None if self.tables is None else {}), {}
        for name, src in (self.tables or {}).items():
            if name not in ("beta", "k"):
                raise ValueError(f"unknown warp table {name!r}; expected 'beta' or 'k'")
            tables[name] = _table_columns(src, f"{name}_table")
            splines[name] = _spline(*tables[name], name, self.L)
            splines["d" + name] = splines[name].derivative()
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "_splines", splines)

    def _warp(self, name: str, x, const: float) -> np.ndarray:
        sp = self._splines.get(name)
        return np.full_like(np.asarray(x, dtype=float), const) if sp is None else sp(x)

    def beta(self, x) -> np.ndarray:
        return self._warp("beta", x, 1.0)

    def k(self, x) -> np.ndarray:
        return self._warp("k", x, 1.0)

    def dbeta(self, x) -> np.ndarray:
        return self._warp("dbeta", x, 0.0)

    def dk(self, x) -> np.ndarray:
        return self._warp("dk", x, 0.0)

    def warps(self, xs) -> tuple[list[float], list[float], list[float], list[float]]:
        """(beta, k, beta', k') at the points xs, as float lists: the
        constants with no numpy call when there is no table, otherwise one
        evaluation of each warp method on the whole of xs."""
        if not self._splines:
            n = len(xs)
            return [1.0] * n, [1.0] * n, [0.0] * n, [0.0] * n
        return tuple(np.asarray(f(xs), dtype=float).tolist() for f in (self.beta, self.k, self.dbeta, self.dk))

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

    The value is p = tau^2/beta(x) - xi^2 - zeta^2/k(x) at the phase point's
    x, xi, zeta and tau; null covectors of the conformally rescaled metric
    satisfy p = 0.  Over the boundary x = 0 the uncompressed xi still enters
    the value.
    """
    x, xi, zeta, tau = point.x, point.xi, point.zeta, point.tau
    if x < 0.0 or x > model.L:
        raise ValueError(f"x={x} outside the slab [0, L={model.L}]")
    (beta,), (k,), _, _ = model.warps([x])
    val = tau**2 / beta - xi**2
    if model.n >= 3:
        val -= zeta**2 / k
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


def _spline(x: np.ndarray, v: np.ndarray, name: str, L: float):
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
            stacklevel=5,
        )
    return sp


def load_model(source) -> MetricModel:
    """Build a MetricModel from a config mapping or a JSON file path.

    Recognized keys: kind ("ads2_strip" | "ads3_cylinder" | "custom"),
    nu, L, ell, and for custom models n plus beta_table / k_table, each a
    path to a two-column (x, value) CSV file or the inline columns
    [xs, values]; nu, L, ell are numbers and n an integer (not booleans).
    """
    if isinstance(source, str):
        with open(source) as fh:
            cfg = json.load(fh)
    else:
        cfg = dict(source)
    kind = cfg.get("kind")
    if kind not in (*TOY_KINDS, "custom"):
        raise ValueError(f"unknown model kind {kind!r}")
    missing = [key for key in ("nu", "L", "n")[: 3 if kind == "custom" else 2] if key not in cfg]
    if missing:
        raise ValueError(f"{kind} model config lacks the keys {missing}")
    for key in ("nu", "L", "ell", "n")[: 4 if kind == "custom" else 3]:
        val, integer = cfg.get(key, 0), key == "n"
        if isinstance(val, bool) or not isinstance(val, numbers.Integral if integer else numbers.Real):
            raise ValueError(f"model key {key!r} must be {'an integer' if integer else 'a number'}, got {val!r}")
    if kind in TOY_KINDS:
        return make_toy_model(
            kind,
            nu=float(cfg["nu"]),
            L=float(cfg["L"]),
            ell=float(cfg.get("ell", 2.0 * math.pi)),
        )
    tables = {}
    for name in ("beta", "k"):
        src = cfg.get(f"{name}_table")
        if src is not None:
            tables[name] = _read_table(src) if isinstance(src, str) else src
    return MetricModel(
        kind="custom",
        n=int(cfg["n"]),
        nu=float(cfg["nu"]),
        L=float(cfg["L"]),
        ell=float(cfg.get("ell", 2.0 * math.pi)),
        tables=tables,
    )
