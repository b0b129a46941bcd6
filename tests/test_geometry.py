import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adskg.bchar import PhasePointB
from adskg.geometry import (
    MetricModel,
    conformal_symbol,
    load_model,
    make_toy_model,
)


def test_toy_warp_factors_are_unit():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    x = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(m.beta(x), np.ones(7))
    assert np.array_equal(m.k(x), np.ones(7))
    assert np.array_equal(m.dbeta(x), np.zeros(7))
    assert np.array_equal(m.dk(x), np.zeros(7))


def test_indicial_roots_ads2():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    assert (m.nu_minus, m.nu_plus) == (-0.5, 1.5)
    assert m.kg_mass_squared == 1.0 - 0.25


def test_indicial_roots_ads3():
    m = make_toy_model("ads3_cylinder", nu=1.0, L=2.0)
    assert (m.nu_minus, m.nu_plus) == (0.0, 2.0)
    assert m.n == 3


@settings(max_examples=40)
@given(
    nu=st.floats(min_value=0.05, max_value=8.0, allow_nan=False),
    kind=st.sampled_from(["ads2_strip", "ads3_cylinder"]),
)
def test_indicial_root_algebra(nu, kind):
    m = make_toy_model(kind, nu=nu, L=1.0)
    lo, hi = m.nu_minus, m.nu_plus
    assert hi + lo == pytest.approx(m.n - 1, abs=1e-12)
    assert hi - lo == pytest.approx(2.0 * nu, abs=1e-12)


@pytest.mark.parametrize("nu", [0.0, -0.5, -3.0])
def test_positivity_floor_rejected(nu):
    with pytest.raises(ValueError, match="positivity floor"):
        make_toy_model("ads2_strip", nu=nu, L=1.0)


def test_bad_dimension_and_wall():
    with pytest.raises(ValueError, match="dimension"):
        MetricModel(kind="custom", n=1, nu=1.0, L=1.0)
    with pytest.raises(ValueError, match="wall"):
        make_toy_model("ads2_strip", nu=1.0, L=0.0)
    with pytest.raises(ValueError, match="unknown toy kind"):
        make_toy_model("ads4", nu=1.0, L=1.0)


@pytest.mark.parametrize("name", ["nu", "L", "ell"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_rejected(name, value):
    params = {"kind": "ads3_cylinder", "n": 3, "nu": 1.0, "L": 1.0, "ell": 2.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        MetricModel(**params)


def test_toy_refuses_tables():
    xs = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="takes no warp tables"):
        MetricModel(kind="ads2_strip", n=2, nu=1.0, L=1.0, tables={"beta": (xs, np.ones(8))})
    with pytest.raises(ValueError, match="takes no warp tables"):
        replace(make_toy_model("ads3_cylinder", nu=1.0, L=1.0), tables={})
    with pytest.raises(ValueError, match="unknown warp table 'gamma'"):
        MetricModel(kind="custom", n=2, nu=1.0, L=1.0, tables={"gamma": (xs, np.ones(8))})


def test_replaced_tables_give_the_warps():
    """The tables are the only warp state: a variant with new tables evaluates
    the new splines, and one with a wall past its tables is refused."""
    xs = np.linspace(0.0, 1.0, 41)
    m = load_model({"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0, "beta_table": [list(xs), list(1.0 + xs**2)]})
    v = replace(m, tables={"k": (xs, 2.0 + xs**2)})
    xq = np.array([0.2, 0.5])
    assert np.array_equal(v.beta(xq), np.ones(2)) and np.array_equal(v.dbeta(xq), np.zeros(2))
    assert v.k(xq) == pytest.approx(2.0 + xq**2, rel=1e-6)
    assert v.dk(xq) == pytest.approx(2.0 * xq, rel=1e-3)
    with pytest.raises(ValueError, match="must cover"):
        replace(m, L=2.0)


def test_odd_warp_table_warns():
    """A table whose slope at x = 0 is nonzero warns, naming the factor; an
    even table is silent."""
    xs = np.linspace(0.0, 1.0, 8)
    cfg = {"kind": "custom", "n": 3, "nu": 1.0, "L": 1.0}
    with pytest.warns(UserWarning, match=r"^k has a nonzero odd part at x=0 \(slope 5\.000e-01\)"):
        load_model(dict(cfg, k_table=[list(xs), list(1.0 + 0.5 * xs)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_model(dict(cfg, beta_table=[list(xs), list(1.0 + xs**2)]))


def test_transverse_mu():
    m2 = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    assert m2.transverse_mu(0) == 0.0
    with pytest.raises(ValueError, match="no transverse modes"):
        m2.transverse_mu(1)
    m3 = make_toy_model("ads3_cylinder", nu=1.0, L=1.0, ell=2.0 * math.pi)
    assert m3.transverse_mu(2) == pytest.approx(4.0, rel=1e-15)


def test_conformal_symbol_null_and_rejections():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    assert conformal_symbol(m, PhasePointB(x=0.3, t=0.0, tau=2.0, xi=-2.0)) == 0.0
    # over the boundary the uncompressed xi still enters the value
    assert conformal_symbol(m, PhasePointB(x=0.0, t=0.0, tau=2.0, xi=1.0)) == 3.0
    m3 = make_toy_model("ads3_cylinder", nu=1.0, L=1.0)
    p3 = PhasePointB(x=0.3, t=0.0, tau=2.0, xi=-1.5, zeta=math.sqrt(1.75))
    assert conformal_symbol(m3, p3) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError, match="outside the slab"):
        conformal_symbol(m, PhasePointB(x=1.5, t=0.0, tau=1.0, xi=0.0))
    with pytest.raises(ValueError, match="zeta must vanish"):
        conformal_symbol(m, PhasePointB(x=0.3, t=0.0, tau=1.0, xi=1.0, zeta=0.5))


def test_load_model_toy_config():
    m = load_model({"kind": "ads2_strip", "nu": 2.5, "L": 1.0})
    assert m.nu == 2.5 and m.L == 1.0 and m.n == 2
    with pytest.raises(ValueError, match="positivity floor"):
        load_model({"kind": "ads2_strip", "nu": -0.5, "L": 1.0})


def test_load_model_custom_tables(tmp_path):
    xs = np.linspace(0.0, 1.0, 201)
    beta_path = tmp_path / "beta.csv"
    k_path = tmp_path / "k.csv"
    beta_path.write_text(
        "x,beta\n" + "\n".join(f"{x:.17g},{1.0 + 0.25 * x * x:.17g}" for x in xs)
    )
    k_path.write_text("x,k\n" + "\n".join(f"{x:.17g},1.0" for x in xs))
    m = load_model(
        {
            "kind": "custom",
            "n": 2,
            "nu": 1.0,
            "L": 1.0,
            "beta_table": str(beta_path),
            "k_table": str(k_path),
        }
    )
    xq = np.array([0.1, 0.37, 0.82])
    assert m.beta(xq) == pytest.approx(1.0 + 0.25 * xq**2, rel=1e-8)
    assert m.k(xq) == pytest.approx(np.ones(3), rel=1e-12)
    # derivative callable must track the spline
    assert m.dbeta(xq) == pytest.approx(0.5 * xq, rel=1e-5, abs=1e-7)
    # the raw tables ride along for re-serialization
    assert set(m.tables) == {"beta", "k"}


def test_load_model_inline_tables():
    xs = np.linspace(0.0, 1.0, 41)
    cfg = {"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0}
    m = load_model(dict(cfg, beta_table=[list(xs), list(1.0 + 0.25 * xs**2)]))
    assert m.beta(np.array([0.5])) == pytest.approx([1.0625], rel=1e-8)
    assert m.tables["beta"][0] == pytest.approx(xs)
    pairs = [[x, 1.0 + 0.25 * x * x] for x in xs]
    with pytest.raises(ValueError, match=r"\[xs, values\]"):
        load_model(dict(cfg, beta_table=pairs))
    # two rows of pairs read as two short columns, which are refused too
    with pytest.raises(ValueError, match="at least 4 samples"):
        load_model(dict(cfg, beta_table=pairs[:2]))
    with pytest.raises(ValueError, match=r"\[xs, values\]"):
        load_model(dict(cfg, beta_table=[list(xs), [1.0, 2.0]]))

