import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=40, deadline=None)
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


def test_transverse_mu():
    m2 = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    assert m2.transverse_mu(0) == 0.0
    with pytest.raises(ValueError, match="no transverse modes"):
        m2.transverse_mu(1)
    m3 = make_toy_model("ads3_cylinder", nu=1.0, L=1.0, ell=2.0 * math.pi)
    assert m3.transverse_mu(2) == pytest.approx(4.0, rel=1e-15)


def test_conformal_symbol_null_and_rejections():
    m = make_toy_model("ads2_strip", nu=1.0, L=1.0)
    val = conformal_symbol(m, {"x": 0.3, "tau": 2.0, "xi": -2.0})
    assert val == 0.0
    with pytest.raises(ValueError, match="outside the slab"):
        conformal_symbol(m, {"x": 1.5, "tau": 1.0, "xi": 0.0})
    with pytest.raises(ValueError, match="xi_bar = 0"):
        conformal_symbol(m, {"x": 0.0, "tau": 1.0, "xi_bar": 0.5})
    with pytest.raises(ValueError, match="zeta must vanish"):
        conformal_symbol(m, {"x": 0.3, "tau": 1.0, "xi": 1.0, "zeta": 0.5})


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

