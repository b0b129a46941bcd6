"""Shared fixtures: one mid-resolution spectral model and its kernel family.

Building the eigenbasis dominates test startup, so everything that only
reads from the model shares these session-scoped objects.  Kernels are
frozen values: a mutation or an occupied state is a new kernel.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the CLI's default BLAS thread count, set before numpy loads

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run; per-test settings still set max_examples
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

from adskg.geometry import make_toy_model
from adskg.propagators import make_feynman, make_propagator
from adskg.spectral import build_spectral


@pytest.fixture(scope="session")
def ads2():
    return make_toy_model("ads2_strip", nu=1.0, L=1.0)


@pytest.fixture(scope="session")
def sm192(ads2):
    return build_spectral(ads2, N=192, n_modes=32)


@pytest.fixture(scope="session")
def tgrid():
    return 0.025 * np.arange(768)


@pytest.fixture(scope="session")
def zoo(sm192, tgrid):
    """All seven kernel kinds on the shared grid."""
    lp = make_propagator(sm192, "lambda_plus", tgrid)
    lm = make_propagator(sm192, "lambda_minus", tgrid)
    g = make_propagator(sm192, "causal", tgrid)
    ret = make_propagator(sm192, "retarded", tgrid)
    adv = make_propagator(sm192, "advanced", tgrid)
    feyn, afeyn = make_feynman(lp, lm, ret, adv)
    return {
        "lambda_plus": lp,
        "lambda_minus": lm,
        "causal": g,
        "retarded": ret,
        "advanced": adv,
        "feynman": feyn,
        "antifeynman": afeyn,
    }


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One full default verify run: (exit code, report bytes, elapsed seconds)."""
    from adskg.cli import main

    out = tmp_path_factory.mktemp("verify")
    t0 = time.perf_counter()
    code = main(["verify", "--out-dir", str(out)])
    elapsed = time.perf_counter() - t0
    report = (out / "report.json").read_bytes()
    return code, report, elapsed
