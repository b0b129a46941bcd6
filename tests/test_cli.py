import argparse
import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adskg
from adskg.cli import (
    _THREAD_VARS,
    ROWS,
    RunConfig,
    VerifyPlan,
    VerifyRun,
    _default_tolerances,
    _plan,
    main,
    run_verify,
)
from adskg.geometry import make_toy_model
from adskg.holography import fit_floor
from adskg.propagators import _gram_matrix, gram_eigenvalues
from adskg.spectral import build_spectral
from oracles import line_weights_mp
from test_propagators import _run_fresh


def test_public_names_resolve():
    for sub in adskg._SUBMODULES:
        module = getattr(adskg, sub)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"adskg.{sub}.__all__ lists missing {name!r}"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _threaded_main(tmp_path, *top) -> int:
    """Run a short trace-gbb under the top-level flags ``top``."""
    return main([*top, "trace-gbb", "--x0", "0.4", "--xi0", "-1.0", "--tmax", "0.01",
                 "--out", str(tmp_path / "ray.csv")])


@pytest.fixture
def thread_env(monkeypatch):
    """No thread variable set; the ones main exports are removed afterwards."""
    for var in (*_THREAD_VARS, "ADSKG_THREADS"):
        monkeypatch.delenv(var, raising=False)
    yield monkeypatch
    for var in _THREAD_VARS:
        os.environ.pop(var, None)


def test_export_threads_sets_defaults(thread_env, tmp_path, capsys):
    assert _threaded_main(tmp_path, "--threads=3") == 0
    assert all(os.environ[var] == "3" for var in _THREAD_VARS)


def test_export_threads_defaults_to_one(thread_env, tmp_path, capsys):
    assert _threaded_main(tmp_path) == 0
    assert all(os.environ[var] == "1" for var in _THREAD_VARS)


def test_export_threads_keeps_existing(thread_env, tmp_path, capsys):
    thread_env.setenv("OMP_NUM_THREADS", "7")
    thread_env.setenv("ADSKG_THREADS", "2")
    assert _threaded_main(tmp_path, "--threads", "5") == 0
    assert os.environ["OMP_NUM_THREADS"] == "7"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "5"
    os.environ.pop("OPENBLAS_NUM_THREADS")
    assert _threaded_main(tmp_path) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_export_threads_rejects_garbage(thread_env, tmp_path, capsys):
    for top in (["--threads", "zero"], ["--threads", "-1"], ["--threads", "0"]):
        assert _threaded_main(tmp_path, *top) == 2
    thread_env.setenv("ADSKG_THREADS", "zero")
    assert _threaded_main(tmp_path) == 2
    assert "positive integer, got 'zero'" in capsys.readouterr().err
    assert not (tmp_path / "ray.csv").exists()
    assert not any(var in os.environ for var in _THREAD_VARS)


def test_run_config_validation():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        RunConfig(seed=-1).validate()
    with pytest.raises(ValueError, match="must be positive"):
        RunConfig(tolerances={"algebra": 0.0}).validate()


def test_run_config_merging(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"N": 64, "tolerances": {"algebra": 1e-10}}))
    args = argparse.Namespace(N=128, nu=2.0)
    cfg = RunConfig.from_sources(str(cfg_path), args)
    assert cfg.N == 128
    assert cfg.model["nu"] == 2.0
    assert cfg.tolerances == {"algebra": 1e-10}  # run_verify fills in the defaults

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_grid": 10}))
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_sources(str(bad), argparse.Namespace())
    # verify works out its time grid; the config cannot set it
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"dt": 0.0125}))
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_sources(str(grid), argparse.Namespace())


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_pipeline_blob_to_scan(tmp_path, capsys):
    blob = tmp_path / "model.bin"
    code = main(
        ["build-spectral", "--nu", "1.0", "--L", "1.0", "--N", "96",
         "--n-modes", "8", "--out", str(blob)]
    )
    assert code == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["N"] == 96 and meta["n_modes"] == 8

    kern = tmp_path / "lp.bin"
    code = main(
        ["kernels", "--model-bin", str(blob), "--kind", "lambda_plus",
         "--T", "256", "--dt", "0.025", "--out", str(kern)]
    )
    assert code == 0
    kmeta = json.loads(capsys.readouterr().out)
    assert kmeta["kind"] == "lambda_plus"

    scan = tmp_path / "scan.csv"
    code = main(
        ["wf-scan", "--kernel-bin", str(kern), "--window", "5.0",
         "--centers", "2", "--out", str(scan)]
    )
    assert code == 0
    capsys.readouterr()
    rows = _read_csv(scan)
    assert rows[0] == ["t", "s", "sign_content_plus", "sign_content_minus", "cross"]
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        assert float(row[2]) > 0.999


@pytest.fixture(scope="module")
def small_blobs(tmp_path_factory):
    """A small model blob and a lambda_plus kernel blob built from it."""
    d = tmp_path_factory.mktemp("blobs")
    model, kern = d / "model.bin", d / "lp.bin"
    assert main(["build-spectral", "--N", "96", "--n-modes", "8", "--out", str(model)]) == 0
    assert main(["kernels", "--model-bin", str(model), "--kind", "lambda_plus", "--out", str(kern)]) == 0
    return model, kern


@pytest.mark.parametrize("centers", ["0", "-3"])
def test_wf_scan_refuses_empty_window_grid(small_blobs, tmp_path, capsys, centers):
    capsys.readouterr()
    out = tmp_path / "scan.csv"
    code = main(["wf-scan", "--kernel-bin", str(small_blobs[1]), "--window", "5.0",
                 "--centers", centers, "--out", str(out)])
    assert code == 2
    assert "n_centers" in capsys.readouterr().err
    assert not out.exists()


def test_wf_scan_feynman_flips_across_diagonal(small_blobs, tmp_path, capsys):
    """The Feynman scan mixes windows from the kernel's lines with windows
    whose lags straddle tau = 0; far from t = s its mass sits in (+,+) for
    t > s and in (-,-) for t < s."""
    kern, out = tmp_path / "feynman.bin", tmp_path / "scan.csv"
    length = 5.0
    assert main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "feynman",
                 "--T", "768", "--dt", "0.025", "--out", str(kern)]) == 0
    assert main(["wf-scan", "--kernel-bin", str(kern), "--window", str(length),
                 "--centers", "4", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["kind"] == "feynman"
    rows = [list(map(float, row)) for row in _read_csv(out)[1:]]
    assert len(rows) == 16
    future = [r for r in rows if r[0] - r[1] > 2.0 * length]
    past = [r for r in rows if r[1] - r[0] > 2.0 * length]
    assert future and past
    assert all(r[2] > 0.999 for r in future)
    assert all(r[3] > 0.999 for r in past)


def test_wf_scan_window_off_the_time_step(small_blobs, tmp_path, capsys):
    """A window length that is not a multiple of dt still yields a full
    window grid, every window inside the time grid."""
    kern, out = tmp_path / "lp768.bin", tmp_path / "scan.csv"
    dt, T, length = 0.025, 768, 7.34
    assert main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "lambda_plus",
                 "--T", str(T), "--dt", str(dt), "--out", str(kern)]) == 0
    assert main(["wf-scan", "--kernel-bin", str(kern), "--window", str(length),
                 "--centers", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = _read_csv(out)[1:]
    assert len(rows) == 9
    half = 0.5 * dt * round(length / dt)  # rows report window midpoints
    for row in rows:
        for mid in map(float, row[:2]):
            assert half - 1e-9 <= mid <= dt * (T - 1) - half + 1e-9


def test_kernels_refuses_unknown_kind(small_blobs, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "k.bin"
    code = main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "bogus", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "lambda_plus" in err
    assert not out.exists()


def test_kernels_rejects_the_weighting_flag(small_blobs, tmp_path, capsys):
    """Kernels have one frame, so ``kernels`` takes no --weighting."""
    capsys.readouterr()
    out = tmp_path / "k.bin"
    code = main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "lambda_plus",
                 "--weighting", "tilde", "--out", str(out)])
    assert code == 2
    assert "unrecognized arguments: --weighting" in capsys.readouterr().err
    assert not out.exists()


def test_kernel_blob_with_a_weighting_field_loads(small_blobs, tmp_path, capsys):
    """A kernel blob written with the old "weighting" field in its meta loads,
    the field is ignored, and its wf-scan CSV is the fresh blob's byte for byte."""
    from adskg import binio

    meta, arrays = binio.read_blob(str(small_blobs[1]))
    assert "weighting" not in meta["kernel"]
    meta["kernel"]["weighting"] = "physical"
    old = tmp_path / "old.bin"
    binio.write_blob(str(old), meta, arrays)
    csvs = []
    for blob in (small_blobs[1], old):
        out = tmp_path / f"{blob.stem}.csv"
        assert main(["wf-scan", "--kernel-bin", str(blob), "--window", "5.0", "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_kernels_refuses_a_branch_the_blob_lacks(small_blobs, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "k.bin"
    code = main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "lambda_plus", "--m", "3",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "m=3" in err and "[0]" in err and "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def packet_blob(tmp_path_factory):
    """A model blob with enough modes to hold the test wavepacket."""
    blob = tmp_path_factory.mktemp("packet") / "model.bin"
    assert main(["build-spectral", "--N", "192", "--n-modes", "32", "--out", str(blob)]) == 0
    return blob


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("kernels", ["--kind", "lambda_plus", "--dt", "0"], "strictly increasing"),
        ("kernels", ["--kind", "lambda_plus", "--dt", "-0.01"], "strictly increasing"),
        ("wavepacket", ["--x0", "0.5", "--xi0", "-40", "--sigma", "0.1", "--tmax", "0.3", "--dt", "0"], "dt > 0"),
        ("wavepacket", ["--x0", "0.5", "--xi0", "-40", "--sigma", "0.1", "--tmax", "0.3", "--dt", "-0.005"], "dt > 0"),
        ("wavepacket", ["--x0", "0.5", "--xi0", "-40", "--sigma", "0.1", "--tmax", "-1"], "t_max >= 0"),
    ],
    ids=["kernels-dt0", "kernels-dt-neg", "wavepacket-dt0", "wavepacket-dt-neg", "wavepacket-tmax-neg"],
)
def test_non_positive_time_steps_exit_2(small_blobs, packet_blob, tmp_path, capsys, command, flags, named):
    """A time grid that is constant or runs backward is a bad flag: exit 2
    with one error line, and no output file."""
    capsys.readouterr()
    out = tmp_path / "out.bin"
    blob = packet_blob if command == "wavepacket" else small_blobs[0]
    assert main([command, "--model-bin", str(blob), *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err and "Traceback" not in err
    assert not out.exists()


def test_boundary_2pt_weights_match_closed_form(tmp_path, capsys):
    blob = tmp_path / "model.bin"
    main(["build-spectral", "--nu", "1.0", "--N", "96", "--n-modes", "8",
          "--out", str(blob)])
    out = tmp_path / "b2p.csv"
    code = main(["boundary-2pt", "--model-bin", str(blob), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = _read_csv(out)
    assert rows[0] == ["mode", "omega", "amplitude", "weight", "fit_quality"]
    got = np.array([float(r[3]) for r in rows[1:4]])
    want = line_weights_mp(1.0, 1.0, 3)
    assert got == pytest.approx(want, rel=1e-2)


@pytest.mark.parametrize("flag", [["--fit-lo", "0.001"], ["--fit-hi", "0.05"]], ids=["lo", "hi"])
def test_boundary_2pt_needs_both_fit_bounds(small_blobs, tmp_path, capsys, flag):
    out = tmp_path / "b2p.csv"
    assert main(["boundary-2pt", "--model-bin", str(small_blobs[0]), *flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--fit-lo" in err and "--fit-hi" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("boundary-2pt", ["--fit-lo", "0.001", "--fit-hi", "inf"], "fit window (0.001, inf)"),
        ("boundary-2pt", ["--fit-lo", "0", "--fit-hi", "0.05"], "fit window (0.0, 0.05)"),
        ("boundary-2pt", ["--fit-lo", "-0.01", "--fit-hi", "0.05"], "fit window (-0.01, 0.05)"),
        ("trace-gbb", ["--x0", "0.4", "--xi0", "-2", "--tau", "2", "--tmax", "1", "--step", "inf"], "step=inf"),
    ],
    ids=["fit-hi-inf", "fit-lo-0", "fit-lo-neg", "step-inf"],
)
def test_bad_windows_and_steps_exit_2(small_blobs, tmp_path, capfd, command, flags, named):
    """A boundary fit window outside 0 < lo < hi <= L/4, or an infinite ray
    step, is a bad flag: exit 2 with one error line that names it, before
    any LAPACK call can print, and no output file."""
    capfd.readouterr()
    out = tmp_path / "out.csv"
    blob = ["--model-bin", str(small_blobs[0])] if command == "boundary-2pt" else []
    assert main([command, *blob, *flags, "--out", str(out)]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1 and named in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_kernel_blob_refuses_flipped_modes(small_blobs, tmp_path):
    """A kernel blob holds an unmutated kernel, written once and read once; a
    blob with the per-mode signs array of older versions loads and ignores it."""
    from adskg import binio
    from adskg.cli import _load_kernel, _save_kernel

    kern = _load_kernel(str(small_blobs[1]))
    with pytest.raises(ValueError, match="flipped modes"):
        _save_kernel(kern.mutated(0.3), str(tmp_path / "mutant.bin"))
    meta, arrays = binio.read_blob(str(small_blobs[1]))
    assert "signs" not in arrays
    old = str(tmp_path / "old.bin")
    binio.write_blob(old, meta, {**arrays, "signs": np.ones(kern.omega.size)})
    back = _load_kernel(old)
    assert back.describe() == kern.describe() and back.describe()["n_flipped"] == 0
    assert np.array_equal(back.a, kern.a) and np.array_equal(back.b, kern.b)
    assert np.array_equal(back.t_grid, kern.t_grid) and np.array_equal(back.branch.phi, kern.branch.phi)


def _blob_bytes(header) -> bytes:
    """A blob file of the given header (a JSON value, or raw bytes) and no payload."""
    from adskg import binio

    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return binio.MAGIC + struct.pack("<II", binio.VERSION, len(text)) + text


def _rewritten(index: int, change):
    """The bytes of ``small_blobs[index]`` rewritten after ``change(meta, arrays)``."""
    def data(blobs) -> bytes:
        from adskg import binio

        meta, arrays = binio.read_blob(str(blobs[index]))
        change(meta, arrays)
        path = blobs[index].with_name("rewritten.bin")
        binio.write_blob(str(path), meta, arrays)
        return path.read_bytes()

    return data


_NO_MODEL = {"meta": {"payload": "spectral_model"}, "arrays": []}
_BAD_SHAPE = {"meta": {}, "arrays": [{"name": "x", "dtype": "<f8", "shape": "ab"}]}
_HUGE = {"meta": {}, "arrays": [{"name": "x", "dtype": "<f8", "shape": [2**40]}]}  # refused before any read
_LIST_DTYPE = {"meta": {}, "arrays": [{"name": "x", "dtype": ["<f8"], "shape": [1]}]}


@pytest.mark.parametrize(
    "command, data, named",
    [
        ("wf-scan", lambda blobs: _blob_bytes({})[:18], "truncated before the version and header length"),
        ("boundary-2pt", lambda blobs: _blob_bytes({})[:-1], "truncated header of 2 bytes"),
        ("boundary-2pt", lambda blobs: _blob_bytes([]), "header is not an object with a 'meta' object"),
        ("boundary-2pt", lambda blobs: _blob_bytes(_BAD_SHAPE), "array record 0 needs a string name and a shape"),
        ("boundary-2pt", lambda blobs: _blob_bytes(_HUGE), "truncated payload for array 'x'"),
        ("boundary-2pt", lambda blobs: _blob_bytes(_LIST_DTYPE), "disallowed dtype ['<f8']"),
        ("boundary-2pt", lambda blobs: _blob_bytes({"meta": {}}), "and an 'arrays' list"),
        ("boundary-2pt", lambda blobs: _blob_bytes(_NO_MODEL), "the blob's record lacks 'model'"),
        ("boundary-2pt", lambda blobs: _blob_bytes(b'{"meta": {}'), "header is not JSON"),
        ("wf-scan", _rewritten(1, lambda meta, arrays: meta["kernel"].pop("kind")),
         "the blob's record lacks 'kind'"),
        ("boundary-2pt", _rewritten(0, lambda meta, arrays: arrays.update(phi_0=arrays["phi_0"][1:])),
         "the blob's eigendata does not fit its grid of 287 dofs"),
        ("boundary-2pt", _rewritten(0, lambda meta, arrays: meta.update(m_list=[])), "does not fit its grid"),
        ("boundary-2pt", lambda blobs: b"NOT-AN-ADSKG-BLOB" + bytes(32), "bad magic"),
        ("boundary-2pt", lambda blobs: _blob_bytes({})[:16] + struct.pack("<II", 2, 2) + b"{}",
         "unsupported blob version 2"),
        ("wf-scan", lambda blobs: blobs[0].read_bytes(), "blob does not hold a kernel"),
        ("boundary-2pt", _rewritten(0, lambda meta, arrays: meta.update(payload="table")),
         "blob does not hold a spectral model"),
    ],
    ids=["short-sizes", "short-header", "list-header", "string-shape", "huge-shape", "list-dtype", "no-arrays",
         "no-model", "cut-json", "no-kind", "short-phi", "no-branch", "bad-magic", "version-2", "model-as-kernel",
         "neither-payload"],
)
def test_malformed_blobs_exit_2(small_blobs, tmp_path, capsys, command, data, named):
    """A malformed blob exits 2 with one line that names the file and the bad
    part, as a bad magic does, never with a traceback."""
    blob = tmp_path / "bad.bin"
    blob.write_bytes(data(small_blobs))
    flags = ["--kernel-bin", str(blob), "--window", "5.0"] if command == "wf-scan" else ["--model-bin", str(blob)]
    assert main([command, *flags, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {blob}: ") and err.count("\n") == 1, err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--N", "32"], "N=32 too small"),
        (["--n-modes", "0"], "n_modes=0 outside [1, N/4=48]"),
        (["--N", "96", "--n-modes", "25"], "n_modes=25 outside [1, N/4=24]"),
        (["--m-max", "-1"], "m_max must be >= 0"),
        (["--m-max", "1"], "ads2_strip has no transverse modes"),
    ],
    ids=["N-32", "no-modes", "too-many-modes", "m-max-neg", "strip-m-max"],
)
def test_build_spectral_refusals_exit_2(tmp_path, capsys, flags, named):
    """A mesh, mode count or transverse range build_spectral refuses is a bad
    flag: exit 2 with one error line, and no blob."""
    capsys.readouterr()
    out = tmp_path / "model.bin"
    assert main(["build-spectral", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err and "Traceback" not in err
    assert not out.exists()


def test_kernel_grid_defaults_follow_the_blob(tmp_path, capsys):
    """Without --dt, kernels takes the step verify works out from L and the
    spectrum, so a short wall needs no hand-tuned step; boundary-2pt always
    uses that step."""
    blob = tmp_path / "model.bin"
    assert main(["build-spectral", "--L", "0.5", "--N", "192", "--n-modes", "32", "--out", str(blob)]) == 0
    capsys.readouterr()
    assert main(["kernels", "--model-bin", str(blob), "--kind", "lambda_plus", "--out", str(tmp_path / "k.bin")]) == 0
    assert json.loads(capsys.readouterr().out)["dt"] == 0.0125
    assert main(["boundary-2pt", "--model-bin", str(blob), "--out", str(tmp_path / "b2p.csv")]) == 0


def test_trace_gbb_csv(tmp_path, capsys):
    out = tmp_path / "ray.csv"
    code = main(
        ["trace-gbb", "--x0", "0.4", "--xi0", "-1.0", "--tmax", "1.5",
         "--out", str(out)]
    )
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["symbol_drift"] == 0.0
    assert status["reflections"] >= 1
    rows = _read_csv(out)
    assert rows[0] == ["s", "t", "x", "y", "xi_bar", "xi", "zeta", "tau",
                       "segment_id", "event"]
    assert len(rows) > 10


def test_trace_gbb_keeps_zeta_without_y(tmp_path, capsys):
    """--zeta0 without --y0 holds on every arc, so the ray reflects three
    times instead of failing the null check after the first one."""
    out = tmp_path / "ray.csv"
    code = main(["trace-gbb", "--model", "ads3_cylinder", "--x0", "0.4", "--xi0", "-1.5", "--tau", "2.0",
                 "--zeta0", "1.3228756555322954", "--tmax", "3", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["reflections"] == 3
    assert {row[6] for row in _read_csv(out)[1:]} == {"1.3228756555322954"}


def test_trace_gbb_numerical_failure_exits_1(tmp_path, capsys):
    """A step too coarse to hold the null condition on a steep table ends in
    an error message and exit 1, not a traceback."""
    xs = np.linspace(0.0, 1.0, 11)
    model = tmp_path / "steep.json"
    model.write_text(json.dumps({"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0,
                                 "beta_table": [list(xs), list(1.0 + 10.0 * xs**2)]}))
    code = main(["trace-gbb", "--model-json", str(model), "--x0", "0.4", "--xi0", "-1.0",
                 "--tau", repr(math.sqrt(2.6)), "--tmax", "3", "--step", "0.05", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: integrator could not hold the null condition") and "Traceback" not in err


def test_non_finite_parameters_exit_2(tmp_path, capsys):
    """An infinite t_max or nu, a NaN ray step, or a mesh grading gamma that
    is not finite and positive, is a configuration error that names the
    parameter."""
    ray = ["trace-gbb", "--x0", "0.4", "--xi0", "-2", "--tau", "2", "--out", str(tmp_path / "r.csv")]
    build = ["build-spectral", "--N", "96", "--n-modes", "8", "--out", str(tmp_path / "m.bin")]
    cases = [(ray + ["--tmax", "inf"], "t_max=inf"), (["verify", "--nu", "inf", "--out-dir", str(tmp_path)], "nu=inf")]
    cases += [(ray + ["--tmax", "1", "--step", "nan"], "step and dt_param must be positive")]
    cases += [(build + ["--gamma", g], "gamma=") for g in ("0", "-1", "nan")]
    for argv, named in cases:
        assert main(argv) == 2, argv
        assert named in capsys.readouterr().err


_RAY = {"--x0": "0.4", "--xi0": "-2", "--tau": "2", "--tmax": "1"}
_PACKET = {"--x0": "0.5", "--xi0": "-40", "--sigma": "0.1", "--tmax": "0.3"}


@pytest.mark.parametrize(
    "command, flags, named",
    [
        ("trace-gbb", {**_RAY, "--t0": "nan"}, "t must be finite, got t=nan"),
        ("trace-gbb", {**_RAY, "--tau": "nan"}, "tau must be finite, got tau=nan"),
        ("trace-gbb", {**_RAY, "--tau": "inf"}, "tau must be finite, got tau=inf"),
        ("trace-gbb", {**_RAY, "--y0": "nan"}, "y must be finite, got y=nan"),
        ("trace-gbb", {**_RAY, "--xi0": "nan"}, "xi must be finite, got xi=nan"),
        ("wavepacket", {**_PACKET, "--xi0": "nan"}, "xi0 must be finite, got xi0=nan"),
        ("wavepacket", {**_PACKET, "--xi0": "inf"}, "xi0 must be finite, got xi0=inf"),
        ("wavepacket", {**_PACKET, "--x0": "nan"}, "x0 must be finite, got x0=nan"),
        ("wavepacket", {**_PACKET, "--sigma": "nan"}, "sigma must be finite, got sigma=nan"),
        ("kernels", {"--kind": "lambda_plus", "--t0": "nan"}, "time grid must be finite, got t = nan"),
        ("kernels", {"--kind": "lambda_plus", "--t0": "inf"}, "time grid must be finite, got t = inf"),
    ],
    ids=["ray-t0-nan", "ray-tau-nan", "ray-tau-inf", "ray-y0-nan", "ray-xi0-nan", "packet-xi0-nan",
         "packet-xi0-inf", "packet-x0-nan", "packet-sigma-nan", "kernels-t0-nan", "kernels-t0-inf"],
)
def test_non_finite_launch_data_exit_2(small_blobs, packet_blob, tmp_path, capsys, command, flags, named):
    """A NaN or infinite launch coordinate, packet parameter or grid start is
    a bad flag that the error names: exit 2 with one error line, and no
    output file."""
    capsys.readouterr()
    out = tmp_path / "out.bin"
    blob = {"wavepacket": ["--model-bin", str(packet_blob)], "kernels": ["--model-bin", str(small_blobs[0])]}
    argv = [command, *blob.get(command, []), *(item for flag in flags.items() for item in flag), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert not out.exists()


def test_infinite_wall_exits_2(tmp_path):
    """--L inf is refused when the model is built; it used to give every arc
    an infinite budget, so the ray never advanced.  Run as a subprocess with
    a timeout so that a hang fails the test instead of stalling the suite."""
    src = str(Path(adskg.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["trace-gbb", "--x0", "0.4", "--xi0", "-2", "--tau", "2", "--tmax", "1", "--L", "inf",
            "--out", str(tmp_path / "r.csv")]
    proc = subprocess.run([sys.executable, "-m", "adskg.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert "L=inf" in proc.stderr


def test_wavepacket_csv(tmp_path, capsys):
    blob = tmp_path / "model.bin"
    main(["build-spectral", "--nu", "1.0", "--N", "192", "--n-modes", "32",
          "--out", str(blob)])
    capsys.readouterr()
    out = tmp_path / "packet.csv"
    code = main(
        ["wavepacket", "--model-bin", str(blob), "--x0", "0.5", "--xi0", "-40",
         "--sigma", "0.1", "--tmax", "0.3", "--out", str(out)]
    )
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "ok"
    assert status["max_deviation"] <= 0.1
    rows = _read_csv(out)
    assert rows[0] == ["t", "centroid", "spread", "gbb_x", "deviation"]


def test_wavepacket_negative_sign_follows_its_ray(packet_blob, tmp_path, capsys):
    """A sign -1 packet launched with xi0 moves like the sign +1 packet
    launched with -xi0, and is compared with that ray."""
    capsys.readouterr()
    out = tmp_path / "packet.csv"
    code = main(["wavepacket", "--model-bin", str(packet_blob), "--x0", "0.5", "--xi0", "-40", "--sigma", "0.1",
                 "--sign", "-1", "--tmax", "1.3", "--out", str(out)])
    assert code == 0
    status = json.loads(capsys.readouterr().out)
    assert status["status"] == "ok" and status["max_deviation"] < status["width"]


def test_wavepacket_step_defaults_to_verify_step(tmp_path, capsys):
    """Without --dt, wavepacket steps by 0.005 L as verify's tracking does, so
    verify's packet scaled to an L = 0.1 blob runs; a step too coarse for the
    blob's spectrum is refused with omega_max*dt named against pi."""
    blob = tmp_path / "model.bin"
    assert main(["build-spectral", "--L", "0.1", "--N", "192", "--n-modes", "32", "--out", str(blob)]) == 0
    capsys.readouterr()
    out = tmp_path / "packet.csv"
    argv = ["wavepacket", "--model-bin", str(blob), "--x0", "0.05", "--xi0", "-400", "--sigma", "0.01",
            "--tmax", "0.13", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    times = [float(row[0]) for row in _read_csv(out)[1:]]
    assert len(times) == 261 and times[1] == pytest.approx(5e-4, rel=1e-12)
    assert main(argv[:-2] + ["--dt", "5e-3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dt undersamples") and "omega_max*dt = " in err and ">= pi" in err


def test_boundary_2pt_has_no_time_grid_flags(small_blobs, tmp_path, capsys):
    """The boundary lines do not depend on a time grid, so the command takes none."""
    out = tmp_path / "b2p.csv"
    for flag in (["--T", "64"], ["--dt", "0.001"]):
        assert main(["boundary-2pt", "--model-bin", str(small_blobs[0]), *flag, "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize(
    "raw, named",
    [
        ({"seed": 1.5}, "seed must be of type int"),
        ({"N": "192"}, "N must be of type int"),
        ({"n_modes": 32.0}, "n_modes must be of type int"),
        ({"m_max": True}, "m_max must be of type int"),
        ({"inject_sign_flip": "no"}, "inject_sign_flip must be of type bool"),
        ({"model": "ads2_strip"}, "model must be of type dict"),
        ({"tolerances": 5}, "tolerances must be of type dict"),
        (["N", "seed"], "one JSON object"),
        ({"model": {"kind": "ads2_strip", "L": 1.0}}, "lacks the keys ['nu']"),
        ({"model": {"kind": "ads3_cylinder"}}, "lacks the keys ['nu', 'L']"),
        ({"model": {"kind": "custom", "nu": 1.0, "L": 1.0}}, "lacks the keys ['n']"),
        ({"model": {"kind": "ads2_strip", "nu": None, "L": 1.0}}, "'nu' must be a number"),
        ({"model": {"kind": "ads2_strip", "nu": [1], "L": 1.0}}, "'nu' must be a number"),
        ({"model": {"kind": "ads2_strip", "nu": True, "L": 1.0}}, "'nu' must be a number"),
        ({"model": {"kind": "ads2_strip", "nu": 1.0, "L": "1"}}, "'L' must be a number"),
        ({"model": {"kind": "ads3_cylinder", "nu": 1.0, "L": 1.0, "ell": {}}}, "'ell' must be a number"),
        ({"model": {"kind": "custom", "n": 2.5, "nu": 1.0, "L": 1.0}}, "'n' must be an integer"),
        ({"model": {"kind": "custom", "n": True, "nu": 1.0, "L": 1.0}}, "'n' must be an integer"),
        ({"tolerances": {"algebra": True}}, "tolerance 'algebra' must be positive, got True"),
        ({"tolerances": {"scan_vacum": 1e-3}}, "unknown tolerances: ['scan_vacum']"),
    ],
    ids=["seed-float", "N-str", "n_modes-float", "m_max-bool", "flip-str", "model-str", "tolerances-int", "list",
         "no-nu", "no-nu-L", "custom-no-n", "nu-null", "nu-list", "nu-bool", "L-str", "ell-object", "n-float",
         "n-bool", "tolerance-bool", "tolerance-unknown"],
)
def test_verify_refuses_mistyped_config(tmp_path, capsys, raw, named):
    """A config value of the wrong type or a model without a required key is
    a config error: exit 2 with one message and no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_verify_report_structure(verify_run):
    code, report_bytes, _ = verify_run
    assert code == 0
    report = json.loads(report_bytes)
    assert report["pass"] is True
    assert report["n_failed"] == 0
    assert report["n_checks"] == len(report["checks"]) >= 30
    assert report["config"]["seed"] == 1234
    for check in report["checks"]:
        assert set(check) >= {"check", "identity", "value", "tolerance", "pass"}
        assert np.isfinite(check["value"])


def test_verify_fault_injection(tmp_path, capsys):
    out = tmp_path / "bad.json"
    table = tmp_path / "bad.csv"
    code = main(
        ["verify", "--inject-sign-flip", "--out", str(out), "--csv", str(table),
         "--out-dir", str(tmp_path)]
    )
    assert code == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["n_failed"] >= 1
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert any("frequency_sign" in c["check"] for c in failed)
    rows = _read_csv(table)
    assert rows[0] == ["check", "identity", "value", "tolerance", "pass"]
    assert len(rows) == 1 + report["n_checks"]


def test_verify_rejects_bad_model(tmp_path, capsys):
    code = main(["verify", "--nu", "-0.5", "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err or "error" in err


DEFAULT_CHECKS = [
    "indicial_sum", "indicial_gap", "even_warp_slope", "null_point_symbol",
    "gbb_symbol_drift", "gbb_reflections", "gbb_reflection_law", "gbb_tangential_continuity",
    "eigenvalue_oracle", "collocation_oracle", "eigenvalue_exact_half", "spectral_floor",
    "wave_op_on_lambda", "commutator_identity", "hermiticity", "psd_lambda_plus", "psd_lambda_minus",
    "support_retarded", "adjoint_pair", "feynman_consistency",
    "frequency_sign_plus", "frequency_sign_minus", "frequency_sign_mutation",
    "time_slice_order", "time_slice_residual",
    "indicial_roots_annihilated", "indicial_midpoint", "series_order_gain", "series_resonance_refusal",
    "mode_boundary_exponent", "boundary_amplitude_mode1", "boundary_weights_oracle", "boundary_psd",
    "boundary_one_sided",
    "packet_moments", "packet_follows_gbb", "packet_reflection_time",
    "scan_vacuum_plus", "scan_mutation", "scan_thermal_state",
    "state_wave_op_on_lambda", "state_commutator_identity", "state_psd_lambda_plus", "state_psd_lambda_minus",
    "difference_coefficients", "difference_smoothness", "scan_feynman_flip",
]


def test_verify_check_names_in_order(verify_run):
    report = json.loads(verify_run[1])
    assert [c["check"] for c in report["checks"]] == DEFAULT_CHECKS
    assert all("error" not in c for c in report["checks"])


def test_verify_config_tolerances_reach_two_point_checks(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text(json.dumps({"tolerances": {"algebra": 1e-30, "psd": 1e-30}}))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    checks = {c["check"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("commutator_identity", "hermiticity", "state_commutator_identity"):
        assert checks[name]["tolerance"] == 1e-30
    for name in ("psd_lambda_plus", "psd_lambda_minus", "state_psd_lambda_plus", "state_psd_lambda_minus"):
        # -psd * max|eigenvalue|, with max|eigenvalue| of order one
        assert -1e-29 < checks[name]["tolerance"] < 0.0
    assert 0.0 < checks["state_commutator_identity"]["value"] < 1e-15
    assert checks["state_commutator_identity"]["pass"] is False


# rows whose tolerance reads the config's "tolerances"; every other row
# states its tolerance as a constant or derives it from the data
CONFIG_TOLERANCE_CHECKS = [
    "gbb_symbol_drift", "eigenvalue_oracle", "eigenvalue_exact_half",
    "commutator_identity", "hermiticity", "psd_lambda_plus", "psd_lambda_minus",
    "adjoint_pair", "feynman_consistency",
    "frequency_sign_plus", "frequency_sign_minus", "frequency_sign_mutation", "time_slice_residual",
    "series_order_gain", "mode_boundary_exponent", "boundary_amplitude_mode1", "boundary_weights_oracle",
    "boundary_psd", "boundary_one_sided",
    "scan_vacuum_plus", "scan_mutation", "scan_thermal_state",
    "state_commutator_identity", "state_psd_lambda_plus", "state_psd_lambda_minus",
    "difference_smoothness", "scan_feynman_flip",
]


def test_verify_tolerances_come_from_the_table(verify_run):
    """Doubling every config tolerance moves exactly the rows that read the
    config; every other row keeps its tolerance bit for bit."""
    doubled = {name: 2.0 * value for name, value in _default_tolerances().items()}
    _, report = run_verify(RunConfig(tolerances=doubled))
    base = {c["check"]: c["tolerance"] for c in json.loads(verify_run[1])["checks"]}
    got = {c["check"]: c["tolerance"] for c in report["checks"]}
    assert list(got) == list(base)
    assert [name for name in got if got[name] != base[name]] == CONFIG_TOLERANCE_CHECKS


def test_verify_fills_in_missing_tolerances(verify_run):
    """A config that names some tolerances gets the defaults for the rest:
    the report lists all 15 and equals the default report byte for byte."""
    code, report = run_verify(RunConfig(tolerances={"algebra": 1e-12}))
    assert code == 0
    assert list(report["config"]["tolerances"]) == list(_default_tolerances())
    assert (json.dumps(report, indent=2) + "\n").encode() == verify_run[1]


def test_verify_refuses_unknown_tolerance_names():
    with pytest.raises(ValueError, match="unknown tolerances"):
        run_verify(RunConfig(tolerances={"algebra": 1e-12, "scan_vacum": 1e-3}))


def test_default_plan_holds_the_verify_literals(sm192):
    """The plan of the default run, field by field, at L = 1 and nu = 1."""
    plan = _plan(RunConfig(), sm192)
    want = {
        "null_point": (0.5, 1.0),
        "gbb": (0.4, 2.0, 2.2, 2e-3),
        "n_cmp": 10,
        "collocation": (24, 4),
        "half_line": (192, 8, 4),
        "kernel_grid": (0.025, 768),
        "time_slice": (1e-3, 0.256, (4, 2, 1)),
        "series": (1.3, (0, 4)),
        "exponent_window": (1.0 / 400.0, 1.0 / 20.0),
        "n_weights": 5,
        "packet": (0.5, -40.0, 0.1),
        "track": (1.3, 0.005),
        "scan": (6.5, 3),
        "thermal_beta": 5.0 / sm192.m_floor_sqrt,
        "difference_stride": 7,
        "feynman_scan": (5.0, 4, 10.0),
    }
    assert list(VerifyPlan.__dataclass_fields__) == list(want)
    for name, value in want.items():
        assert getattr(plan, name) == value, name
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.n_cmp = 4


def test_verify_fits_each_boundary_mode_once(monkeypatch):
    """boundary_amplitude_mode1 reads mode 1 of the fits the boundary kernel
    reads, so a default run fits each of its 32 modes once."""
    from adskg import holography

    calls = []
    fit = holography.extract_boundary
    monkeypatch.setattr(holography, "extract_boundary", lambda *a, **kw: calls.append(1) or fit(*a, **kw))
    code, _ = run_verify(RunConfig())
    assert code == 0 and len(calls) == 32


def test_verify_passes_at_seed_301():
    """At seed 301 the time-slice order once read 1.819 against the bound 1.9."""
    code, report = run_verify(RunConfig(seed=301))
    assert code == 0, [row["check"] for row in report["checks"] if not row["pass"]]


def test_plan_scales_with_L():
    """At L = 2 every length doubles and xi0 halves, except the scan windows:
    at nu = 0.7 they follow the spectral gap, since 6.5 L and 5 L would give
    time-bandwidths below 3.5 and 2.7.  The series reads the model at every
    nu; counts follow the config."""
    sm = build_spectral(make_toy_model("ads2_strip", nu=0.7, L=2.0), N=96, n_modes=8)
    plan = _plan(RunConfig(N=96, n_modes=8), sm)
    assert plan.series == (1.3, (0, 4))
    assert (plan.n_cmp, plan.half_line) == (8, (128, 8, 4))
    assert plan.packet == (1.0, -20.0, 0.2)
    assert plan.gbb == (0.8, 2.0, 4.4, 4e-3)
    assert plan.time_slice == (2e-3, 0.512, (4, 2, 1))
    gap = 2.0 * math.pi / (0.9 * sm.m_floor_sqrt)
    assert (plan.scan, plan.feynman_scan) == ((3.5 * gap, 3), (2.7 * gap, 4, 20.0))
    assert (plan.scan[0], plan.feynman_scan[0]) == (pytest.approx(14.281, abs=1e-3), pytest.approx(11.017, abs=1e-3))
    assert plan.exponent_window == (2.0 / 400.0, 2.0 / 20.0)


@pytest.mark.parametrize("nu, xi0", [(1.0, -40.0), (5.0, -40.0), (6.0, -45.0), (8.0, -60.0), (12.0, -90.0)])
def test_plan_launches_the_packet_in_the_semiclassical_regime(nu, xi0):
    """The ray drops the centrifugal term (nu^2 - 1/4)/x^2, so the packet's
    frequency grows with nu: xi0 = -max(40, 7.5 nu) / L, the same as before
    for nu <= 16/3.  Above nu = 4 mode 1 is round-off near x = L/400, so its
    exponent window starts at the fits' accuracy floor; at nu = 12 that floor
    lies above L/40, and the window ends at twice the floor."""
    L = 2.0
    sm = build_spectral(make_toy_model("ads2_strip", nu=nu, L=L), N=192, n_modes=32)
    plan = _plan(RunConfig(), sm)
    floor = float(fit_floor(sm.branch(0).phi[:, 0], sm.grid.dof_x, L))
    assert plan.packet == (0.5 * L, xi0 / L, 0.1 * L)
    assert plan.exponent_window == (floor, max(L / 20.0, 2.0 * floor))
    assert (plan.exponent_window[0] > L / 400.0) == (nu > 4.0)
    assert (plan.exponent_window[1] == 2.0 * floor) == (nu == 12.0)


def test_wrong_boundary_exponent_fails_its_row_alone(monkeypatch):
    """A mode 1 whose leading power is 0.02 too high, phi_1 x^0.02, fails
    mode_boundary_exponent on its value and no other row (exit 1): the probe
    divides out the even series S_omega = 1 + O(x^2), so the wrong power
    reads in full against the tolerance of 1e-2."""
    from types import SimpleNamespace

    from adskg import holography

    probe = holography.mellin_exponent_probe

    def faulted(sm, window):
        br = sm.branch(0)
        mode1 = SimpleNamespace(omega2=br.omega2, phi=br.phi * sm.grid.dof_x[:, None] ** 0.02)
        return probe(SimpleNamespace(model=sm.model, grid=sm.grid, branch=lambda m: mode1), window)

    monkeypatch.setattr(holography, "mellin_exponent_probe", faulted)
    code, report = run_verify(RunConfig())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert code == 1 and [c["check"] for c in failed] == ["mode_boundary_exponent"]
    assert "error" not in failed[0] and failed[0]["value"] == pytest.approx(0.02, abs=1e-6)


@pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
def test_verify_ray_reflects_three_times_at_every_wall_length(L):
    """The ray launched at 0.4 L runs to 2.2 L, between its bounces at 1.4 L
    and 2.4 L, so rounding never decides whether a fourth arc runs."""
    _, report = run_verify(RunConfig(model={"kind": "ads2_strip", "nu": 1.0, "L": L}))
    assert {c["check"]: c["value"] for c in report["checks"]}["gbb_reflections"] == 3.0


@pytest.mark.parametrize("L", [1e-4, 0.5, 2.0, 1e3])
def test_verify_is_the_same_at_every_wall_length(verify_run, tmp_path, L):
    """Every check is dimensionless, so a run of ``verify --L`` at another L,
    with the grid worked out by verify, passes, records that L in its config
    block and reproduces the L = 1 values.  The boundary Gram's least
    eigenvalue sits at round-off and is left out.  The packet's reference
    ray steps by 0.04 L / |xi0|, so it takes as many steps at L = 1e-4 as at
    L = 1e3."""
    out = tmp_path / "report.json"
    code = main(["verify", "--L", f"{L:g}", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["config"]["model"] == {"kind": "ads2_strip", "nu": 1.0, "L": L}
    assert report["config"]["dt"] == pytest.approx(0.025 * L, rel=1e-15)
    assert report["config"]["T"] == 768
    base = {c["check"]: c["value"] for c in json.loads(verify_run[1])["checks"]}
    for c in report["checks"]:
        want = base[c["check"]]
        if abs(want) > 1e-10 and c["check"] != "boundary_psd":
            assert c["value"] == pytest.approx(want, rel=1e-6), c["check"]


def test_verify_refines_the_grid_for_more_modes():
    """48 modes put omega_max * 0.025 above pi: verify's plan halves the step
    and doubles the grid, the tracking step 0.005 stays, the report prints
    the plan's grid, and every check passes."""
    config = RunConfig(n_modes=48)
    plan = _plan(config, build_spectral(make_toy_model("ads2_strip", nu=1.0, L=1.0), N=192, n_modes=48))
    assert (plan.kernel_grid, plan.track) == ((0.0125, 1536), (1.3, 0.005))
    code, report = run_verify(config)
    assert code == 0
    assert (report["config"]["dt"], report["config"]["T"]) == plan.kernel_grid


def test_plan_refines_the_track_for_many_modes():
    """At N = 960 with 240 modes omega_max * 0.005 L = 3.774 exceeds pi: the
    plan halves the tracking step as it divides the kernel step by 7, so
    packet_follows_gbb, read alone on a run, holds its value with no
    precondition error."""
    config = RunConfig(N=960, n_modes=240)
    sm = build_spectral(make_toy_model("ads2_strip", nu=1.0, L=1.0), N=960, n_modes=240)
    plan = _plan(config, sm)
    assert float(sm.branch(0).omega[-1]) * 0.005 == pytest.approx(3.774, abs=1e-3)
    assert (plan.kernel_grid, plan.track) == ((0.025 / 7, 768 * 7), (1.3, 0.0025))
    run = VerifyRun(config, _default_tolerances(), sm, plan)
    row = next(row for row in ROWS if row.name == "packet_follows_gbb")
    value, tolerance = row.value(run), row.tolerance(run)
    assert row.passes(value, tolerance) and value < 0.7
    assert run.track.times[1] == 0.0025 and run.kernels == {}


def test_constant_tables_reproduce_the_toy(verify_run):
    """A custom model whose warp tables are constant 1 is the toy strip: the
    40 rows it shares with the default report agree bit for bit."""
    xs = np.linspace(0.0, 1.0, 41)
    ones = [list(xs), [1.0] * xs.size]
    model = {"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0, "beta_table": ones, "k_table": ones}
    _, report = run_verify(RunConfig(model=model))
    base = {c["check"]: c for c in json.loads(verify_run[1])["checks"]}
    shared = [c for c in report["checks"] if c["check"] in base]
    assert len(shared) == len(report["checks"]) == 40
    for c in shared:
        want = base[c["check"]]
        assert (c["value"], c["tolerance"], c["pass"]) == (want["value"], want["tolerance"], want["pass"]), c["check"]


_REFUSED = "injected precondition failure"


@pytest.mark.parametrize(
    "nu, tolerances, failing",
    [
        ("0.5", {}, {"scan_feynman_flip": _REFUSED}),
        ("0.7", {}, {"scan_feynman_flip": _REFUSED}),
        ("0.3", {"scan_vacuum": 1e-12}, {"scan_vacuum_plus": None, "scan_feynman_flip": _REFUSED}),
    ],
    ids=["nu0.5", "nu0.7", "nu0.3"],
)
def test_verify_records_failed_preconditions(tmp_path, capsys, monkeypatch, nu, tolerances, failing):
    """A precondition that fails inside a check fails that check alone; the
    other checks still run and the report is written (exit 1, not 2).  The
    Feynman scan is made to raise a ValueError, and at nu = 0.3 a tight
    tolerance fails the vacuum scan on its value; every other row passes at
    these nu, whose scan windows follow the spectral gap.  ``failing`` maps
    each failing check to its error text, or None when the check failed on
    its value."""
    from adskg import microlocal

    scan = microlocal.kernel_wavefront_scan

    def refusing(kernel, *args):
        if kernel.kind == "feynman":
            raise ValueError(_REFUSED)
        return scan(kernel, *args)

    monkeypatch.setattr(microlocal, "kernel_wavefront_scan", refusing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tolerances": tolerances}))
    out, table = tmp_path / "report.json", tmp_path / "checks.csv"
    assert main(["verify", "--nu", nu, "--config", str(config), "--out", str(out), "--csv", str(table)]) == 1
    assert "FAIL" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["n_checks"] == len(DEFAULT_CHECKS)
    failed = {c["check"]: c for c in report["checks"] if not c["pass"]}
    assert set(failed) == set(failing)
    assert report["n_failed"] == len(failing)
    rows = {r[0]: r for r in _read_csv(table)[1:]}
    for name, message in failing.items():
        entry = failed[name]
        assert entry["identity"]
        if message is None:
            assert "error" not in entry and np.isfinite(entry["value"])
        else:
            assert message in entry["error"]
            assert entry["value"] is None and entry["tolerance"] is None
            assert rows[name][2:] == ["", "", "0"]


_BOUNDARY_ROWS = ("boundary_amplitude_mode1", "boundary_weights_oracle", "boundary_psd", "boundary_one_sided")


@pytest.mark.parametrize("nu", [2.5, 4.0])
def test_verify_boundary_rows_pass_at_large_nu(nu):
    """The contamination fit takes its x^(-2 nu) column in x / x_mid, so at
    large nu a Dirichlet-branch mode is not mistaken for a contaminated one:
    every row passes, and the boundary rows pass on their values."""
    code, report = run_verify(RunConfig(model={"kind": "ads2_strip", "nu": nu, "L": 1.0}))
    assert code == 0 and report["n_failed"] == 0 and report["n_checks"] == len(DEFAULT_CHECKS)
    rows = {c["check"]: c for c in report["checks"]}
    for name in _BOUNDARY_ROWS:
        row = rows[name]
        assert "error" not in row and row["pass"] and math.isfinite(row["value"]), name


def test_verify_passes_at_nu_8(tmp_path):
    """At nu = 8 the fits start above the modes' round-off, the series carries
    the boundary expansion and the packet is launched at xi0 = -60: every row
    of ``verify --nu 8`` passes."""
    out = tmp_path / "report.json"
    assert main(["verify", "--nu", "8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["check"] for c in report["checks"]] == DEFAULT_CHECKS
    assert report["n_failed"] == 0 and all(c["pass"] for c in report["checks"])


_ENDED_AT_HALF = "the track ended at t = 0.5, before the return window t > 1.2 x0 = 0.6"
_ENDED_AT_ZERO = "the track ended at t = 0, before the return window t > 1.2 x0 = 0.6"


@pytest.mark.parametrize(
    "cut, failing",
    [
        ("t_max", {"packet_reflection_time": _ENDED_AT_HALF}),
        ("spread", {"packet_follows_gbb": "the packet dispersed at t = 0, before t_max = 1.3",
                    "packet_reflection_time": _ENDED_AT_ZERO}),
    ],
)
def test_verify_records_a_track_cut_short(tmp_path, capsys, monkeypatch, cut, failing):
    """A track that holds no time after 1.2 x0 = 0.6 L, where the packet's
    return is read, fails packet_reflection_time on a message that names
    that precondition; a track cut by the packet's spread also fails
    packet_follows_gbb on one.  The track is cut at t_max = 0.5 L, or at its
    first time by a spread limit of L/20 (the packet starts 0.073 L wide).
    Every other row runs and passes, and the report is written (exit 1)."""
    from adskg import cli, microlocal

    if cut == "t_max":
        plan = cli._plan
        monkeypatch.setattr(cli, "_plan", lambda config, sm: dataclasses.replace(plan(config, sm), track=(0.5, 0.005)))
    else:
        monkeypatch.setattr(microlocal, "_DISPERSE_FRACTION", 0.05)
    out, table = tmp_path / "report.json", tmp_path / "checks.csv"
    assert main(["verify", "--out", str(out), "--csv", str(table)]) == 1
    assert f"FAIL packet_reflection_time: error: {failing['packet_reflection_time']}" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["n_checks"] == len(DEFAULT_CHECKS) and report["n_failed"] == len(failing)
    assert {c["check"]: c.get("error") for c in report["checks"] if not c["pass"]} == failing
    rows = {r[0]: r for r in _read_csv(table)[1:]}
    assert all(rows[name][2:] == ["", "", "0"] for name in failing)


def test_verify_band_over_every_feynman_window(tmp_path, capsys, monkeypatch):
    """With 15 L Feynman windows every window of the 4 x 4 grid lies inside
    the 10 L band: the scan forms none, and scan_feynman_flip fails alone on
    the text ``off_pattern`` gives when no window is left.  The report is
    still written and the exit code is 1."""
    from adskg import cli

    plan = cli._plan

    def long_windows(config, sm):
        p = plan(config, sm)
        _, starts, band = p.feynman_scan
        return dataclasses.replace(p, feynman_scan=(15.0 * sm.model.L, starts, band))

    monkeypatch.setattr(cli, "_plan", long_windows)
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 1
    assert "FAIL scan_feynman_flip: error: no scan window lies outside the diagonal band" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["n_checks"] == len(DEFAULT_CHECKS) and report["n_failed"] == 1
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["check"] for c in failed] == ["scan_feynman_flip"]
    assert failed[0]["error"] == "no scan window lies outside the diagonal band"


def test_verify_forms_each_shared_table_once(monkeypatch):
    """One in-process run_verify forms no fft2: the 10 L band holds every
    Feynman offset whose lags straddle tau = 0, which a scan without the band
    transforms (3 of them).  It builds each kernel's all-lag gains, each
    distinct (n, NW) taper and each zero of J_nu once.  A second run repeats
    the counts, so no reuse is carried from one run to the next."""
    from collections import Counter

    from functools import cached_property

    from adskg import bessel, propagators
    from adskg.propagators import LineSpectrum

    ffts, gains, tapers, bisected = [], [], [], []
    fft2, slepian, bisect = np.fft.fft2, propagators.slepian_taper, bessel._bisect
    lag_gains = LineSpectrum._lag_gains.func
    counting_gains = cached_property(lambda self: gains.append(self) or lag_gains(self))
    counting_gains.__set_name__(LineSpectrum, "_lag_gains")
    monkeypatch.setattr(np.fft, "fft2", lambda x, *a, **kw: ffts.append(np.shape(x)) or fft2(x, *a, **kw))
    monkeypatch.setattr(LineSpectrum, "_lag_gains", counting_gains)
    monkeypatch.setattr(propagators, "slepian_taper", lambda n, nw: tapers.append((n, nw)) or slepian(n, nw))
    monkeypatch.setattr(bessel, "_bisect", lambda nu, starts: bisected.append((nu, starts.size)) or bisect(nu, starts))

    counts = []
    for _ in range(2):
        for log in (ffts, gains, tapers, bisected):
            log.clear()
        code, _ = run_verify(RunConfig())
        assert code == 0
        assert ffts == []
        # the log holds every kernel, so no id is reused within a run
        all_lag = Counter(map(id, gains))
        assert set(all_lag.values()) == {1}
        assert set(Counter(tapers).values()) == {1}
        # one scan at the longest count the rows read, the 24-term collocation basis, which every row slices
        assert bisected == [(1.0, 24)]
        counts.append((sorted(all_lag.values()), sorted(tapers), list(bisected)))
    assert counts[0] == counts[1]


def _default_run(sm) -> VerifyRun:
    """The run object of a default verify, on the shared eigenbasis."""
    config = RunConfig()
    return VerifyRun(config, _default_tolerances(), sm, _plan(config, sm))


def test_a_row_reads_alone_on_a_run(sm192, verify_run):
    """A row is a record read off one run object: mode_boundary_exponent,
    evaluated alone on a fresh default run, gives the default report's value,
    tolerance and verdict, and makes no kernel and no shared object."""
    run = _default_run(sm192)
    attributes = set(vars(run))
    row = next(row for row in ROWS if row.name == "mode_boundary_exponent")
    want = {c["check"]: c for c in json.loads(verify_run[1])["checks"]}[row.name]
    value, tolerance = row.value(run), row.tolerance(run)
    assert (value, tolerance) == (want["value"], want["tolerance"]) == (4.459865499129023e-08, 0.01)
    assert row.passes(value, tolerance)
    assert run.kernels == {} and set(vars(run)) == attributes


def test_row_table_is_the_report_order():
    """The module-level table lists the 47 default checks in report order; only
    the toy-oracle and boundary rows name the model kinds they apply to."""
    assert [row.name for row in ROWS] == DEFAULT_CHECKS
    kinds = {row.name: row.kinds for row in ROWS if row.kinds}
    assert kinds == {
        "eigenvalue_oracle": ("ads2_strip", "ads3_cylinder"),
        "collocation_oracle": ("ads2_strip", "ads3_cylinder"),
        **dict.fromkeys(("eigenvalue_exact_half", *_BOUNDARY_ROWS), ("ads2_strip",)),
    }


def _wave_residuals(kernel) -> np.ndarray:
    """Largest relative wave residual of each mode on tau >= 0, formed as
    ``verify_two_point`` forms it."""
    g, w = kernel.gains()[:, kernel.T - 1:], kernel.omega[:, None]
    resid = (g[:, 2:] - 2.0 * g[:, 1:-1] + g[:, :-2]) / kernel.dt**2 + w**2 * g[:, 1:-1]
    return np.max(np.abs(resid) * (2.0 * w) / w**2, axis=1)


def test_equal_float_rows_are_equal_for_their_reasons(sm192, verify_run):
    """Three pairs of default rows read the same float, each for a reason
    that is not the row's construction.

    wave_op_on_lambda and state_wave_op_on_lambda: the residual of all four
    lambda kernels peaks on the top retained mode (index 31), where the
    thermal occupation is 3.8e-58, so 1 + n rounds to 1 and the state's
    residual there is the vacuum's; at mode 1 they differ.  The two PSD rows
    of the vacuum, and the two of the state: lambda_minus's Gram matrix is
    the conjugate of lambda_plus's, bit for bit, and has the same
    eigenvalues."""
    run = _default_run(sm192)
    values = {c["check"]: c["value"] for c in json.loads(verify_run[1])["checks"]}
    vacuum = [_wave_residuals(run.kernel(kind)) for kind in ("lambda_plus", "lambda_minus")]
    state = [_wave_residuals(kernel) for kernel in (run.pair.lp_b, run.pair.lm_b)]
    n = run.pair.occupation
    assert [int(np.argmax(r)) for r in vacuum + state] == [31] * 4
    assert n[31] == pytest.approx(3.8e-58, rel=0.01) and 1.0 + n[31] == 1.0
    assert max(r[31] for r in vacuum) == max(r[31] for r in state) == values["wave_op_on_lambda"]
    assert values["state_wave_op_on_lambda"] == values["wave_op_on_lambda"]
    assert vacuum[0][0] != state[0][0]
    for prefix, lp, lm in (("", run.kernel("lambda_plus"), run.kernel("lambda_minus")),
                           ("state_", run.pair.lp_b, run.pair.lm_b)):
        gram_plus, gram_minus = _gram_matrix(lp), _gram_matrix(lm)
        assert np.array_equal(gram_minus, gram_plus.conj())
        evals = gram_eigenvalues(gram_plus)
        assert np.array_equal(gram_eigenvalues(gram_minus), evals)
        assert values[f"{prefix}psd_lambda_plus"] == values[f"{prefix}psd_lambda_minus"] == evals[0]


def test_importing_the_cli_leaves_numpy_unloaded():
    """The cli module top, its row table included, imports only the standard
    library, so a thread count can be exported before numpy loads."""
    _run_fresh("import sys\nimport adskg.cli\nassert 'numpy' not in sys.modules, 'numpy was imported'\n")
