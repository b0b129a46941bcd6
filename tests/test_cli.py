import argparse
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

import adskg
from adskg.cli import _THREAD_VARS, RunConfig, _default_tolerances, _export_threads, main, run_verify
from oracles import line_weights_mp


def test_public_names_resolve():
    for sub in adskg._SUBMODULES:
        module = getattr(adskg, sub)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"adskg.{sub}.__all__ lists missing {name!r}"


def test_source_lines_fit_120_columns():
    src = Path(adskg.__file__).parent
    long = [f"{f.name}:{i}" for f in sorted(src.glob("*.py"))
            for i, line in enumerate(f.read_text().splitlines(), 1) if len(line) > 120]
    assert not long, f"lines longer than 120 characters: {long}"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_export_threads_sets_defaults(monkeypatch):
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delenv("ADSKG_THREADS", raising=False)
    try:
        _export_threads(["--threads=3", "verify"])
        for var in _THREAD_VARS:
            assert os.environ[var] == "3"
    finally:
        for var in _THREAD_VARS:
            os.environ.pop(var, None)


def test_export_threads_keeps_existing(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.setenv("ADSKG_THREADS", "2")
    for var in _THREAD_VARS[1:]:
        monkeypatch.delenv(var, raising=False)
    try:
        _export_threads(["--threads", "5", "verify"])
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "5"
    finally:
        for var in _THREAD_VARS[1:]:
            os.environ.pop(var, None)


def test_export_threads_rejects_garbage():
    with pytest.raises(SystemExit, match="positive integer"):
        _export_threads(["--threads", "zero"])
    assert main(["--threads", "-1", "verify"]) == 2


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
    assert cfg.tolerances["algebra"] == 1e-10
    assert cfg.tolerances["psd"] == 1e-10

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


def test_kernels_refuses_unknown_weighting(small_blobs, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "k.bin"
    code = main(["kernels", "--model-bin", str(small_blobs[0]), "--kind", "lambda_plus",
                 "--weighting", "bogus", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "physical" in err
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


@pytest.mark.parametrize("L", [0.5, 2.0])
def test_verify_is_the_same_at_every_wall_length(verify_run, L):
    """Every check is dimensionless, so a run at another L, with the grid
    worked out by verify, passes and reproduces the L = 1 values.  The
    boundary Gram's least eigenvalue sits at round-off and is left out."""
    code, report = run_verify(RunConfig(model={"kind": "ads2_strip", "nu": 1.0, "L": L}))
    assert code == 0
    assert report["config"]["dt"] == pytest.approx(0.025 * L, rel=1e-15)
    assert report["config"]["T"] == 768
    base = {c["check"]: c["value"] for c in json.loads(verify_run[1])["checks"]}
    for c in report["checks"]:
        want = base[c["check"]]
        if abs(want) > 1e-10 and c["check"] != "boundary_psd":
            assert c["value"] == pytest.approx(want, rel=1e-6), c["check"]


def test_verify_refines_the_grid_for_more_modes():
    """48 modes put omega_max * 0.025 above pi: verify halves the step and
    doubles the grid, and every check passes."""
    code, report = run_verify(RunConfig(n_modes=48))
    assert code == 0
    assert (report["config"]["T"], report["config"]["dt"]) == (1536, 0.0125)


_CONTAMINATED = "complementary-branch contamination"
_SHORT_WINDOW = "window too short for the spectral gap"
_BOUNDARY_FITS = ("boundary_weights_oracle", "boundary_psd", "boundary_one_sided")


@pytest.mark.parametrize(
    "flags, failing",
    [
        (["--nu", "0.5"], {"scan_feynman_flip": _SHORT_WINDOW}),
        (["--nu", "0.7"], {"scan_feynman_flip": _SHORT_WINDOW}),
        (["--nu", "2.5"], dict.fromkeys(_BOUNDARY_FITS, _CONTAMINATED)),
        (["--nu", "0.3"], {"collocation_oracle": None, "scan_vacuum_plus": None, "scan_feynman_flip": _SHORT_WINDOW}),
    ],
    ids=["nu0.5", "nu0.7", "nu2.5", "nu0.3"],
)
def test_verify_records_failed_preconditions(tmp_path, capsys, flags, failing):
    """A precondition that fails inside a check fails that check alone; the
    other checks still run and the report is written (exit 1, not 2).
    ``failing`` maps each failing check to its error text, or None when the
    check failed on its value."""
    out, table = tmp_path / "report.json", tmp_path / "checks.csv"
    assert main(["verify", *flags, "--out", str(out), "--csv", str(table)]) == 1
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
