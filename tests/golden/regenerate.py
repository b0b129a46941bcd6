"""Golden outputs of the command line, and the script that rewrites them.

The golden set is four ``verify`` reports (the default run, the sign-flip
fault injection, the ads3 cylinder with ``m_max = 2`` and an inline-table
model with beta = 1 + x^2 on 8 knots), kept byte for byte, and the sha256
and row count of each subcommand CSV: ``wf-scan`` of the lambda_plus,
Feynman, retarded and causal kernels, ``trace-gbb`` on the strip and on a
cylinder ray with zeta0 = sqrt(3), ``boundary-2pt``, and ``wavepacket`` at
both signs.  ``manifest.json`` records the exit codes, the hashes and the
software stack (python, numpy, scipy, BLAS, BLAS thread count) that made
them.

Beside them, ``verdicts.json`` is the verdict map of ``verify`` over a
fixed list of configurations off the default (``VERDICTS``): per
configuration the exit code, the row count and each failed row, marked
"value" or with the first clause of its error text.  It records no values,
so round-off never moves it; a change in it is a change of verdict.

Every output comes from ``adskg.cli.main`` run in process at one BLAS
thread.  ``tests/test_golden.py`` regenerates them and compares.  To
rewrite the golden files after a change that moves a value, run from the
repository root

    PYTHONPATH=src python tests/golden/regenerate.py

It prints every moved report entry, exit code, CSV hash and verdict as
``before -> after`` before it rewrites; list them with the change.  A moved
value or tolerance also prints its size |after - before| / max(|before|,
|tolerance|), so a round-off move reads near 1e-16 and a change of meaning
reads large.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the CLI's default, before numpy loads
_BLAS_THREADS = os.environ["OPENBLAS_NUM_THREADS"]  # read once: BLAS fixes its count when numpy loads

REL = 1e-3  # relative value bound of a comparison across stacks
_KNOTS = [i / 7.0 for i in range(8)]

# report name -> (extra verify flags, config file contents or None)
REPORTS = {
    "default": ([], None),
    "sign_flip": (["--inject-sign-flip"], None),
    "cylinder_m2": ([], {"model": {"kind": "ads3_cylinder", "nu": 1.0, "L": 1.0}, "m_max": 2}),
    "table": ([], {"model": {"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0,
                             "beta_table": [_KNOTS, [1.0 + x * x for x in _KNOTS]]}}),
}

# blob name -> build-spectral flags
BLOBS = {
    "small": ["--N", "96", "--n-modes", "8"],
    "packet": ["--N", "192", "--n-modes", "32"],
}

# CSV name -> subcommand argv; {d} is the work directory
CSVS = {
    **{
        f"wf_scan_{kind}": [
            ["kernels", "--model-bin", "{d}/small.bin", "--kind", kind, "--T", "768", "--dt", "0.025",
             "--out", f"{{d}}/{kind}.bin"],
            ["wf-scan", "--kernel-bin", f"{{d}}/{kind}.bin", "--window", "5.0", "--centers", "4"],
        ]
        for kind in ("lambda_plus", "feynman", "retarded", "causal")
    },
    "trace_gbb_strip": [["trace-gbb", "--x0", "0.4", "--xi0", "-1.0", "--tmax", "1.5"]],
    "trace_gbb_cylinder": [["trace-gbb", "--model", "ads3_cylinder", "--x0", "0.4", "--xi0", "-1.0", "--tau", "2.0",
                            "--zeta0", repr(math.sqrt(3.0)), "--tmax", "3.0"]],
    "boundary_2pt": [["boundary-2pt", "--model-bin", "{d}/packet.bin"]],
    **{
        f"wavepacket_sign{sign}": [
            ["wavepacket", "--model-bin", "{d}/packet.bin", "--x0", "0.5", "--xi0", "-40", "--sigma", "0.1",
             "--sign", sign, "--tmax", "1.3"],
        ]
        for sign in ("+1", "-1")
    },
}

_KNOTS17 = [i / 16.0 for i in range(17)]


def _strip(nu: float = 1.0, L: float = 1.0) -> dict:
    return {"kind": "ads2_strip", "nu": nu, "L": L}


# verdict name -> verify config: nu and L across the supported range, too few
# modes, a coarse mesh, the cylinder and three 17-knot tables beta = 1 + a x^2
VERDICTS = {
    **{f"nu={nu!r}": {"model": _strip(nu=nu)}
       for nu in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.5, 4.0, 6.0, 8.0, 10.0, 12.0)},
    **{f"L={L!r}": {"model": _strip(L=L)} for L in (1e-4, 1e-2, 0.1, 0.5, 2.0, 10.0, 100.0, 1e3)},
    **{f"n_modes={k}": {"n_modes": k} for k in (8, 16, 20)},
    "N=64,n_modes=16": {"N": 64, "n_modes": 16},
    "cylinder,m_max=2": {"model": {"kind": "ads3_cylinder", "nu": 1.0, "L": 1.0}, "m_max": 2},
    **{f"table,a={a!r}": {"model": {"kind": "custom", "n": 2, "nu": 1.0, "L": 1.0,
                                     "beta_table": [_KNOTS17, [1.0 + a * x * x for x in _KNOTS17]]}}
       for a in (0.3, 1.0, 10.0)},
}


def stack() -> dict:
    """The software that decides the bits of the outputs."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _BLAS_THREADS,
    }


def _run(argv: list[str]) -> int:
    from adskg.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def generate(workdir: Path) -> tuple[dict[str, int], dict[str, bytes], dict[str, bytes]]:
    """Run every golden case in ``workdir``: (exit codes, report bytes, CSV bytes)."""
    d = str(workdir)
    codes, reports, csvs = {}, {}, {}
    for name, (flags, config) in REPORTS.items():
        out = workdir / f"report_{name}.json"
        argv = ["verify", *flags, "--out", str(out)]
        if config is not None:
            (workdir / f"{name}.cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(workdir / f"{name}.cfg.json")]
        codes[f"{name}:verify"] = _run(argv)
        reports[out.name] = out.read_bytes()
    for name, flags in BLOBS.items():
        codes[f"{name}:build-spectral"] = _run(["build-spectral", *flags, "--out", f"{d}/{name}.bin"])
    for name, steps in CSVS.items():
        out = workdir / f"{name}.csv"
        for i, argv in enumerate(steps):
            last = ["--out", str(out)] if i == len(steps) - 1 else []
            codes[f"{name}:{argv[0]}"] = _run([a.format(d=d) for a in argv] + last)
        csvs[out.name] = out.read_bytes()
    return codes, reports, csvs


def first_clause(error: str) -> str:
    """An error text up to its first ':', ';', ',' or digit: the condition it
    names, without the measured values."""
    return re.match(r"[^:;,\d]*", error).group().strip()


def verdicts(workdir: Path) -> dict[str, dict]:
    """Run ``verify`` on every configuration of ``VERDICTS`` in ``workdir``:
    name -> exit code, row count and failed rows ("value" or the first
    clause of the row's error)."""
    out = {}
    cfg, report = workdir / "verdict.cfg.json", workdir / "verdict.json"
    for name, config in VERDICTS.items():
        cfg.write_text(json.dumps(config))
        report.unlink(missing_ok=True)
        code = _run(["verify", "--config", str(cfg), "--out", str(report)])
        if not report.exists():
            out[name] = {"exit": code}
            continue
        checks = json.loads(report.read_text())["checks"]
        out[name] = {"exit": code, "rows": len(checks),
                     "failed": {c["check"]: first_clause(c["error"]) if "error" in c else "value"
                                for c in checks if not c["pass"]}}
    return out


def moved_verdicts(got: dict[str, dict]) -> list[str]:
    """One 'verdict name: before -> after' line per configuration whose
    verdict differs from ``verdicts.json``."""
    path = GOLDEN / "verdicts.json"
    want = json.loads(path.read_text()) if path.exists() else {}
    return [f"verdict {name}: {want.get(name)} -> {got.get(name)}"
            for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]


def move_size(before, after, tolerance) -> str:
    """' (rel X)', X = |after - before| / max(|before|, |tolerance|), for a
    numeric value or tolerance that moved; '' for any other entry."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (before, after, tolerance)):
        return ""
    scale = max(abs(before), abs(tolerance))
    return f" (rel {abs(after - before) / scale:.2e})" if scale > 0.0 else ""


def moved_in_report(name: str, want: dict, got: dict, exact: bool) -> list[str]:
    """One line per moved entry of a report: 'name check field: before -> after',
    with the size of a numeric move.  Without ``exact``, values and tolerances
    move only beyond ``REL`` times the larger of the golden value and tolerance."""
    moved = [f"{name} {key}: {want[key]!r} -> {got[key]!r}"
             for key in ("config", "n_checks", "n_failed", "pass") if want[key] != got[key]]
    order = [[c["check"] for c in report["checks"]] for report in (want, got)]
    if order[0] != order[1]:
        return moved + [f"{name} checks: {order[0]} -> {order[1]}"]
    for w, g in zip(want["checks"], got["checks"]):
        for key in sorted(set(w) | set(g)):
            a, b = w.get(key), g.get(key)
            if not exact and key in ("value", "tolerance") and None not in (a, b):
                same = abs(a - b) <= REL * max(abs(w["value"]), abs(w["tolerance"]))
            else:
                same = a == b
            if not same:
                size = move_size(a, b, w.get("tolerance")) if key in ("value", "tolerance") else ""
                moved.append(f"{name} {w['check']} {key}: {a!r} -> {b!r}{size}")
    return moved


def moved_outputs(codes: dict[str, int], reports: dict[str, bytes], csvs: dict[str, bytes], exact: bool) -> list[str]:
    """One 'what: before -> after' line per golden output that ``generate``'s
    outputs move: exit codes, report entries, CSV row counts and, with
    ``exact``, CSV hashes."""
    golden = json.loads((GOLDEN / "manifest.json").read_text())
    moved = [f"exit code {key}: {golden['exit_codes'].get(key)} -> {codes.get(key)}"
             for key in sorted(golden["exit_codes"].keys() | codes.keys())
             if golden["exit_codes"].get(key) != codes.get(key)]
    for name, data in reports.items():
        want = (GOLDEN / name).read_bytes()
        if exact and data == want:
            continue
        lines = moved_in_report(name, json.loads(want), json.loads(data), exact)
        moved += lines or ([f"{name}: same values, different bytes"] if exact else [])
    for name, data in csvs.items():
        rec, sha, rows = golden["csv"].get(name, {}), hashlib.sha256(data).hexdigest(), data.count(b"\n")
        if rows != rec.get("rows"):
            moved.append(f"{name} rows: {rec.get('rows')} -> {rows}")
        if exact and sha != rec.get("sha256"):
            moved.append(f"{name} sha256: {rec.get('sha256')} -> {sha}")
    return moved


def manifest(codes: dict[str, int], csvs: dict[str, bytes]) -> dict:
    return {
        "stack": stack(),
        "exit_codes": codes,
        "csv": {
            name: {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n")}
            for name, data in csvs.items()
        },
    }


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        codes, reports, csvs = generate(Path(tmp))
        verdict_map = verdicts(Path(tmp))
    for line in moved_outputs(codes, reports, csvs, exact=True) + moved_verdicts(verdict_map):
        print(line)
    for name, data in reports.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest(codes, csvs), indent=2) + "\n")
    (GOLDEN / "verdicts.json").write_text(json.dumps(verdict_map, indent=2) + "\n")
    print(f"wrote {len(reports)} reports, {len(csvs)} CSV hashes and {len(verdict_map)} verdicts to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
