"""Golden outputs: the reports and CSVs in ``golden/``, regenerated in
process and compared (``golden/regenerate.py`` lists the cases).

On the stack recorded in ``golden/manifest.json`` (python, numpy, scipy,
BLAS and its thread count) the comparison is byte for byte, and a moved
value is printed as ``before -> after``.  On another stack the last bits
of a value may differ, so the test compares exactly the exit codes, the
config blocks, the check names and their order, identities, verdicts and
error texts, and the CSV row counts; it compares each value and tolerance
to ``_REL`` times the larger of the golden value and golden tolerance,
and it cannot check the CSV hashes.
"""

from __future__ import annotations

import hashlib
import json
import warnings

from golden.regenerate import GOLDEN, generate, stack

_REL = 1e-3


def _moved_in_report(name: str, want: dict, got: dict, exact: bool) -> list[str]:
    """One line per moved entry of a report: 'name check field: before -> after'."""
    moved = [f"{name} {key}: {want[key]!r} -> {got[key]!r}"
             for key in ("config", "n_checks", "n_failed", "pass") if want[key] != got[key]]
    order = [[c["check"] for c in report["checks"]] for report in (want, got)]
    if order[0] != order[1]:
        return moved + [f"{name} checks: {order[0]} -> {order[1]}"]
    for w, g in zip(want["checks"], got["checks"]):
        for key in sorted(set(w) | set(g)):
            a, b = w.get(key), g.get(key)
            if not exact and key in ("value", "tolerance") and None not in (a, b):
                same = abs(a - b) <= _REL * max(abs(w["value"]), abs(w["tolerance"]))
            else:
                same = a == b
            if not same:
                moved.append(f"{name} {w['check']} {key}: {a!r} -> {b!r}")
    return moved


def test_golden_outputs(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    here = stack()
    exact = manifest["stack"] == here
    mode = "byte for byte" if exact else f"cross-stack, values to rel {_REL}"
    print(f"golden comparison: {mode} (golden stack {manifest['stack']}, this stack {here})")
    if not exact:
        warnings.warn(f"golden outputs compared {mode}: this stack {here} is not {manifest['stack']}")

    codes, reports, csvs = generate(tmp_path)
    moved = [f"exit code {key}: {manifest['exit_codes'].get(key)} -> {codes.get(key)}"
             for key in manifest["exit_codes"].keys() | codes.keys()
             if manifest["exit_codes"].get(key) != codes.get(key)]
    for name, data in reports.items():
        want = (GOLDEN / name).read_bytes()
        if exact and data == want:
            continue
        lines = _moved_in_report(name, json.loads(want), json.loads(data), exact)
        moved += lines or ([f"{name}: same values, different bytes"] if exact else [])
    assert sorted(csvs) == sorted(manifest["csv"])
    for name, data in csvs.items():
        rec, sha, rows = manifest["csv"][name], hashlib.sha256(data).hexdigest(), data.count(b"\n")
        if rows != rec["rows"]:
            moved.append(f"{name} rows: {rec['rows']} -> {rows}")
        if exact and sha != rec["sha256"]:
            moved.append(f"{name} sha256: {rec['sha256']} -> {sha}")
    assert not moved, f"golden outputs moved ({mode}):\n" + "\n".join(moved)
