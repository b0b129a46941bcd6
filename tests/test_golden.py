"""Golden outputs: the reports and CSVs in ``golden/``, regenerated in
process and compared (``golden/regenerate.py`` lists the cases).

On the stack recorded in ``golden/manifest.json`` (python, numpy, scipy,
BLAS and its thread count) the comparison is byte for byte, and a moved
value is printed as ``before -> after``.  On another stack the last bits
of a value may differ, so the test compares exactly the exit codes, the
config blocks, the check names and their order, identities, verdicts and
error texts, and the CSV row counts; it compares each value and tolerance
to ``REL`` times the larger of the golden value and golden tolerance,
and it cannot check the CSV hashes.

The verdict map ``golden/verdicts.json`` holds no values, so it is compared
exactly on every stack.
"""

from __future__ import annotations

import json
import warnings

from golden.regenerate import GOLDEN, REL, generate, moved_outputs, moved_verdicts, stack, verdicts


def test_golden_outputs(tmp_path):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    here = stack()
    exact = manifest["stack"] == here
    mode = "byte for byte" if exact else f"cross-stack, values to rel {REL}"
    print(f"golden comparison: {mode} (golden stack {manifest['stack']}, this stack {here})")
    if not exact:
        warnings.warn(f"golden outputs compared {mode}: this stack {here} is not {manifest['stack']}")

    codes, reports, csvs = generate(tmp_path)
    assert sorted(csvs) == sorted(manifest["csv"])
    moved = moved_outputs(codes, reports, csvs, exact)
    assert not moved, f"golden outputs moved ({mode}):\n" + "\n".join(moved)


def test_verdict_map(tmp_path):
    """verify on each configuration of ``VERDICTS`` gives the exit code, the
    row count and the failed rows recorded in ``golden/verdicts.json``."""
    moved = moved_verdicts(verdicts(tmp_path))
    assert not moved, "verdicts moved:\n" + "\n".join(moved)


def test_first_clause_keeps_no_value():
    from golden.regenerate import first_clause

    assert first_clause("mode truncation tail 4.14e-05 exceeds 1e-06; retain more modes") == "mode truncation tail"
    assert first_clause("integrator could not hold the null condition: drift 8.742e-04") == (
        "integrator could not hold the null condition")


def test_move_size_reads_round_off_apart_from_a_change():
    from golden.regenerate import move_size

    assert move_size(9.0, 9.0 + 2.0**-49, 6.0) == " (rel 1.97e-16)"  # one unit in the last place
    assert move_size(9.07, 11.72, 6.0) == " (rel 2.92e-01)"
    assert move_size(1e-15, 2e-15, 1e-12) == " (rel 1.00e-03)"
    assert move_size("ok", "failed", 1e-12) == move_size(True, False, 1.0) == move_size(0.0, 0.0, 0.0) == ""
