"""Self-test of the benchmark itself; not part of any timed run.

    python3 perfbench/selftest.py        (from the root of a checkout)

1. Fault injection: one ``run_verify`` with ``inject_sign_flip=True`` must
   fail exactly the ``frequency_sign_plus`` check, which shows that the
   verify gate of ``verify_default`` can fail.
2. Span arithmetic: self time, outermost spans, lag-range unions.
3. Instrumentation: a wrapped call records nested spans across layers
   through a module-level alias, and uninstalling restores every original.
4. Outside a checkout (only BENCHMARK.json and perfbench/ present) the
   benchmark exits non-zero without printing a result.
5. Speed scaling: the factor comes from the median of the readings on both
   sides of a pass, and a reading times the reference computation.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer

HERE, ROOT = run.HERE, run.ROOT
sys.path.insert(0, str(run.SRC))
for var in run.THREAD_VARS:
    os.environ[var] = str(run.THREADS)


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def fault_injection() -> None:
    from adskg.cli import RunConfig, run_verify

    code, report = run_verify(RunConfig(inject_sign_flip=True))
    failed = [c["check"] for c in report["checks"] if not c["pass"]]
    check(code == 1, f"injected sign flip makes verify exit 1 (got {code})")
    check(failed == ["frequency_sign_plus"], f"exactly frequency_sign_plus fails (got {failed})")


def span_arithmetic() -> None:
    def span(sid, name, parent, start, end):
        s = tracer.Span(sid, name, name.split(".")[0], parent, 0, start)
        s.end = end
        return s

    spans = [
        span(0, "cli.run_verify", None, 0, 100),
        span(1, "propagators.make_feynman", 0, 10, 40),
        span(2, "propagators.feynman_consistency", 1, 15, 35),
        span(3, "propagators.feynman_consistency", 0, 50, 60),
        span(4, "spectral.SpectralModel.synthesize", 0, 70, 75),
    ]
    st = tracer.self_times(spans)
    check(abs(st[0] - 55e-9) < 1e-18 and abs(st[1] - 10e-9) < 1e-18, "self time = duration minus children")
    check(abs(sum(st.values()) - spans[0].duration) < 1e-18, "self times add up to the root span")
    names = {"propagators.make_feynman", "propagators.feynman_consistency"}
    check([s.sid for s in tracer.outermost(spans, names)] == [1, 3], "outermost skips nested identity spans")
    check([s.sid for s in tracer.top_level_layer_calls(spans)] == [0, 1, 3, 4], "top-level layer calls")
    check(tracer.union_size([[0, 4], [2, 6], [10, 10], [-3, -1]]) == 11, "lag-range union")


def instrumentation() -> None:
    modules = [importlib.import_module(f"adskg.{name}") for name in tracer.LAYERS]
    geometry, microlocal, bchar = modules[0], modules[7], modules[4]
    originals = (microlocal.gbb_reference, microlocal.trace_gbb, bchar.trace_gbb)
    t = tracer.Tracer()
    t.install(modules)
    check(microlocal.trace_gbb is bchar.trace_gbb is not originals[2], "alias rebound to the wrapper")
    model = geometry.make_toy_model("ads2_strip", nu=1.0, L=1.0)
    t.active = True
    microlocal.gbb_reference(model, 0.5, -40.0, [0.0, 0.5, 1.0])
    t.active = False
    t.uninstall()
    by_name = {s.name: s for s in t.spans}
    ray = by_name.get("bchar.trace_gbb")
    check(ray is not None and t.spans[ray.parent].name == "microlocal.gbb_reference", "alias call nests under caller")
    check(ray.data.get("reflections", 0) >= 1, "reflection counter recorded")
    check((microlocal.gbb_reference, microlocal.trace_gbb, bchar.trace_gbb) == originals, "uninstall restores originals")


def refuses_without_checkout() -> None:
    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            [*cmd, "--workload", "stress_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0 and "metrics" not in proc.stdout, "no result outside a checkout")


def speed_scaling() -> None:
    import calibrate

    k = calibrate.scale([0.2, 0.3, 0.2], [0.9, 0.2, 0.2])
    check(abs(k - calibrate.REFERENCE_S / 0.2) < 1e-12, "scale = reference time / median reading")
    r = calibrate.reading()
    check(len(r) == calibrate.REPS and min(r) > 0.0, "a reading times every reference computation")


if __name__ == "__main__":
    speed_scaling()
    span_arithmetic()
    instrumentation()
    refuses_without_checkout()
    fault_injection()
    print("selftest passed")
