"""Benchmark entry point for adskg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from ``src/``
there.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer metrics.

Times are CPU time (user + system), not wall time, and the end-to-end ones
are scaled to a reference machine speed; perfbench/README.md says why.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a summary.  See perfbench/README.md for the
metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

# One BLAS thread: runs at two threads spread several times wider on a
# 2-core machine.  Exported before numpy is first imported, here and in
# every child process.
THREADS = 1
THREAD_VARS = ("ADSKG_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_SAMPLES = 5  # fresh-interpreter import probes per run
MIB = 2.0**20

IDENTITY_CHECKS = {
    "propagators.verify_two_point",
    "propagators.adjoint_check",
    "propagators.feynman_consistency",
    "propagators.make_feynman",
    "propagators.support_check",
}


# -- passes -------------------------------------------------------------------


@dataclass
class PassResult:
    mode: str  # "plain", "spans" or "memory"
    cpu: float  # CPU seconds of the timed operations
    wall: float  # wall seconds of the same operations
    attempted: int
    failed: int
    spans: list


def run_pass(workload, mode: str, pass_id: int, modules) -> PassResult:
    """Time each operation of one pass; gate its output untimed."""
    from tracer import Tracer

    tracer = None
    if mode != "plain":
        tracer = Tracer(memory=mode == "memory")
        tracer.pass_id = pass_id
        tracer.install(modules)
    cpu, wall, attempted, failed = 0.0, 0.0, 0, 0
    ops = workload.ops(pass_id)
    try:
        while True:
            try:
                name, call, check = next(ops)
            except StopIteration:
                break
            except Exception:
                attempted, failed = attempted + 1, failed + 1
                print(f"FAIL {workload.name} pass {pass_id}: input preparation\n{traceback.format_exc()}", file=sys.stderr)
                break
            attempted += 1
            err, result = None, None
            if tracer is not None:
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = call()
            except Exception:
                err = traceback.format_exc()
            dc, dw = time.process_time() - c0, time.perf_counter() - w0
            if tracer is not None:
                tracer.active = False
            cpu += dc
            wall += dw
            if err is None:
                try:
                    err = check(result)
                except Exception:
                    err = traceback.format_exc()
            del result
            if err is not None:
                failed += 1
                print(f"FAIL {workload.name} pass {pass_id} {name}: {err}", file=sys.stderr)
    finally:
        ops.close()
        if tracer is not None:
            tracer.uninstall()
    return PassResult(mode, cpu, wall, attempted, failed, [] if tracer is None else tracer.spans)


def measure(workload, seconds: float, trace: bool, modules) -> tuple[list[PassResult], list[float]]:
    """Closed loop, one client: passes back to back while the next one, if
    it lasts as long as the median pass so far, ends within ``seconds``.  A
    traced run alternates plain and span-traced passes (at least one of
    each), then adds one memory pass whose timings are not used.

    A speed reading is taken before the first pass and after every pass;
    returns the passes and, per pass, the factor from the readings on both
    sides of it that scales its CPU time to the reference speed."""
    import calibrate

    passes: list[PassResult] = []
    scales: list[float] = []
    lengths: list[float] = []  # wall seconds of each pass with its reading
    start = time.perf_counter()
    before = calibrate.reading()

    def more() -> bool:
        if len(passes) < max(workload.min_passes, 2 if trace else 1):
            return True
        return time.perf_counter() - start + statistics.median(lengths) <= seconds

    while more():
        mode = "spans" if trace and len(passes) % 2 else "plain"
        t0 = time.perf_counter()
        passes.append(run_pass(workload, mode, len(passes), modules))
        after = calibrate.reading()
        scales.append(calibrate.scale(before, after))
        before = after
        lengths.append(time.perf_counter() - t0)
    if trace:
        passes.append(run_pass(workload, "memory", len(passes), modules))
    return passes, scales


# -- set-up and imports -----------------------------------------------------------


def probe_imports(env: dict, layers) -> tuple[float, dict]:
    """(CPU seconds a fresh interpreter spends from its start until numpy
    and every layer are imported, incremental import CPU time per module)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "import_probe.py"), *layers],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rec = json.loads(proc.stdout.splitlines()[-1])
    return rec["setup_s"], rec["import_s"]


def probe_setup(env: dict, layers) -> tuple[list[float], dict]:
    """(set-up CPU seconds of each probe at the reference speed, median
    incremental import CPU seconds per module as measured).

    Runs after this process has imported every layer, so byte-code caches
    are written and no probe pays for compiling them.  Speed readings are
    taken between the probes, as between passes."""
    import calibrate

    samples, setup = [], []
    before = calibrate.reading()
    for _ in range(SETUP_SAMPLES):
        samples.append(probe_imports(env, layers))
        after = calibrate.reading()
        setup.append(samples[-1][0] * calibrate.scale(before, after))
        before = after
    per_module = {name: statistics.median(imp[name] for _, imp in samples) for name in samples[0][1]}
    return setup, per_module


# -- metrics ---------------------------------------------------------------------


def tail_percentile(values: list[float]):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    xs = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            k = min(len(xs) - 1, max(0, int(round(p / 100.0 * (len(xs) - 1)))))
            return p, xs[k]
    return None


def per_layer_metrics(passes: list[PassResult], imports: dict, layers) -> dict:
    from tracer import SCAN, outermost, self_times, top_level_layer_calls, union_size

    plain = [p for p in passes if p.mode == "plain"]
    traced = [p for p in passes if p.mode == "spans"]
    memory = [s for p in passes if p.mode == "memory" for s in p.spans]
    n = len(traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    self_s = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    errors = dict.fromkeys(layers, 0)
    per_name = {}
    for p in traced:
        st = self_times(p.spans)
        for s in p.spans:
            self_s[s.layer] += st[s.sid]
            calls[s.layer] += 1
            errors[s.layer] += int(s.error)
            per_name.setdefault(s.name, []).append(s)
        for s in outermost(p.spans, IDENTITY_CHECKS):
            per_name.setdefault("identity", []).append(s)

    def spans_named(name):
        return per_name.get(name, [])

    def total_s(name):
        return sum(s.duration for s in spans_named(name)) / n

    def total_data(name, key):
        return sum(s.data.get(key, 0) for s in spans_named(name)) / n

    def count(suffix):
        return sum(len(v) for k, v in per_name.items() if k.endswith(suffix)) / n

    def peak_mib(spans):
        return max((s.data.get("peak_bytes", 0) for s in spans), default=0) / MIB

    top_mem = top_level_layer_calls(memory)
    for layer in layers:
        put(f"{layer}.self_s", self_s[layer] / n, "s")
        put(f"{layer}.calls", calls[layer] / n, "count")
        put(f"{layer}.errors", errors[layer] / n, "count")
        put(f"{layer}.import_s", imports[layer], "s")
        put(f"{layer}.peak_mb", peak_mib([s for s in top_mem if s.layer == layer]), "MiB")
    put("numpy.import_s", imports["numpy"], "s")

    scans = spans_named(SCAN)
    lags = sum(s.data.get("lags", 0) for s in scans)
    distinct = sum(union_size(s.data.get("lag_ranges", [])) for s in scans)
    put("microlocal.scan_s", total_s(SCAN), "s")
    put("microlocal.scan_windows", total_data(SCAN, "windows"), "count")
    put("microlocal.scan_lags", lags / n, "count")
    put("microlocal.scan_distinct_lag_ratio", distinct / lags if lags else 0.0, "ratio")

    gains = [s for k, v in per_name.items() if k.endswith(".mode_gain") for s in v]
    put("propagators.gain_evals", sum(s.data["evals"] for s in gains) / n, "count")
    put("propagators.gain_bytes", sum(s.data["bytes"] for s in gains) / n, "B")
    put("propagators.kernel_matrix_calls", count(".kernel_matrix"), "count")
    put("propagators.identity_s", total_s("identity"), "s")
    put("propagators.support_check_peak_mb", peak_mib([s for s in memory if s.name == "propagators.support_check"]), "MiB")
    put("propagators.apply_s", total_s("propagators.apply"), "s")

    put("spectral.build_s", total_s("spectral.build_spectral"), "s")
    put("spectral.synth_calls", count("spectral.SpectralModel.synthesize"), "count")
    put("spectral.build_peak_mb", peak_mib([s for s in memory if s.name == "spectral.build_spectral"]), "MiB")

    put("microlocal.track_s", total_s("microlocal.evolve_and_track"), "s")
    put("microlocal.track_steps", total_data("microlocal.evolve_and_track", "steps"), "count")
    put("bchar.reflections", total_data("bchar.trace_gbb", "reflections"), "count")
    put("holography.fit_calls", count("holography.extract_boundary"), "count")

    traced_cpu = statistics.fmean(p.cpu for p in traced)
    put("trace.cpu_s", traced_cpu, "s")
    put("trace.unattributed_s", traced_cpu - sum(self_s.values()) / n, "s")
    put("trace.overhead_s", statistics.median(p.cpu for p in traced) - statistics.median(p.cpu for p in plain), "s")
    return out


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "adskg" / "__init__.py").is_file():
        print(f"error: {SRC / 'adskg'} not found; run from the root of an adskg checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])

    import numpy
    import scipy

    import calibrate
    import workloads
    from tracer import LAYERS

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    modules = [importlib.import_module(f"adskg.{name}") for name in LAYERS]
    if Path(modules[0].__file__).resolve().parent != SRC / "adskg":
        print(f"error: adskg imported from {modules[0].__file__}, not from {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "threads": THREADS,
    }}), flush=True)

    calibrate.reading()  # warm-up: the first calls of its numpy kernels are slower
    setup, imports = probe_setup(env, LAYERS)
    workdir = WORK / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        passes, scales = measure(workload, args.seconds, bool(args.trace), modules)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [(p, k) for p, k in zip(passes, scales) if p.mode == "plain"]
    norm = [p.cpu * k for p, k in plain]
    summary = {
        "passes": len(plain), "norm_cpu_s_median": statistics.median(norm), "norm_cpu_s_min": min(norm),
        "norm_cpu_s_max": max(norm), "cpu_s_median": statistics.median(p.cpu for p, _ in plain),
        "wall_s_median": statistics.median(p.wall for p, _ in plain), "scale_median": statistics.median(scales),
        "error_rate": failed / attempted, "setup_s_samples": setup,
    }
    tail = tail_percentile(norm)
    summary["norm_cpu_s_tail"] = None if tail is None else {"percentile": tail[0], "value": tail[1]}

    if args.trace:
        metrics = per_layer_metrics(passes, imports, LAYERS)
        spans_out = WORK / "perfbench-spans" / f"{args.workload}-seed{args.seed}.json"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
        spans_out.write_text(json.dumps([s.to_dict() for p in passes for s in p.spans]))
        summary["spans_file"] = str(spans_out.relative_to(ROOT))
        layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        summary["self_s_sum"] = layer_sum
        summary["unattributed_s"] = metrics["trace.unattributed_s"]["value"]
        summary["traced_cpu_s"] = metrics["trace.cpu_s"]["value"]
    else:
        metrics = {
            "norm_cpu_s": {"value": statistics.median(norm), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    print(json.dumps({"summary": summary}), flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
