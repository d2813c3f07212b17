"""switchsde benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload mc-pathdep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20     # every workload, both runs
    python3 perfbench/run.py --self-test                     # every op once, tiny sizes

Run from the repository root; the package is imported from ``src/``.  One
thread runs the workload's op list back to back, pass after pass, for as
many passes as fill ``--seconds`` at the workload's nominal pass time (at
least three); BLAS is pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs untraced passes for half the time,
then as many traced passes, and prints the per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: the benchmark runs with at most two threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
WORK_DIR = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
SETUP_PROBES = 7
TAIL_BEYOND = 10
CAL_REF_S = 1.2e-3  # times are reported at the speed where calibrate() takes 1.2 ms
_CAL_MATRIX = 48.0 * np.eye(48) + np.add.outer(np.arange(48.0), np.arange(48.0)) / 48.0
_CAL_RHS = np.ones(48)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_switchsde():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "switchsde", "__init__.py")):
        fail(f"no switchsde sources under {src}; run from a full checkout")
    sys.path.insert(0, src)
    import switchsde
    import switchsde.cli
    import switchsde.config

    if not os.path.abspath(switchsde.__file__).startswith(src + os.sep):
        fail(f"imported switchsde from {switchsde.__file__}, not from {src}")
    return switchsde


def git_rev() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args) -> dict:
    import scipy

    src = os.path.join(ROOT, "src", "switchsde")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": lines,
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# -- running passes -------------------------------------------------------------

def calibrate() -> float:
    """Seconds taken by a fixed kernel of interpreter, small-array and LAPACK work.

    The host's speed drifts by +-20% within seconds; dividing each op's time
    by the kernel's time around it removes most of that drift (NOTES.md).
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(3000):
        acc += (i * 0.5) ** 0.5
        table[i & 63] = acc
    arr = np.arange(64.0)
    for _ in range(150):
        arr = arr * 0.999 + 1.0
        acc += float(arr.sum())
    for _ in range(6):
        acc += float(np.linalg.solve(_CAL_MATRIX, _CAL_RHS)[0])
        acc += float(np.linalg.eigvalsh(_CAL_MATRIX[:16, :16])[0])
    return time.perf_counter() - start


class Pass:
    def __init__(self):
        self.latency = []  # seconds per op at reference speed, in op order
        self.raw = []  # seconds per op as timed
        self.errors = []  # None or message per op
        self.checked = 0

    @property
    def wall(self) -> float:
        return sum(self.latency)


def run_pass(ops, ctx, tracer=None) -> Pass:
    ctx.out_dir = tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR)
    result = Pass()
    before = calibrate()
    try:
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = index
            error = None
            start = time.perf_counter()
            try:
                value = op.run()
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            after = calibrate()
            result.raw.append(elapsed)
            result.latency.append(elapsed * CAL_REF_S / (0.5 * (before + after)))
            before = after
            if error is None:
                result.checked += 1
                try:
                    op.check(value)
                except Exception as exc:  # noqa: BLE001 - a broken check fails the op
                    error = f"check: {exc}"
            result.errors.append(error)
    finally:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.op_id = None
    return result


def pass_count(workload: str, seconds: float, minimum: int) -> int:
    """Passes that fill ``seconds`` at the nominal pass time.

    The count depends only on ``--seconds``, never on how fast this run is,
    so the percentiles of every run are taken over the same number of ops.
    """
    return max(minimum, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def classify(ops, passes):
    """(failures as (op, message, defect or None), unexpected count)."""
    failures, unexpected, seen = [], 0, set()
    for p in passes:
        for op, error in zip(ops, p.errors):
            if error is None:
                continue
            defect = op.defect
            if defect is None or not re.search(re.escape(workloads.KNOWN_DEFECTS[defect][1]), error):
                defect = None
                unexpected += 1
            if (op.name, error) not in seen:
                seen.add((op.name, error))
                failures.append((op, error, defect))
    return failures, unexpected


def tail_index(n: int) -> int:
    """Index of the highest order statistic with >= TAIL_BEYOND ops above it."""
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end(passes, setup_s: float) -> tuple:
    pooled = sorted(t for p in passes for t in p.latency)
    n = len(pooled)
    attempted = sum(len(p.errors) for p in passes)
    failed = sum(e is not None for p in passes for e in p.errors)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(statistics.median(lat) for lat in zip(*(p.latency for p in passes))),
                   "s"),
        "op_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "op_tail_ms": (pooled[tail_index(n)] * 1e3, "ms"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    pct = 100.0 * (tail_index(n) + 1) / n
    per_pass = len(passes[0].latency)
    notes = {
        "op_tail_ms": f"p{pct:.1f} of {n} ops pooled over {len(passes)} passes, "
                      f"{TAIL_BEYOND} ops beyond it",
        "op_p50_ms": f"median of {n} ops pooled over {len(passes)} passes",
        "wall_s": f"one pass of {per_pass} ops, each op at its median over "
                  f"{len(passes)} passes",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "passed_frac": f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} ops)",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes, attempted, failed


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh interpreters (one unmeasured run first)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for k in range(SETUP_PROBES + 1):
        before = statistics.median(calibrate() for _ in range(3))
        proc = subprocess.run(
            [sys.executable, probe, workload], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=False)
        after = statistics.median(calibrate() for _ in range(3))
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        if k:
            setup = float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
            times.append(setup * CAL_REF_S / (0.5 * (before + after)))
    return statistics.median(times)


# -- output ------------------------------------------------------------------

def print_ops(ops, passes) -> None:
    print(f"# op latencies, median over {len(passes)} passes (ms):")
    for i, op in enumerate(ops):
        ms = statistics.median(p.latency[i] for p in passes) * 1e3
        print(f"#   {op.name:<48s} {ms:10.2f}")


def print_failures(failures) -> None:
    for op, error, defect in failures:
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        print(f"FAIL {op.name} [{tag}]: {error[:300]}")
    for defect in sorted({d for _, _, d in failures if d}):
        print(f"# {defect}: {workloads.KNOWN_DEFECTS[defect][0]}")


def emit(correct, attempted, failed, metrics) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def write_trace(workload, seed, tracer_snapshot) -> str:
    stats, counts, maxes, spans = tracer_snapshot
    path = os.path.join(WORK_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "op", "self_ns"],
            "spans": spans,
            "stats_fields": ["calls", "total_ns", "self_ns"],
            "stats": stats,
            "counters": counts,
            "maxima": maxes,
        }, fh)
    return path


# -- modes -----------------------------------------------------------------

def run_workload(args) -> int:
    sw = import_switchsde()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    spec = load_spec()
    os.makedirs(WORK_DIR, exist_ok=True)
    meta = metadata(args)
    print(f"# switchsde benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))

    def context():
        return workloads.Context(sw, ROOT, args.workload, args.seed, quick=False)

    # warm caches and lazy imports with one tiny pass
    warm = workloads.Context(sw, ROOT, args.workload, args.seed, quick=True)
    run_pass(workloads.build_ops(args.workload, warm), warm)

    ctx = context()
    ops = workloads.build_ops(args.workload, ctx)
    if not args.trace:
        setup_s = measure_setup(args.workload)
        count = pass_count(args.workload, args.seconds, MIN_PASSES)
        passes = [run_pass(ops, ctx) for _ in range(count)]
        metrics, notes, attempted, failed = end_to_end(passes, setup_s)
        failures, unexpected = classify(ops, passes)
        print_ops(ops, passes)
        factors = [n / r for p in passes for n, r in zip(p.latency, p.raw) if r > 0]
        raw_wall = sum(statistics.median(lat) for lat in zip(*(p.raw for p in passes)))
        print(f"# times at reference speed; median speed factor {statistics.median(factors):.4f}, "
              f"raw wall_s {raw_wall:.4f} s")
        for name, (value, unit) in metrics.items():
            print(f"{name:<14s} {value:14.6f} {unit:<6s} ({notes[name]})")
        print_failures(failures)
        emit(unexpected == 0, attempted, failed, metrics)
        return 0

    count = pass_count(args.workload, args.seconds / 2.0, 1)
    plain = [run_pass(ops, ctx) for _ in range(count)]
    tracer = tracing.Tracer()
    tracer.install(sw)
    try:
        tctx = context()  # models built through the wrapped registry
        tops = workloads.build_ops(args.workload, tctx)
        traced, snaps = [], []
        for _ in range(count):
            tracer.reset()
            traced.append(run_pass(tops, tctx, tracer))
            snaps.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    overhead = (statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in plain) - 1.0)
    hints = {name: m.truncation_hint for name, m in ctx.models.items()}
    per_pass = [layers.metrics(s, hints) for s in snaps]
    metrics = {}
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name == "trace.overhead_frac":
            value = overhead
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = (value, entry["unit"])
    failures, unexpected = classify(tops, traced)
    failures_plain, unexpected_plain = classify(ops, plain)
    path = write_trace(args.workload, args.seed, snaps[-1])
    print(f"# traced passes: {len(traced)}, untraced passes: {len(plain)}, "
          f"spans of the last traced pass in {os.path.relpath(path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48s} {value:16.6f} {unit}")
    print_failures(failures_plain + failures)
    attempted = sum(len(p.errors) for p in plain + traced)
    failed = sum(e is not None for p in plain + traced for e in p.errors)
    emit(unexpected + unexpected_plain == 0, attempted, failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    rows = {}
    for workload in workloads.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=False)
            if proc.returncode != 0:
                fail(f"{workload} trace={traced} failed: {proc.stderr.strip()[-500:]}")
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={traced}")
            print("\n".join(line for line in lines[:-1] if not line.startswith("#   ")))
            rows[(workload, traced)] = json.loads(lines[-1])
    print("== end-to-end")
    names = [m["name"] for m in load_spec()["end_to_end"]]
    print(f"{'workload':<12s}" + "".join(f"{n:>14s}" for n in names) + "  failed/attempted")
    for workload in workloads.WORKLOADS:
        row = rows[(workload, 0)]
        cells = "".join(f"{row['metrics'][n]['value']:14.4f}" for n in names)
        print(f"{workload:<12s}{cells}  {row['failed']}/{row['attempted']}")
    print("units: " + ", ".join(f"{m['name']} {m['unit']}" for m in load_spec()["end_to_end"]))
    return 0


def self_test(args) -> int:
    """Every op once at tiny size, untraced and traced; every metric must print."""
    sw = import_switchsde()
    spec = load_spec()
    os.makedirs(WORK_DIR, exist_ok=True)
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        ctx = workloads.Context(sw, ROOT, workload, args.seed, quick=True)
        ops = workloads.build_ops(workload, ctx)
        plain = run_pass(ops, ctx)
        tracer = tracing.Tracer()
        tracer.install(sw)
        try:
            tctx = workloads.Context(sw, ROOT, workload, args.seed, quick=True)
            traced = run_pass(workloads.build_ops(workload, tctx), tctx, tracer)
            snap = tracer.snapshot()
        finally:
            tracer.uninstall()
        for p in (plain, traced):
            raised = sum(e is not None and not e.startswith("check:") for e in p.errors)
            if p.checked + raised != len(ops):
                problems.append(f"{workload}: {len(ops) - p.checked - raised} checks did not run")
        metrics, _, _, _ = end_to_end([plain], 0.0)
        hints = {name: m.truncation_hint for name, m in ctx.models.items()}
        layer = layers.metrics(snap, hints)
        layer["trace.overhead_frac"] = traced.wall / plain.wall - 1.0
        if set(metrics) != set(e2e_units) or any(metrics[k][1] != u for k, u in e2e_units.items()):
            problems.append(f"{workload}: end-to-end names or units differ from BENCHMARK.json")
        missing = set(layer_units) - set(layer)
        if missing:
            problems.append(f"{workload}: per-layer metrics missing: {sorted(missing)}")
        for k, (v, u) in metrics.items():
            print(f"{workload:<11s} {k:<48s} {v:14.6f} {u}")
        for k, u in layer_units.items():
            print(f"{workload:<11s} {k:<48s} {layer.get(k, float('nan')):14.6f} {u}")
        failures, _ = classify(ops, [plain, traced])
        print(f"{workload:<11s} ops={len(ops)} checked={plain.checked}+{traced.checked} "
              f"failures={len(failures)}")
        print_failures(failures)
    if problems:
        for line in problems:
            print(f"SELF-TEST FAIL: {line}", file=sys.stderr)
        return 1
    print("self-test passed: every op ran, every check executed, every metric printed "
          "(at these tiny sizes the statistical checks may fail)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(SPEC_FILE):
        fail(f"missing {SPEC_FILE}")
    if args.self_test:
        return self_test(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
