"""delvol benchmark: closed-loop workloads with correctness checks and traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload {solve,certify,cli} --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the same checkout; nothing is
installed or built.  One op is one fixed bundle of library calls (see
``workloads.py``); ops run back to back for ``--seconds`` seconds and each is
checked against an oracle afterwards.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
wrapper-coverage self-test at a tiny size, then alternates untraced and traced
ops and prints the per-layer metrics (per traced op) plus ``trace_overhead``;
the spans are written to ``.bench_out/``.  The last stdout line is the result
JSON; the line before it (starting with ``#``) records the environment, the
input digest and the op-count details.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # fresh set-up processes, one after each half of the loop


def pin_blas_threads() -> int:
    """Cap the BLAS pool at the CPUs this process may use; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    want = nproc
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if cur.isdigit() and 0 < int(cur) < want:
            want = int(cur)
    for var in BLAS_VARS:
        os.environ[var] = str(want)
    return want


def prepare_imports() -> None:
    """Import delvol from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "delvol"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no delvol sources under {pkg.parent}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import delvol

    if Path(delvol.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: delvol imported from {delvol.__file__}, not {pkg}")


def scratch_dir() -> Path:
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def set_up(name: str, seed: int):
    """Inputs plus one untimed warm-up op (a process's first dense solve is slow)."""
    import workloads

    wl = workloads.make(name, seed, tiny=False, scratch=scratch_dir())
    ok, _ = wl.check(wl.op(-1), -1)
    return wl, ok


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples above it, and its percent."""
    xs = sorted(durations)
    if len(xs) < 11:
        return xs[-1], 100
    rank = len(xs) - 11
    return xs[rank], math.floor(100 * (rank + 1) / len(xs))


def run_op(wl, k: int, tracer=None):
    """(seconds, correct, accuracy record) of one op; a raised error is a failed op."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(k)
        else:
            tracer.op = k
            with tracer.installed():
                out = wl.op(k)
        dt = time.perf_counter() - t0
        if tracer is not None and wl.name == "cli":
            tracer.count("cli.output_bytes", wl.output_bytes())
        ok, acc = wl.check(out, k)
        return dt, ok, acc
    except Exception:  # the loop must go on; the failure is counted and shown
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False, {}


def setup_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(args, wl, setup_ok: bool, setup_s: float) -> tuple[dict, dict]:
    """Timed loop in slices with a fresh set-up process after each slice.

    Spreading the set-up samples over the run keeps one slow spell of a shared
    machine from setting all of them.
    """
    durations, accs, failed, setups = [], [], 0, [setup_s]
    k, busy = 0, 0.0
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds / SETUP_PROBES:
            dt, ok, acc = run_op(wl, k)
            durations.append(dt if ok else math.inf)
            if ok:
                accs.append(acc)
            else:
                failed += 1
            k += 1
        busy += time.perf_counter() - start
        try:
            setups.append(setup_probe(args.workload, args.seed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"setup probe failed: {exc}", file=sys.stderr)
            setup_ok = False
    p_tail, pct = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (p_tail, "s"),
        "ops_per_s": ((k - failed) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if accs:
        for key, value in wl.accuracy(accs).items():
            metrics[key] = (value, "1")
    info = {
        "ops": k, "failed": failed, "fail_frac": failed / k,
        "op_tail_percentile": pct, "op_tail_samples": k, "setup_samples": setups,
        "correct": setup_ok and failed == 0 and bool(accs),
    }
    return metrics, info


def measure_traced(args, wl_plain, wl_traced, tracer, setup_ok: bool) -> tuple[dict, dict]:
    import selftest

    problems = selftest.check(args.workload, args.seed, scratch_dir())
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    plain, traced, failed = [], [], 0
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds or not traced:
        use_tracer = k % 2 == 1
        dt, ok, _ = run_op(wl_traced if use_tracer else wl_plain, k, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(dt)
        failed += not ok
        k += 1
    metrics = {name: (value, _layer_unit(name))
               for name, value in tracer.layer_metrics(len(traced)).items()}
    metrics["trace_overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "1")
    out = scratch_dir() / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(out)
    info = {
        "ops": k, "traced_ops": len(traced), "failed": failed, "trace_file": str(out.relative_to(ROOT)),
        "selftest": "fail" if problems else "pass",
        "correct": setup_ok and failed == 0 and not problems,
    }
    return metrics, info


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("per_call"):
        return "pairs/call"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    blas_threads = pin_blas_threads()
    prepare_imports()
    import numpy as np

    if args.setup_probe:
        wl, _ = set_up(args.workload, args.seed)
        setup_s = time.perf_counter() - T0
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans

    tracer = spans.Tracer() if args.trace else None
    wl, setup_ok = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    try:
        if tracer is None:
            metrics, info = measure(args, wl, setup_ok, setup_s)
        else:
            import workloads

            with tracer.installed():
                wl_traced = workloads.make(args.workload, args.seed, tiny=False, scratch=scratch_dir())
            wl_traced.tracer = tracer
            tracer.spans.clear()
            try:
                metrics, info = measure_traced(args, wl, wl_traced, tracer, setup_ok)
            finally:
                wl_traced.close()
    finally:
        wl.close()

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": wl.digest, "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
        "python": platform.python_version(), **info,
    }
    print("# " + json.dumps(meta))
    result = {
        "correct": info["correct"],
        "attempted": info["ops"],
        "failed": info["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
