"""One workload in one fresh process; started by run.py, not by hand.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Imports heavylab from the checkout's ``src``, builds the workload's tables
and prints ``READY`` (the parent times set-up up to that line).  With
``--setup-only`` it exits there.  Otherwise it runs passes until SECONDS
have been measured (at least one), or with TRACE=1 one untraced and one
traced pass, checks every pass's outputs and prints ``RESULT {json}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import heavylab  # noqa: E402

if Path(heavylab.__file__).resolve().parent != ROOT / "src" / "heavylab":
    sys.exit(f"heavylab imported from {heavylab.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_pass(wl, tracer=None):
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    result = wl.run_pass(tracer)
    return result, time.perf_counter() - wall0, _cpu_s() - cpu0


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy builds differ in what they describe
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over heavylab's source files, which names the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heavylab").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_passes(wl, passes, reference):
    """(problems, failures, failed op count) over every pass.

    A failed op raised or exited nonzero.  A pass whose outputs fail a
    check, and each failed rerun comparison, count as one failed op more,
    up to the number of ops attempted.
    """
    problems, failures, bad = [], [], 0
    digests = set()
    for result, _, _ in passes:
        failures += result.failures
        found = wl.check(result.outputs)
        if reference is not None and not result.failures:
            found += wl.check_reference(result.outputs, reference)
        bad += bool(found)
        problems += found
        digests.add(wl.digest(result.outputs))
    if len(digests) > 1:
        problems.append(f"{len(digests)} different outputs from {len(passes)} identical passes")
        bad += 1
    if isinstance(wl, workloads.CliCold):
        rerun = wl.rerun_check(passes[0][0].outputs)
        problems += rerun
        bad += len(rerun)
    attempted = sum(result.attempted for result, _, _ in passes)
    return problems, failures, min(len(failures) + bad, attempted)


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    wl = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()  # map builds during set-up are per-layer data too
    setup_notes = wl.setup()
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    passes = []  # (PassResult, wall_s, cpu_s)
    if tracer is None:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(timed_pass(wl))
    else:
        tracer.uninstall()
        passes.append(timed_pass(wl))
        tracer.install()
        first = len(tracer.spans)
        passes.append(timed_pass(wl, tracer))
        tracer.uninstall()

    reference = None
    if seed == workloads.DEFAULT_SEED and workloads.REFERENCE_FILE.exists():
        reference = json.loads(workloads.REFERENCE_FILE.read_text()).get(name)
    problems, failures, failed = check_passes(wl, passes, reference)

    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "pass_wall_s": [p[1] for p in passes],
        "pass_cpu_s": [p[2] for p in passes],
        # Linux reports kilobytes; cli-cold's workload processes are the CLI's
        "peak_rss_mb": (kids if isinstance(wl, workloads.CliCold) else own) / 1024.0,
        "attempted": sum(p[0].attempted for p in passes),
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "setup_notes": setup_notes,
        "replicas_configured": wl.configured_replicas(),
        "outputs": passes[0][0].outputs,
        "machine": machine_record(),
    }
    if tracer is not None:
        untraced_wall, traced_wall = passes[0][1], passes[1][1]
        layers = tracing.layer_metrics(tracer.spans, first, traced_wall)
        layers["trace.overhead_ratio"] = traced_wall / untraced_wall
        record["per_layer"] = layers
        record["layer_self_s"] = tracing.layer_self_times(tracer.spans, first)
        record["absent_entry_points"] = tracer.absent
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
    print("RESULT " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
