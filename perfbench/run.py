#!/usr/bin/env python3
"""heavylab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a heavylab checkout; heavylab is imported from its
``src``.  Workloads (see BENCHMARK.json for why each was chosen):
lpp-tail, spectral-audit, freeconv-rate and cli-cold.

With ``--trace 0`` the workload runs in a fresh worker process, which
repeats passes until S seconds are measured (at least one pass), and the
end-to-end metrics are printed: ``wall_s`` and ``cpu_s`` (medians over
passes), ``setup_s`` (median over fresh processes, from start to the
workload's tables being built), ``peak_rss_mb`` and ``ok_ratio``
(operations that neither failed nor produced a wrong output, over those
attempted).  With ``--trace 1`` the worker runs one untraced and one
traced pass, with spans around heavylab's public entry points, and prints
the per-layer metrics.  Every pass's outputs are checked; at the default
seed 0 they are also compared with ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, replica counts, failures, per-pass times) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import PER_LAYER  # per-layer names and units, shared with the worker

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("lpp-tail", "spectral-audit", "freeconv-rate", "cli-cold")
SETUPS = 3  # fresh processes timed for setup_s; the measuring worker is one
DEADLINE_S = 170.0  # whole run, so the benchmark exits within 180 s


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline):
    """Start a worker; returns (process, seconds until it printed READY)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    proc.watchdog = watchdog
    for line in proc.stdout:
        if line.strip() == "READY":
            return proc, time.perf_counter() - start
    finish(proc)
    raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode} before set-up ended")


def finish(proc):
    """Read the rest of the worker's output and wait for it to end."""
    rest = proc.stdout.read()
    proc.wait()
    proc.watchdog.cancel()
    return rest


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    args = [workload, str(seed), repr(seconds), "1" if trace else "0"]
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            proc, took = start_worker(args + ["--setup-only"], deadline)
            finish(proc)
            setups.append(took)
    proc, took = start_worker(args, deadline)
    setups.append(took)
    rest = finish(proc)
    lines = [line[len("RESULT "):] for line in rest.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode} and no result")
    record = json.loads(lines[-1])
    record["setup_s"] = setups
    return record


def end_to_end(record):
    attempted, failed = record["attempted"], record["failed"]
    return {
        "wall_s": (statistics.median(record["pass_wall_s"]), "s", len(record["pass_wall_s"])),
        "cpu_s": (statistics.median(record["pass_cpu_s"]), "s", len(record["pass_cpu_s"])),
        "setup_s": (statistics.median(record["setup_s"]), "s", len(record["setup_s"])),
        "peak_rss_mb": (record["peak_rss_mb"], "MB", 1),
        "ok_ratio": ((attempted - failed) / attempted, "ratio", attempted),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heavylab" / "__init__.py").is_file():
        print(f"no heavylab sources under {ROOT / 'src'}; run from a heavylab checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("replicas configured " + json.dumps(record["replicas_configured"], sort_keys=True))
    for note in record["setup_notes"]:
        print(f"set-up: {note}")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    for problem in record["problems"]:
        print(f"wrong output: {problem}")
    print(f"fail_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4f}")

    if args.trace:
        for name in record["absent_entry_points"]:
            print(f"absent entry point: {name}")
        layers = record["per_layer"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        shares = {k: v / layers["trace.traced_wall_s"] for k, v in record["layer_self_s"].items()}
        print("self-time share of the traced pass " + json.dumps(shares, sort_keys=True))
    else:
        metrics = {}
        for name, (value, unit, count) in end_to_end(record).items():
            print(f"{name} = {value:.6g} {unit} (n={count})")
            metrics[name] = {"value": value, "unit": unit}
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
