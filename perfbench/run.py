"""Benchmark entry point: EMST and HDBSCAN* workloads, oracle-checked.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. For one workload it generates the input
from ``--seed``, computes the oracle reference once, then starts
``SETUPS`` fresh worker processes one after another. Each worker sets up
(imports, Spark session if the workload uses Spark, one warm-up solve)
and then times checked solves for its share of ``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give the run context and a readable summary. The exit code is non-zero
when any solve failed its check. ``--workload all`` runs every workload
in its own process and prints one combined JSON line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3        # worker processes per run; set-up is measured in each
RUN_LIMIT_S = 170  # a run that is still going after this is killed
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


WORK = ROOT / ".perfbench-work"
# One BLAS thread per process, in this process and every worker, so runs
# do not depend on how many threads the host's BLAS would pick.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV, PYTHONPATH=str(ROOT / "src"), PYSPARK_PYTHON=sys.executable, TMPDIR=str(work / "tmp"))
    return env


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _context(w, n: int, seed: int) -> dict:
    import numpy
    import pyspark

    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": w.name, "seed": seed, "n": n, "d": w.d, "inputs": w.inputs,
        "git_sha": _git_sha(), "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "spark_master": f"local[{nproc}]" if w.spark else "none",
        "setups": SETUPS,
    }


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the worker's process group (its JVM and Python daemons too)
    and wait for the worker."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _sweep_group(pgid: int) -> None:
    """Make sure nothing the worker started outlives it."""
    for attempt in range(50):
        try:
            os.killpg(pgid, signal.SIGTERM if attempt < 25 else signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def _percentile_line(times: list[float]) -> str:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    n = len(times)
    s = sorted(times)
    line = f"median {statistics.median(s):.4f} s over {n} solves"
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(s, n=1000, method="inclusive")[int(p * 10) - 1]
            return line + f", p{p:g} {q:.4f} s"
    return line


def run_workload(name: str, seed: int, seconds: float, trace: int, n: int | None) -> int:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    (WORK / "spans").mkdir(exist_ok=True)
    try:
        return _run_workload(work, name, seed, seconds, trace, n)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(work: Path, name: str, seed: int, seconds: float, trace: int, n: int | None) -> int:
    import numpy as np

    import workloads

    w = workloads.WORKLOADS[name]
    n = n or w.n
    np.savez(work / "input.npz", **workloads.make_inputs(w, n, seed))
    context = _context(w, n, seed)
    print("context " + json.dumps(context), flush=True)

    env = _env(work)
    deadline = time.monotonic() + RUN_LIMIT_S
    results = []
    for k in range(SETUPS):
        out = work / f"worker{k}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", name, "--input", str(work / "input.npz"),
            "--out", str(out), "--seconds", str(seconds / SETUPS),
            "--first-input", str(k * w.inputs // SETUPS),
            "--trace", str(trace),
        ]
        if k == SETUPS - 1:  # keep one traced solve's spans per workload
            cmd += ["--spans", str(WORK / "spans" / f"{name}.npz")]
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
            stdout=sys.stderr, stderr=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            print(f"perfbench: {name} worker {k} passed the {RUN_LIMIT_S} s run limit", file=sys.stderr)
            return 3
        finally:
            _sweep_group(proc.pid)
        if code != 0 or not out.exists():
            print(f"perfbench: {name} worker {k} exited with {code}", file=sys.stderr)
            return 3
        results.append(json.loads(out.read_text()))

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for e in r["errors"]:
            print(f"FAILED {name}: {e}", file=sys.stderr)
    solves = [t for r in results for t in r["solve_s"]]
    setups = [r["setup_s"] for r in results]
    print(f"{name}: solve_s {_percentile_line(solves)}", flush=True)
    parts = {k: round(statistics.median(r["setup_parts"][k] for r in results), 4) for k in results[0]["setup_parts"]}
    print(f"{name}: setup_s median {statistics.median(setups):.4f} s over {len(setups)} set-ups, parts {parts}", flush=True)
    print(f"{name}: failed_frac {failed}/{attempted} = {failed / attempted:.4f}", flush=True)
    if trace:
        metrics = _layer_metrics(name, results)
    else:
        values = {
            "solve_s": statistics.median(solves),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _layer_metrics(name: str, results: list[dict]) -> dict:
    import layers

    untraced = statistics.median(t for r in results for t in r["solve_s"])
    traced = statistics.median(t for r in results for t in r["traced_s"])
    rows = [m for r in results for m in r["layers"]]
    values = {k: statistics.median(m[k] for m in rows) for k in rows[0]}
    values.update({"trace.solve_s": traced, "trace.overhead_s": traced - untraced})
    print(f"{name}: tracing overhead {traced - untraced:+.4f} s on untraced {untraced:.4f} s", flush=True)
    selfs = [s for r in results for s in r["self_s"]]
    spans = sorted({k for s in selfs for k in s})
    breakdown = {k: statistics.median(s.get(k, 0.0) for s in selfs) for k in spans}
    print(f"{name}: median self seconds per span over {len(selfs)} traced solves (sum {sum(breakdown.values()):.4f} s):", flush=True)
    for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(f"  {k:24s} {v:10.4f}", flush=True)
    return {k: {"value": values[k], "unit": layers.METRICS[k][0]} for k in layers.METRICS}


def run_all(seed: int, seconds: float, trace: int, n: int | None) -> int:
    """Every workload, each in its own process; one combined JSON line."""
    import workloads

    attempted = failed = 0
    metrics: dict = {}
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        if n:
            cmd += ["--n", str(n)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 30)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if not lines or not lines[-1].startswith("{"):
            continue
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": failed == 0 and worst == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help="override the workload size (tests only)")
    args = ap.parse_args()
    os.environ.update(BLAS_ENV)  # before NumPy is imported
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace, args.n)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.n)


if __name__ == "__main__":
    sys.exit(main())
