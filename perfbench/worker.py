"""One benchmark process: set up, warm up, then time checked solves.

Started by ``run.py`` with the input and oracle reference already on
disk. Set-up time runs from the moment the parent launched this process
(``--t0``, a CLOCK_MONOTONIC reading) to the end of the warm-up solve,
leaving out the time spent loading the input. With ``--trace 1`` the
timed solves alternate untraced and traced, so the tracing overhead is
measured in the same process and the same minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shlex
import subprocess
import sys
import time


def start_spark(work: str):
    """One local[nproc] session per process, configured the same on every
    run; scratch files stay under ``work``."""
    tmp = os.path.join(work, "tmp")
    local = os.path.join(work, "spark-local")
    os.makedirs(local, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            "--driver-memory 1g",
            "--driver-java-options " + shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.host=127.0.0.1",
            "--conf " + shlex.quote(f"spark.local.dir={local}"),
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={os.path.join(work, 'warehouse')}"),
            "pyspark-shell",
        ]
    )
    os.environ["SPARK_LOCAL_DIRS"] = local
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def spark_counts(spark, group: str) -> dict[str, int]:
    """Jobs, tasks and failed tasks run under one job group."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = failed = 0
    for job in jobs:
        info = tracker.getJobInfo(job)
        for stage in info.stageIds if info else ():
            s = tracker.getStageInfo(stage)
            if s:
                tasks += s.numTasks
                failed += s.numFailedTasks
    return {"jobs": len(jobs), "tasks": tasks, "failed_tasks": failed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-input", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import numpy as np

    import repro.core.dendrogram  # noqa: F401  (imports belong to set-up)
    import repro.core.emst  # noqa: F401
    import repro.core.hdbscan  # noqa: F401
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if w.spark:
        import pyspark.sql  # noqa: F401
        import repro.engine.distribute  # noqa: F401
    imports_s = time.monotonic() - args.t0
    if args.trace:
        import layers
        from tracer import Tracer

    with np.load(args.input) as f:
        inputs = f["points"]
        refs = {k: f[k] for k in f.files if k != "points"}
    n = inputs.shape[1]

    t = time.monotonic()
    spark = start_spark(os.path.dirname(args.input)) if w.spark else None
    session_s = time.monotonic() - t

    result = {"solve_s": [], "traced_s": [], "layers": [], "self_s": [], "attempted": 0, "failed": 0, "errors": []}

    def run_one(i: int, tracer=None) -> float:
        """Solve once, check the output and return the solve seconds.
        Solve i takes the run's inputs in turn, from ``--first-input``."""
        j = (args.first_input + i) % inputs.shape[0]
        points, ref = inputs[j], {k: v[j] for k, v in refs.items()}
        group = f"perfbench-{i}"
        if spark is not None:
            spark.sparkContext.setJobGroup(group, group)
        result["attempted"] += 1
        t = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.solve(w, points, spark)
            else:
                with tracer.span("solve"):
                    out = workloads.solve(w, points, spark)
        except Exception as e:  # a failed solve is a counted result
            dt = time.perf_counter() - t
            result["failed"] += 1
            result["errors"].append(f"solve {i}: {type(e).__name__}: {e}")
            return dt
        dt = time.perf_counter() - t
        err = workloads.check(ref, n, out)
        if err:
            result["failed"] += 1
            result["errors"].append(f"solve {i}: {err}")
        if tracer is not None:
            counts = spark_counts(spark, group) if spark is not None else {}
            result["layers"].append(layers.solve_metrics(tracer, w.pipeline, n, out["stats"], counts))
            result["self_s"].append(tracer.totals(self_time=True))
        return dt

    try:
        warm_s = run_one(0)
        result["setup_s"] = imports_s + session_s + warm_s
        result["setup_parts"] = {"imports_s": imports_s, "session_s": session_s, "warmup_s": warm_s}

        tracer = Tracer() if args.trace else None
        deadline = time.monotonic() + args.seconds
        i = 1
        while True:
            if tracer is not None and i % 2 == 0:
                tracer.clear()
                layers.install(tracer)
                try:
                    result["traced_s"].append(run_one(i, tracer))
                finally:
                    tracer.restore()
            else:
                result["solve_s"].append(run_one(i))
            i += 1
            if time.monotonic() >= deadline and (tracer is None or result["traced_s"]):
                break
        if tracer is not None and args.spans:
            tracer.save(args.spans)  # spans of the last traced solve
    finally:
        if spark is not None:
            stop_spark(spark)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
