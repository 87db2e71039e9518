"""Benchmark of the ``riemann-minimal`` CLI: gen_sample, gen_export, verify.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time from fresh
interpreters, then one worker process (``worker.py``) running ops back to
back, one closed-loop client, BLAS/OpenMP pinned to one thread.
``--trace 1`` measures the per-layer metrics instead: ``-X importtime``
from fresh interpreters, then a worker running a few ops untraced and
traced.  Times are in reference seconds (see ``ops.calibrate``).
Metric names and units come from ``BENCHMARK.json``.  The last stdout line
is the result object; a summary and the run's records go to
``perfbench/out/``.  ``--workload all`` runs the three workloads in turn
and prints each summary, then one object of results keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
IMPORT_CMD = ["-c", "import riemann_minimal.cli"]
# -X importtime module name -> per-layer metric
IMPORT_METRICS = {"numpy": "import.numpy_s",
                  "scipy.optimize": "import.scipy_optimize_s"}
IMPORT_METRICS.update({f"riemann_minimal.{m}": f"import.riemann_minimal.{m}_s"
                       for m in ("quad", "curve", "classical", "shiffkdv",
                                 "mesh", "checks", "cli")})


def worker_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MINSURF_LOG="WARNING")
    return env


def python(args, env, timeout):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout,
                          check=True)


def setup_seconds(env):
    """Median wall time of a fresh interpreter importing the CLI, in
    reference seconds."""
    python(IMPORT_CMD, env, 60)  # bytecode compilation is not set-up
    samples, calib = [], []
    for _ in range(SETUP_SAMPLES):
        calib.append(ops.calibrate())
        t0 = time.perf_counter()
        python(IMPORT_CMD, env, 60)
        samples.append(time.perf_counter() - t0)
    return {"setup_s": statistics.median(samples)
            * ops.reference_scale(calib)}


def parse_importtime(stderr):
    """Cumulative seconds per module from ``-X importtime`` output."""
    cum = {}
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cum.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cum


def import_seconds(env):
    """Median cumulative import time per module, in reference seconds."""
    python(IMPORT_CMD, env, 60)
    runs, calib = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        calib.append(ops.calibrate())
        runs.append(parse_importtime(
            python(["-X", "importtime", *IMPORT_CMD], env, 60).stderr))
    scale = ops.reference_scale(calib)
    return {metric: statistics.median(r.get(mod, 0.0) for r in runs) * scale
            for mod, metric in IMPORT_METRICS.items()}


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def end_to_end(records, worker):
    """Untraced metrics, times in reference seconds."""
    ok = [r for r in records if r["ok"]]
    if not ok:
        raise RuntimeError("no op succeeded; op_p50_s is undefined")
    scale = ops.reference_scale([r["calib_s"] for r in records])
    heads = [h for r in ok for h in r["headroom"]]
    return {
        "op_p50_s": statistics.median(r["seconds"] for r in ok) * scale,
        "ops_per_s": len(ok) / (sum(r["seconds"] for r in records) * scale),
        "peak_rss_mb": worker["peak_rss_mb"],
        "mean_headroom_log10": statistics.fmean(heads),
    }


def summarize(records):
    """Ops attempted and failed; exits 1 and 3 are failures of the program
    under test, while a wrong output, a refused argv or a crash means the
    run cannot be trusted."""
    return {
        "correct": not any(r["class"] in ("wrong_output", "config", "crash")
                           for r in records),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
    }


def run_workload(workload, seed, seconds, trace, spec):
    """One run of one workload; prints a summary and returns the result."""
    t_start = time.perf_counter()
    env = worker_env()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-trace{trace}")
    try:
        before = (import_seconds if trace else setup_seconds)(env)
        python([os.path.join(HERE, "worker.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--src", SRC, "--out", stem + "-worker.json",
                "--spans", stem + "-spans.json"],
               env, DEADLINE_S - (time.perf_counter() - t_start))
    except subprocess.CalledProcessError as exc:
        sys.exit(f"{' '.join(exc.cmd)} failed:\n{exc.stderr}")
    except subprocess.TimeoutExpired as exc:
        sys.exit(f"{' '.join(exc.cmd)} timed out")
    with open(stem + "-worker.json", encoding="utf-8") as fh:
        worker = json.load(fh)

    records = worker["records"]
    values = {**before, **(worker["layers"] if trace
                           else end_to_end(records, worker))}
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        sys.exit(f"metrics not measured: {missing}")
    classes = {}
    for r in records:
        classes[r["class"]] = classes.get(r["class"], 0) + 1
    result = {**summarize(records),
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in spec}}
    env_info = {**worker["versions"], "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "commit": git_commit()}
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "environment": env_info, "exit_classes": classes,
                   "result": result, "values": values, "records": records,
                   "untraced_records": worker["untraced_records"]}, fh,
                  indent=1)

    print(f"{workload} seed={seed} trace={trace} {env_info}")
    print(f"  ops attempted={result['attempted']} failed={result['failed']} "
          f"by class={classes}")
    for m in spec:
        print(f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*ops.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "riemann_minimal", "cli.py")):
        sys.exit(f"no riemann_minimal sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, spec)))
        return
    print(json.dumps({w: run_workload(w, args.seed, args.seconds, args.trace,
                                      spec) for w in ops.WORKLOADS}))


if __name__ == "__main__":
    main()
