"""One benchmark run's ops, in a fresh process started by ``run.py``.

Untraced (``--trace 0``): the ``ops.n_ops`` ops of ``ops.plan`` back to
back.  Traced (``--trace 1``): the ``ops.TRACE_OPS`` ops of ``ops.plan``,
each once untraced and once with the layer wrappers on, in alternating
order; the spans of the traced ops are written to ``--spans``.

Writes one JSON document to ``--out``.  Only the call of
``riemann_minimal.cli.main`` is timed; the calibration before it, the gate
and the clean-up are not.  Each record keeps the calibration time taken
before its op (``ops.calibrate``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import ops
from tracing import Tracer, layer_metrics


def run_op(cli, w, draw, tmp_root):
    """Time one op, gate its outputs and delete them."""
    calib_s = ops.calibrate()
    out_dir = tempfile.mkdtemp(prefix="op-", dir=tmp_root)
    argv = ops.op_argv(w, draw, out_dir)
    sink = io.StringIO()
    rec = {"sigma": draw.sigma, "exit": None, "class": "crash", "seconds": 0.0,
           "calib_s": calib_s, "ok": False, "error": "", "headroom": []}
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            finally:
                rec["seconds"] = time.perf_counter() - t0
        rec["exit"] = rc
        rec["class"] = ops.EXIT_CLASSES.get(rc, "crash")
        if rc == 0:
            try:
                rec["headroom"] = ops.gate(w, out_dir)
                rec["ok"] = True
            except ops.GateError as exc:
                rec["class"] = "wrong_output"
                rec["error"] = str(exc)
        else:
            lines = sink.getvalue().strip().splitlines()
            rec["error"] = lines[-1] if lines else ""
    except Exception as exc:  # a crash of one op must not end the run
        rec["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def untraced_run(cli, w, seed, seconds, tmp_root):
    return [run_op(cli, w, draw, tmp_root)
            for draw in ops.plan(seed, ops.n_ops(w, seconds))]


def traced_run(cli, modules, w, seed, tmp_root, spans_path):
    """TRACE_OPS ops, each untraced and traced in alternating order.

    Returns (traced records, untraced records, per-layer metrics)."""
    tracer = Tracer()
    plain, traced = [], []
    for i, draw in enumerate(ops.plan(seed, ops.TRACE_OPS)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(modules)
                try:
                    traced.append(run_op(cli, w, draw, tmp_root))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_op(cli, w, draw, tmp_root))
    tracer.dump(spans_path)
    layers = layer_metrics(tracer.spans, tracer.panels, len(traced))
    scale = ops.reference_scale([r["calib_s"] for r in traced])
    layers = {k: v * scale if k.endswith((".s", "_s")) else v
              for k, v in layers.items()}
    # per op, so that fast failures and slow successes compare like for like
    layers["trace.overhead"] = statistics.median(
        t["seconds"] / p["seconds"] for p, t in zip(plain, traced))
    good = [h for r in traced if r["ok"] for h in r["headroom"]]
    layers["checks.min_headroom_log10"] = min(good) if good else 0.0
    return traced, plain, layers


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    from riemann_minimal import (checks, classical, cli, curve, mesh, quad,
                                 shiffkdv)
    import numpy
    import scipy
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"riemann_minimal imported from {cli.__file__}, not {src}")

    w = ops.WORKLOADS[args.workload]
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=os.path.dirname(args.out))
    layers, plain = None, []
    if args.trace:
        modules = {"cli": cli, "curve": curve, "classical": classical,
                   "shiffkdv": shiffkdv, "mesh": mesh, "checks": checks,
                   "quad": quad}
        records, plain, layers = traced_run(cli, modules, w, args.seed,
                                            tmp_root, args.spans)
    else:
        records = untraced_run(cli, w, args.seed, args.seconds, tmp_root)
    shutil.rmtree(tmp_root, ignore_errors=True)
    result = {
        "records": records,
        "untraced_records": plain,
        "layers": layers,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
