"""Workloads, seeded inputs and the per-op correctness gate.

An op is one call of ``riemann_minimal.cli.main`` with the argv a workload
builds for one sigma.  The sigmas of a run are log-uniform over
[SIGMA_LO, SIGMA_HI], the family range the program is meant to cover:

* A run of n ops takes the n quantile midpoints of that distribution
  (``sigma_grid``), one op each, in an order drawn from the benchmark
  seed; the seed also draws each ``verify`` op's CLI seed (``plan``).
* n comes from ``--seconds`` and the workload alone (``n_ops``), never from
  the clock.  So two runs with the same ``--seconds`` run the same sigmas
  and fail on the same ones, whatever their seeds or the host's speed:
  the count of failed ops is a property of the program under test.
* Parts of the range fail today (sigma > 9 exits 3, ``verify`` at
  sigma <= 0.1 exits 1, and scattered sigmas exit 3 when branch tracking
  gives up at a terminal branch point); those ops are counted as
  failures, never skipped.

The gate runs after the timed call and reads only what the op wrote.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

SIGMA_LO, SIGMA_HI = 1e-2, 1e2
GRID = (40, 60)

# exit codes of riemann_minimal.cli
EXIT_CLASSES = {0: "ok", 1: "check_failed", 2: "config", 3: "numeric"}

# Closure of the two integration paths gen uses: the sampled slab height
# must equal |t0_3| and t0 has no x2 component.  Same threshold as the
# period checks of ``verify``.
CLOSURE_THRESHOLD = 1e-7


# Seconds the calibration kernel takes on a reference host; see calibrate().
CALIB_REF_S = 0.075


def calibrate() -> float:
    """Seconds of a fixed kernel like the ops' work: a Python loop of complex
    arithmetic and small numpy calls, about 0.1 s long.

    The host's speed drifts by tens of percent within minutes.  Every time
    the benchmark reports is scaled to a host running the kernel in
    CALIB_REF_S (``reference_scale``), using the mean kernel time over the
    samples the same process took between its timed intervals.
    """
    t0 = time.perf_counter()
    acc, z = 0.0, 0.3 + 0.1j
    for i in range(150000):
        acc += abs(z * z + i * 1e-3)
    a = np.arange(15.0) + 0j
    for _ in range(15000):
        a = np.sqrt(a * a + 1.0) * 0.5
    return time.perf_counter() - t0


def reference_scale(calib_samples) -> float:
    """Factor from this host's seconds to reference seconds."""
    return CALIB_REF_S / statistics.fmean(calib_samples)


@dataclass(frozen=True)
class Workload:
    command: str
    copies: int = 0
    fmt: str = "ply"
    # Reference seconds per op averaged over the sigma grid, failures
    # included, and the fewest ops a run makes; see n_ops().  The slow
    # workloads get enough ops that every kind of failure and several
    # successes are in each run.
    op_s: float = 0.4
    min_ops: int = 8


WORKLOADS = {
    "gen_sample": Workload("gen", copies=0, fmt="ply"),
    "gen_export": Workload("gen", copies=16, fmt="both", op_s=5.0),
    "verify": Workload("verify", op_s=3.5, min_ops=9),
}

# ops in a traced run, each run once untraced and once traced
TRACE_OPS = 4


def n_ops(w: Workload, seconds: float) -> int:
    """Ops in one untraced run: about ``seconds`` of work on the reference
    host, at least ``w.min_ops``."""
    return max(w.min_ops, round(seconds / w.op_s))


@dataclass(frozen=True)
class Draw:
    sigma: float
    cli_seed: int


def sigma_grid(n: int) -> list:
    """The n quantile midpoints of log-uniform sigma on the family range."""
    lo, hi = math.log10(SIGMA_LO), math.log10(SIGMA_HI)
    return [10.0 ** (lo + (k + 0.5) * (hi - lo) / n) for k in range(n)]


def plan(seed: int, n: int) -> list:
    """The inputs of a run of n ops; a pure function of ``seed`` and n."""
    rng = random.Random(seed)
    return [Draw(s, rng.randrange(2 ** 31))
            for s in rng.sample(sigma_grid(n), n)]


def op_argv(w: Workload, d: Draw, out_dir: str) -> list:
    grid = f"{GRID[0]}x{GRID[1]}"
    if w.command == "gen":
        return ["gen", "--sigma", repr(d.sigma), "--grid", grid,
                "--copies", str(w.copies), "--format", w.fmt, "-o", out_dir]
    return ["verify", "--sigma", repr(d.sigma), "--seed", str(d.cli_seed),
            "--json", os.path.join(out_dir, "report.json")]


class GateError(Exception):
    """An op that exited 0 wrote output that fails the correctness gate."""


def headroom(threshold: float, value: float) -> float:
    return math.log10(threshold / value)


def gate(w: Workload, out_dir: str) -> list:
    """Check the outputs of an op that exited 0.

    Returns the op's check headrooms, log10(threshold / value) over the
    nonzero check values; raises GateError on any wrong output.
    """
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"report.json unreadable: {exc}") from exc
    if w.command == "verify":
        return _gate_verify(report)
    return _gate_gen(w, report, out_dir)


def _gate_verify(report) -> list:
    if report.get("pass") is not True:
        raise GateError("verify exited 0 but its report has pass != true")
    checks = report.get("checks") or []
    if not checks or not all(c.get("pass") for c in checks):
        raise GateError("verify report has no checks or a failed check")
    return [headroom(c["threshold"], c["value"]) for c in checks
            if c["value"] > 0]


def _gate_gen(w: Workload, report, out_dir) -> list:
    nr, nt = GRID
    res = report.get("result") or {}
    got = res.get("fundamental_vertices")
    if got != nr * nt:
        raise GateError(f"fundamental_vertices {got} != {nr * nt}")
    want_ext = 8 * (w.copies + 1) * nr * nt
    if res.get("extended_vertices") != want_ext:
        raise GateError(f"extended_vertices {res.get('extended_vertices')}"
                        f" != {want_ext}")
    exts = ("obj", "ply") if w.fmt == "both" else (w.fmt,)
    want_files = {f"{n}.{e}" for n in ("fundamental", "extended")
                  for e in exts}
    files = res.get("files") or {}
    if set(files) != want_files:
        raise GateError(f"files {sorted(files)} != {sorted(want_files)}")
    for name, nbytes in files.items():
        p = os.path.join(out_dir, name)
        if not os.path.isfile(p) or os.path.getsize(p) != nbytes:
            raise GateError(f"{name} missing or not {nbytes} bytes")
    n_faces = 2 * (nr - 1) * (nt - 1)
    for ext in exts:
        v = (read_obj_vertices if ext == "obj" else read_ply_vertices)(
            os.path.join(out_dir, f"fundamental.{ext}"), nr * nt, n_faces)
        if not np.all(np.isfinite(v)):
            raise GateError(f"fundamental.{ext} has non-finite coordinates")
    t = res.get("translation") or [math.nan] * 3
    residuals = [abs(res.get("slab_height", math.nan) - abs(t[2]) / 2.0),
                 abs(t[1])]
    if not all(r < CLOSURE_THRESHOLD for r in residuals):
        raise GateError(f"closure residuals {residuals} not below "
                        f"{CLOSURE_THRESHOLD}")
    return [headroom(CLOSURE_THRESHOLD, r) for r in residuals if r > 0]


def read_obj_vertices(path, n_vertices, n_faces):
    """Vertex coordinates of an OBJ written by the program; checks counts."""
    v, n_normals, n_f = [], 0, 0
    with open(path, encoding="ascii") as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "v":
                if len(tok) != 4:
                    raise GateError(f"bad OBJ vertex line {line!r}")
                v.append([float(x) for x in tok[1:]])
            elif tok[0] == "vn":
                n_normals += 1
            elif tok[0] == "f":
                n_f += 1
    if (len(v), n_normals, n_f) != (n_vertices, n_vertices, n_faces):
        raise GateError(f"OBJ has {len(v)} v, {n_normals} vn, {n_f} f")
    return np.array(v)


def read_ply_vertices(path, n_vertices, n_faces):
    """Vertex coordinates of a binary PLY written by the program."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if end < 0:
        raise GateError("PLY header not terminated")
    header = data[:end].decode("ascii").split("\n")
    counts = {ln.split()[1]: int(ln.split()[2]) for ln in header
              if ln.startswith("element ")}
    if counts != {"vertex": n_vertices, "face": n_faces}:
        raise GateError(f"PLY element counts {counts}")
    body = end + len(b"end_header\n")
    vbytes = n_vertices * 6 * 4
    if len(data) != body + vbytes + n_faces * 13:
        raise GateError("PLY size does not match its element counts")
    return np.frombuffer(data, dtype="<f4", count=n_vertices * 6,
                         offset=body).reshape(n_vertices, 6)[:, :3]
