"""Tests of the benchmark's own logic: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from riemann_minimal import (checks, classical, cli, curve, mesh,  # noqa: E402
                             quad, shiffkdv)

MODULES = {"cli": cli, "curve": curve, "classical": classical,
           "shiffkdv": shiffkdv, "mesh": mesh, "checks": checks, "quad": quad}


# --- self time ---------------------------------------------------------------

def test_self_times_of_nested_spans():
    # a(0..10) calls b(1..4), which calls c(2..3), then b again (5..6)
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, None],
             ["c", 1, 2.0, 3.0, None], ["b", 0, 5.0, 6.0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["cli.main", -1, 0.0, 10.0, None],
        ["mesh.sample_fundamental", 0, 0.5, 4.5, None],
        ["curve.immerse", 1, 1.0, 2.0, None],
        ["curve.immerse", 1, 2.0, 4.0, None],
        ["mesh.refine_slice", 0, 5.0, 9.0, 2],
        ["mesh.slice_mesh", 4, 5.0, 6.0, None],
        ["curve.immerse", 4, 6.0, 8.0, None],
        ["classical.height", 0, 9.0, 9.5, None],
        # a second op whose export and refinement raised: no payload
        ["cli.main", -1, 20.0, 23.0, None],
        ["mesh.export_ply", 8, 20.0, 21.0, None],
        ["mesh.refine_slice", 8, 21.0, 22.0, None],
        ["curve.immerse", 10, 21.0, 21.5, None],
    ]
    m = tracing.layer_metrics(spans, panels=6, n_ops=2)
    assert m["cli.main.s"] == 6.5
    assert m["cli.self_s"] == pytest.approx(0.5 * (10.0 - 4.0 - 4.0 - 0.5
                                                   + 3.0 - 1.0 - 1.0))
    assert m["mesh.sample_fundamental.s"] == 2.0
    assert m["mesh.sample_fundamental.self_s"] == 0.5
    assert m["curve.immerse.self_s"] == 2.75
    assert m["curve.immerse.calls"] == 2.0
    assert m["mesh.refine_slice.self_s"] == 0.75
    assert m["classical.self_s"] == 0.25
    assert m["quad.panels"] == 3.0
    assert m["mesh.export.bytes"] == 0.0
    # two immerse calls under refine_slice for the two points it returned
    assert m["mesh.refine_slice.immerse_per_point"] == 1.0


def test_wrappers_record_parents_and_uninstall():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [(s[0], s[1]) for s in tr.spans] == [("outer", -1), ("inner", 0),
                                               ("inner", 0)]
    assert tracing.self_times(tr.spans) == [3.0, 1.0, 1.0]

    originals = {(m, a): MODULES[m].__dict__[a] for m, a in tracing.SPANNED}
    tr.install(MODULES)
    assert mesh.sample_fundamental is not originals[("mesh",
                                                      "sample_fundamental")]
    tr.uninstall()
    for (m, a), fn in originals.items():
        assert MODULES[m].__dict__[a] is fn
    assert isinstance(classical.RiemannParams.__dict__["from_lambda"],
                      classmethod)


def test_traced_counts_repeat_for_fixed_input(tmp_path):
    counts = []
    for k in range(2):
        tr = tracing.Tracer()
        tr.install(MODULES)
        try:
            rc = cli.main(["gen", "--sigma", "2", "--grid", "6x8",
                           "--copies", "0", "--format", "ply",
                           "-o", str(tmp_path / str(k))])
        finally:
            tr.uninstall()
        assert rc == 0
        m = tracing.layer_metrics(tr.spans, tr.panels, 1)
        counts.append((m["quad.panels"], m["curve.immerse.calls"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


# --- seeded inputs -----------------------------------------------------------

def test_sigma_sequence_is_a_pure_function_of_the_seed():
    assert ops.plan(5, 12) == ops.plan(5, 12)
    assert ops.plan(5, 12) != ops.plan(6, 12)


def test_every_seed_runs_the_log_uniform_quantile_grid():
    grid = ops.sigma_grid(8)
    logs = [math.log10(s) for s in grid]
    assert logs == pytest.approx([-1.75 + 0.5 * k for k in range(8)])
    for seed in (1, 2, 3):
        assert sorted(d.sigma for d in ops.plan(seed, 8)) == grid


def test_op_count_depends_on_the_arguments_only():
    assert ops.n_ops(ops.WORKLOADS["gen_sample"], 10) == 25
    assert ops.n_ops(ops.WORKLOADS["verify"], 10) == 9
    assert ops.n_ops(ops.WORKLOADS["gen_export"], 100) == 20


# --- correctness gate --------------------------------------------------------

@pytest.fixture(scope="module")
def gen_both(tmp_path_factory):
    """One gen op at the benchmark grid writing OBJ and PLY."""
    w = ops.Workload("gen", copies=0, fmt="both")
    out = tmp_path_factory.mktemp("gen")
    assert cli.main(ops.op_argv(w, ops.Draw(2.0, 1), str(out))) == 0
    return w, out


def copy_dir(src, dst):
    dst.mkdir()
    for name in os.listdir(src):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def test_gate_accepts_real_output(gen_both):
    w, out = gen_both
    heads = ops.gate(w, str(out))
    assert heads and all(h > 0 for h in heads)


def test_gate_rejects_truncated_obj(gen_both, tmp_path):
    w, out = gen_both
    d = copy_dir(out, tmp_path / "t")
    obj = d / "fundamental.obj"
    obj.write_bytes(obj.read_bytes()[:-100])
    with pytest.raises(ops.GateError, match="bytes"):
        ops.gate(w, str(d))


def test_gate_rejects_missing_vertex_with_matching_size(gen_both, tmp_path):
    w, out = gen_both
    d = copy_dir(out, tmp_path / "t")
    obj = d / "fundamental.obj"
    data = obj.read_bytes()
    cut = data.index(b"\n") + 1
    obj.write_bytes(data[cut:])
    rep = json.loads((d / "report.json").read_text())
    rep["result"]["files"]["fundamental.obj"] = len(data) - cut
    (d / "report.json").write_text(json.dumps(rep))
    with pytest.raises(ops.GateError, match="OBJ has"):
        ops.gate(w, str(d))


def test_gate_rejects_wrong_vertex_count(gen_both, tmp_path):
    w, out = gen_both
    d = copy_dir(out, tmp_path / "t")
    rep = json.loads((d / "report.json").read_text())
    rep["result"]["extended_vertices"] -= 1
    (d / "report.json").write_text(json.dumps(rep))
    with pytest.raises(ops.GateError, match="extended_vertices"):
        ops.gate(w, str(d))


def test_gate_rejects_nonfinite_ply(gen_both, tmp_path):
    w, out = gen_both
    d = copy_dir(out, tmp_path / "t")
    ply = d / "fundamental.ply"
    data = bytearray(ply.read_bytes())
    body = data.index(b"end_header\n") + len(b"end_header\n")
    data[body:body + 4] = b"\x00\x00\xc0\x7f"  # float32 nan
    ply.write_bytes(bytes(data))
    with pytest.raises(ops.GateError, match="non-finite"):
        ops.gate(w, str(d))


def test_gate_rejects_failed_verify_report(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps(
        {"pass": False, "checks": [{"name": "x", "value": 2.0,
                                    "threshold": 1.0, "pass": False}]}))
    with pytest.raises(ops.GateError):
        ops.gate(ops.WORKLOADS["verify"], str(tmp_path))


# --- failure accounting ------------------------------------------------------

class FakeCli:
    def __init__(self, action):
        self.action = action

    def main(self, argv):
        return self.action()


def test_exit_1_and_3_are_counted_failures_not_crashes(tmp_path):
    w = ops.WORKLOADS["gen_sample"]
    d = ops.Draw(50.0, 1)
    numeric = worker.run_op(cli, w, d, str(tmp_path))  # sigma > 9 exits 3
    assert (numeric["exit"], numeric["class"], numeric["ok"]) == (3, "numeric",
                                                                  False)
    assert "ClearanceViolation" in numeric["error"]
    checked = worker.run_op(FakeCli(lambda: 1), w, d, str(tmp_path))
    assert (checked["class"], checked["ok"]) == ("check_failed", False)

    def boom():
        raise RuntimeError("bug")
    crashed = worker.run_op(FakeCli(boom), w, d, str(tmp_path))
    assert crashed["class"] == "crash" and "RuntimeError" in crashed["error"]
    assert os.listdir(tmp_path) == []  # every op's directory is removed

    res = run.summarize([numeric, checked])
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 2)
    assert run.summarize([numeric, crashed])["correct"] is False


def test_importtime_parsing():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1817 |     156571 |       numpy\n"
            "import time:      6135 |     760111 | riemann_minimal.cli\n")
    assert run.parse_importtime(text) == {"numpy": 0.156571,
                                          "riemann_minimal.cli": 0.760111}
