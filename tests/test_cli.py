import ast
import filecmp
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

import scalar_references as scalar
from riemann_minimal import checks, classical, cli, curve, mesh, quad, shiffkdv


def run(argv):
    return cli.main(argv)


def load_report(path):
    with open(path) as fh:
        return json.load(fh)


# every check verify records, in its order
VERIFY_CHECKS = (
    "period_gamma1_re", "translation_gamma2", "flux_end_loop",
    "symmetry_s1", "symmetry_s2", "symmetry_s3", "gauss_ode", "shiffman",
    "minimality_classical", "minimality_weierstrass",
    "conformality_weierstrass", "slice_heights", "registration_radius",
    "registration_spacing", "circle_foliation", "line_heights_classify",
)
# the four meshes of gen --format both
MESH_FILES = ("fundamental.obj", "extended.obj", "fundamental.ply",
              "extended.ply")


def strip_volatile(report):
    report = dict(report)
    report.pop("timestamp", None)
    report.pop("timings", None)
    return report


def test_gen_writes_meshes_and_report(tmp_path):
    out = tmp_path / "out"
    rc = run(["gen", "--sigma", "2", "--e", "0.1", "--grid", "10x14",
              "--copies", "1", "-o", str(out), "--format", "both"])
    assert rc == 0
    for name in (*MESH_FILES, "report.json"):
        assert (out / name).exists()
    rep = load_report(out / "report.json")
    assert rep["schema"] == 1
    assert rep["config"]["e"] == 0.1
    assert rep["config"]["grid"] == [10, 14]
    assert rep["config"]["copies"] == 1
    # gen draws nothing and records no checks: no seed
    assert set(rep["config"]) == {"sigma", "lambda", "e", "grid", "copies"}
    assert "seed" not in rep["environment"]
    assert rep["result"]["fundamental_vertices"] == 140
    assert rep["result"]["extended_vertices"] == 140 * 8 * 2
    assert rep["result"]["slab_height"] > 0
    assert len(rep["result"]["translation"]) == 3


def test_gen_deterministic_bytes(tmp_path, gen_files):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = run(["gen", "--sigma", "2", "--grid", "8x10", "--copies", "0",
                  "-o", str(out)])
        assert rc == 0
        outs.append(out)
    a, b = outs
    assert (a / "fundamental.obj").read_bytes() == (b / "fundamental.obj").read_bytes()
    assert (a / "extended.obj").read_bytes() == (b / "extended.obj").read_bytes()
    ra = strip_volatile(load_report(a / "report.json"))
    rb = strip_volatile(load_report(b / "report.json"))
    assert ra == rb
    # copies = 0: exactly the three symmetry doublings
    assert ra["result"]["extended_vertices"] == 8 * ra["result"]["fundamental_vertices"]
    # every file of 40x60 with 16 copies; at sigma 1e-3 and 1e3, the ends
    # of the tested range, the closed form that samples the piece meets
    # its widest argument spread
    for sigma in (1e-3, 2.0, 1e3):
        a = gen_files(sigma, "40x60", 16)
        b = tmp_path / repr(sigma)
        assert run(["gen", "--sigma", repr(sigma), "--grid", "40x60",
                    "--copies", "16", "--format", "both", "-o", str(b)]) == 0
        for name in MESH_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        shutil.rmtree(b)  # ~70 MB


def test_gen_lambda_records_sigma(tmp_path):
    out = tmp_path / "o"
    rc = run(["gen", "--lambda", "1", "--grid", "6x8", "-o", str(out)])
    assert rc == 0
    rep = load_report(out / "report.json")
    assert abs(rep["config"]["sigma"] - 2.6180339887498945) < 1e-12
    assert rep["config"]["lambda"] == 1.0


def test_kdv_print(capsys):
    rc = run(["kdv", "--print-p", "3"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert "P0 = 1/2" in out
    assert "P1 = u" in out
    assert "P2 = u'' + 3 u^2" in out
    assert "P3 = u'''' + 10 u u'' + 5 u'^2 + 10 u^3" in out


def test_kdv_measurement(tmp_path):
    path = tmp_path / "kdv.json"
    rc = run(["kdv", "--sigma", "2", "--n", "1", "--samples", "60",
              "--seed", "7", "--json", str(path)])
    assert rc == 0
    rep = load_report(path)
    assert rep["result"]["n"] == 1
    assert rep["result"]["residual"] < 1e-9
    coef = rep["result"]["coefficients"][0]
    assert abs(coef[0] + 0.5) < 1e-6 and abs(coef[1]) < 1e-6
    assert rep["result"]["rank_deficient"] is False


def test_kdv_determinism(tmp_path):
    # the points come from random.Random(seed), whose random() sequence
    # Python keeps for a seed; the second run takes the default 60 samples
    for argv in (["--samples", "30", "--seed", "11"], ["--seed", "7"]):
        reports = []
        for sub in ("x", "y"):
            p = tmp_path / f"{sub}.json"
            assert run(["kdv", "--sigma", "2", "--n", "1", *argv,
                        "--json", str(p)]) == 0
            reports.append(strip_volatile(load_report(p)))
        assert reports[0] == reports[1], argv


def test_config_errors_exit_2(tmp_path, capsys):
    # a --json link into a missing directory is refused before any work,
    # and gen makes not even its -o directory
    dangling = tmp_path / "report.json"
    dangling.symlink_to(tmp_path / "missing" / "x")
    out = tmp_path / "o"
    for argv in (["gen", "--sigma", "2", "-o", str(out)],
                 ["verify", "--sigma", "2"], ["kdv", "--sigma", "2"],
                 ["kdv", "--print-p", "2"]):
        assert run([*argv, "--json", str(dangling)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --json {dangling}: ")
        assert err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "missing").exists()
    # a link into an existing directory is written through
    dangling.unlink()
    dangling.symlink_to(tmp_path / "new.json")
    assert run(["kdv", "--print-p", "2", "--json", str(dangling)]) == 0
    assert load_report(tmp_path / "new.json")["command"] == "kdv"
    assert run(["gen", "--sigma", "2", "--lambda", "1"]) == 2   # both given
    assert run(["gen"]) == 2                                    # none given
    assert run(["gen", "--sigma", "2", "--grid", "bogus"]) == 2
    assert run(["gen", "--sigma", "2", "--e", "1.5"]) == 2
    # each check's threshold is fixed in cmd_verify: --tol is an unknown flag
    assert run(["verify", "--sigma", "2", "--tol", "shiffman=1"]) == 2
    # gen draws no points
    assert run(["gen", "--sigma", "2", "--seed", "7"]) == 2
    # verify runs on its own fixed grids and takes no mesh flags
    assert run(["verify", "--sigma", "2", "--grid", "4x4"]) == 2
    assert run(["verify", "--sigma", "2", "--e", "0.9"]) == 2
    assert run(["verify", "--sigma", "2", "--copies", "3"]) == 2
    assert run(["kdv"]) == 2
    assert run(["kdv", "--print-p", "9"]) == 2
    # a fit over no points would pass with residual 0
    assert run(["kdv", "--sigma", "2", "--samples", "0"]) == 2
    assert run(["kdv", "--sigma", "2", "--samples", "-5"]) == 2
    # the fit flags mean nothing without --sigma/--lambda
    assert run(["kdv", "--print-p", "2", "--samples", "60", "--n", "3",
                "--seed", "9"]) == 2
    assert run(["kdv", "--print-p", "2", "--samples", "60"]) == 2
    assert run(["kdv", "--print-p", "2", "--n", "1"]) == 2
    assert run(["kdv", "--print-p", "2", "--seed", "7"]) == 2


@pytest.mark.parametrize("argv", [
    # random.Random seeds from |seed|: -1 would draw the points of 1
    ["verify", "--sigma", "2", "--seed", "-1"],
    ["kdv", "--sigma", "2", "--seed", "-3"],
    # a negative level would print nothing
    ["kdv", "--print-p", "-1"],
    # a nan e fails both of its comparisons; fewer than 0 copies
    ["gen", "--sigma", "2", "--e", "nan"],
    ["gen", "--sigma", "2", "--copies", "-1"],
])
def test_out_of_range_numbers_are_configuration_errors(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_run_config_defaults_are_the_readme_flag_table():
    c = cli.RunConfig
    assert ((c.nr, c.nt), c.e, c.copies, c.seed, c.fmt, c.n_level,
            c.samples) == ((40, 60), 0.1, 1, 7, "obj", 1, 60)
    cfg = cli._config_from_args(cli.build_parser().parse_args(
        ["gen", "--sigma", "2", "--copies", "3"]))
    assert (cfg.command, cfg.sigma, cfg.lam, cfg.copies, cfg.nr) == (
        "gen", 2.0, None, 3, 40)
    with pytest.raises(TypeError):  # a misspelt setting is a bug, not ignored
        cli.RunConfig("gen", 2.0, None, copy=3)


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    # main reuses one parser per process; a --seed of one call must not
    # reach the next
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda cfg: seen.append(cfg.seed) or 0)
    for argv in (["--seed", "3"], ["--seed", "11"], []):
        assert run(["verify", "--sigma", "2", *argv]) == 0
    assert seen == [3, 11, 7]


def test_gen_minimum_grid(tmp_path, capsys):
    # with NT = 2 every row is one edge through the end z = 0
    assert run(["gen", "--sigma", "2", "--grid", "40x2",
                "-o", str(tmp_path / "a")]) == 2
    assert "end z = 0" in capsys.readouterr().err
    assert run(["gen", "--sigma", "2", "--grid", "2x3",
                "-o", str(tmp_path / "b")]) == 0


def test_gen_refuses_ply_indices_past_int32(tmp_path, capsys, monkeypatch):
    # 8 * 2 * 3 * (copies + 1) vertices > 2^31: PLY's int32 indices would
    # wrap, so gen exits 2 before it samples or makes its directory; OBJ
    # indices are text and have no such bound
    def sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(mesh, "sample_fundamental", sampling)
    for fmt in ("ply", "both"):
        out = tmp_path / fmt
        assert run(["gen", "--sigma", "2", "--grid", "2x3", "--copies",
                    "50000000", "--format", fmt, "-o", str(out)]) == 2
        assert "int32" in capsys.readouterr().err
        assert not out.exists()
    # the largest copy count whose last index, 2^31 - 1, still fits
    copies = 2 ** 31 // 48 - 1
    assert 48 * (copies + 1) <= 2 ** 31 < 48 * (copies + 2)
    cfg = cli._config_from_args(cli.build_parser().parse_args(
        ["gen", "--sigma", "2", "--grid", "2x3", "--copies", str(copies),
         "--format", "ply", "-o", str(tmp_path)]))
    assert cfg.copies == copies


def test_gen_output_path_errors_exit_2(tmp_path, capsys, monkeypatch):
    # an -o that names a file, or a path under one, cannot be made: one
    # line naming it, exit 2, before sampling
    def sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(mesh, "sample_fundamental", sampling)
    taken = tmp_path / "file"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert run(["gen", "--sigma", "2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: -o {out}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
    # a directory where a mesh or the report goes, not where --json is
    out = tmp_path / "o"
    for name in ("extended.ply", "report.json"):
        (out / name).mkdir(parents=True)
        assert run(["gen", "--sigma", "2", "--grid", "6x8", "--format",
                    "both", "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: -o {out}: {name} is a directory\n")
        (out / name).rmdir()
    # a link to a missing directory where a mesh or the report goes
    for name in ("fundamental.obj", "report.json"):
        (out / name).symlink_to(tmp_path / "missing" / "x")
        assert run(["gen", "--sigma", "2", "--grid", "6x8", "-o",
                    str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: -o {out}: {name} ")
        assert err.count("\n") == 1 and "Traceback" not in err
        (out / name).unlink()
    assert sorted(os.listdir(out)) == []
    # with --json, gen writes no report.json there: it goes on to sample
    (out / "report.json").mkdir()
    assert run(["gen", "--sigma", "2", "-o", str(out), "--json",
                os.devnull]) == 4
    assert "AssertionError: sampled" in capsys.readouterr().err


def test_verify_json_directory_is_checked_first(tmp_path, capsys,
                                                monkeypatch):
    # a --json in a missing directory, or naming a directory, exits 2
    # before the suite runs
    def suite(*args):
        raise AssertionError("ran")

    monkeypatch.setattr(curve, "period", suite)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        assert run(["verify", "--sigma", "2", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --json {path}: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_numeric_failure_exit_3(tmp_path, capsys, monkeypatch):
    # with e this close to 1 adjacent grid samples coincide
    assert run(["gen", "--sigma", "2", "--e", "0.9999999999", "--grid", "4x4",
                "-o", str(tmp_path / "o")]) == 3
    assert "numeric failure: DegenerateCell" in capsys.readouterr().err
    # zero tolerances fail the first increment panel of the FD stencils
    monkeypatch.setattr(quad, "ABS_TOL", 0.0)
    monkeypatch.setattr(quad, "REL_TOL", 0.0)
    assert run(["verify", "--sigma", "2", "--json", "/dev/null"]) == 3
    assert ("numeric failure: QuadError: increment panel"
            in capsys.readouterr().err)


@pytest.mark.filterwarnings("error")  # a numpy warning exits 4
@pytest.mark.parametrize("args, why", [
    (["--sigma", "2", "--e", "1e-17", "--grid", "10x15"], "not finite"),
    (["--sigma", "1e-3", "--e", "1e-16", "--grid", "10x15"], "not finite"),
    (["--sigma", "1e3", "--e", "1e-15", "--grid", "10x15"], "not finite"),
    (["--sigma", "2", "--e", "1e-17"], "coincide")])
def test_gen_with_a_grid_point_on_the_end_prints_one_line(tmp_path, capsys,
                                                          args, why):
    # with e this small a grid point lies on the end z = 0: exit 3 with
    # the one-line failure and no numpy warning, and no mesh is written
    out = tmp_path / "end"
    assert run(["gen", *args, "--format", "both", "-o", str(out)]) == 3
    message = {"not finite": "sampled positions or normals are not finite",
               "coincide": "adjacent grid samples coincide"}[why]
    assert capsys.readouterr().err == (f"numeric failure: DegenerateCell: "
                                       f"{message}\n")
    assert not os.listdir(out)


@pytest.mark.parametrize("command", ["gen", "verify", "kdv"])
@pytest.mark.parametrize("value", [["--sigma", "9e-4"], ["--sigma", "1.1e3"],
                                   ["--sigma", "0"], ["--sigma", "nan"],
                                   ["--lambda", "-50"], ["--lambda", "50"],
                                   ["--lambda", "2e8"], ["--lambda", "1e300"],
                                   ["--lambda=-1e300"],
                                   ["--lambda", "1.7e308"],
                                   ["--lambda", "-1e300"],
                                   ["--sigma", "-2e-1"]])
def test_sigma_outside_the_tested_range_exits_2(tmp_path, capsys, command,
                                                value):
    # lambda -50 and 50 give sigma 4e-4 and 2.5e3; at 1e300 and beyond the
    # square overflows to inf, at -1e300 it underflows to 0
    assert run([command, *value, "--json", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "outside the tested range [0.001, 1000]" in err
    assert not tmp_path.joinpath("r.json").exists()


def test_negative_values_in_exponent_form(tmp_path, capsys):
    # argparse alone reads -1e1 as an option; lambda -10 is sigma 0.0098
    path = tmp_path / "k.json"
    assert run(["kdv", "--lambda", "-1e1", "--n", "1", "--json",
                str(path)]) == 0
    rep = load_report(path)
    assert rep["config"]["lambda"] == -10.0
    sigma = rep["config"]["sigma"]
    assert abs(rep["result"]["coefficients"][0][0]
               - 0.5 * (1.0 - sigma)) < 1e-9
    assert rep["result"]["rank_deficient"] is False
    # an abbreviated flag takes the form too, and "--s" is --sigma only in gen
    assert run(["kdv", "--lam", "-1e1", "--json", "/dev/null"]) == 0
    assert run(["gen", "--s", "-2e-1", "-o", str(tmp_path)]) == 2
    assert "sigma -0.2 outside" in capsys.readouterr().err
    assert run(["kdv", "--s", "-2e-1"]) == 2  # --sigma, --samples or --seed
    assert "ambiguous option" in capsys.readouterr().err


def test_kdv_fit_level_above_3_exits_2(capsys):
    # at levels 4 and 5 the flows' rounding residue nears or passes the rank
    # cutoff, so the coefficients would depend on the sample
    for n in ("4", "5"):
        assert run(["kdv", "--sigma", "2", "--n", n]) == 2
        assert "must be in [1, 3]" in capsys.readouterr().err
    assert run(["kdv", "--sigma", "2", "--n", "3", "--json", "/dev/null"]) == 0


def test_every_package_exception_shares_one_base():
    base = quad.RiemannMinimalError
    for exc in (quad.QuadError, curve.CurveError, curve.PoleOfGaussMap,
                classical.DomainError, classical.ConvergenceError,
                mesh.Degenerate, mesh.DegenerateCell, shiffkdv.GridTooSmall,
                shiffkdv.NotExactDerivative, shiffkdv.JetTooShort,
                checks.SliceFitError):
        assert issubclass(exc, base), exc


def test_program_bug_exits_4_with_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr(curve, "period", broken)
    assert run(["verify", "--sigma", "2", "--json", "/dev/null"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: injected" in err
    assert "numeric failure" not in err


def test_bug_while_building_the_config_exits_4(monkeypatch, capsys):
    def broken(lam):
        raise TypeError("injected")

    monkeypatch.setattr(classical, "sigma_of_lambda", broken)
    assert run(["kdv", "--lambda", "1"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: injected" in err
    assert "configuration error" not in err


def test_runs_with_scipy_blocked(tmp_path):
    # a meta-path finder that refuses every scipy import: the package
    # needs numpy only at run time
    code = f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from riemann_minimal import cli
print(cli.main(["verify", "--sigma", "2", "--seed", "7",
                "--json", {str(tmp_path / "v.json")!r}]),
      cli.main(["gen", "--sigma", "2", "--grid", "8x12", "--copies", "1",
                "--format", "both", "-o", {str(tmp_path / "g")!r}]))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]
    assert load_report(tmp_path / "v.json")["pass"] is True


@pytest.mark.parametrize("sigma", ["0.47863009232263826",
                                   "0.05623413251903491"])
def test_gen_reaches_terminal_branch_point(tmp_path, sigma):
    # at these sigmas a + (b - a) * 1.0 rounds off b = -sigma, so branch
    # tracking into the corner vertex must land on b itself to reach w = 0
    out = tmp_path / "o"
    rc = run(["gen", "--sigma", sigma, "--grid", "40x60", "--copies", "0",
              "-o", str(out)])
    assert rc == 0
    res = load_report(out / "report.json")["result"]
    t = res["translation"]  # 2 t0
    assert abs(res["slab_height"] - abs(t[2]) / 2.0) < 1e-7
    assert t[1] == 0.0


P_TEXT_3 = ("P0 = 1/2\nP1 = u\nP2 = u'' + 3 u^2\n"
            "P3 = u'''' + 10 u u'' + 5 u'^2 + 10 u^3\n")
# the seeded points come from random.Random: numpy.random and what it
# imports (secrets, hashlib and OpenSSL's _hashlib) stay out of the process
NUMPY_RANDOM = ["numpy.random", "secrets", "hashlib", "_hashlib"]


def run_fresh(args, tmp_path, log_level=None):
    """``python args`` in a fresh process that imports this package, with
    MINSURF_LOG set to ``log_level`` or unset: pytest's log capture gives
    the root logger a handler, so in this process ``logging.basicConfig``
    does nothing."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MINSURF_LOG", None)
    if log_level is not None:
        env["MINSURF_LOG"] = log_level
    return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


# standard-library modules the CLI imports where they run: argparse is all
# that start-up, --help, a configuration error and --print-p need
LATE_STDLIB = ["json", "platform", "logging", "traceback", "dataclasses",
               "inspect"]


@pytest.mark.parametrize("argv, rc, absent, block_numpy", [
    (None, None, ["numpy", "scipy.optimize"] + LATE_STDLIB, False),
    (["kdv", "--print-p", "3"], 0, ["numpy"] + LATE_STDLIB, False),
    (["kdv", "--print-p", "3"], 0, ["numpy"] + LATE_STDLIB, True),
    (["--help"], 0, ["numpy"] + LATE_STDLIB, False),
    (["verify", "--sigma", "1e9"], 2, ["numpy"] + LATE_STDLIB, False),
    (["gen", "--sigma", "2", "--grid", "8x12"], 0,
     ["riemann_minimal.checks", "riemann_minimal.shiffkdv", "logging",
      "traceback"], False),
    (["gen", "--sigma", "2", "--grid", "10x15", "--e", "1e-17"], 3,
     ["logging", "traceback"], False),
    (["verify", "--sigma", "2"], 0, NUMPY_RANDOM, False),
    (["kdv", "--sigma", "2"], 0,
     NUMPY_RANDOM + ["riemann_minimal.checks", "riemann_minimal.mesh"], False),
], ids=["import", "kdv-print-p", "kdv-print-p-numpy-blocked", "help",
        "config-error", "gen", "gen-numeric-failure", "verify", "kdv"])
def test_commands_import_only_what_they_run(tmp_path, argv, rc, absent,
                                            block_numpy):
    # each command in a fresh process: the modules it does not run stay
    # out of sys.modules; with numpy blocked (importing it raises),
    # --print-p still prints the exact hierarchy, byte for byte.  With no
    # argv the process only imports the CLI
    # the probe reports by repr, as importing json would load it
    code = f"""
import io, sys
if {block_numpy}:
    sys.modules["numpy"] = None
from riemann_minimal import cli
out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()
rc = None if {argv!r} is None else cli.main({argv!r})
print(repr([rc, [m for m in {absent!r} if sys.modules.get(m)],
            sys.stdout.getvalue()]), file=out)
"""
    out = run_fresh(["-c", code], tmp_path)
    assert out.returncode == 0, out.stderr
    got_rc, loaded, stdout = ast.literal_eval(out.stdout)
    assert (got_rc, loaded) == (rc, []), out.stdout
    if argv and argv[:2] == ["kdv", "--print-p"]:
        assert stdout == P_TEXT_3


@pytest.mark.parametrize("argv", [["kdv", "--print-p", "1"],
                                  ["verify", "--sigma", "2"]])
def test_unknown_log_level_is_a_configuration_error(tmp_path, argv):
    cmd = ["-m", "riemann_minimal.cli", *argv]
    out = run_fresh(cmd, tmp_path, "foo")
    assert out.returncode == 2
    # one line, before any work: nothing printed, no check run
    assert out.stdout == ""
    assert out.stderr.startswith("configuration error: MINSURF_LOG ")
    assert out.stderr.count("\n") == 1, out.stderr
    # an empty value counts as unset
    assert run_fresh(cmd, tmp_path, "").returncode == 0


def test_log_level_info_logs_progress(tmp_path):
    cmd = ["-m", "riemann_minimal.cli", "gen", "--sigma", "2", "--grid",
           "6x8", "-o", "o"]
    line = "INFO:riemann_minimal:sampling fundamental piece (6x8)"
    for level, logged in (("info", True), (None, False)):
        out = run_fresh(cmd, tmp_path, level)
        assert out.returncode == 0, out.stderr
        assert (line in out.stderr.splitlines()) is logged, out.stderr


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_kdv_fit_finds_the_level_1_coefficient(tmp_path, sigma):
    # the fit imports curve and shiffkdv when it runs; at the range's ends
    # and mid-range the level-1 fit is at full rank and finds
    # c = (1 - sigma)/2 (relative errors 9.9e-14, 9.1e-15 and 2.8e-13)
    path = tmp_path / "kdv.json"
    assert run(["kdv", "--sigma", repr(sigma), "--n", "1",
                "--json", str(path)]) == 0
    res = load_report(path)["result"]
    c = 0.5 * (1.0 - sigma)
    re, im = res["coefficients"][0]
    assert abs(complex(re, im) - c) < 1e-10 * abs(c), res
    assert res["rank_deficient"] is False
    # the report carries the AlgebroGeometricFit of the same seeded points
    params = curve.CurveParams(sigma)
    pts = curve.random_regular_points(
        params, cli.RunConfig.samples, curve._SeededDraws(cli.RunConfig.seed))
    fit = shiffkdv.algebro_geometric_residual(params, 1, pts)
    assert isinstance(fit, shiffkdv.AlgebroGeometricFit)
    assert [[v.real, v.imag] for v in fit.coefficients] == res["coefficients"]
    assert fit.residual == res["residual"]


@pytest.mark.slow
@pytest.mark.parametrize("sigma", ["1e-3", "0.0011007", "1.1288e-3", "0.012",
                                   "8", "9.5", "21.5", "100", "1e3"])
def test_gen_and_verify_over_the_family_range(tmp_path, sigma):
    # the ends of the tested range; sigma 0.0011007, where the rounding of
    # absolute positions, divided by h^2, would put minimality_classical
    # over 1e-3, and 1.1288e-3, the worst sigma of a 400-point scan of
    # that band; and sigma > 9, where the base point's 1e-2 gap to z = 1
    # is below 1e-3 (1 + sigma)
    out = tmp_path / "o"
    assert run(["gen", "--sigma", sigma, "-o", str(out)]) == 0
    res = load_report(out / "report.json")["result"]
    t = res["translation"]  # 2 t0; perfbench's closure gate
    assert abs(res["slab_height"] - abs(t[2]) / 2.0) < 1e-7
    assert t[1] == 0.0  # t0_2 is a literal 0 in the closed form
    for seed in range(5):
        assert run(["verify", "--sigma", sigma, "--seed", str(seed),
                    "--json", str(tmp_path / "v.json")]) == 0


@pytest.mark.slow
def test_large_gen_writes_what_it_reports(tmp_path):
    # 160x240 with 4 copies: OBJ face indices reach 7 digits (1,536,000)
    # and the 38400 grid points are one curve.immerse call of 10 blocks.
    # Every mesh file has the byte count the report gives, the report
    # passes perfbench's closure gate, and the extended OBJ (9.2M vertex
    # and normal values) equals the one Python's % formatting writes
    out = tmp_path / "o"
    assert run(["gen", "--sigma", "2", "--grid", "160x240", "--copies", "4",
                "--format", "both", "-o", str(out)]) == 0
    res = load_report(out / "report.json")["result"]
    assert sorted(res["files"]) == sorted(MESH_FILES)
    for name, size in res["files"].items():
        assert (out / name).stat().st_size == size, name
    t = res["translation"]
    assert abs(res["slab_height"] - abs(t[2]) / 2.0) < 1e-7
    assert t[1] == 0.0
    want = tmp_path / "want.obj"
    scalar.export_obj(scalar.gen_extended(2.0, 160, 240, 4), want)
    assert filecmp.cmp(out / "extended.obj", want, shallow=False)
    for path in (out / "extended.obj", want):  # 266 MB each
        path.unlink()


def test_verify_sweeps_the_family_range(tmp_path):
    # 25 log-spaced sigmas inside [1e-3, 1e3], then runs that each guard a
    # case: the range ends; sigma 0.05, the per-anchor finite-difference
    # step; 2, mid-range; 8, the corner branch point -sigma far from
    # z = 0; 100, the base point's 1e-2 gap to z = 1 below 1e-3 (1 +
    # sigma); lambda 0, the --lambda route to sigma 1; lambda 31.59, a
    # positive lambda at the top of the range; sigma 0.0011007, where
    # absolute stencil values, their rounding divided by h^2, would put
    # minimality_classical over 1e-3, and 1.1288e-3, the worst of a
    # 400-sigma scan of that band.  Each run passes, and its slice checks
    # stay at rounding level (at most 1.9e-14 measured, circle_foliation
    # at lambda 31.59).  At the range ends one loop's contour comes
    # closest to a branch point and takes the most trapezoid nodes, 2342
    # (gamma1 at 1e-3, gamma2 at 1e3): the loop checks stay at rounding
    # level too (at most 1.3e-13 measured, period_gamma1_re at 1e-3)
    inner = 10.0 ** np.linspace(-3.0, 3.0, 27)[1:-1]
    ends = [["--sigma", "1e-3"], ["--sigma", "1e3"]]
    runs = [["--sigma", repr(float(sigma))] for sigma in inner] + ends + [
        ["--sigma", "0.05"], ["--sigma", "2"], ["--sigma", "8"],
        ["--sigma", "100"], ["--lambda", "0"], ["--lambda", "31.59"],
        ["--sigma", "0.0011007"], ["--sigma", "1.1288e-3"]]
    path = tmp_path / "v.json"
    for argv in runs:
        assert run(["verify", *argv, "--seed", "7",
                    "--json", str(path)]) == 0, argv
        checks = {c["name"]: c["value"] for c in load_report(path)["checks"]}
        names = ["slice_heights", "registration_radius",
                 "registration_spacing", "circle_foliation"]
        if argv in ends:
            names += ["period_gamma1_re", "translation_gamma2",
                      "flux_end_loop"]
        for name in names:
            assert checks[name] < 1e-11, (argv, name, checks[name])


@pytest.mark.slow
def test_verify_passes_and_a_failed_check_exits_1(tmp_path, monkeypatch):
    assert run(["verify", "--sigma", "2", "--seed", "7",
                "--json", "/dev/null"]) == 0
    # one check over its threshold: exit 1, and the report is still
    # written, every check in it, with pass false
    monkeypatch.setattr(curve, "gauss_ode_residual", lambda params, pts: 1.0)
    path = tmp_path / "v.json"
    assert run(["verify", "--sigma", "2", "--seed", "7",
                "--json", str(path)]) == 1
    rep = load_report(path)
    assert rep["pass"] is False and len(rep["checks"]) == len(VERIFY_CHECKS)
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == \
        ["gauss_ode"]


@pytest.mark.slow
def test_verify_report_deterministic(tmp_path):
    # every route is a fixed rule, with no adaptive subdivision; at sigma
    # 1e-3 the Carlson duplication of curve.immerse meets its widest
    # argument spread and gamma1 takes 2342 trapezoid nodes (gamma2 at
    # 1e3), and at 1e3 the foliation residual is near its largest
    # (1.2e-14 at seed 7)
    for sigma, seed in (("2", "13"), ("1e-3", "7"), ("2", "7"), ("1e3", "7")):
        reports = []
        for sub in ("p", "q"):
            path = tmp_path / f"{sub}.json"
            assert run(["verify", "--sigma", sigma, "--seed", seed,
                        "--json", str(path)]) == 0
            reports.append(strip_volatile(load_report(path)))
        assert reports[0] == reports[1], (sigma, seed)


@pytest.mark.slow
@pytest.mark.parametrize("sigma", [0.0167, 2.0, 8.0])
def test_verify_point_checks_keep_the_scalar_bits(tmp_path, sigma):
    # the Shiffman values and the slice points keep the bits of one-point
    # evaluation; the symmetry and Gauss-ODE checks are the array calls on
    # the sampler's points, pinned to one-point calls in test_curve
    path = tmp_path / "v.json"
    run(["verify", "--sigma", repr(sigma), "--seed", "7", "--json", str(path)])
    got = {c["name"]: c["value"] for c in load_report(path)["checks"]}
    params = curve.CurveParams(sigma)
    rng = curve._SeededDraws(7)  # verify's draws for --seed 7
    pts = curve.random_regular_points(params, 50, rng)
    for which in ("S1", "S2", "S3"):
        assert got[f"symmetry_{which.lower()}"] == \
            curve.verify_symmetry_action(params, which, pts)
    assert got["gauss_ode"] == curve.gauss_ode_residual(params, pts)
    pts = scalar.random_regular_points(params, 1000, rng)
    assert got["shiffman"] == max(
        abs(shiffkdv.shiffman(shiffkdv.msigma_jet(params, p, 3))) for p in pts)


@pytest.mark.parametrize("sigma", ["1e-3", "2", "1e3"])
def test_verify_builds_no_mesh(sigma, monkeypatch):
    # the slice checks take their points on lines of the height
    # coordinate: no piece is sampled, sliced or extended, and no mesh (so
    # no edge set) is built; one refine_slice call takes every slice
    refined = []
    refine = mesh.refine_slice

    def refining(*args):
        refined.append(args)
        return refine(*args)

    def no_mesh(*args, **kwargs):
        raise AssertionError("verify built a mesh")

    for name in ("sample_fundamental", "slice_mesh", "extend",
                 "extension_ops", "TriMesh"):
        monkeypatch.setattr(mesh, name, no_mesh)
    monkeypatch.setattr(mesh, "refine_slice", refining)
    assert run(["verify", "--sigma", sigma, "--json", "/dev/null"]) == 0
    assert len(refined) == 1


def test_verify_immerse_calls_come_from_one_refine_call(monkeypatch):
    # outside the refinement: none (no piece is sampled, and the stencils
    # take values relative to their centre, so the anchors need none);
    # inside: one call, for the closed-form points of every slice
    outside, inside, refines = [], [], []
    immerse, refine = curve.immerse, mesh.refine_slice

    def counting(*args, **kwargs):
        (inside if refines and refines[-1] == "open" else outside).append(1)
        return immerse(*args, **kwargs)

    def refining(*args, **kwargs):
        refines.append("open")
        try:
            return refine(*args, **kwargs)
        finally:
            refines[-1] = "closed"

    monkeypatch.setattr(curve, "immerse", counting)
    monkeypatch.setattr(mesh, "refine_slice", refining)
    assert run(["verify", "--sigma", "2", "--json", "/dev/null"]) == 0
    assert refines == ["closed"]
    assert len(outside) == 0 and len(inside) == 1


def _stretched(monkeypatch):
    _mutate_points(monkeypatch, lambda pos, u, t0: (pos * [1.0, 1.0, 1.001],
                                                   u))


def _other_sheet(monkeypatch):
    _mutate_points(monkeypatch, lambda pos, u, t0: (2.0 * t0 - pos, -u))


def _bent(monkeypatch):
    def bend(pos, u, t0):
        pos = pos.copy()
        pos[:, 0] += 1e-4 * pos[:, 2] ** 2
        return pos, u
    _mutate_points(monkeypatch, bend)


def _t0_1_off(monkeypatch):
    half = curve._translation_half
    monkeypatch.setattr(curve, "_translation_half", lambda sigma: (
        half(sigma)[0] * (1.0 + 1e-6), *half(sigma)[1:]))


def _t0_3_off(monkeypatch):
    half = curve._translation_half
    monkeypatch.setattr(curve, "_translation_half", lambda sigma: (
        *half(sigma)[:2], half(sigma)[2] * (1.0 + 1e-6)))


def _gamma2_x2(monkeypatch):
    period = curve.period

    def shifted(params, kind):
        per = period(params, kind)
        return per + [0.0, 1e-6, 0.0] if kind == "gamma2" else per
    monkeypatch.setattr(curve, "period", shifted)


def _mutate_points(monkeypatch, mutation):
    """Every closed-form point of curve.immerse through ``mutation``."""
    psi_block = curve._psi_block

    def mutated(params, z, t0):
        return mutation(*psi_block(params, z, t0), t0)

    monkeypatch.setattr(curve, "_psi_block", mutated)


@pytest.mark.parametrize("sigma", ["1e-3", "2", "1e3"])
@pytest.mark.parametrize("mutate,check", [
    (_stretched, "slice_heights"), (_other_sheet, "slice_heights"),
    (_bent, "line_heights_classify"), (_t0_1_off, "line_heights_classify"),
    (_t0_3_off, "translation_gamma2"), (_gamma2_x2, "translation_gamma2")],
    ids=["stretched", "other_sheet", "bent", "t0_1_off", "t0_3_off",
         "gamma2_x2"])
def test_wrong_surface_fails_a_named_check(mutate, check, sigma,
                                           monkeypatch, tmp_path):
    # x3 scaled by 1.001, or the point of the other sheet (2 t0 - X,
    # u -> -u): each slice keeps its circle or line in its plane, so the
    # points' own heights show it (1e-3 and 2.0 against 1e-7).  x1 bent by
    # 1e-4 x3^2, or t0_1 scaled by 1 + 1e-6: op 1 no longer carries the
    # slice at t0_3 onto the slice at 0, so the line slice pairs two lines.
    # t0_3 scaled by 1 + 1e-6, or 1e-6 added to Re P(gamma2)_2: the gamma2
    # period no longer equals 2 t0 (t0_2 = 0) to 1e-7
    mutate(monkeypatch)
    path = tmp_path / "v.json"
    assert run(["verify", "--sigma", sigma, "--seed", "7",
                "--json", str(path)]) == 1
    failed = [c["name"] for c in load_report(path)["checks"]
              if not c["pass"]]
    assert check in failed


@pytest.mark.slow
def test_verify_report_config_has_no_mesh_flags(tmp_path):
    # verify samples its own fixed grids; its report claims no e/grid/copies
    path = tmp_path / "v.json"
    run(["verify", "--sigma", "2", "--seed", "7", "--json", str(path)])
    config = load_report(path)["config"]
    assert set(config) == {"sigma", "lambda", "seed"}


def test_kdv_report_config_names_only_what_the_run_used(tmp_path):
    # printing draws nothing: no sigma, lambda or seed
    path = tmp_path / "k.json"
    assert run(["kdv", "--print-p", "2", "--json", str(path)]) == 0
    rep = load_report(path)
    assert rep["config"] == {"sigma": None, "lambda": None}
    assert "seed" not in rep["environment"]
    # a fit draws its points: the seed is recorded, in config and environment
    assert run(["kdv", "--sigma", "2", "--n", "1", "--samples", "8",
                "--json", str(path)]) == 0
    rep = load_report(path)
    assert rep["config"] == {"sigma": 2.0, "lambda": None, "seed": 7}
    assert rep["environment"]["seed"] == 7


REPORT_KEYS = ("schema", "command", "config", "checks", "pass",
               "environment", "timestamp", "timings")


@pytest.mark.parametrize("argv, result, seed", [
    (["gen", "--sigma", "2", "--grid", "6x8", "-o", "{out}"], True, False),
    (["verify", "--sigma", "2"], False, True),
    (["kdv", "--sigma", "2", "--samples", "8"], True, True),
    (["kdv", "--print-p", "2"], True, False),
], ids=["gen", "verify", "kdv-fit", "kdv-print-p"])
def test_report_keys_keep_their_order(tmp_path, argv, result, seed):
    path = tmp_path / "r.json"
    argv = [a.format(out=tmp_path) for a in argv]
    assert run([*argv, "--json", str(path)]) == 0
    rep = load_report(path)
    assert tuple(rep) == REPORT_KEYS + ("result",) * result
    env = rep["environment"]
    assert tuple(env) == ("package_version", "python", "numpy") + (
        ("seed",) * seed)
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__


@pytest.mark.slow
@pytest.mark.parametrize("argv", [
    ["--sigma", "1e-3"], ["--lambda", "0"], ["--sigma", "2"],
    ["--lambda", "31.59"], ["--sigma", "1e3"]],
    ids=["sigma-1e-3", "lambda-0", "sigma-2", "lambda-31.59", "sigma-1e3"])
def test_verify_reports_every_check_in_order(argv, tmp_path):
    path = tmp_path / "r.json"
    assert run(["verify", *argv, "--seed", "3", "--json", str(path)]) == 0
    rep = load_report(path)
    # every run records the same checks, in the same order
    assert tuple(c["name"] for c in rep["checks"]) == VERIFY_CHECKS
    assert rep["pass"] is True


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning exits 4
@pytest.mark.parametrize("sigma", ["1e-3", "2", "1e3"])
def test_verify_prints_one_line_per_check(sigma, capsys):
    # stderr holds one [PASS] line per check, in order, and nothing else
    assert run(["verify", "--sigma", sigma, "--json", os.devnull]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[PASS] {name}" for name in VERIFY_CHECKS]
