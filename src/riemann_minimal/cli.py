"""Command-line frontend: ``riemann-minimal {gen, verify, kdv}``.

gen     sample the fundamental piece, run the reflection/translation
        extension, write OBJ/PLY meshes and a JSON report.
verify  run the cross-module verification suite (periods, symmetries,
        Shiffman, circle fits, registration, minimality) and emit a
        machine-readable report; exit 1 if any check fails.  Each check's
        name, order and threshold are fixed in ``cmd_verify``, and the
        report carries each value next to its threshold.
kdv     print the hierarchy polynomials and/or run the algebro-geometric
        least-squares measurement on the curve potential.

Exit codes: 0 success, 1 failed verification, 2 bad configuration,
3 numeric failure (any ``RiemannMinimalError``), 4 program bug (any other
exception; its traceback goes to stderr).  Reports are deterministic for a
fixed config and seed except for the timestamp and timings fields.  Set
MINSURF_LOG=DEBUG|INFO|... to control logging.

Importing this module loads the parser and the standard library only.
Each subcommand imports its own modules when it runs: gen takes ``mesh``
(with ``curve`` and ``classical``), verify every module, and kdv the
numpy-free ``hierarchy`` for ``--print-p`` plus ``curve`` and
``shiffkdv`` for a fit.  ``RiemannMinimalError`` comes from
``riemann_minimal.errors``, which imports nothing, so ``--help`` and a
configuration error load no numpy, unless ``--lambda`` needs ``classical``
to derive sigma.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
import time
import traceback
from dataclasses import dataclass
from functools import cache

from . import __version__
from .errors import RiemannMinimalError

log = logging.getLogger("riemann_minimal")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_BUG = 4

# the sigma range gen, verify and the kdv fit are tested over (README)
SIGMA_RANGE = (1e-3, 1e3)


@dataclass
class RunConfig:
    """A run's settings; the defaults here are the flags' defaults."""

    command: str
    sigma: float | None  # None: a kdv run given neither --sigma nor --lambda
    lam: float | None
    e: float = 0.1
    nr: int = 40
    nt: int = 60
    copies: int = 1
    seed: int = 7
    out_dir: str | None = None
    fmt: str = "obj"
    json_path: str | None = None
    n_level: int = 1
    samples: int = 60
    print_p: int | None = None


def _parse_grid(text):
    try:
        nr, nt = text.lower().split("x")
        return int(nr), int(nt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 40x60, got {text!r}")


@cache
def build_parser():
    """The argument parser, built once per process (``parse_args`` leaves
    it unchanged)."""
    ap = argparse.ArgumentParser(
        prog="riemann-minimal",
        description="Construct and verify Riemann's minimal examples.")
    sub = ap.add_subparsers(dest="command", required=True)
    # a flag not given is left out of the namespace, and RunConfig's
    # default applies
    quiet = {"argument_default": argparse.SUPPRESS}

    def common(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--sigma", type=float,
                       help="curve parameter sigma in [1e-3, 1e3]")
        g.add_argument("--lambda", dest="lam", type=float,
                       help="classical parameter lambda (sigma derived)")
        p.add_argument("--json", dest="json_path",
                       help="write the JSON report here instead of stdout")

    pg = sub.add_parser("gen", help="generate and export meshes", **quiet)
    common(pg)
    pg.add_argument("--e", type=float,
                    help="end-truncation parameter in (0,1)")
    pg.add_argument("--grid", type=_parse_grid, metavar="NRxNT")
    pg.add_argument("--copies", type=int)
    pg.add_argument("-o", "--out", dest="out_dir", default="out")
    pg.add_argument("--format", dest="fmt", choices=["obj", "ply", "both"])

    pv = sub.add_parser("verify", help="run the verification suite", **quiet)
    common(pv)
    pv.add_argument("--seed", type=int)

    pk = sub.add_parser("kdv", help="KdV hierarchy printing and measurement",
                        **quiet)
    gk = pk.add_mutually_exclusive_group(required=False)
    gk.add_argument("--sigma", type=float)
    gk.add_argument("--lambda", dest="lam", type=float)
    pk.add_argument("--print-p", dest="print_p", type=int,
                    metavar="N", help="print P_0..P_N in canonical text")
    pk.add_argument("--n", dest="n_level", type=int,
                    help="hierarchy level 1..3 for the least-squares fit "
                         f"(default {RunConfig.n_level})")
    pk.add_argument("--samples", type=int, help="curve points in the fit "
                    f"(default {RunConfig.samples})")
    pk.add_argument("--seed", type=int, help=f"(default {RunConfig.seed})")
    pk.add_argument("--json", dest="json_path")
    return ap


def _join_number_values(argv):
    """``argv`` with ``--sigma X`` and ``--lambda X`` (or abbreviations)
    written ``--sigma=X`` when X is a number: argparse takes ``-1e1`` for
    an option, as only ``-12`` and ``-1.5`` count as negative numbers."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and _is_number(arg) and any(
                name.startswith(flag) for name in ("--sigma", "--lambda")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_KDV_FIT_FLAGS = {"n_level": "--n", "samples": "--samples", "seed": "--seed"}


def _config_from_args(args) -> RunConfig:
    flags = dict(vars(args))  # the flags given, and gen's -o
    lam, sigma = flags.pop("lam", None), flags.pop("sigma", None)
    if args.command == "kdv" and sigma is None and lam is None:
        # no fit runs, so a fit flag given is an error
        fit = [flag for name, flag in _KDV_FIT_FLAGS.items() if name in flags]
        if fit:
            raise ValueError(f"the fit flags {', '.join(fit)} need "
                             "--sigma or --lambda")
    if sigma is None and lam is not None:
        from . import classical
        sigma = classical.sigma_of_lambda(lam)
    if sigma is not None and not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
        given = f"sigma {sigma!r}" if lam is None else (
            f"lambda {lam!r} gives sigma {sigma!r}, which is")
        raise ValueError(f"{given} outside the tested range "
                         f"[{SIGMA_RANGE[0]:g}, {SIGMA_RANGE[1]:g}]")
    if "grid" in flags:
        flags["nr"], flags["nt"] = flags.pop("grid")
    cfg = RunConfig(sigma=sigma, lam=lam, **flags)
    if cfg.command == "gen":
        if not 0.0 < cfg.e < 1.0:
            raise ValueError("e must lie in (0,1)")
        if cfg.nr < 2 or cfg.nt < 3:
            raise ValueError("grid must be at least 2x3: with NT = 2 every "
                             "row runs through the end z = 0")
        if cfg.copies < 0:
            raise ValueError("copies must be >= 0")
        # the last vertex index of the extended mesh must fit in an int32
        count = 8 * cfg.nr * cfg.nt * (cfg.copies + 1)
        if cfg.fmt != "obj" and count > 2 ** 31:
            raise ValueError(f"--format {cfg.fmt}: the extended mesh's "
                             f"{count} vertices exceed the 2^31 that PLY's "
                             "int32 indices address")
    if cfg.json_path:  # checked before any work, not when the report is due
        folder = os.path.dirname(cfg.json_path) or "."
        if not os.path.isdir(folder) or os.path.isdir(cfg.json_path):
            raise ValueError(f"--json {cfg.json_path}: cannot write a file "
                             "there (no such directory, or it is one)")
    if cfg.seed < 0:  # random.Random seeds from |seed|: -7 would draw 7's
        raise ValueError(f"--seed must be >= 0 (a negative seed would draw "
                         f"the points of {-cfg.seed}), got {cfg.seed}")
    if cfg.command == "kdv":
        if cfg.print_p is None and cfg.sigma is None:
            raise ValueError("kdv needs --print-p and/or --sigma/--lambda")
        from . import hierarchy
        top = hierarchy.MAX_HIERARCHY_LEVEL
        if cfg.print_p is not None and not 0 <= cfg.print_p <= top:
            raise ValueError(f"--print-p {cfg.print_p} outside [0, {top}]")
        # above level 3 the flows' rounding residue nears the rank cutoff
        if not 1 <= cfg.n_level <= 3:
            raise ValueError("kdv fit level n must be in [1, 3]")
        if cfg.samples < 1:
            raise ValueError(f"--samples must be >= 1, got {cfg.samples}")
    return cfg


def _report_skeleton(cfg: RunConfig) -> dict:
    config = {"sigma": cfg.sigma, "lambda": cfg.lam}
    environment = {"package_version": __version__,
                   "python": platform.python_version(),
                   "numpy": None}  # read when the report is written
    if cfg.command == "gen":  # gen takes the mesh flags and draws nothing
        config.update(e=cfg.e, grid=[cfg.nr, cfg.nt], copies=cfg.copies)
    elif cfg.sigma is not None:  # verify, and kdv's fit, draw seeded points
        config["seed"] = environment["seed"] = cfg.seed
    return {
        "schema": 1,
        "command": cfg.command,
        "config": config,
        "checks": [],
        "pass": True,
        "environment": environment,
        "timestamp": "",
        "timings": {},
    }


def _emit_report(report: dict, cfg: RunConfig, t_start: float):
    import numpy
    report["environment"]["numpy"] = numpy.__version__
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report["timings"]["total_s"] = round(time.time() - t_start, 3)
    text = json.dumps(report, indent=2)
    if cfg.json_path:
        with open(cfg.json_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif cfg.command == "gen" and cfg.out_dir:
        with open(os.path.join(cfg.out_dir, "report.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_gen(cfg: RunConfig) -> int:
    t_start = time.time()
    report = _report_skeleton(cfg)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"configuration error: -o {cfg.out_dir}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG
    from . import mesh
    log.info("sampling fundamental piece (%dx%d)", cfg.nr, cfg.nt)
    fund = mesh.sample_fundamental(cfg.sigma, cfg.e, cfg.nr, cfg.nt)
    ops = mesh.extension_ops(cfg.sigma)
    ext = mesh.extend(fund, ops, copies=cfg.copies)
    files = {}
    formats = ("obj", "ply") if cfg.fmt == "both" else (cfg.fmt,)
    for fmt in formats:
        writer = mesh.export_obj if fmt == "obj" else mesh.export_ply
        for name, mm in (("fundamental", fund), ("extended", ext)):
            path = os.path.join(cfg.out_dir, f"{name}.{fmt}")
            files[f"{name}.{fmt}"] = writer(mm, path)
    x3 = fund.vertices[:, 2]
    report["result"] = {
        "fundamental_vertices": fund.vertex_count,
        "extended_vertices": ext.vertex_count,
        "fundamental_faces": fund.face_count,
        "extended_faces": ext.face_count,
        "slab_height": float(x3.max() - x3.min()),
        "translation": [float(v) for v in ops[3].offset],
        "files": files,
    }
    _emit_report(report, cfg, t_start)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    import numpy as np

    from . import checks, classical, curve, mesh, shiffkdv
    t_start = time.time()
    report = _report_skeleton(cfg)

    def record(name, value, threshold):
        ok = bool(value < threshold)
        report["checks"].append({
            "name": name,
            "value": float(value),
            "threshold": float(threshold),
            "pass": ok,
        })
        if not ok:
            report["pass"] = False
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: value={value:.3e} "
              f"threshold={threshold:.3e}", file=sys.stderr)

    rng = curve._SeededDraws(cfg.seed)
    params = curve.CurveParams(cfg.sigma)

    per1 = curve.period(params, "gamma1")
    record("period_gamma1_re", float(np.max(np.abs(per1.real))), 1e-7)
    # the translation 2 t0 by Carlson's closed form, a second route that
    # also pins the sheet of w; t0_2 is 0, so the x2 component is the
    # gamma2 x2 period itself
    per2 = curve.period(params, "gamma2")
    t0 = mesh.FundamentalSurface(cfg.sigma).translation_half()
    record("translation_gamma2",
           float(np.max(np.abs(per2.real - 2.0 * t0))), 1e-7)
    fl = curve.flux(params, "end")
    record("flux_end_loop", float(np.max(np.abs(fl))), 1e-7)

    pts = curve.random_regular_points(params, 50, rng)
    for which in ("S1", "S2", "S3"):
        record(f"symmetry_{which.lower()}",
               curve.verify_symmetry_action(params, which, pts), 1e-9)
    record("gauss_ode", curve.gauss_ode_residual(params, pts), 1e-9)

    sample = curve.random_regular_points(params, 1000, rng)
    smax = float(np.max(np.abs(shiffkdv.shiffman(
        shiffkdv.msigma_jet(params, sample, 3)))))
    record("shiffman", smax, 1e-9)

    lam = classical.lambda_of_sigma(cfg.sigma) if cfg.lam is None else cfg.lam
    H_cl, _, _ = checks.classical_fd_grid(lam, nq=10, nv=10)
    record("minimality_classical", H_cl, 1e-3)
    H_w, conf_w, orth_w = checks.weierstrass_fd_grid(cfg.sigma, n_side=6)
    record("minimality_weierstrass", H_w, 1e-3)
    record("conformality_weierstrass", max(conf_w, orth_w), 1e-5)

    # exact slice points on lines of the height coordinate, no mesh
    reg, (rels, kinds), height_err = checks.slice_checks(cfg.sigma)
    record("slice_heights", height_err, 1e-7)
    record("registration_radius", reg.max_radius_rel_err, 1e-3)
    record("registration_spacing", reg.spacing_rel_err, 1e-3)
    record("circle_foliation", float(np.max(rels)), 1e-5)
    record("line_heights_classify",
                 0.0 if all(k == "line" for k in kinds) else 1.0, 0.5)

    _emit_report(report, cfg, t_start)
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_kdv(cfg: RunConfig) -> int:
    t_start = time.time()
    report = _report_skeleton(cfg)
    if cfg.print_p is not None:
        from . import hierarchy
        lines = [f"P{k} = {hierarchy.hierarchy_P(k)}"
                 for k in range(cfg.print_p + 1)]
        print("\n".join(lines))
        report["result"] = {"polynomials": lines}
    if cfg.sigma is not None:
        from . import curve, shiffkdv
        params = curve.CurveParams(cfg.sigma)
        rng = curve._SeededDraws(cfg.seed)
        pts = curve.random_regular_points(params, cfg.samples, rng)
        fit = shiffkdv.algebro_geometric_residual(params, cfg.n_level, pts)
        result = {
            "n": cfg.n_level,
            "samples": cfg.samples,
            "coefficients": [[c.real, c.imag] for c in fit.coefficients],
            "residual": fit.residual,
            "rank_deficient": bool(fit.rank_deficient),
        }
        report.setdefault("result", {}).update(result)
        _emit_report(report, cfg, t_start)
    elif cfg.json_path:
        _emit_report(report, cfg, t_start)
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MINSURF_LOG", "WARNING").upper())
    ap = build_parser()
    try:
        args = ap.parse_args(_join_number_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from_args(args)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_BUG
    try:
        if cfg.command == "gen":
            return cmd_gen(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        return cmd_kdv(cfg)
    except RiemannMinimalError as exc:
        log.debug("numeric failure", exc_info=True)
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception:
        traceback.print_exc()
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
