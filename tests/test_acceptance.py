"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a [PASS] line with the measured value so the suite doubles
as a verification report (run with ``pytest -s tests/test_acceptance.py``).
Runtime budgets are asserted too; they are generous on any recent machine.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import brentq

import riemann_minimal
from classical_quadrature import integrate_sqrt_singular
from riemann_minimal import checks, classical, curve, shiffkdv
from riemann_minimal.classical import (RiemannParams, height, q_min,
                                       sigma_of_lambda)
from riemann_minimal.curve import CurveParams
from riemann_minimal.shiffkdv import (Jet, flow_n, hierarchy_P, miura,
                                      mkdv_flow, msigma_jet)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.start
        if exc[0] is None:
            print(f"[PASS] {self.name} ({self.elapsed:.1f}s"
                  f" of {self.seconds}s budget)")
            assert self.elapsed < self.seconds, (
                f"{self.name}: runtime {self.elapsed:.1f}s over budget")
        else:
            print(f"[FAIL] {self.name}: {exc[1]}")
        return False


def test_criterion_01_closed_form_anchors():
    with Budget("criterion 1: closed-form anchors", 1.0):
        assert abs(q_min(0.0) - 1.0) < 1e-12
        assert abs(q_min(1.0) - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-12
        assert abs(sigma_of_lambda(0.0) - 1.0) < 1e-12
        assert abs(sigma_of_lambda(1.0) - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-12
        for lam in np.linspace(-2.5, 4.0, 20):
            assert abs(sigma_of_lambda(lam) * q_min(lam) ** 2 - 1.0) < 1e-12


def test_criterion_02_catenoid_cross_check():
    with Budget("criterion 2: catenoid closed form vs quadrature", 5.0):
        res = carlson = 0.0
        for lam in (0.5, 1.0, 2.0):
            f = lambda u: 0.5 / np.sqrt(lam * u * u - u)
            for q in np.linspace(1.0 / lam, 1.0 / lam + 6.0, 20)[1:]:
                closed = classical.catenoid_height(lam, q)
                oracle = integrate_sqrt_singular(f, 1.0 / lam, q)
                res = max(res, abs(oracle - closed))
                # the Carlson form of the a = 0 height, as classical.height
                # evaluates it, against the same closed form
                root = math.sqrt(q - 1.0 / lam)
                carlson = max(carlson, abs(
                    root * classical.carlson_rf(lam * q, 1.0, 1.0) - closed))
        print(f"  max |closed - quadrature| = {res:.3e}")
        assert res < 1e-8
        assert carlson < 1e-8


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_criterion_03_radius_ode_residuals(lam):
    with Budget(f"criterion 3: radius ODE residuals (lambda={lam})", 10.0):
        p = RiemannParams.from_lambda(lam)

        def q_of_z(z):
            hi = p.q1 + 1.0
            while height(p, hi) < z:
                hi *= 4.0
            return brentq(lambda q: height(p, q) - z, p.q1, hi,
                          xtol=1e-14, rtol=1e-15)

        h1, h2 = 3e-4, 1e-3
        worst_ode = worst_first = 0.0
        for z in np.linspace(0.1 * p.zeta, 0.45 * p.zeta, 7):
            q0 = q_of_z(z)
            qp = (8 * (q_of_z(z + h1) - q_of_z(z - h1))
                  - (q_of_z(z + 2 * h1) - q_of_z(z - 2 * h1))) / (12 * h1)
            qpp = (q_of_z(z + h2) - 2 * q0 + q_of_z(z - h2)) / (h2 * h2)
            worst_ode = max(worst_ode,
                            abs(2 * q0 ** 3 + qp ** 2 + q0 * (2.0 - qpp)))
            worst_first = max(worst_first,
                              abs(qp ** 2 / q0 ** 2 - 4 * (q0 - 1 / q0) - 4 * lam))
        print(f"  ode residual {worst_ode:.3e}, first integral {worst_first:.3e}")
        assert worst_ode < 1e-4
        assert worst_first < 1e-6


def test_criterion_04_enneper_equivalence():
    with Budget("criterion 4: Enneper coefficient equivalence", 10.0):
        canonical = classical.FoliationData(r=1.0, r_p=0.0, r_pp=0.0,
                                            kappa=1.0, kappa_p=0.0, tau=0.0,
                                            alpha=0.0, beta=0.0, delta=1.0)
        a = classical.enneper_coefficients(canonical)
        assert np.allclose(a, [0, 0, 0, 0, -3, 0, 0], atol=1e-12)
        assert classical.enneper_fourier_check(canonical) < 1e-4
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(10):
            d = classical.FoliationData(
                r=0.5 + rng.uniform(0, 1), r_p=rng.uniform(-.5, .5),
                r_pp=rng.uniform(-.5, .5), kappa=0.3 + rng.uniform(0, 1.2),
                kappa_p=rng.uniform(-.5, .5), tau=rng.uniform(-.8, .8),
                alpha=rng.uniform(-.8, .8), beta=rng.uniform(-.8, .8),
                delta=rng.uniform(-.8, .8), alpha_p=rng.uniform(-.5, .5),
                beta_p=rng.uniform(-.5, .5), delta_p=rng.uniform(-.5, .5))
            worst = max(worst, classical.enneper_fourier_check(d))
        print(f"  worst DFT-vs-closed-form residual = {worst:.3e}")
        assert worst < 1e-4


@pytest.mark.parametrize("sigma", [0.5, 2.0, 5.0])
def test_criterion_05_period_closure(sigma):
    with Budget(f"criterion 5: period closure (sigma={sigma})", 30.0):
        params = CurveParams(sigma)
        p1 = curve.period(params, "gamma1")
        assert np.max(np.abs(p1.real)) < 1e-7
        p2 = curve.period(params, "gamma2")
        assert abs(p2.real[1]) < 1e-7
        fl = curve.flux(params, "end")
        print(f"  |Re g1|={np.max(np.abs(p1.real)):.2e} "
              f"|Re g2 . e2|={abs(p2.real[1]):.2e} |F(end)|={np.max(np.abs(fl)):.2e}")
        assert np.max(np.abs(fl)) < 1e-7


@pytest.mark.parametrize("sigma", [0.5, 2.0, 5.0])
def test_criterion_06_symmetry_residuals(sigma):
    with Budget(f"criterion 6: symmetry residuals (sigma={sigma})", 5.0):
        params = CurveParams(sigma)
        rng = np.random.default_rng(7)
        pts = curve.random_regular_points(params, 50, rng)
        for which in ("S1", "S2", "S3"):
            res = curve.verify_symmetry_action(params, which, pts)
            assert res < 1e-9


def test_criterion_07_shiffman_vanishing():
    with Budget("criterion 7: Shiffman vanishing", 5.0):
        worst = 0.0
        for sigma in (0.5, 1.0, 2.618034, 5.0):
            params = CurveParams(sigma)
            rng = np.random.default_rng(17)
            pts = curve.random_regular_points(params, 1000, rng)
            worst = max(worst, np.max(np.abs(
                shiffkdv.shiffman(msigma_jet(params, pts, 3)))))
        print(f"  max |S| over 4000 points = {worst:.3e}")
        assert worst < 1e-9


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_criterion_08_minimality_conformality(lam):
    with Budget(f"criterion 8: minimality/conformality (lambda={lam})", 60.0):
        H_cl, _, _ = checks.classical_fd_grid(lam, nq=20, nv=20)
        assert H_cl < 1e-3
        sigma = sigma_of_lambda(lam)
        H_w, conf, orth = checks.weierstrass_fd_grid(sigma, n_side=20)
        print(f"  classical |H|={H_cl:.2e}; weierstrass |H|={H_w:.2e} "
              f"conf={conf:.2e} orth={orth:.2e}")
        assert H_w < 1e-3
        # conformality defect applies to the conformal (Weierstrass) chart;
        # the (q, v) chart of the classical construction is not conformal
        assert max(conf, orth) < 1e-5


def test_criterion_09_cross_construction_registration():
    with Budget("criterion 9: classical vs Weierstrass registration", 60.0):
        sigma = sigma_of_lambda(1.0)
        reg, *_ = checks.slice_checks(sigma)
        print(f"  scale={reg.scale:.6f} radius rel err={reg.max_radius_rel_err:.2e}"
              f" spacing rel err={reg.spacing_rel_err:.2e}")
        assert reg.max_radius_rel_err < 1e-3
        assert reg.spacing_rel_err < 1e-3


def test_criterion_10_circle_foliation_of_meshes():
    with Budget("criterion 10: circle foliation of exported meshes", 30.0):
        _, (rels, kinds), _ = checks.slice_checks(2.0)
        print(f"  worst relative circle residual = {np.max(rels):.3e}; "
              f"line heights -> {kinds}")
        assert len(rels) == 10
        assert np.max(rels) < 1e-5
        assert all(k == "line" for k in kinds)


def test_criterion_11_kdv_hierarchy():
    with Budget("criterion 11: KdV hierarchy", 5.0):
        from fractions import Fraction
        assert hierarchy_P(1).terms == {(0,): Fraction(1)}
        assert hierarchy_P(2).terms == {(2,): Fraction(1), (0, 0): Fraction(3)}
        assert hierarchy_P(3).terms == {(4,): Fraction(1), (2, 0): Fraction(10),
                                        (1, 1): Fraction(5),
                                        (0, 0, 0): Fraction(10)}
        rng = np.random.default_rng(77)
        worst_rec = 0.0
        for n in range(6):
            p = hierarchy_P(n)
            lhs = (p.derivative().derivative().derivative()
                   + p.derivative().mul_factor(0).scale(4)
                   + p.mul_factor(1).scale(2))
            rhs = hierarchy_P(n + 1).derivative()
            for _ in range(5):
                vals = rng.normal(size=2 * n + 4) + 1j * rng.normal(size=2 * n + 4)
                j = Jet(0.5 * vals)
                worst_rec = max(worst_rec,
                                abs(lhs.evaluate(j) - rhs.evaluate(j)))
        assert worst_rec < 1e-10
        worst_miura = 0.0
        for _ in range(50):
            vals = 0.7 * (rng.normal(size=7) + 1j * rng.normal(size=7))
            vals[0] += 2.0
            x = Jet(vals)
            u = miura(x)
            xdot = mkdv_flow(x)
            udot = 0.5 * xdot.d(1) - 0.5 * (x * xdot)
            bridge = -0.5j * flow_n(1, u)
            worst_miura = max(worst_miura, abs(udot[0] - bridge))
        print(f"  recurrence defect {worst_rec:.2e}, Miura defect {worst_miura:.2e}")
        assert worst_miura < 1e-10


def test_criterion_12_algebro_geometric_measurement():
    with Budget("criterion 12: algebro-geometric measurement", 10.0):
        params = CurveParams(2.0)
        rng = np.random.default_rng(7)
        fit60 = shiffkdv.algebro_geometric_residual(
            params, 1, curve.random_regular_points(params, 60, rng))
        fit120 = shiffkdv.algebro_geometric_residual(
            params, 1, curve.random_regular_points(params, 120, rng))
        print(f"  residual(60)={fit60.residual:.3e} residual(120)="
              f"{fit120.residual:.3e} coef={fit60.coefficients[0]:.8f}")
        # regression baseline: the measured residual is numerically zero
        # (the curve potential is stationary at level 1, coefficient
        # -(sigma-1)/2); stability under doubling the sample count
        assert fit60.residual < 1e-9
        assert abs(fit60.residual - fit120.residual) < 1e-6
        assert abs(fit60.coefficients[0] - fit120.coefficients[0]) < 1e-6
        assert abs(fit60.coefficients[0] + 0.5) < 1e-6


def test_criterion_13_pipeline_reproduction(tmp_path):
    with Budget("criterion 13: gen pipeline reproduction", 120.0):
        # the child interpreter imports the same package as this one
        src = os.path.dirname(os.path.dirname(riemann_minimal.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cmd = [sys.executable, "-m", "riemann_minimal.cli", "gen",
                   "--sigma", "2", "--e", "0.1", "--grid", "40x60",
                   "--copies", "1", "-o", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        a, b = outs
        rep = json.loads((a / "report.json").read_text())
        assert rep["result"]["fundamental_vertices"] == 2400
        assert rep["result"]["extended_vertices"] == 2400 * 8 * 2
        assert (a / "fundamental.obj").read_bytes() == \
            (b / "fundamental.obj").read_bytes()
        assert (a / "extended.obj").read_bytes() == \
            (b / "extended.obj").read_bytes()
        ra = json.loads((a / "report.json").read_text())
        rb = json.loads((b / "report.json").read_text())
        for r in (ra, rb):
            r.pop("timestamp")
            r.pop("timings")
        assert ra == rb
        print(f"  2400-vertex fundamental piece, deterministic bytes")
