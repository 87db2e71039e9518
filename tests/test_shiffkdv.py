import math
from fractions import Fraction

import numpy as np
import pytest

import scalar_references as scalar
from riemann_minimal import curve
from riemann_minimal.curve import CurveParams, CurvePoint, PoleOfGaussMap
from riemann_minimal.shiffkdv import (DiffPoly, GridTooSmall, Jet,
                                      JetTooShort, NotExactDerivative,
                                      algebro_geometric_residual, flow_n,
                                      hierarchy_P, jacobi_residual,
                                      level_curvature_raw, miura, mkdv_flow,
                                      msigma_jet, potential_u, shiffman,
                                      shiffman_complex, shiffman_velocity)


def exp_jet(xi, order, c=1.0):
    """Jet of c * e^xi (all derivatives equal)."""
    return Jet([c * np.exp(xi)] * (order + 1))


def random_jet(rng, order, scale=1.0):
    vals = (rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)) * scale
    vals[0] += 2.0  # keep g away from 0
    return Jet(vals)


# --- jets -------------------------------------------------------------------


def test_jet_arithmetic_round_trip():
    rng = np.random.default_rng(3)
    a = random_jet(rng, 6)
    b = random_jet(rng, 6)
    prod = a * b
    back = prod / b
    assert np.max(np.abs(back.values - a.values)) < 1e-10


def test_jet_division_matches_series():
    # 1/(1 - xi) at 0: derivatives k!
    g = Jet([1.0, -1.0, 0.0, 0.0, 0.0])
    inv = 1.0 / g
    assert np.allclose(inv.values, [math.factorial(k) for k in range(5)])


def test_jet_arithmetic_on_a_point_axis():
    # a jet with a trailing point axis computes each point's tower as the
    # one-point jet does
    rng = np.random.default_rng(4)
    a = [random_jet(rng, 4) for _ in range(5)]
    b = [random_jet(rng, 4) for _ in range(5)]
    A = Jet(np.stack([j.values for j in a], axis=-1))
    B = Jet(np.stack([j.values for j in b], axis=-1))
    c = b[0]  # one point, broadcast over the axis
    for got, one in ((A * B, lambda i: a[i] * b[i]),
                     (A / B, lambda i: a[i] / b[i]),
                     (A * c, lambda i: a[i] * c),
                     (c / A, lambda i: c / a[i]),
                     (2.0 / A - 1.5, lambda i: 2.0 / a[i] - 1.5)):
        assert got.values.shape == (5, 5)
        for i in range(5):
            np.testing.assert_allclose(got.values[:, i], one(i).values,
                                       rtol=1e-13)
    with pytest.raises(ZeroDivisionError):
        A / Jet(np.zeros((5, 5)))


def test_jet_too_short():
    with pytest.raises(JetTooShort):
        Jet([1.0, 2.0]).d(3)
    with pytest.raises(JetTooShort):
        mkdv_flow(Jet([1.0, 2.0, 3.0]))


# --- Shiffman machinery ------------------------------------------------------


def test_level_curvature_values():
    # g real with purely imaginary g'/g
    assert abs(level_curvature_raw(Jet([2.0, 2j]))) < 1e-15
    assert abs(level_curvature_raw(Jet([1.0, 1.0])) - 0.5) < 1e-15
    # inverted-conjugate jet flips the sign (|g| factor invariant)
    rng = np.random.default_rng(9)
    for _ in range(20):
        j = random_jet(rng, 1)
        inv = 1.0 / j
        inv_conj = Jet(np.conj(inv.values))
        assert abs(level_curvature_raw(inv_conj)
                   + level_curvature_raw(j)) < 1e-12


def test_shiffman_catenoid_and_curve():
    assert abs(shiffman(exp_jet(0.3 + 0.2j, 3))) < 1e-14
    params = CurveParams(2.0)
    rng = np.random.default_rng(7)
    pts = curve.random_regular_points(params, 100, rng)
    assert np.max(np.abs(shiffman(msigma_jet(params, pts, 3)))) < 1e-9


def test_shiffman_perturbed_against_componentwise_oracle():
    # independent expansion of Im[3/2 A^2 - B - A^2/(1+|g|^2)] in real parts
    xi = 0.3 + 0.1j
    g = np.exp(xi) + 0.1 * np.exp(2 * xi)
    gp = np.exp(xi) + 0.2 * np.exp(2 * xi)
    gpp = np.exp(xi) + 0.4 * np.exp(2 * xi)
    j = Jet([g, gp, gpp])
    val = shiffman(j)
    assert abs(val) > 1e-4  # genuinely nonzero for the perturbed map
    A = gp / g
    B = gpp / g
    a1, b1 = (A * A).real, (A * A).imag
    a2, b2 = B.real, B.imag
    den = 1.0 + (g.real ** 2 + g.imag ** 2)
    oracle = 1.5 * b1 - b2 - b1 / den
    assert abs(val - oracle) < 1e-14


def _gauss_derivatives_reference(params, pt, order):
    """Scalar g-jet with Python complex arithmetic, one point at a time."""
    s = params.sigma
    rs = math.sqrt(s)
    vals = np.zeros(order + 1, dtype=complex)
    vals[0] = pt.z / rs
    vals[1] = pt.w / rs
    for k in range(2, order + 1):
        m = k - 2
        vals[k] = (s - 1.0) * vals[m] + 1.5 * rs * sum(
            math.comb(m, i) * vals[i] * vals[m - i] for i in range(m + 1))
        if m == 0:
            vals[k] += -rs / 2.0
    return vals


def _shiffman_reference(vals):
    """S from one point's jet with numpy scalar arithmetic."""
    g, gp, gpp = vals[0], vals[1], vals[2]
    lg = gp / g
    return float((1.5 * lg * lg - gpp / g
                  - lg * lg / (1.0 + abs(g) ** 2)).imag)


@pytest.mark.parametrize("sigma", [0.0167, 2.0, 8.0])
def test_array_shiffman_matches_scalar_loop(sigma):
    params = CurveParams(sigma)
    sample = curve.random_regular_points(params, 1000,
                                         np.random.default_rng(11))
    pts = [CurvePoint(z, w) for z, w in zip(sample.z.tolist(),
                                            sample.w.tolist())]
    jet = msigma_jet(params, sample, 3)
    assert jet.values.shape == (4, 1000)
    ref = np.array([_gauss_derivatives_reference(params, p, 3) for p in pts])
    assert np.array_equal(jet.values, ref.T)
    got = shiffman(jet)
    loop = np.array([shiffman(msigma_jet(params, p, 3)) for p in pts])
    assert np.array_equal(got, loop)
    assert np.array_equal(got, [_shiffman_reference(v) for v in ref])
    assert np.max(np.abs(got)) < 1e-9


@pytest.mark.parametrize("sigma", [0.0167, 2.0, 8.0])
def test_array_level_curvature_matches_per_point_calls(sigma):
    params = CurveParams(sigma)
    sample = curve.random_regular_points(params, 500,
                                         np.random.default_rng(13))
    jet = msigma_jet(params, sample, 1)
    got = level_curvature_raw(jet)
    loop = [level_curvature_raw(Jet(v)) for v in jet.values.T]
    assert got.shape == (500,) and isinstance(loop[0], float)
    assert np.array_equal(got, loop)
    # the one-point call rounds as the displayed formula does on a scalar
    g, gp = jet.values[:, 0]
    assert loop[0] == float(abs(g) / (1.0 + abs(g) ** 2) * (gp / g).real)


def test_array_shiffman_rejects_a_pole_in_the_batch():
    g = np.array([2.0, 1.0 + 1j, 0.0, 3.0j])
    with pytest.raises(PoleOfGaussMap, match="g = 0j"):
        shiffman(Jet(np.stack([g, g + 1.0, g - 1.0])))
    with pytest.raises(PoleOfGaussMap):
        curve.gauss_derivatives(CurveParams(2.0),
                                curve.CurvePoint(g, g + 1.0), 3)


def test_shiffman_complex_bookkeeping():
    rng = np.random.default_rng(21)
    for _ in range(50):
        j = random_jet(rng, 2)
        sc = shiffman_complex(j)
        assert abs(sc.real - shiffman(j)) < 1e-13
    # catenoid: bracket real, so S + iS* is purely imaginary
    sc = shiffman_complex(exp_jet(0.1, 2))
    assert abs(sc.real) < 1e-14 and abs(sc.imag) > 1e-16
    # on the curve: S = 0, S* generally not
    params = CurveParams(2.0)
    pts = curve.random_regular_points(params, 20, np.random.default_rng(2))
    vals = shiffman_complex(msigma_jet(params, pts, 2))
    assert np.max(np.abs(vals.real)) < 1e-9
    assert np.max(np.abs(vals.imag)) > 1e-3


def test_shiffman_rotation_invariance():
    rng = np.random.default_rng(31)
    for _ in range(20):
        j = random_jet(rng, 2)
        th = rng.uniform(0, 2 * np.pi)
        rot = Jet(j.values * np.exp(1j * th))
        assert abs(shiffman(rot) - shiffman(j)) < 1e-12


def test_shiffman_velocity():
    j = exp_jet(0.0, 3)
    assert abs(shiffman_velocity(j)[0] + 0.25j) < 1e-14
    assert shiffman_velocity(Jet([2.0, 0, 0, 0]))[0] == 0.0
    rng = np.random.default_rng(13)
    for _ in range(10):
        j = random_jet(rng, 3)
        c = 1.7 - 0.3j
        scaled = Jet(c * j.values)
        assert abs(shiffman_velocity(scaled)[0]
                   - c * shiffman_velocity(j)[0]) < 1e-10 * abs(c)


def test_shiffman_velocity_moves_the_log_derivative_by_mkdv():
    # g_t = V gives x_t = (V/g)' for x = g'/g, and V/g = (i/2)(x'' - x^3/2),
    # so the Shiffman flow of g is the mKdV flow of x
    rng = np.random.default_rng(37)
    for _ in range(50):
        g = random_jet(rng, 6)
        assert abs((shiffman_velocity(g) / g).d(1)[0]
                   - mkdv_flow(g.d(1) / g)[0]) < 1e-12


def test_shiffman_is_the_y_derivative_of_the_level_curvature():
    # height x = Re xi, so the level sections run along y: the Shiffman
    # function is 2 Lambda d/dy of the raw bracket (the 2 undoes the
    # bracket's factor 1/2), Lambda = (|g| + 1/|g|)/2 the metric factor
    def jet(xi):  # g = exp(xi + 0.3 xi^2 + 0.1i xi^3)
        g = np.exp(xi + 0.3 * xi ** 2 + 0.1j * xi ** 3)
        dp = 1.0 + 0.6 * xi + 0.3j * xi ** 2
        return Jet([g, g * dp, g * (dp * dp + 0.6 + 0.6j * xi)])

    h = 1e-5
    xi = np.array([0.2 + 0.1j, -0.3 + 0.4j, 0.5 - 0.2j])
    dk = (level_curvature_raw(jet(xi + 1j * h))
          - level_curvature_raw(jet(xi - 1j * h))) / (2 * h)
    ag = np.abs(jet(xi)[0])
    s = shiffman(jet(xi))
    assert dk.shape == s.shape == (3,)
    assert np.all(np.abs(s) > 1e-2)
    assert s == pytest.approx(2.0 * 0.5 * (ag + 1.0 / ag) * dk, rel=1e-7)


# --- potential, Miura, flows -------------------------------------------------


def test_potential_u_catenoid():
    u = potential_u(exp_jet(0.4 - 0.2j, 6))
    assert abs(u[0] + 0.25) < 1e-14
    assert np.max(np.abs(u.values[1:])) < 1e-13


def test_potential_u_is_miura_of_log_derivative():
    # miura(g'/g) written out in g: -3(g')^2/(4g^2) + g''/(2g)
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_jet(rng, 5)
        gp = g.d(1)
        u1 = potential_u(g)
        u2 = -0.75 * (gp * gp) / (g * g) + g.d(2) / (2.0 * g)
        assert u1.order == u2.order == 3
        diff = np.abs(u1.values - u2.values)
        assert np.max(diff / (1.0 + np.abs(u1.values))) < 1e-12


def test_potential_u_domain_scaling():
    rng = np.random.default_rng(19)
    g = random_jet(rng, 6)
    c = 1.37
    u = potential_u(g)
    u_scaled = potential_u(g.scale_domain(c))
    # xi -> c xi multiplies u by c^2 and each derivative by another c
    expect = (c ** 2) * u.scale_domain(c).values
    assert np.max(np.abs(u_scaled.values - expect)) < 1e-10


def test_kdv_flow_examples():
    # the KdV flow is flow_n(1, u) = -u''' - 6 u u'
    assert flow_n(1, Jet([2.0, 0, 0, 0])) == 0.0
    u = potential_u(exp_jet(0.2, 6))
    assert abs(flow_n(1, u)) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(50):
        j = random_jet(rng, 3)
        assert abs(flow_n(1, j) - (-j[3] - 6.0 * j[0] * j[1])) < 1e-12


def test_mkdv_flow_examples():
    assert mkdv_flow(Jet([1.0, 0, 0, 0]))[0] == 0.0 + 0.0j
    assert abs(mkdv_flow(Jet([1.0, 0.0, 0.0, 2.0]))[0] - 1j) < 1e-15
    # entry 1 of the jet is d/dz of (i/2)(x''' - (3/2) x^2 x')
    x = random_jet(np.random.default_rng(27), 5)
    want = 0.5j * (x[4] - 1.5 * (2.0 * x[0] * x[1] ** 2 + x[0] ** 2 * x[2]))
    assert mkdv_flow(x).order == 2
    assert abs(mkdv_flow(x)[1] - want) < 1e-12


def test_miura_chain_rule_bridges_mkdv_to_kdv():
    # d/dt u under the mKdV flow equals -(i/2) * (-u''' - 6uu'); the -i/2 is
    # forced by the i/2 normalization of mkdv_flow (see its docstring)
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = random_jet(rng, 6, scale=0.7)
        xdot = mkdv_flow(x)                 # jet of dx/dt (order >= 1)
        u = miura(x)                        # u = x'/2 - x^2/4
        udot = 0.5 * xdot.d(1) - 0.5 * (x * xdot)
        bridge = -0.5j * flow_n(1, u)
        assert abs(udot[0] - bridge) < 1e-10


# --- hierarchy ---------------------------------------------------------------


def test_hierarchy_printed_forms():
    assert hierarchy_P(0).terms == {(): Fraction(1, 2)}
    assert hierarchy_P(1).terms == {(0,): Fraction(1)}
    assert hierarchy_P(2).terms == {(2,): Fraction(1), (0, 0): Fraction(3)}
    assert str(hierarchy_P(2)) == "u'' + 3 u^2"
    assert str(hierarchy_P(3)) == "u'''' + 10 u u'' + 5 u'^2 + 10 u^3"


def _naive_terms_mul(terms, factor):
    return {tuple(sorted(m + (factor,), reverse=True)): c
            for m, c in terms.items()}


def _naive_derivative(terms):
    out = {}
    for m, c in terms.items():
        for i in range(len(m)):
            key = tuple(sorted(m[:i] + (m[i] + 1,) + m[i + 1:], reverse=True))
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def test_p3_against_independent_recurrence():
    # independently expand (d^3 + 4u d + 2u') P2 and compare with d(P3)
    p2 = {(2,): Fraction(1), (0, 0): Fraction(3)}
    d1 = _naive_derivative(p2)
    d3 = _naive_derivative(_naive_derivative(d1))
    rhs = dict(d3)
    for m, c in _naive_terms_mul(d1, 0).items():
        rhs[m] = rhs.get(m, Fraction(0)) + 4 * c
    for m, c in _naive_terms_mul(p2, 1).items():
        rhs[m] = rhs.get(m, Fraction(0)) + 2 * c
    rhs = {k: v for k, v in rhs.items() if v}
    dp3 = hierarchy_P(3).derivative().terms
    assert rhs == dp3
    assert hierarchy_P(3).terms == {(4,): Fraction(1), (2, 0): Fraction(10),
                                    (1, 1): Fraction(5),
                                    (0, 0, 0): Fraction(10)}


@pytest.mark.parametrize("n", range(6))
def test_recurrence_defect_exact_and_on_jets(n):
    p = hierarchy_P(n)
    lhs = (p.derivative().derivative().derivative()
           + p.derivative().mul_factor(0).scale(4) + p.mul_factor(1).scale(2))
    rhs = hierarchy_P(n + 1).derivative()
    diff = lhs + rhs.scale(-1)
    assert diff.terms == {}
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        j = random_jet(rng, 2 * n + 3, scale=0.5)
        assert abs(lhs.evaluate(j) - rhs.evaluate(j)) < 1e-10


def test_antiderivative_round_trip_and_failure():
    for n in range(1, 7):
        q = hierarchy_P(n).derivative()
        back = q.antiderivative()
        assert (back.derivative() + q.scale(-1)).terms == {}
    with pytest.raises(NotExactDerivative):
        DiffPoly({(0,): Fraction(1)}).antiderivative()  # plain u
    with pytest.raises(NotExactDerivative):
        DiffPoly({(2, 2): Fraction(1)}).antiderivative()  # (u'')^2


def test_derivative_vs_finite_difference_along_jet_path():
    # evaluate(dP) is the t-derivative of evaluate(P) along u(t) jets
    rng = np.random.default_rng(41)
    P = hierarchy_P(3)
    dP = P.derivative()
    base = random_jet(rng, 9, scale=0.4)
    h = 1e-5

    def shift_eval(eps, poly):
        # u(xi + eps) jets via Taylor re-expansion
        vals = base.values
        n = len(vals)
        out = np.zeros(poly.max_order() + 1, dtype=complex)
        for k in range(len(out)):
            out[k] = sum(vals[k + m] * eps ** m / math.factorial(m)
                         for m in range(n - k))
        return poly.evaluate(Jet(out))

    fd = (shift_eval(h, P) - shift_eval(-h, P)) / (2 * h)
    assert abs(fd - shift_eval(0.0, dP)) < 1e-7


def test_flow_basics():
    rng = np.random.default_rng(43)
    j = random_jet(rng, 3)
    assert abs(flow_n(0, j) + j[1]) < 1e-14
    for _ in range(50):
        j = random_jet(rng, 5)
        # flow 2, -d/dz (u'''' + 10uu'' + 5u'^2 + 10u^3), written out
        u = j.values
        assert abs(flow_n(2, j) + u[5] + 10 * u[0] * u[3] + 20 * u[1] * u[2]
                   + 30 * u[0] ** 2 * u[1]) < 1e-12
    const = Jet([0.7 + 0.1j] + [0.0] * 11)
    for n in range(6):
        assert abs(flow_n(n, const)) < 1e-14
    with pytest.raises(JetTooShort):
        flow_n(2, Jet([1.0, 0.0, 0.0, 0.0]))


# --- Jacobi operator ---------------------------------------------------------


def perturbed_catenoid_jet(xi, eps=0.05, order=3):
    vals = [np.exp(xi) + eps * (2.0 ** k) * np.exp(2 * xi)
            for k in range(order + 1)]
    return Jet(vals)


def grid_jet(n, spacing, eps=0.05):
    """g-jet on the n x n grid xi = 0.1 + i spacing + 1j (0.1 + k spacing),
    point axes (i, k)."""
    steps = 0.1 + spacing * np.arange(n)
    return perturbed_catenoid_jet(steps[:, None] + 1j * steps[None, :], eps)


def test_jacobi_residual_shiffman_field_converges():
    res = {}
    for n, sp in ((32, 0.02), (64, 0.01)):
        g = grid_jet(n, sp)
        res[sp] = jacobi_residual(g, shiffman(g), sp)
    assert res[0.01] < 1e-2
    assert res[0.02] / res[0.01] > 2.5  # ~O(h^2)


def test_jacobi_residual_vertical_translation_field():
    res = {}
    for n, sp in ((32, 0.02), (64, 0.01)):
        g = grid_jet(n, sp)
        ag2 = np.abs(g[0]) ** 2
        res[sp] = jacobi_residual(g, (ag2 - 1.0) / (ag2 + 1.0), sp)
    assert res[0.01] < 1e-2
    assert res[0.02] / res[0.01] > 2.5


def test_jacobi_residual_zero_field_and_small_grid():
    g = grid_jet(8, 0.01)
    assert g.values.shape == (4, 8, 8)
    assert jacobi_residual(g, np.zeros((8, 8)), 0.01) == 0.0
    with pytest.raises(GridTooSmall):
        jacobi_residual(grid_jet(2, 0.01), np.zeros((2, 2)), 0.01)
    with pytest.raises(ValueError, match="shape"):
        jacobi_residual(g, np.zeros((8, 7)), 0.01)
    with pytest.raises(PoleOfGaussMap):
        jacobi_residual(Jet(0.0 * g.values), np.zeros((8, 8)), 0.01)


# --- algebro-geometric measurement -------------------------------------------


def test_algebro_geometric_measurement_sigma2():
    params = CurveParams(2.0)
    rng = np.random.default_rng(7)
    pts = curve.random_regular_points(params, 60, rng)
    fit = algebro_geometric_residual(params, 1, pts)
    assert fit.residual < 1e-9
    assert not fit.rank_deficient
    # the potential satisfies u'' + 3u^2 = cu + d exactly, with the fitted
    # combination coefficient -(sigma-1)/2
    assert abs(fit.coefficients[0] + 0.5) < 1e-6
    pts2 = curve.random_regular_points(params, 120, rng)
    fit2 = algebro_geometric_residual(params, 1, pts2)
    assert abs(fit.residual - fit2.residual) < 1e-6
    assert abs(fit2.coefficients[0] - fit.coefficients[0]) < 1e-6


def test_algebro_geometric_zero_convention():
    none = CurvePoint(np.empty(0, complex), np.empty(0, complex))
    fit = algebro_geometric_residual(CurveParams(2.0), 1, none)
    assert fit.residual == 0.0 and not fit.rank_deficient


@pytest.mark.parametrize("sigma", [0.3, 2.0, 8.0])
def test_algebro_geometric_fit_matches_the_point_loop(sigma):
    params = CurveParams(sigma)
    pts = curve.random_regular_points(params, 60, np.random.default_rng(7))
    fit = algebro_geometric_residual(params, 1, pts)
    coef, residual = scalar.algebro_geometric_fit(params, 1, [
        CurvePoint(z, w) for z, w in zip(pts.z.tolist(), pts.w.tolist())])
    # the coefficient is (1 - sigma)/2; the residual is rounding noise
    assert abs(fit.coefficients[0] - coef[0]) <= 1e-12 * abs(coef[0])
    assert abs(coef[0] - 0.5 * (1.0 - sigma)) < 1e-12 * (1.0 + sigma)
    assert max(fit.residual, residual) < 1e-12
    # off the curve the fit has an O(0.1) residual to compare
    off = CurvePoint(pts.z, pts.w * (1.0 + 1e-3))
    fit = algebro_geometric_residual(params, 1, off)
    coef, residual = scalar.algebro_geometric_fit(params, 1, [
        CurvePoint(z, w) for z, w in zip(off.z.tolist(), off.w.tolist())])
    assert abs(fit.coefficients[0] - coef[0]) <= 1e-12 * abs(coef[0])
    assert residual > 0.05
    assert fit.residual == pytest.approx(residual, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.3, 2.0, 8.0])
def test_algebro_geometric_fit_reports_rank_at_n2(sigma):
    # on the curve flow_1 = (1 - sigma)/2 flow_0 up to rounding, so the n = 2
    # design matrix has rank 1: the fit says so and returns the minimum-norm
    # coefficients c, c_1 = (1 - sigma)/2 c_0, whichever points it is given
    params = CurveParams(sigma)
    fits = [algebro_geometric_residual(params, 2, curve.random_regular_points(
        params, 60, np.random.default_rng(seed))) for seed in (7, 8)]
    a, b = (fit.coefficients for fit in fits)
    assert all(fit.rank_deficient for fit in fits)
    assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(a))
    assert abs(a[1] - 0.5 * (1.0 - sigma) * a[0]) <= 1e-9 * abs(a[0])
    assert max(fit.residual for fit in fits) < 1e-9


@pytest.mark.parametrize("sigma", [0.3, 2.0, 8.0])
def test_algebro_geometric_fit_at_n1_keeps_the_default_cutoff(sigma):
    # one column has one singular value: the cutoff changes no bit at n = 1
    params = CurveParams(sigma)
    pts = curve.random_regular_points(params, 60, np.random.default_rng(7))
    fit = algebro_geometric_residual(params, 1, pts)
    u = potential_u(msigma_jet(params, pts, 5))
    coef = np.linalg.lstsq(flow_n(0, u)[:, None], flow_n(1, u), rcond=None)[0]
    assert not fit.rank_deficient
    assert fit.coefficients.tobytes() == coef.tobytes()
