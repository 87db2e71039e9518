import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curve_quadrature as kernel
import scalar_references as scalar
from curve_quadrature import BranchAmbiguity, ClearanceViolation
from riemann_minimal import checks, classical, curve, mesh, quad
from riemann_minimal.curve import CurveParams, CurvePoint, PoleOfGaussMap


def dense_branch(params, a, b, w, steps):
    """w at a + (b - a) t for t in linspace(0, 1, steps)[1:], tracked by
    brute-force nearest-sign steps from w at a."""
    out = []
    for t in np.linspace(0.0, 1.0, steps)[1:]:
        z = a + (b - a) * t
        c = np.sqrt(complex(curve.curve_poly(params, z)))
        if abs(c - w) > abs(c + w):
            c = -c
        w = c
        out.append(w)
    return out


def dense_track(params, nodes, w0, steps=100000):
    """Brute-force sign tracking oracle for the branch the march continues."""
    w = complex(w0)
    nodes = [complex(n) for n in nodes]
    for a, b in zip(nodes[:-1], nodes[1:]):
        w = dense_branch(params, a, b, w, steps)[-1]
    return w


def circle(c, r, n=48, turns=1):
    ang = np.linspace(0, 2 * np.pi * turns, n * turns + 1)
    return list(c + r * np.exp(1j * ang))


def test_continue_straight_segment_against_dense_oracle():
    params = CurveParams(1.0)
    w = scalar.march(params, [2, 3], math.sqrt(6.0))[1].w
    assert abs(w - math.sqrt(24.0)) < 1e-12
    oracle = dense_track(params, [2, 3], math.sqrt(6.0))
    assert abs(w - oracle) < 1e-10


def test_monodromy_single_and_double():
    params = CurveParams(1.0)
    w0 = np.sqrt(complex(curve.curve_poly(params, 1.5 + 0j)))
    # loop around z=1 only: sign flips
    w1 = scalar.march(params, circle(1.0, 0.5 + 0j, 64),
                      np.sqrt(complex(curve.curve_poly(params, 1.5))))[1].w
    assert abs(w1 + np.sqrt(complex(curve.curve_poly(params, 1.5)))) < 1e-9
    # loop around both 0 and 1: two flips cancel (radius clears -sigma = -1)
    start = 0.5 + 1.2
    w_start = np.sqrt(complex(curve.curve_poly(params, start)))
    w2 = scalar.march(params, circle(0.5, 1.2, 96), w_start)[1].w
    assert abs(w2 - w_start) < 1e-9


def test_branch_round_trip_identity():
    params = CurveParams(2.0)
    nodes = [2.0, 1.5 + 1.2j, -0.5 + 1.5j, 0.4 + 0.4j]
    w0 = math.sqrt(2.0 * 1.0 * 4.0)  # p(2) with sigma = 2
    w = scalar.march(params, nodes + nodes[-2::-1], w0)[1].w
    assert abs(w - w0) < 1e-10 * abs(w0)


def test_clearance_violation():
    # a path need only stay off the branch points: 1e-4 from z = 1 is
    # fine, a real-axis segment across z = 0 or z = 1 is not (an exact
    # on-segment test)
    params = CurveParams(2.0)
    scalar.march(params, [2.0, 1.0001, 2.0 + 1j], math.sqrt(8.0))
    w = [np.sqrt(complex(curve.curve_poly(params, z))) for z in (0.99, 0.5)]
    with pytest.raises(ClearanceViolation, match=r"branch point 0j"):
        kernel._integrate_segments(params, [0.99], [-2.0], w[:1])
    with pytest.raises(ClearanceViolation, match=r"branch point \(1\+0j\)"):
        scalar.march(params, [0.5, 1.5, 2.0 + 1j], w[1])


def test_branch_ambiguity_on_zero_crossing():
    # a segment that passes 1e-14 from w = 0 at z = 1: no bisection point
    # lands on z = 1, and the turn test still fails at 1e-12 of the
    # segment's length
    params = CurveParams(2.0)
    za = 0.3 + 1e-14j
    w0 = np.sqrt(curve.curve_poly(params, za))
    with pytest.raises(BranchAmbiguity):
        kernel._integrate_segments(params, [za], [1.6 + 1e-14j], [w0])
    with pytest.raises(BranchAmbiguity):  # starting at w = 0
        scalar.march(params, [1.5, 2.0], 0.0)


def test_nonclosing_loop_rejected():
    # a single circle around one branch point flips w: not a closed lift
    params = CurveParams(2.0)
    with pytest.raises(BranchAmbiguity):
        kernel._make_loop(params, "bogus", 1.0, 0.4, 48, turns=1)


@pytest.mark.parametrize("sigma", [0.05, 2.0, 8.0])
def test_single_turn_end_loop_rejected(sigma):
    # z = 0 is a branch point: one turn around it flips w, two close the lift
    params = CurveParams(sigma)
    radius = 0.3 * min(1.0, sigma)
    with pytest.raises(BranchAmbiguity):
        kernel._make_loop(params, "end_loop", 0.0, radius, 64, turns=1)
    loop = kernel._make_loop(params, "end_loop", 0.0, radius, 64, turns=2)
    assert loop.base.w == np.sqrt(complex(curve.curve_poly(params, radius)))


def test_immerse_identity_and_round_trip():
    params = CurveParams(2.0)
    base = kernel.basepoint(params)
    pos, end = scalar.march(params, [base.z], base.w, (1.0, 2.0, 3.0))
    assert np.allclose(pos, [1, 2, 3])
    nodes = [base.z, 1.5 + 0.8j, 0.3 + 1.1j]
    pos, end = scalar.march(params, nodes + nodes[-2::-1], base.w,
                            (0.0, 0.0, 0.0))
    assert np.max(np.abs(pos)) < 1e-8
    assert abs(end.w - base.w) < 1e-9


def test_immerse_batch_is_the_paths_one_by_one():
    # m polylines in one call give each path's own result, bit for bit (a
    # leaf's integral does not depend on its batch), ending on a branch
    # point or not
    params = CurveParams(2.0)
    base = kernel.basepoint(params)
    nodes = np.array([[base.z, 1.5 + 0.8j, 0.3 + 1.1j],
                      [0.5 + 0.5j, -1.0 + 0.7j, -2.0 + 0j],
                      [3.0 + 0j, 2.0 + 1j, 1.0 + 0j]])
    w0 = -np.sqrt(curve.curve_poly(params, nodes[:, 0]))
    start = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-1.0, 0.5, 0.0]])
    pos, end = scalar.march(params, nodes, w0, start)
    assert pos.shape == (3, 3) and end.w.shape == (3,)
    assert np.array_equal(end.z, nodes[:, -1])
    for i in range(3):
        p, e = scalar.march(params, nodes[i], w0[i], start[i])
        assert p.tobytes() == pos[i].tobytes()
        assert e == curve.CurvePoint(nodes[i, -1], end.w[i])


def _mpmath_segment(params, za, zb, w0, breaks=(), steps=5001):
    """int (phi1, phi2, phi3) along za -> zb by 30-digit tanh-sinh
    quadrature, on the branch dense_branch tracks from w0 (each node takes
    the root nearer the tracked value at the nearest grid point)."""
    grid = [complex(w0)] + dense_branch(params, za, zb, complex(w0), steps)
    with mpmath.workdps(30):
        a, d = mpmath.mpc(za), mpmath.mpc(zb) - mpmath.mpc(za)
        rs = mpmath.sqrt(params.sigma)

        cache = {}  # the three quadratures share their nodes

        def phi(t):
            if t not in cache:
                z = a + d * t
                w = mpmath.sqrt(z * (z - 1) * (z + params.sigma))
                near = grid[min(int(mpmath.nint(t * (steps - 1))), steps - 2)]
                if abs(complex(w) - near) > abs(complex(w) + near):
                    w = -w
                g = z / rs
                cache[t] = [v * d / w for v in ((1 / g - g) / 2,
                                                 1j * (1 / g + g) / 2, 1)]
            return cache[t]

        return [complex(mpmath.quad(lambda t: phi(t)[k], [0, *breaks, 1]))
                for k in range(3)]


@pytest.mark.parametrize("sigma", [1e-3, 0.0167, 2.0, 8.0, 10.0, 100.0, 1e3])
def test_segment_kernel_against_mpmath_30_digits(sigma):
    # a regular edge passing 1e-3 from z = 1 (bisected by the turn test),
    # the entry edge that starts 1e-2 from z = 1, and edges ending on the
    # branch points 1 and -sigma (singular leaves)
    params = CurveParams(sigma)
    edges = [(0.77 + 1e-3j, 1.2 + 1e-3j, [0.23 / 0.43]),
             (1.0 - kernel.BASEPOINT_OFFSET + 0j, 0.5 + 0j, []),
             (0.6 + 0.5j, 1.0 + 0j, []),
             (-sigma + (-0.5 + 0.6j) * min(1.0, sigma), complex(-sigma), [])]
    for za, zb, breaks in edges:
        wa = np.sqrt(complex(curve.curve_poly(params, za)))
        totals, w_end = kernel._integrate_segments(params, [za], [zb], [wa])
        want = np.array(_mpmath_segment(params, za, zb, wa, breaks))
        scale = np.max(np.abs(want))
        if zb == -sigma and sigma >= 100.0:
            # this edge's integral shrinks like sigma^-1/2 while z + sigma
            # carries an absolute rounding of sigma * eps (error 5e-13 on
            # |I| 0.03 at 1e3): bound it absolutely, as the kernel's own
            # max(ABS_TOL, REL_TOL |total|) does below |total| 1
            scale = max(1.0, scale)
        assert np.max(np.abs(totals[0] - want)) <= 1e-12 * scale
        if zb in curve.branch_points(params):
            assert w_end[0] == 0.0
        else:
            assert abs(w_end[0] - dense_track(params, [za, zb], wa)) < 1e-12
    # the anchor paths close: 2 t0 is the gamma2 period's real part
    t0 = mesh.FundamentalSurface(sigma).translation_half()
    period = kernel.period(params, kernel.gamma2_loop(params))
    assert np.max(np.abs(2.0 * t0 - period.real)) <= 1e-11


def test_leaf_below_coordinate_resolution_raises(monkeypatch):
    # at tolerance 1e-13 the edge 0.6 + 0.5j -> 1 at sigma 10 bisects
    # toward z = 1 until the split point of a singular leaf rounds onto
    # z = 1 in its real part; bisecting on from there returned a value
    # 1.7e-9 off.  At the default tolerances the rule never fires.
    params = CurveParams(10.0)
    za, zb = 0.6 + 0.5j, 1.0 + 0j
    wa = np.sqrt(complex(curve.curve_poly(params, za)))

    def integral():
        return kernel._integrate_segments(params, [za], [zb], [wa])[0][0]

    default = integral()
    # with the rule off: the same bits at the defaults, a wrong value at 1e-13
    with monkeypatch.context() as m:
        m.setattr(kernel, "_onto_end",
                  lambda x, y, mid: np.zeros(np.shape(x), dtype=bool))
        assert np.array_equal(integral(), default)
        m.setattr(quad, "ABS_TOL", 1e-13)
        m.setattr(quad, "REL_TOL", 1e-13)
        assert np.max(np.abs(integral() - default)) > 1e-10
    monkeypatch.setattr(quad, "ABS_TOL", 1e-13)
    monkeypatch.setattr(quad, "REL_TOL", 1e-13)
    with pytest.raises(kernel.SubdivisionLimit,
                       match=r"leaf \(0\.9999999999999999\+[-+.e0-9]+j\) -> "
                             r"\(1\+0j\) has no split point between its ends: "
                             r"error [.e0-9+-]+, tol 1\.000e-13"):
        integral()


def test_immerse_line_property_on_unit_segment():
    # sigma = 2: points of (0,1) all map to a line parallel to the x2-axis
    params = CurveParams(2.0)
    base = kernel.basepoint(params)
    rho = kernel.BASEPOINT_OFFSET
    arc = [1.0 + rho * np.exp(1j * th) for th in np.linspace(0, np.pi, 7)]
    imgs = []
    for target in (0.8, 0.55, 0.3, 0.12):
        pos, _ = scalar.march(params, arc + [target], base.w)
        imgs.append(pos)
    imgs = np.array(imgs)
    assert np.ptp(imgs[:, 0]) < 1e-6
    assert np.ptp(imgs[:, 2]) < 1e-6
    assert np.ptp(imgs[:, 1]) > 0.1


def test_gaussian_curvature_values_and_catenoid_oracle():
    assert curve.gaussian_curvature(1.0, 0.0) == 0.0
    # catenoid neck normalization g = e^xi, phi3 = d(xi): K(0) = -1
    assert abs(curve.gaussian_curvature(1.0, 1.0) + 1.0) < 1e-14
    # oracle: FD fundamental forms of the catenoid immersion built from the
    # Weierstrass integrals with g = e^xi
    def X(xi):
        # X = Re int (phi1, phi2, phi3) d xi from 0, closed forms:
        # phi1 = (e^-xi - e^xi)/2 = -sinh xi, phi2 = i cosh xi, phi3 = 1
        return np.array([(-np.cosh(xi) + 1).real,
                         (1j * np.sinh(xi)).real, xi.real])

    h = 1e-5

    def sample(i, j):
        return X(complex(i * h, j * h))

    H, conf, orth = checks.fd_surface_checks(sample, h)
    # the same stencil at several anchors as one call with a trailing point
    # axis gives each anchor the bits of its own scalar call
    xi0 = [0.0, 0.3 - 0.2j, -0.7 + 1.1j, 1.5 + 0.4j]
    batch = checks.fd_surface_checks(
        lambda i, j: np.stack([X(x + complex(i * h, j * h)) for x in xi0],
                              axis=-1), h)
    for k, x in enumerate(xi0):
        one = checks.fd_surface_checks(
            lambda i, j: X(x + complex(i * h, j * h)), h)
        assert [v[k] for v in batch] == list(one)
    assert [v[0] for v in batch] == [H, conf, orth]
    # second fundamental form based curvature: K = (eg - f^2)/(EG - F^2)
    Xc = sample(0, 0)
    Xu = (sample(1, 0) - sample(-1, 0)) / (2 * h)
    Xv = (sample(0, 1) - sample(0, -1)) / (2 * h)
    Xuu = (sample(1, 0) - 2 * Xc + sample(-1, 0)) / h ** 2
    Xvv = (sample(0, 1) - 2 * Xc + sample(0, -1)) / h ** 2
    Xuv = (sample(1, 1) - sample(1, -1) - sample(-1, 1) + sample(-1, -1)) / (4 * h ** 2)
    nrm = np.cross(Xu, Xv)
    nrm /= np.linalg.norm(nrm)
    E, F, G = Xu @ Xu, Xu @ Xv, Xv @ Xv
    e, f, g = Xuu @ nrm, Xuv @ nrm, Xvv @ nrm
    K_fd = (e * g - f * f) / (E * G - F * F)
    assert abs(K_fd + 1.0) < 1e-4
    # asymptotic flatness
    assert abs(curve.gaussian_curvature(1e8, 1e8)) < 1e-15
    # elementwise on arrays, each entry as its scalar call
    g = np.array([[1.0, 0.5 - 2j], [1e8, 3j]])
    gp = np.array([[1.0, 0.3j], [1e8, -1.0 + 2j]])
    K = curve.gaussian_curvature(g, gp)
    assert K.shape == (2, 2)
    np.testing.assert_allclose(K, [[curve.gaussian_curvature(a, b)
                                    for a, b in zip(ra, rb)]
                                   for ra, rb in zip(g, gp)], rtol=1e-15)


def test_periods_and_flux_sigma2():
    params = CurveParams(2.0)
    p1 = curve.period(params, "gamma1")
    assert np.max(np.abs(p1.real)) < 1e-7
    # frozen regression baseline for the gamma1 flux (= Im of the period)
    f1 = curve.flux(params, "gamma1")
    assert np.allclose(f1, [-1.34413627, 0.0, 4.00430952], atol=1e-6)
    p2 = curve.period(params, "gamma2")
    assert abs(p2.real[1]) < 1e-7
    assert np.allclose(p2.real, [2.86524775, 0.0, 4.68568034], atol=1e-6)
    # flux of the translation class vanishes (period is purely real)
    assert np.max(np.abs(curve.flux(params, "gamma2"))) < 1e-7


@pytest.mark.parametrize("sigma", [0.0167, 2.0, 8.0])
def test_period_reuses_the_closure_march(sigma, monkeypatch):
    params = CurveParams(sigma)
    loops = [kernel.gamma1_loop(params), kernel.gamma2_loop(params),
             kernel.end_loop(params)]
    calls = []
    march = kernel._march

    def counting(*args, **kwargs):
        calls.append(1)
        return march(*args, **kwargs)

    monkeypatch.setattr(kernel, "_march", counting)
    for loop in loops:
        got = kernel.period(params, loop)
        assert not calls
        # the same loop without the stored integrals is marched again
        bare = kernel.HomologyLoop(loop.kind, loop.base, loop.nodes)
        assert np.array_equal(got, kernel.period(params, bare))
        assert len(calls) == 1
        with monkeypatch.context() as tighter:
            tighter.setattr(quad, "ABS_TOL", 1e-12)
            tighter.setattr(quad, "REL_TOL", 1e-12)
            finer = kernel.period(params, bare)
        assert len(calls) == 2 and np.allclose(finer, got, atol=1e-9)
        del calls[:]
    got[:] = 0.0  # the returned array is a copy
    assert np.any(kernel.period(params, loops[-1]) != 0.0)


def test_period_double_traversal_scales():
    params = CurveParams(0.8)
    loop = kernel.gamma1_loop(params)
    double = kernel.HomologyLoop("gamma1", loop.base,
                                 loop.nodes + loop.nodes[1:])
    p1 = kernel.period(params, loop)
    p2 = kernel.period(params, double)
    assert np.max(np.abs(p2 - 2 * p1)) < 1e-8


def test_flux_end_loop_and_reversal():
    params = CurveParams(2.0)
    el = kernel.end_loop(params)
    assert np.max(np.abs(kernel.flux(params, el))) < 1e-7
    # the other planar end (z = infinity) carries nothing either
    el_inf = kernel.end_loop(params, which="infinity")
    assert np.max(np.abs(kernel.period(params, el_inf))) < 1e-7
    g1 = kernel.gamma1_loop(params)
    rev = kernel.HomologyLoop("gamma1", curve.CurvePoint(
        g1.nodes[-1], g1.base.w), g1.nodes[::-1])
    assert np.max(np.abs(kernel.flux(params, rev)
                         + kernel.flux(params, g1))) < 1e-8


def test_apply_symmetry():
    params = CurveParams(1.0)
    pt = CurvePoint(2.0 + 0j, complex(math.sqrt(6.0)))
    s2 = curve.apply_symmetry(params, "S2", pt)
    assert s2.z == 2.0 and abs(s2.w + math.sqrt(6.0)) < 1e-15
    twice = curve.apply_symmetry(params, "S1",
                                 curve.apply_symmetry(params, "S1", pt))
    assert abs(twice.z - pt.z) < 1e-12 and abs(twice.w - pt.w) < 1e-12
    # S1 fixes z = i sqrt(sigma)
    sig = 3.0
    params3 = CurveParams(sig)
    zfix = 1j * math.sqrt(sig)
    pfix = CurvePoint(zfix, np.sqrt(complex(curve.curve_poly(params3, zfix))))
    img = curve.apply_symmetry(params3, "S1", pfix)
    assert abs(img.z - zfix) < 1e-14


@pytest.mark.parametrize("which", ["S1", "S2", "S3"])
def test_symmetry_action_residuals(which):
    params = CurveParams(3.0)
    rng = np.random.default_rng(11)
    pts = curve.random_regular_points(params, 50, rng)
    assert curve.verify_symmetry_action(params, which, pts) < 1e-9


def test_gauss_ode_residual():
    params = CurveParams(1.0)
    pt = CurvePoint(2.0 + 0j, complex(math.sqrt(6.0)))
    assert curve.gauss_ode_residual(params, pt) < 1e-12
    params2 = CurveParams(2.0)
    rng = np.random.default_rng(5)
    pts = curve.random_regular_points(params2, 100, rng)
    assert curve.gauss_ode_residual(params2, pts) < 1e-9
    for bp in (CurvePoint(1.0 + 0.0j, 0.0 + 0.0j), CurvePoint(0j, 0j)):
        assert curve.gauss_ode_residual(params2, bp) < 1e-15


@pytest.mark.parametrize("seed", [44, 1272])
def test_gauss_ode_residual_is_relative_to_the_largest_term(seed):
    # verify's 50 points at sigma 1e3: terms of ~1e6 at |z| ~ 800 left an
    # absolute defect of 7.0e-10 (seed 44) and 8.1e-10 (seed 1272), a few
    # ulps of the largest term; the 30-digit defect of the same float
    # points is as large, so it is the rounding of w, not of the check
    params = CurveParams(1e3)
    pts = curve.random_regular_points(params, 50, curve._SeededDraws(seed))
    assert curve.gauss_ode_residual(params, pts) < 1e-14
    with mpmath.workdps(30):
        s = mpmath.mpf(params.sigma)
        rs = mpmath.sqrt(s)
        for z, w in zip(pts.z.tolist(), pts.w.tolist()):
            g, gp = mpmath.mpc(z) / rs, mpmath.mpc(w) / rs
            exact = abs(gp ** 2 - g * (rs + g) * (rs * g - 1))
            largest = max(abs(gp) ** 2, rs * abs(g) ** 3,
                          (s - 1) * abs(g) ** 2, rs * abs(g))
            assert exact < 1e-15 * largest
    # a point off the curve still shows: w off by 1e-8 moves (g')^2 by
    # 2e-8 of itself
    off = CurvePoint(pts.z, pts.w * (1.0 + 1e-8))
    assert 1e-8 < curve.gauss_ode_residual(params, off) <= 2.1e-8


def test_conformality_and_harmonicity():
    H, conf, orth = checks.weierstrass_fd_grid(2.0, n_side=4, h=1e-4)
    assert conf < 1e-5 and orth < 1e-5
    # harmonicity: max |five-point Laplacian of X| over interior anchors
    X, hk = checks._weierstrass_stencil(2.0, 3, 1e-3, checks._STENCIL[:4])
    lap = X.sum(axis=1) / (hk * hk)[:, None]
    assert np.max(np.abs(lap)) < 1e-4


def test_double_zero_of_g_at_end():
    # local expansion of g at (0,0) in the local coordinate w has vanishing
    # constant and linear coefficients
    params = CurveParams(2.0)
    rho = 1e-2
    nodes = circle(0.0, rho, 48, turns=2)
    w = np.sqrt(complex(curve.curve_poly(params, nodes[0])))
    taus, gs = [], []
    for a, b in zip(nodes[:-1], nodes[1:]):
        w = scalar.march(params, [a, b], w)[1].w
        taus.append(w)
        gs.append(b / math.sqrt(params.sigma))
    A = np.column_stack([np.ones(len(taus)), taus, np.square(taus)])
    coef, *_ = np.linalg.lstsq(A, np.array(gs), rcond=None)
    scale = abs(coef[2]) * rho  # comparable magnitude of the quadratic term
    assert abs(coef[0]) < 1e-6 * scale
    assert abs(coef[1]) < 1e-6 * scale


def test_off_curve_point_and_branch_point_rejection():
    params = CurveParams(2.0)
    assert curve.on_curve_residual(params, CurvePoint(2.0 + 0j, 1.0 + 0j)) > 1e-9
    with pytest.raises(PoleOfGaussMap):
        scalar.WeierstrassForms.from_g(0.0)
    with pytest.raises(PoleOfGaussMap, match="g = 0j"):
        curve.gaussian_curvature(np.array([1.0, 0.0]), np.ones(2))
    with pytest.raises(PoleOfGaussMap):
        scalar.weierstrass_at(params, CurvePoint(1.0 + 0j, 0.0 + 0j))


def test_weierstrass_forms_null_quadric():
    # phi1^2 + phi2^2 + phi3^2 = 0 at random regular points
    params = CurveParams(3.0)
    rng = np.random.default_rng(8)
    pts = curve.random_regular_points(params, 30, rng)
    for z, w in zip(pts.z, pts.w):
        f = scalar.weierstrass_at(params, CurvePoint(z, w))
        s = f.phi1_density ** 2 + f.phi2_density ** 2 + f.phi3_density ** 2
        assert abs(s) < 1e-9 * abs(f.phi3_density) ** 2
    phi = curve._phi_vector(params, pts.z, pts.w)
    assert np.all(np.abs(np.sum(phi ** 2, axis=-1))
                  < 1e-9 * np.abs(phi[:, 2]) ** 2)


def test_phi_vector_matches_the_two_reciprocal_expression():
    # 1/g is computed once; the densities keep the bits of the expression
    # that divided twice
    params = CurveParams(2.7)
    rng = np.random.default_rng(11)
    z = (rng.standard_normal((3, 15000)) + 1j * rng.standard_normal((3, 15000))
         ) * 10.0 ** rng.integers(-3, 3, (3, 15000))
    w = np.sqrt(curve.curve_poly(params, z)) * rng.choice([-1.0, 1.0], z.shape)
    g, p3 = z / math.sqrt(params.sigma), 1.0 / w
    want = np.stack([0.5 * (1.0 / g - g) * p3, 0.5j * (1.0 / g + g) * p3, p3],
                    axis=-1)
    got = curve._phi_vector(params, z, w)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("sigma", [0.0167, 0.046, 0.1])
def test_small_sigma_conformality(sigma):
    # verify's call and thresholds; a fixed step h = 1e-4 failed here with
    # O(h^2) truncation in a chart that shrinks with sigma
    H, conf, orth = checks.weierstrass_fd_grid(sigma, n_side=6)
    assert max(conf, orth) < 1e-5
    assert H < 1e-3


def _same_points(a, b):
    """Bitwise equality of an array CurvePoint and a list of CurvePoints."""
    return (a.z.shape == (len(b),) and np.array_equal(a.z, [p.z for p in b])
            and np.array_equal(a.w, [p.w for p in b]))


@pytest.mark.parametrize("sigma", [1e-3, 0.0167, 2.78, 80.0])
@pytest.mark.parametrize("seed", [7, 2024])
def test_random_regular_points_match_the_scalar_loop(sigma, seed):
    # the documented draw order, taken one candidate at a time in scalar
    # arithmetic, gives the same bits and leaves the same generator state
    params = CurveParams(sigma)
    ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (50, 1000, 7, 1, 0, 3):
        assert _same_points(curve.random_regular_points(params, n, new),
                            scalar.random_regular_points(params, n, ref))
        assert new.bit_generator.state == ref.bit_generator.state
    assert new.random() == ref.random()


def test_random_regular_points_rejection_heavy_annulus(monkeypatch):
    # a rejection radius of (1 + sigma)/2 rejects about half of the annulus,
    # so the sampler tops up its draws over several rounds
    monkeypatch.setattr(curve, "SAMPLE_CLEARANCE", 0.5)
    params = CurveParams(400.0)
    ref, new = np.random.default_rng(7), np.random.default_rng(7)
    for n in (1000, 7, 50):
        stats = {}
        expect = scalar.random_regular_points(params, n, ref, stats=stats)
        assert stats["candidates"] > 1.2 * n
        got = curve.random_regular_points(params, n, new)
        assert _same_points(got, expect)
        assert new.bit_generator.state == ref.bit_generator.state
        near = np.abs(got.z[:, None] - np.array(curve.branch_points(params)))
        assert near.min() >= 0.5 * (1.0 + params.sigma)
    assert new.random() == ref.random()


def test_random_regular_points_argument_errors():
    params = CurveParams(2.0)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    empty = curve.random_regular_points(params, 0, rng)
    assert empty.z.shape == empty.w.shape == (0,)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        curve.random_regular_points(params, -1, rng)


def test_random_regular_points_take_any_generator():
    # any numpy Generator serves, not only the default PCG64
    params = CurveParams(2.0)
    a, b = (curve.random_regular_points(
        params, 200, np.random.Generator(np.random.Philox(7)))
        for _ in range(2))
    assert np.array_equal(a.z, b.z) and np.array_equal(a.w, b.w)
    assert np.max(curve.on_curve_residual(params, a)) < 1e-13
    pcg = curve.random_regular_points(params, 200, np.random.default_rng(7))
    assert not np.array_equal(a.z, pcg.z)


def test_cli_draws_are_the_standard_library_stream():
    # each value is one Random.random() call, rows in order, and a sign is
    # floor(2 u): the stream Python keeps for a seed across versions
    draws, stream = curve._SeededDraws(7), random.Random(7)
    assert draws.random((2, 3)).tolist() == [
        [stream.random() for _ in range(3)] for _ in range(2)]
    assert draws.integers(0, 2, 9).tolist() == [
        int(2.0 * stream.random()) for _ in range(9)]
    assert draws.random((0,)).shape == (0,)
    assert draws.random((1,))[0] == stream.random()


@pytest.mark.parametrize("sigma", [1e-3, 2.78, 80.0])
def test_random_regular_points_match_the_scalar_loop_on_cli_draws(sigma):
    # the sampler's draw order holds for the command line's draws too
    params = CurveParams(sigma)
    ref, new = curve._SeededDraws(7), curve._SeededDraws(7)
    for n in (50, 1000, 7, 0):
        assert _same_points(curve.random_regular_points(params, n, new),
                            scalar.random_regular_points(params, n, ref))
        assert new.random((1,)) == ref.random((1,))


@settings(max_examples=40, deadline=None)
@given(log_sigma=st.floats(-3.0, 4.0), seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, 300))
def test_random_regular_points_property(log_sigma, seed, n):
    params = CurveParams(10.0 ** log_sigma)
    pts = curve.random_regular_points(params, n, np.random.default_rng(seed))
    assert pts.z.shape == pts.w.shape == (n,)
    assert np.max(curve.on_curve_residual(params, pts)) < 1e-13
    near = np.abs(pts.z[:, None] - np.array(curve.branch_points(params)))
    assert near.min() >= curve.SAMPLE_CLEARANCE * (1.0 + params.sigma)
    # w is +-sqrt(p(z)); both signs occur, and the seed fixes the points
    root = np.sqrt(curve._cmul(curve._cmul(pts.z, pts.z - 1.0),
                               pts.z + params.sigma))
    flipped = pts.w == -root
    assert np.all(flipped | (pts.w == root))
    if n >= 60:
        assert flipped.any() and not flipped.all()
    again = curve.random_regular_points(params, n, np.random.default_rng(seed))
    assert np.array_equal(again.z, pts.z) and np.array_equal(again.w, pts.w)


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e4])
def test_random_regular_points_return_at_the_family_ends(sigma):
    # the default annulus is never covered by the rejection disks
    params = CurveParams(sigma)
    pts = curve.random_regular_points(params, 1000, np.random.default_rng(3))
    assert pts.z.shape == (1000,)
    assert np.max(curve.on_curve_residual(params, pts)) < 1e-13


@pytest.mark.parametrize("sigma", [0.3, 2.0, 8.0])
def test_array_point_checks_match_per_point_calls(sigma):
    # w moved off the curve by 1e-3 makes the residuals O(1e-3), so that
    # the batched and one-point values can be compared relatively
    params = CurveParams(sigma)
    pts = curve.random_regular_points(params, 60, np.random.default_rng(7))
    off = CurvePoint(pts.z, pts.w * (1.0 + 1e-3))
    singles = [CurvePoint(z, w) for z, w in zip(off.z.tolist(), off.w.tolist())]
    for which in ("S1", "S2", "S3"):
        img = curve.apply_symmetry(params, which, off)
        for i in (0, 17, 59):
            one = curve.apply_symmetry(params, which, singles[i])
            assert abs(img.z[i] - one.z) <= 1e-12 * abs(one.z)
            assert abs(img.w[i] - one.w) <= 1e-12 * abs(one.w)
        got = curve.verify_symmetry_action(params, which, off)
        want = max(curve.verify_symmetry_action(params, which, p)
                   for p in singles)
        assert want > 1e-5 and got == pytest.approx(want, rel=1e-12)
    got = curve.gauss_ode_residual(params, off)
    want = max(curve.gauss_ode_residual(params, p) for p in singles)
    assert want > 1e-5 and got == pytest.approx(want, rel=1e-12)
    assert curve.verify_symmetry_action(params, "S1", curve.CurvePoint(
        np.empty(0, complex), np.empty(0, complex))) == 0.0


# --- psi in closed form ------------------------------------------------------


def _psi_mpmath(sigma, z):
    """psi(z) and u = U(z) at 30 digits from mpmath's complex
    elliprf/elliprd, and the largest magnitude among the terms summed into
    psi."""
    with mpmath.workdps(30):
        s, z = mpmath.mpf(sigma), mpmath.mpc(z.real, z.imag)
        rs = mpmath.sqrt(s)
        w = mpmath.sqrt(z) * mpmath.sqrt(z - 1) * mpmath.sqrt(z + s)
        U = -2 * mpmath.elliprf(z, z - 1, z + s)
        V = -mpmath.mpf(2) / 3 * mpmath.elliprd(z - 1, z + s, z)
        t01 = 2 * rs / 3 * mpmath.elliprd(0, 1 + s, 1)
        t03 = 2 * mpmath.elliprf(0, 1, 1 + s)
        q = w / z / rs
        pos = [mpmath.re(rs * V - q) + t01, -mpmath.im(q), mpmath.re(U) + t03]
        scale = max(abs(rs * V), abs(q), abs(U), t01, t03)
        return ([float(x) for x in pos], complex(U), float(scale))


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_psi_against_mpmath_carlson(sigma):
    # interior points, points on the real boundary with +0j (and -0j, which
    # immerse reads as +0j), and points next to the three branch points
    rng = np.random.default_rng(5)
    R = 1.0 + sigma
    zs = list(R * (2.0 * rng.random(12) - 1.0) + 1j * R * rng.random(12))
    zs += [complex(x, 0.0) for x in (0.5, 3.0, -0.5 * sigma, -2.0 * R)]
    zs += [complex(0.5, -0.0), complex(-0.5 * sigma, -0.0)]
    for bp in (0.0, 1.0, -sigma):
        for d in (1e-12, 1e-6):
            for th in (0.0, 1.0, math.pi):
                zs.append(complex(bp + d * R * math.cos(th),
                                  d * R * math.sin(th)))
    zs = np.array(zs)
    pos, u = curve.immerse(CurveParams(sigma), zs)
    assert pos.shape == (len(zs), 3) and u.shape == (len(zs),)
    for z, p, uu in zip(zs, pos, u):
        want, want_u, scale = _psi_mpmath(sigma, z)
        assert np.max(np.abs(p - want)) <= 1e-15 * scale, z
        assert abs(uu - want_u) <= 1e-15 * scale, z


CI_SIGMAS = [1e-3, 0.012, 0.05, 1.0, 2.0, 8.0, 21.5, 100.0, 1e3,
             classical.sigma_of_lambda(31.59)]


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_jacobi_functions_against_mpmath(sigma):
    # sn, cn, dn at both parameters z_of_u takes, m = sigma/(1 + sigma)
    # and 1 - m, over [-K, K] and past it, against mpmath's ellipfun
    k, kc = math.sqrt(sigma / (1.0 + sigma)), math.sqrt(1.0 / (1.0 + sigma))
    with mpmath.workdps(30):
        s = mpmath.mpf(sigma)
        for a, b, m in ((k, kc, s / (1 + s)), (kc, k, 1 / (1 + s))):
            quarter = float(mpmath.ellipk(m))
            x = np.linspace(-1.3, 1.3, 53) * quarter
            got = curve._jacobi(x, a, b)
            for i, xi in enumerate(x):
                for name, g in zip(("sn", "cn", "dn"), got):
                    want = mpmath.ellipfun(name, mpmath.mpf(xi), m=m)
                    assert abs(g[i] - float(want)) <= 4e-16 * quarter, (
                        name, xi)


def _on_the_four_segments(sigma):
    """Interior points of the upper half-plane and points on the real
    segments (-inf, -sigma), (-sigma, 0), (0, 1) and (1, inf)."""
    R = 1.0 + sigma
    th = np.linspace(0.05, math.pi - 0.05, 9)
    inner = np.concatenate([r * R * np.exp(1j * th) for r in (0.02, 0.3, 3.0)]
                           + [0.5 - 0.5 * sigma + 0.3j * R * np.ones(1)])
    real = [-5.0 * R, -1.5 * sigma, -0.9 * sigma, -0.5 * sigma, -0.1 * sigma,
            0.1, 0.5, 0.9, 1.5, 5.0 * R]
    return np.concatenate([inner, np.array(real, dtype=complex)])


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_z_of_u_inverts_the_height_coordinate(sigma):
    # z -> u = U(z) at 30 digits (mpmath's elliprf) -> z(u) returns z, on
    # the open upper half-plane and on all four real segments (with
    # imaginary part +0.0 there, never -0.0 or below)
    zs = _on_the_four_segments(sigma)
    with mpmath.workdps(30):
        s = mpmath.mpf(sigma)
        u = np.array([complex(-2 * mpmath.elliprf(z, z - 1, z + s))
                      for z in (mpmath.mpc(z.real, z.imag) for z in zs)])
    got = curve._z_of_u(sigma, u)
    assert np.all(np.abs(got - zs) <= 2e-14 * np.abs(zs))
    real = zs.imag == 0.0
    assert not np.signbit(got.imag).any()
    assert np.all(np.abs(got.imag[real]) <= 2e-14 * np.abs(zs[real]))
    # the height coordinate of the round trip, at 30 digits
    with mpmath.workdps(30):
        back = np.array([complex(-2 * mpmath.elliprf(z, z - 1, z + s))
                         for z in (mpmath.mpc(z.real, z.imag) for z in got)])
    t03 = curve._translation_half(sigma)[2]
    assert np.all(np.abs(back.real - u.real) <= 4e-15 * t03)


# --- loop periods by the trapezoidal rule ------------------------------------


KERNEL_LOOPS = {"gamma1": kernel.gamma1_loop, "gamma2": kernel.gamma2_loop,
                "end": kernel.end_loop}


def _against_kernel_loops(sigma):
    """Largest |curve.period - kernel period| over the three classes,
    relative to max(1, |kernel period|); the kernel marches the round
    circles, another representative of each class."""
    params = CurveParams(sigma)
    worst = 0.0
    for kind, loop in KERNEL_LOOPS.items():
        want = kernel.period(params, loop(params))
        got = curve.period(params, kind)
        worst = max(worst, np.max(np.abs(got - want))
                    / max(1.0, np.max(np.abs(want))))
    return worst


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_trapezoid_periods_match_the_kernel_loops(sigma):
    # measured at most 5.1e-13 (gamma2 at sigma 1e3), below 6e-14 for
    # sigma <= 100
    assert _against_kernel_loops(sigma) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(log_sigma=st.floats(-3.0, 3.0))
def test_trapezoid_periods_match_the_kernel_over_the_range(log_sigma):
    assert _against_kernel_loops(10.0 ** log_sigma) <= 1e-12


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_trapezoid_node_rule_is_converged(sigma, monkeypatch):
    # doubling the node rule's exponent, about twice the nodes, moves a
    # period by rounding only (measured at most 1.2e-15 of |P|); the end
    # loop's period is 0, so its change is bounded by the sum of the
    # moduli of its terms instead
    params = CurveParams(sigma)
    for kind in KERNEL_LOOPS:
        got = curve.period(params, kind)
        z, w, dz = curve._loop_nodes(params, kind)
        n = len(z)
        with monkeypatch.context() as m:
            m.setattr(curve, "_LOOP_EXPONENT", 2 * curve._LOOP_EXPONENT)
            assert len(curve._loop_nodes(params, kind)[0]) >= 2 * n - 2
            finer = curve.period(params, kind)
        if kind == "end":
            terms = curve._phi_vector(params, z, w) * dz[:, None]
            scale = np.abs(terms).sum(axis=0).max() * 2.0 * math.pi / n
        else:
            scale = np.max(np.abs(got))
        assert np.max(np.abs(got - finer)) <= 2e-14 * scale, kind


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_loop_contours_carry_one_analytic_branch(sigma):
    # on each contour w is a root of p(z) (to the rounding of p at the
    # rounded nodes) that never jumps to the other root between
    # neighbouring nodes (the wrap-around included), and it starts on the
    # real axis on the principal root, as the kernel's loops do
    params = CurveParams(sigma)
    for kind in KERNEL_LOOPS:
        z, w, _ = curve._loop_nodes(params, kind)
        p, r = curve.curve_poly(params, z), np.abs(z)
        assert np.all(np.abs(w * w - p)
                      <= 1e-14 * r * (r + 1.0) * (r + sigma)), kind
        nxt = np.roll(w, -1)
        assert np.all(np.abs(nxt - w) < np.abs(nxt + w)), kind
        assert z[0].imag == 0.0 and z[0].real > 0.0
        root = np.sqrt(p[0])
        assert abs(w[0] - root) < abs(w[0] + root), kind


def _stencil_panels(monkeypatch, sigma, n_side=6):
    """The segments a -> b and increments of the Weierstrass stencil's one
    ``quad.panel_increments`` call."""
    seen = []
    increments = quad.panel_increments

    def recording(f, a, b):
        inc = increments(f, a, b)
        seen.append((a, b, inc))
        return inc

    monkeypatch.setattr(quad, "panel_increments", recording)
    checks._weierstrass_stencil(sigma, n_side, 1e-4, checks._STENCIL)
    (a, b, inc), = seen
    return a, b, inc


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_stencil_points_lie_in_the_upper_half_plane(sigma, monkeypatch):
    # the principal-root product is the base point's branch, and analytic,
    # on the open upper half-plane only
    a, b, _ = _stencil_panels(monkeypatch, sigma)
    assert np.all(a.imag > 0.0) and np.all(b.imag > 0.0)
    if sigma == 1e-3:
        # the closest anchor: Im z0 = 1.5e-4 against steps h_k <= 1e-4
        _, hk = checks._weierstrass_stencil(sigma, 6, 1e-4, checks._STENCIL)
        assert a.imag.min() == pytest.approx(1.5e-4, rel=0.01)
        assert hk.max() <= 1e-4


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_stencil_increments_match_the_kernel(sigma, monkeypatch):
    # one panel per segment against the adaptive kernel with branch
    # tracking from the same root; measured at most 4.8e-16 relative, the
    # panels' |K15 - G7| at most 1.1e-7 of their tolerance
    a, b, inc = _stencil_panels(monkeypatch, sigma)
    params = CurveParams(sigma)
    wa = np.sqrt(a) * np.sqrt(a - 1.0) * np.sqrt(a + sigma)
    want, _ = kernel._integrate_segments(params, a, b, wa)
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.max(np.abs(inc - want), axis=1) <= 1e-15 * scale)


@pytest.mark.parametrize("sigma", CI_SIGMAS)
def test_psi_matches_the_kernel_at_every_sample_vertex(sigma):
    # the sampled piece against the quadrature kernel's march along the
    # grid edges, including the corners on the branch points; measured at
    # most 4.9e-14 of the scale
    m = mesh.sample_fundamental(sigma, 0.1, 40, 60)
    verts, _ = scalar.march_piece(CurveParams(sigma),
                                  mesh.DomainMap(sigma, 0.1).grid(40, 60))
    scale = np.max(np.abs(verts))
    assert np.max(np.abs(m.vertices - verts)) <= 1e-13 * scale


def test_psi_blocks_give_one_point_bits():
    # the 160x240 grid in one call (ten blocks) against one-point calls at
    # spread-out points: numpy's temporary elision above 256 KiB would
    # change the last bits without the blocks
    sigma = 2.0
    params = CurveParams(sigma)
    z = mesh.DomainMap(sigma, 0.1).grid(160, 240).ravel()
    pos, u = curve.immerse(params, z)
    assert z.size > 9 * curve.PSI_BLOCK
    for i in range(0, z.size, 97):
        p1, u1 = curve.immerse(params, z[i])
        assert p1.shape == (3,) and u1.shape == ()
        assert p1.tobytes() == pos[i].tobytes() and u1 == u[i]


def test_carlson_steps_meet_carlsons_bound():
    # Carlson's stopping rule 4^-m Q < |A_m| (Q = (3r)^(-1/6) max|A0 - x|
    # for R_F and (r/4)^(-1/6) max|A0 - x| for R_D, r = 1e-16, the rule of
    # classical.carlson_rf/rd) holds after CARLSON_STEPS - 1 steps over
    # the closed upper half-plane at sigma in [1e-3, 1e3]: psi's fixed
    # count keeps one step in hand, which cuts the series' truncation
    # error by 4^-6
    r = 1e-16
    th = np.linspace(0.0, math.pi, 61)
    for sigma in np.logspace(-3.0, 3.0, 13):
        R = 1.0 + sigma
        rr = np.logspace(-6.0, 6.0, 97) * R
        near = np.logspace(-14.0, -1.0, 27) * R
        z = np.concatenate([(rr[:, None] * np.exp(1j * th)).ravel()] + [
            (bp + near[:, None] * np.exp(1j * th)).ravel()
            for bp in (0.0, 1.0, -sigma)])
        z = z.real + 1j * (np.abs(z.imag) + 0.0)
        x, y, zz = z - 1.0, z + sigma, z
        af, ad = (x + y + zz) / 3.0, (x + y + 3.0 * zz) / 5.0
        qf = (3.0 * r) ** (-1 / 6) * np.max(np.abs([af - x, af - y, af - zz]),
                                            axis=0)
        qd = (r / 4.0) ** (-1 / 6) * np.max(np.abs([ad - x, ad - y, ad - zz]),
                                            axis=0)
        for _ in range(curve.CARLSON_STEPS - 1):
            sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(zz)
            lam = sx * sy + sx * sz + sy * sz
            af, ad = (af + lam) / 4.0, (ad + lam) / 4.0
            qf, qd = qf / 4.0, qd / 4.0
            x, y, zz = (x + lam) / 4.0, (y + lam) / 4.0, (zz + lam) / 4.0
        assert np.all(qf < np.abs(af)) and np.all(qd < np.abs(ad)), sigma
