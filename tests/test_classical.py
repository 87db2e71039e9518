import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq

import classical_quadrature as quadrature
import scalar_references as scalar
from riemann_minimal import classical, mesh
from riemann_minimal.classical import (ConvergenceError, DomainError,
                                       FoliationData, RiemannParams,
                                       carlson_rd, carlson_rf,
                                       catenoid_height, center_offset,
                                       enneper_coefficients,
                                       enneper_fourier_check, height,
                                       lambda_of_sigma, parameterize, q_min,
                                       radicand, sigma_of_lambda,
                                       slab_height)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _normal(params, q, v):
    """Unit normal of the parameterization from the exact partials."""
    lam = params.lam
    rad = radicand(lam, q)
    fp = -0.5 * q / math.sqrt(rad)
    zp = 0.5 / math.sqrt(rad)
    rq = math.sqrt(q)
    xu = np.array([fp + math.cos(v) / (2 * rq), math.sin(v) / (2 * rq), zp])
    xv = np.array([-rq * math.sin(v), rq * math.cos(v), 0.0])
    n = np.cross(xu, xv)
    return n / np.linalg.norm(n)


def gauss_limit(params, tol=1e-4):
    """lim_{q->inf} N1(q,0)/(1 - N3(q,0)) along the symmetry plane.

    Evaluated from the parameterization's normal at q = 1e3, 1e4, 1e5.  The
    ratio converges like c/q, so the sequence is required to contract and
    its Aitken extrapolation is taken as the limit, then asserted against
    both closed forms 2/(lambda - sqrt(lambda^2+4)) and -sqrt(sigma).
    """
    vals = []
    for q in (1e3, 1e4, 1e5):
        n = _normal(params, q, 0.0)
        vals.append(n[0] / (1.0 - n[2]))
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    if abs(d2) >= abs(d1) or abs(d2) > tol * 10.0:
        raise ConvergenceError(f"normal ratio sequence not Cauchy: {vals}")
    limit = vals[2] - d2 * d2 / (d2 - d1)
    lam = params.lam
    closed = 2.0 / (lam - math.hypot(2.0, lam))
    if abs(limit - closed) > tol:
        raise ConvergenceError(f"limit {limit} != closed form {closed}")
    if abs(limit + math.sqrt(sigma_of_lambda(lam))) > tol:
        raise ConvergenceError(
            f"limit {limit} != -sqrt(sigma) = {-math.sqrt(sigma_of_lambda(lam))}")
    return limit


def test_q_min_anchors_and_monotonicity():
    assert abs(q_min(0.0) - 1.0) < 1e-15
    assert abs(q_min(1.0) - GOLDEN) < 1e-15
    lams = np.linspace(-3, 5, 41)
    qs = [q_min(l) for l in lams]
    assert all(a > b for a, b in zip(qs[:-1], qs[1:]))


def test_sigma_anchors_and_product_identity():
    assert abs(sigma_of_lambda(0.0) - 1.0) < 1e-14
    assert abs(sigma_of_lambda(1.0) - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-14
    for lam in np.linspace(-2.0, 4.0, 20):
        assert abs(sigma_of_lambda(lam) * q_min(lam) ** 2 - 1.0) < 1e-12


def test_lambda_of_sigma_inverts_sigma_of_lambda():
    # exact at sigma = 1, 4 and 1/4; a round trip each way over the tested
    # sigma range [1e-3, 1e3] (|lambda| <= 31.59) stays within 4 ulps
    assert (lambda_of_sigma(1.0), lambda_of_sigma(4.0),
            lambda_of_sigma(0.25)) == (0.0, 1.5, -1.5)
    eps = np.finfo(float).eps
    for sigma in np.geomspace(1e-3, 1e3, 401):
        back = sigma_of_lambda(lambda_of_sigma(sigma))
        assert abs(back - sigma) <= 4 * eps * sigma, sigma
    for lam in np.linspace(-31.59, 31.59, 401):
        back = lambda_of_sigma(sigma_of_lambda(lam))
        assert abs(back - lam) <= 4 * eps * max(1.0, abs(lam)), lam


def test_sigma_of_lambda_against_mpmath_50_digits():
    # the old form (2 / (hypot(2, lam) - lam))^2 cancelled for lam > 0:
    # relative error 2.5e-14 at 31.59, 5.9e-9 at 1e4 and 0.8 at 1e8
    lams = np.geomspace(1e-3, 1e8, 400)
    with mpmath.workdps(50):
        for lam in [*lams, *-lams, 31.59, -31.59]:
            x = mpmath.mpf(lam)
            exact = ((x + mpmath.sqrt(x * x + 4)) / 2) ** 2
            err = abs((mpmath.mpf(sigma_of_lambda(lam)) - exact) / exact)
            assert err < 4 * np.finfo(float).eps, (lam, err)


def test_sigma_of_lambda_leaves_the_floats_without_raising():
    for lam in (1e300, 1.7e308, math.inf):
        assert sigma_of_lambda(lam) == math.inf
    for lam in (-1e300, -1.7e308, -math.inf):
        assert sigma_of_lambda(lam) == 0.0


def test_height_at_neck_and_domain_error():
    p = RiemannParams.from_lambda(1.0)
    assert height(p, p.q1) == 0.0
    with pytest.raises(DomainError):
        height(p, p.q1 - 0.01)
    with pytest.raises(DomainError):
        center_offset(p, p.q1 - 0.01)


def test_height_against_trapezoid_oracle():
    # brute force: 1e6-panel trapezoid of the s-substituted smooth integrand
    lam = 1.0
    p = RiemannParams.from_lambda(lam)
    q = 2.0
    s = np.linspace(0.0, math.sqrt(q - p.q1), 1_000_001)
    u = p.q1 + s ** 2
    g = np.zeros_like(s)
    g[1:] = 2.0 * s[1:] * 0.5 / np.sqrt(u[1:] ** 3 - u[1:] + lam * u[1:] ** 2)
    g[0] = 1.0 / math.sqrt(p.q1 * (2 * p.q1 + lam))  # limit value at s=0
    oracle = np.trapezoid(g, s)
    val = height(p, q)
    assert abs(val - oracle) < 1e-6
    assert abs(val - 0.7415078701685465) < 1e-9  # frozen regression


def test_height_monotone_and_bounded_by_zeta():
    p = RiemannParams.from_lambda(0.5)
    qs = np.linspace(p.q1, p.q1 + 50.0, 40)
    hs = [height(p, q) for q in qs]
    assert all(b > a for a, b in zip(hs[:-1], hs[1:]))
    assert hs[-1] < p.zeta
    assert abs(height(p, 1e8) - p.zeta) < 1e-4


def test_center_offset_monotone_and_plus_limit():
    p = RiemannParams.from_lambda(1.0)
    assert center_offset(p, p.q1) == 0.0
    qs = np.linspace(p.q1, p.q1 + 30.0, 100)
    fs = [center_offset(p, q) for q in qs]
    assert all(b < a for a, b in zip(fs[:-1], fs[1:]))
    # A_plus converges: f(q) + sqrt(q) settles to its limit
    a100 = center_offset(p, 100.0) + math.sqrt(100.0)
    a1e4 = center_offset(p, 1e4) + math.sqrt(1e4)
    assert abs(a100 - a1e4) < 0.5


def test_parameterize_slices():
    p = RiemannParams.from_lambda(1.0)
    x = parameterize(p, p.q1, 0.0)
    assert np.allclose(x, [math.sqrt(p.q1), 0.0, 0.0], atol=1e-12)
    q = p.q1 + 1.3
    center = np.array([center_offset(p, q), 0.0, height(p, q)])
    for v in np.linspace(0, 2 * np.pi, 9):
        a = parameterize(p, q, v)
        b = parameterize(p, q, -v)
        assert abs(a[0] - b[0]) < 1e-12 and abs(a[1] + b[1]) < 1e-12
        assert abs(np.linalg.norm(a - center) - math.sqrt(q)) < 1e-10


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_parameterized_slice_is_a_circle(sigma):
    # 24 points of the slice at q1 + 0.7 fit a circle to 1e-10: the
    # parameterization is f(q)(1,0,0) + sqrt(q)(cos v, sin v, 0) + z(q) e3
    # by construction, so no surface defect can move this, and verify
    # does not run it
    p = RiemannParams.from_lambda(lambda_of_sigma(sigma))
    ring = parameterize(
        p, p.q1 + 0.7, np.linspace(0, 2 * math.pi, 24, endpoint=False)).T
    fit, = mesh.level_circle_fit([ring])
    assert fit.kind == "circle" and fit.residual < 1e-10


def test_catenoid_closed_form():
    assert catenoid_height(1.0, 1.0) == 0.0
    assert abs(catenoid_height(1.0, 2.0) - math.log(1 + math.sqrt(2))) < 1e-12
    # the quadrature oracle fixes the lambda exponent to -1/2
    for lam, q in [(2.0, 1.0), (0.5, 3.0), (2.0, 4.0)]:
        f = lambda u: 0.5 / np.sqrt(lam * u * u - u)
        oracle = quadrature.integrate_sqrt_singular(f, 1.0 / lam, q)
        assert abs(catenoid_height(lam, q) - oracle) < 1e-8
    assert abs(catenoid_height(2.0, 1.0) - math.asinh(1.0) / math.sqrt(2)) < 1e-12
    with pytest.raises(DomainError):
        catenoid_height(2.0, 0.3)
    with pytest.raises(DomainError):
        catenoid_height(-1.0, 1.0)


def test_gauss_limit_closed_forms_and_fd_oracle():
    assert abs(gauss_limit(RiemannParams.from_lambda(0.0)) + 1.0) < 1e-4
    assert abs(gauss_limit(RiemannParams.from_lambda(1.0))
               + (1 + math.sqrt(5.0)) / 2.0) < 1e-4

    def fd_ratio(p, q, h=1e-2):
        Xq = (parameterize(p, q + h, 0.0) - parameterize(p, q - h, 0.0)) / (2 * h)
        Xv = (parameterize(p, q, h) - parameterize(p, q, -h)) / (2 * h)
        n = np.cross(Xq, Xv)
        n /= np.linalg.norm(n)
        return n[0] / (1.0 - n[2])

    # independent oracle: finite-difference normals at moderate q (where
    # the tiny x1-slope is still resolvable), Richardson-extrapolated in
    # the known 1/q convergence of the ratio
    for lam in (0.5, 1.0, 2.0):
        p = RiemannParams.from_lambda(lam)
        r1, r2, r4 = (fd_ratio(p, q) for q in (100.0, 200.0, 400.0))
        R1, R2 = 2 * r2 - r1, 2 * r4 - r2
        oracle = (4 * R2 - R1) / 3.0
        assert abs(oracle - 2.0 / (lam - math.hypot(2.0, lam))) < 1e-4
        assert abs(gauss_limit(p) - oracle) < 1e-4


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_radius_ode_and_first_integral(lam):
    # reconstruct q(z) by inverting the height integral, then check the
    # radius ODE 2q^3 + (q')^2 + q(2 - q'') = 0 by finite differences and
    # the first integral (q')^2/q^2 = 4(q - 1/q) + 4 lambda
    p = RiemannParams.from_lambda(lam)

    def q_of_z(z):
        hi = p.q1 + 1.0
        while height(p, hi) < z:
            hi *= 4.0
        return brentq(lambda q: height(p, q) - z, p.q1, hi,
                      xtol=1e-14, rtol=1e-15)

    # q' by the fourth-order five-point stencil (the first integral squares
    # it, so second-order truncation would eat the 1e-6 budget), q'' by the
    # second-order stencil at h = 1e-3; interior of the slab only (q and
    # its derivatives blow up at the top)
    h1, h2 = 3e-4, 1e-3
    for z in np.linspace(0.1 * p.zeta, 0.45 * p.zeta, 7):
        q0 = q_of_z(z)
        qp1 = (8 * (q_of_z(z + h1) - q_of_z(z - h1))
               - (q_of_z(z + 2 * h1) - q_of_z(z - 2 * h1))) / (12 * h1)
        qpp = (q_of_z(z + h2) - 2 * q0 + q_of_z(z - h2)) / (h2 * h2)
        ode = 2 * q0 ** 3 + qp1 ** 2 + q0 * (2.0 - qpp)
        first = qp1 ** 2 / q0 ** 2 - 4.0 * (q0 - 1.0 / q0) - 4.0 * lam
        assert abs(ode) < 1e-4
        assert abs(first) < 1e-6


def canonical_data(**kw):
    base = dict(r=1.0, r_p=0.0, r_pp=0.0, kappa=1.0, kappa_p=0.0, tau=0.0,
                alpha=0.0, beta=0.0, delta=1.0)
    base.update(kw)
    return FoliationData(**base)


def test_enneper_canonical_coefficients():
    a = enneper_coefficients(canonical_data())
    assert np.allclose(a, [0, 0, 0, 0, -3, 0, 0], atol=1e-14)


def test_enneper_velocity_along_t_only():
    for r, k in [(1.0, 1.0), (2.0, 0.7), (0.5, 3.0)]:
        d = canonical_data(r=r, kappa=k, alpha=0.3, beta=0.0, delta=0.0)
        a = enneper_coefficients(d)
        assert abs(a[0] + 0.5 * r ** 5 * k ** 3) < 1e-12
        assert a[0] != 0.0


def test_enneper_a5_scaling():
    # r -> cr, delta -> c delta with delta = r kappa: a5 scales by c^5
    k = 1.3
    r = 0.8
    a5 = enneper_coefficients(canonical_data(r=r, kappa=k, delta=r * k))[4]
    c = 1.7
    a5c = enneper_coefficients(canonical_data(r=c * r, kappa=k,
                                              delta=c * r * k))[4]
    assert abs(a5c - c ** 5 * a5) < 1e-10 * abs(a5c)


def test_enneper_fourier_check_canonical():
    # 1.45e-7 at the former step h = 1e-5, which sat in the rounding regime
    assert enneper_fourier_check(canonical_data()) < 1.45e-7 / 5


def test_enneper_fourier_check_random_configs():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = FoliationData(
            r=0.5 + rng.uniform(0.0, 1.0),
            r_p=rng.uniform(-0.5, 0.5),
            r_pp=rng.uniform(-0.5, 0.5),
            kappa=0.3 + rng.uniform(0.0, 1.2),
            kappa_p=rng.uniform(-0.5, 0.5),
            tau=rng.uniform(-0.8, 0.8),
            alpha=rng.uniform(-0.8, 0.8),
            beta=rng.uniform(-0.8, 0.8),
            delta=rng.uniform(-0.8, 0.8),
            alpha_p=rng.uniform(-0.5, 0.5),
            beta_p=rng.uniform(-0.5, 0.5),
            delta_p=rng.uniform(-0.5, 0.5),
        )
        assert enneper_fourier_check(d) < 1e-4


def _frame_at_reference(d, u, n_steps=1, one=1.0):
    """One scalar RK4 march of the Frenet frame and center to u in
    ``n_steps`` equal steps; by default the one step per u that
    ``foliation_frames`` batches.  With ``one`` an mpmath 1 it marches in
    mpmath numbers.  Each product puts the array first: mpmath, given an
    array on its right, formats the whole array into an error message
    before numpy takes over, and the products are the same either way
    round."""
    def deriv(x, y):
        t, n, b = y[0:3], y[3:6], y[6:9]
        k = d.kappa + d.kappa_p * x
        al = d.alpha + d.alpha_p * x
        be = d.beta + d.beta_p * x
        de = d.delta + d.delta_p * x
        return np.concatenate([n * k, t * -k - b * d.tau, n * d.tau,
                               t * al + n * be + b * de])

    y = np.concatenate([np.eye(3).ravel(), np.zeros(3)]) * one
    h = u * one / n_steps
    x = 0.0 * one
    for _ in range(n_steps):
        k1 = deriv(x, y)
        k2 = deriv(x + h / 2, y + k1 * (h / 2))
        k3 = deriv(x + h / 2, y + k2 * (h / 2))
        k4 = deriv(x + h, y + k3 * h)
        y = y + (k1 + 2 * k2 + 2 * k3 + k4) * (h / 6)
        x += h
    return y[3:6], y[6:9], y[9:12]


def _frame_configs():
    rng = np.random.default_rng(7)
    return [canonical_data()] + [FoliationData(
        r=1.0, r_p=0.1, r_pp=-0.2, kappa=0.3 + rng.uniform(0.0, 1.2),
        kappa_p=rng.uniform(-0.5, 0.5), tau=rng.uniform(-0.8, 0.8),
        alpha=rng.uniform(-0.8, 0.8), beta=rng.uniform(-0.8, 0.8),
        delta=rng.uniform(-0.8, 0.8), alpha_p=rng.uniform(-0.5, 0.5),
        beta_p=rng.uniform(-0.5, 0.5), delta_p=rng.uniform(-0.5, 0.5))
        for _ in range(5)]


@pytest.mark.parametrize("u", [-1.0000000000000002e-4, 3.5e-4, 2e-3])
def test_frames_refuse_offsets_beyond_one_step(u):
    with pytest.raises(ValueError):
        classical.foliation_frames(canonical_data(), (0.0, u))


def test_small_offsets_take_one_rk4_step():
    us = (-1e-4, -3e-5, -1e-5, 0.0, 1e-5, 1e-4)
    for d in _frame_configs():
        got = classical.foliation_frames(d, us)
        for i, u in enumerate(us):
            for g, w in zip(got, _frame_at_reference(d, u, 1)):
                assert np.array_equal(g[i], w)
        # one step is exact to rounding: at the longest single step a
        # 64-step march in 30 digits agrees (in floats, the 64-step
        # march's own rounding reaches 1.3e-15)
        for i in (0, -1):
            with mpmath.workdps(30):
                fine = _frame_at_reference(d, us[i], 64, mpmath.mpf(1))
            for g, w in zip(got, fine):
                assert np.max(np.abs(g[i] - w.astype(float))) <= 1e-15


def test_enneper_zero_velocity_constant_radius():
    # zero center velocity, constant r, tau = 0: both routes agree on the
    # entries that vanish identically
    d = canonical_data(delta=0.0, kappa=0.9, r=1.4)
    a = enneper_coefficients(d)
    assert a[1] == 0.0 and a[2] == 0.0 and a[3] == 0.0 and a[5] == 0.0
    assert enneper_fourier_check(d) < 1e-5


def test_foliation_data_validation():
    with pytest.raises(ValueError):
        canonical_data(r=0.0)
    with pytest.raises(ValueError):
        canonical_data(kappa=-1.0)


# --- Carlson symmetric forms and the closed-form classical route -----------

# argument triples over many decades, with a zero argument in several; R_D
# needs its last argument positive.  At 1e307 the stop rule's Q overflows
# unless it is scaled before the product
CARLSON_ARGS = [
    (0.0, 1.0, 2.0), (2.0, 3.0, 4.0), (1.0, 2.0, 0.0), (0.0, 1e-10, 1.0),
    (1e-8, 1.0, 1e8), (0.5, 0.5, 0.5), (1e-300, 1.0, 3.0),
    (7.0, 1e12, 1e-3), (0.0, 3.0, 1e-9), (123.0, 4.5e-5, 0.0),
    (1e307, 0.0, 1.0),
]


def test_carlson_forms_against_mpmath_30_digits():
    with mpmath.workdps(30):
        for x, y, z in CARLSON_ARGS:
            rf = mpmath.elliprf(x, y, z)
            assert abs(carlson_rf(x, y, z) / rf - 1) < 1e-15
            if z > 0:
                rd = mpmath.elliprd(x, y, z)
                assert abs(carlson_rd(x, y, z) / rd - 1) < 1e-15


def test_carlson_forms_against_scipy_special():
    rng = np.random.default_rng(3)
    x, y, z = 10.0 ** rng.uniform(-6, 6, (3, 2000))
    x[:200] = 0.0  # one zero argument
    y[200:400] = 0.0
    rf, rd = carlson_rf(x, y, z), carlson_rd(x, y, z)
    assert rf.shape == rd.shape == x.shape
    assert np.max(np.abs(rf / scipy.special.elliprf(x, y, z) - 1)) < 2e-15
    assert np.max(np.abs(rd / scipy.special.elliprd(x, y, z) - 1)) < 2e-15
    # scalars in, scalars out; broadcasting
    assert np.ndim(carlson_rf(0.0, 1.0, 2.0)) == 0
    assert carlson_rd(0.0, 2.0, np.array([1.0, 2.0])).shape == (2,)



@pytest.mark.parametrize("shape", [(), (7,), (2, 500)])
def test_carlson_forms_keep_the_bits_of_numpy_duplication(shape):
    # the per-element loop in math against the masked numpy loop it
    # replaced: real IEEE + - * / and sqrt round the same in both
    rng = np.random.default_rng(11)
    x, y, z = 10.0 ** rng.uniform(-300, 300, (3,) + shape)
    if shape:
        x.flat[::5] = 0.0  # at most one zero per triple
        y.flat[1::5] = 0.0
        z.flat[2::5] = 0.0
    with np.errstate(all="ignore"):  # R_D beyond the floats reads inf
        refs = (scalar.carlson_rf(x, y, z),
                scalar.carlson_rd(x, y, np.where(z == 0.0, 1.0, z)))
    got = (carlson_rf(x, y, z), carlson_rd(x, y, np.where(z == 0.0, 1.0, z)))
    for g, ref in zip(got, refs):
        assert np.shape(g) == shape and np.ndim(g) == len(shape)
        assert np.asarray(g).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("args", [
    (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (-1.0, 1.0, 2.0), (1.0, -0.5, 2.0),
    (math.nan, 1.0, 2.0), (1.0, 2.0, math.inf)])
def test_carlson_forms_reject_arguments_outside_their_domain(args):
    # these ran into the step cap (R_F(0, 0, 1) read 2.24e18), or gave
    # nan or inf
    for f in (carlson_rf, carlson_rd):
        with pytest.raises(DomainError):
            f(*args)
        with pytest.raises(DomainError):
            f(np.array([1.0, args[0]]), args[1], args[2])
    # R_D needs z > 0 even where R_F takes the zero
    with pytest.raises(DomainError):
        carlson_rd(1.0, 2.0, 0.0)
    assert carlson_rf(1.0, 2.0, 0.0) > 0.0


def test_carlson_duplication_stops_within_14_steps(monkeypatch):
    # 15 checks of the stop rule allow 14 steps, enough from 1e-300 to
    # 1e300; fewer steps raise ConvergenceError instead of returning
    rng = np.random.default_rng(12)
    x, y, z = 10.0 ** rng.uniform(-300, 300, (3, 300))
    y[::3] = 0.0
    monkeypatch.setattr(classical, "_CARLSON_MAX_STEPS", 15)
    for f in (carlson_rf, carlson_rd):
        # R_D ~ z^(-3/2) may leave the floats: 0.0 or inf, never nan
        assert np.all(f(x, y, z) >= 0.0)
        assert f(0.0, 1e-300, 1e300) >= 0.0 and f(1e300, 0.0, 1e-300) > 0.0
    monkeypatch.setattr(classical, "_CARLSON_MAX_STEPS", 14)
    for f in (carlson_rf, carlson_rd):
        with pytest.raises(ConvergenceError):
            f(0.0, 1e-300, 1e300)


LAMS = np.linspace(-30.0, 30.0, 25)


def test_closed_forms_match_quadrature_route():
    # the quadrature route kept in the tests is an independent evaluation
    # of the same integrals; offsets from q1 stay where its own error is
    # small (see test_closed_forms_win_against_mpmath for the neck)
    for lam in LAMS:
        p = RiemannParams.from_lambda(lam)
        assert abs(p.zeta / quadrature.slab_height(lam) - 1) < 5e-13
        for dq in (0.1, 1.0, 3.0, 20.0, 1e3):
            q = p.q1 + dq
            assert abs(height(p, q) - quadrature.height(p, q)) < 2e-12 * p.zeta
            f_quad = quadrature.center_offset(p, q)
            assert abs(center_offset(p, q) - f_quad) < 5e-11 * abs(f_quad)


def _mpmath_route(lam, q):
    """zeta, z(q), f(q) by 30-digit tanh-sinh quadrature in s = sqrt(u - q1),
    where z = int ds / sqrt((q1 + s^2)(q1 + p + s^2)) and
    f = -int sqrt(q1 + s^2) / sqrt(q1 + p + s^2) ds."""
    with mpmath.workdps(30):
        q1 = mpmath.mpf(q_min(lam))
        p = 1 / q1
        dz = lambda s: 1 / mpmath.sqrt((q1 + s * s) * (q1 + p + s * s))
        df = lambda s: -mpmath.sqrt((q1 + s * s) / (q1 + p + s * s))
        top = mpmath.sqrt(mpmath.mpf(q) - q1)
        return (mpmath.quad(dz, [0, mpmath.inf]), mpmath.quad(dz, [0, top]),
                mpmath.quad(df, [0, top]))


@pytest.mark.parametrize("lam,dq", [(-30.0, 1e-3), (-30.0, 0.1), (0.0, 0.5),
                                    (2.0, 1e4), (30.0, 3.0)])
def test_closed_forms_against_mpmath(lam, dq):
    p = RiemannParams.from_lambda(lam)
    q = p.q1 + dq
    zeta, z, f = (float(v) for v in _mpmath_route(lam, q))
    assert abs(p.zeta / zeta - 1) < 1e-15
    assert abs(height(p, q) - z) < 1e-15 * zeta
    assert abs(center_offset(p, q) - f) < 1e-14 * max(1.0, abs(f))


def test_mpmath_decides_for_the_closed_forms_at_the_neck():
    # next to the neck at lambda = -30 the quadrature's radicand
    # u (u^2 + lambda u - 1) cancels; the two routes differ by more than
    # 1e-11 there, and mpmath sides with the closed forms
    lam = -30.0
    p = RiemannParams.from_lambda(lam)
    q = p.q1 + 1e-3
    _, z, f = (float(v) for v in _mpmath_route(lam, q))
    assert abs(quadrature.height(p, q) - z) > 1e-12 * p.zeta
    assert abs(height(p, q) - z) < 1e-15 * p.zeta
    assert abs(quadrature.center_offset(p, q) - f) > 1e-11
    assert abs(center_offset(p, q) - f) < 1e-15


def test_closed_forms_take_arrays_and_clamp_at_the_neck():
    # each element of an array stops the duplication on its own, so an
    # array call gives exactly the per-element results
    for lam in np.linspace(-30.0, 30.0, 13):
        p = RiemannParams.from_lambda(lam)
        qs = p.q1 + np.concatenate([[0.0], np.logspace(-12, 3, 400)])
        for fn in (height, center_offset):
            assert np.array_equal(fn(p, qs), [fn(p, q) for q in qs])
    p = RiemannParams.from_lambda(-1.5)
    qs = p.q1 + np.array([0.0, 0.01, 1.0, 50.0])
    assert np.array_equal(height(p, qs), [height(p, q) for q in qs])
    assert np.array_equal(center_offset(p, qs),
                          [center_offset(p, q) for q in qs])
    assert height(p, p.q1 - 1e-13) == 0.0
    assert center_offset(p, p.q1 - 1e-13) == 0.0
    with pytest.raises(DomainError):
        height(p, qs - 1e-3)
    assert slab_height(-1.5) == p.zeta
