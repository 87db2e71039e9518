"""The elliptic curve w^2 = z(z-1)(z+sigma) and its Weierstrass data.

The stereographically projected Gauss map is g(z, w) = z/sqrt(sigma) and the
height differential is phi3 = dz/w, which fixes the other two forms:

    phi1 = (1/2)(1/g - g) phi3,      phi2 = (i/2)(1/g + g) phi3.

The surface is recovered by X(p) = X(p0) + Re int (phi1, phi2, phi3) along
any path, provided w is continued as a single continuous branch of
sqrt(z(z-1)(z+sigma)).  There are two routes to it.

On the upper half-plane the immersion is in closed form: :func:`immerse`
is one complex R_F and one complex R_D per point (Carlson's symmetric
elliptic integrals), both from one duplication loop of fixed length whose
square roots are taken in real arithmetic, ended by DLMF 19.36's
seventh-order series.  It is the package's only surface evaluator: the
sampled piece of ``mesh.sample_fundamental`` and the slices of
``mesh.refine_slice``, points on lines of the height coordinate that
:func:`_z_of_u` carries to z in closed form.

The homology loops' periods are the periodic trapezoidal rule on contours
where w is single-valued and analytic (:func:`period`), so the checks on
them stay independent of the closed form: a Joukowski map z = c +
r (zeta + 1/zeta) with foci at a pair of branch points makes the square
root of their factor a rational function of zeta, and the rule needs no
branch tracking and no bisection.

Conventions fixed here:

* base point z = 1 + 1e-2 with w real and positive (the other sign of w
  gives a congruent surface);
* gamma1 = a loop enclosing the branch points {0, 1};
* gamma2 = a loop enclosing {-sigma, 0} (a convex loop cannot enclose 1
  and -sigma without swallowing 0, so this homologous representative is
  used);
* the end loop around z = 0 is traversed twice so the lift closes.

Seeded sample points come from :func:`random_regular_points` as one
:class:`CurvePoint` of arrays, which the symmetry and Gauss-ODE checks (and
``shiffkdv``'s jets) take whole.  The command line draws them from
:class:`_SeededDraws`, the standard library's generator, so a process that
only verifies never imports ``numpy.random``.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import cache
from itertools import repeat, starmap

import numpy as np

from . import classical
from .errors import RiemannMinimalError

__all__ = [
    "CurveError", "PoleOfGaussMap", "CurveParams", "CurvePoint",
    "curve_poly", "branch_points",
    "on_curve_residual", "immerse", "gaussian_curvature", "period", "flux",
    "apply_symmetry", "verify_symmetry_action", "gauss_ode_residual",
    "gauss_derivatives", "random_regular_points",
]

# the end loop's circle |z| = END_RADIUS min(1, sigma)
END_RADIUS = 0.3
# random_regular_points rejects candidates closer than this times
# (1 + sigma) to a branch point
SAMPLE_CLEARANCE = 2e-3
# psi's duplication steps: the seventh-order rule of Carlson's stopping
# criterion (exponent -1/8, see test_carlson_steps_meet_carlsons_bound)
# holds after 6 everywhere on the closed upper half-plane for sigma in
# [1e-3, 1e3], and the 7th cuts the series' truncation error by another
# 4^-8
CARLSON_STEPS = 7
# psi's largest block of points: its stacked (5, 3072) complex state takes
# 240 KiB, below numpy's 256 KiB temporary-elision size
PSI_BLOCK = 3072
# immerse's domain: sigma and the nonzero parts of z within these moduli
PSI_DOMAIN = (1e-100, 1e100)
# the loops' node rule, n = 2 ceil(_LOOP_EXPONENT / ln sqrt(rho)) (see period)
_LOOP_EXPONENT = 37.0


class CurveError(RiemannMinimalError):
    pass


class PoleOfGaussMap(CurveError):
    """Operation undefined where g is 0 or infinite."""


@dataclass(frozen=True)
class CurveParams:
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class CurvePoint:
    """A point (z, w) of the curve, or a set of points when ``z`` and ``w``
    are arrays of one shape (as :func:`random_regular_points` returns)."""

    z: complex
    w: complex


def curve_poly(params: CurveParams, z):
    return z * (z - 1.0) * (z + params.sigma)


def branch_points(params: CurveParams):
    return (0.0 + 0.0j, 1.0 + 0.0j, complex(-params.sigma))


def on_curve_residual(params: CurveParams, pt: CurvePoint) -> float:
    return abs(pt.w ** 2 - curve_poly(params, pt.z)) / (1.0 + abs(pt.z) ** 3)


def _phi_vector(params, zs, ws):
    """Densities (phi1, phi2, phi3) with respect to dz, stacked (n, 3)."""
    rs = math.sqrt(params.sigma)
    g = zs / rs
    p3, inv_g = 1.0 / ws, 1.0 / g
    return np.stack([0.5 * (inv_g - g) * p3, 0.5j * (inv_g + g) * p3, p3],
                    axis=-1)


# ---------------------------------------------------------------------------
# the immersion in closed form


@cache
def _translation_half(sigma):
    """t0 = psi(-sigma) = (2/3 sqrt(sigma) R_D(0, 1 + sigma, 1), 0,
    2 R_F(0, 1, 1 + sigma)) in real Carlson integrals, derived in
    ``mesh.FundamentalSurface.translation_half``, as a tuple.  Kept per
    sigma: every :func:`immerse` call adds it, and its two adaptive Carlson
    calls cost as much as a block of points."""
    rd = classical.carlson_rd(0.0, 1.0 + sigma, 1.0)
    rf = classical.carlson_rf(0.0, 1.0, 1.0 + sigma)
    return (2.0 / 3.0 * math.sqrt(sigma) * rd, 0.0, 2.0 * rf)


def immerse(params: CurveParams, z):
    """psi(z) = X(z) - X(1) on the base point's sheet, in closed form, for
    z (any shape) in the closed upper half-plane minus the end z = 0.

    Returns (positions of shape z.shape + (3,), u = U(z) of shape
    z.shape), U the height coordinate below: x3 = Re u + t0_3.  w =
    sqrt(z) sqrt(z - 1) sqrt(z + sigma) takes principal roots: analytic on
    the upper half-plane, and the base point's sheet (the positive root at
    1 + 1e-2 continued over the upper half circle around 1 is
    i sqrt(x (1 - x) (x + sigma)) on all of (0, 1)).  From
    d(w/z) = (z^2 + sigma) dz / (2 z w),

        phi1 = sqrt(sigma) dz/(z w) - d(w/z)/sqrt(sigma),
        phi2 = (i/sqrt(sigma)) d(w/z),      phi3 = dz/w,

    and the integrals from infinity U = int dz/w = -2 R_F(z, z - 1,
    z + sigma) and V = int dz/(z w) = -(2/3) R_D(z - 1, z + sigma, z)
    (DLMF 19.29; Carlson, Numer. Algorithms 10 (1995) for complex
    arguments) give

        psi = Re(sqrt(sigma) V - (w/z)/sqrt(sigma),
                 i (w/z)/sqrt(sigma), U) + t0,

    since U(1) = -t0_3, sqrt(sigma) V(1) = -t0_1 and w(1) = 0.  A point on
    the real axis is taken with imaginary part +0.0 (a -0.0 would put
    sqrt(z - 1) on the other side of its cut).

    Both integrals come from one duplication loop of CARLSON_STEPS fixed
    steps on a stacked state (x, y, z, A_F, A_D), updated in place; each
    step's three roots are one :func:`_principal_sqrt`, in real
    arithmetic.  The seventh-order series (``classical._rf_series`` and
    ``_rd_series``) ends it.  Points are evaluated in consecutive blocks of
    at most PSI_BLOCK, whose arrays stay below numpy's 256 KiB
    temporary-elision size, so a point's result has the same bits in any
    call.

    Domain: sigma and each nonzero part (real or imaginary) of z have
    moduli in PSI_DOMAIN = [1e-100, 1e100]; ValueError otherwise (a part
    that is nan or infinite included).  Each root's argument then stays
    0 or within [1e-150, 1e150] in modulus, where :func:`_principal_sqrt`
    is exact to rounding, and no intermediate leaves the floats.
    """
    z = np.asarray(z, dtype=complex)
    # + 0.0 turns an imaginary part -0.0 into +0.0
    flat = z.reshape(-1) + 0.0
    lo, hi = PSI_DOMAIN
    parts = np.abs(flat.view(float))
    if not (lo <= params.sigma <= hi and parts.max(initial=0.0) <= hi
            and parts.min(where=parts > 0.0, initial=hi) >= lo):
        raise ValueError(f"immerse needs sigma and each nonzero part of z "
                         f"within [{lo}, {hi}] in modulus")
    pos, u = np.empty((flat.size, 3)), np.empty(flat.size, dtype=complex)
    t0 = np.array(_translation_half(params.sigma))
    for i in range(0, flat.size, PSI_BLOCK):
        blk = slice(i, i + PSI_BLOCK)
        pos[blk], u[blk] = _psi_block(params, flat[blk], t0)
    return pos.reshape(z.shape + (3,)), u.reshape(z.shape)


def _principal_sqrt(a):
    """The principal square root of the complex array a, as ``np.sqrt``
    takes it (the sign of a zero imaginary part picks the side of the
    cut), in real arithmetic: t = sqrt((|a| + |Re a|)/2), then t + i Im
    a/(2t) where Re a >= 0, else |Im a|/(2t) + i copysign(t, Im a).  Exact
    to rounding for |a| = 0 or in [1e-300, 1e300].
    """
    re, im = a.real.copy(), a.imag.copy()
    t = np.abs(a)
    t += np.abs(re)
    t *= 0.5
    np.sqrt(t, out=t)
    # a = 0: Im a / tiny is the zero Im a
    d = im / np.maximum(t + t, sys.float_info.min)
    left = re < 0.0
    root = np.empty_like(a)
    root.real = np.where(left, np.abs(d), t)
    root.imag = np.where(left, np.copysign(t, im), d)
    return root


def _psi_block(params, z, t0):
    """:func:`immerse` on one block of points, t0 given."""
    s = params.sigma
    rs = math.sqrt(s)
    # R_D's argument order; R_F is symmetric
    x, y = z - 1.0, z + s
    state = np.stack([x, y, z, (x + y + z) * (1 / 3),
                      (x + y + 3.0 * z) * (1 / 5)])
    # the state after k steps is 4^k times Carlson's: scaling by 4 is exact,
    # so it has the bits of Carlson's values without a pass per step.  The
    # sum runs on the float parts, where (5, n) + (n,) loops by rows
    state_parts, tail = state.view(float), 0.0
    for k in range(CARLSON_STEPS):
        sx, sy, sz = _principal_sqrt(state[:3])
        if k == 0:
            w = sz * sx * sy
        lam = (sy + sz) * sx + sy * sz
        state_parts += lam.view(float)
        # R_D's term 4^-k / (sz_k (z_k + lam_k)) is 2^k / (sz z) in the
        # scaled state after the step
        tail = tail + 2.0 ** k / (sz * state[2])
    # 4^-m / A_m and 2^-m / sqrt(A_m) of both integrals at once
    inv = 1.0 / state[3:]
    half = _principal_sqrt(inv)
    # the scaled deviations (A0 - x0) / (4^m A_m) and (A0 - y0) / (4^m A_m),
    # with A0 - x0 and A0 - y0 exact: (sigma + 2)/3 and -(2 sigma + 1)/3
    # for R_F, (sigma + 4)/5 and -(4 sigma + 1)/5 for R_D
    rf = classical._rf_series(inv[0] * ((s + 2.0) / 3.0),
                              inv[0] * (-(2.0 * s + 1.0) / 3.0)) * half[0]
    rd = classical._rd_series(inv[1] * ((s + 4.0) / 5.0),
                              inv[1] * (-(4.0 * s + 1.0) / 5.0))
    rd = rd * inv[1] * half[1]
    u = rf * (-2.0 * 2.0 ** CARLSON_STEPS)
    q = w / z * (1.0 / rs)
    # Re(sqrt(sigma) V) = -(2/3) sqrt(sigma) Re(4^-m S_D A^(-3/2) + 3 tail)
    x1 = (-2.0 / 3.0 * rs * (rd.real * 2.0 ** CARLSON_STEPS + 3.0 * tail.real)
          - q.real)
    pos = np.empty((z.size, 3))
    for j, col in enumerate((x1, -q.imag, u.real)):
        np.add(col, t0[j], out=pos[:, j])
    return pos, u


def _jacobi(x, k, kc):
    """(sn, cn, dn)(x | k^2) of a real array x, kc = sqrt(1 - k^2): the AGM
    from (1, kc) until c_N = c_(N-1)^2 / (4 a_N) is at most an ulp of a_N,
    then phi_N = 2^N a_N x, phi_(n-1) = (phi_n + arcsin((c_n/a_n) sin
    phi_n)) / 2, sn = sin phi_0, cn = cos phi_0 (DLMF 22.20(ii)), and dn =
    sqrt(1 - k^2 sn^2) as sqrt(kc^2 + k^2 cn^2), which does not cancel."""
    a, b, c, ratios = 1.0, kc, k, []
    while c > math.ulp(a):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), c * c / (2.0 * (a + b))
        ratios.append(c / a)
    phi = (2.0 ** len(ratios) * a) * x
    for r in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    cn = np.cos(phi)
    return np.sin(phi), cn, np.sqrt(kc * kc + (k * cn) ** 2)


def _u_height(sigma):
    """b = Im U(-sigma) = 2 R_F(0, sigma, 1 + sigma): the height coordinate
    u = U(z) of :func:`immerse` maps the upper half-plane onto the
    rectangle [-t0_3, 0] x [0, b], which :func:`_z_of_u` inverts."""
    return 2.0 * classical.carlson_rf(0.0, sigma, 1.0 + sigma)


def _z_of_u(sigma, u):
    """z(u) on the closed upper half-plane, the inverse of the height
    coordinate u = U(z) of :func:`immerse`, elementwise: z = -sigma +
    (1 + sigma) / sn^2(u sqrt(1 + sigma) / 2 | k^2 = sigma / (1 + sigma)),
    the nearest branch point 0, 1 or -sigma plus its offset (1 + sigma)
    (dn/sn)^2, (cn/sn)^2 or (1/sn)^2, so only that sum rounds.  Each ratio
    is the addition theorem's (DLMF 22.8, 22.6(iv)) from real functions at
    k^2 and kc^2 = 1 - k^2, both from sigma; an imaginary part that rounds
    below 0 is +0.0."""
    k, kc = math.sqrt(sigma / (1.0 + sigma)), math.sqrt(1.0 / (1.0 + sigma))
    v = np.asarray(u, dtype=complex) * (0.5 * math.sqrt(1.0 + sigma))
    s, c, d = _jacobi(v.real, k, kc)
    s1, c1, d1 = _jacobi(v.imag, kc, k)
    r = np.stack([d * c1 * d1 - 1j * (k * k * s * c * s1),
                  c * c1 - 1j * (s * d * s1 * d1), c1 * c1 + (k * s * s1) ** 2]
                 ) / (s * d1 + 1j * (c * d * s1 * c1))
    offset = (1.0 + sigma) * r * r
    near = np.argmin(np.abs(offset), axis=0)
    z = np.choose(near, offset) + np.array([0.0, 1.0, -sigma])[near]
    z.imag = np.maximum(z.imag, 0.0)
    return z


def gaussian_curvature(g, g_prime):
    """K in the conformal coordinate with phi3 = d(xi), elementwise on
    (arrays of) g and g'.

    K = -( 4|g'/g| / (|g| + 1/|g|)^2 )^2 <= 0.
    """
    g = np.asarray(g, dtype=complex)
    bad = (g == 0) | ~np.isfinite(g)
    if bad.any():
        raise PoleOfGaussMap(f"g = {g[bad].flat[0]}")
    ag = np.abs(g)
    return -(4.0 * np.abs(g_prime / g) / (ag + 1.0 / ag) ** 2) ** 2


# ---------------------------------------------------------------------------
# homology loops, periods, flux


def _loop_nodes(params, kind):
    """The nodes of the trapezoidal rule on the loop ``kind``: (z, w,
    dz/dtheta) at zeta_k = R e^(i theta_k), theta_k = 2 pi k / n, k < n,
    on a contour where w is single-valued and analytic (see :func:`period`),
    n by the node rule, 2 ceil(37 / ln sqrt(rho)).
    """
    s = params.sigma
    if kind == "end":
        rho = 1.0 / END_RADIUS
        radius = math.sqrt(END_RADIUS * min(1.0, s))
    elif kind in ("gamma1", "gamma2"):
        x = 1.0 + 2.0 * (s if kind == "gamma1" else 1.0 / s)
        rho = x + math.sqrt(x * x - 1.0)
        radius = math.sqrt(rho)
    else:
        raise ValueError(f"unknown loop {kind!r}")
    n = 2 * math.ceil(_LOOP_EXPONENT / math.log(math.sqrt(rho)))
    zeta = radius * np.exp(2j * math.pi * np.arange(n) / n)
    if kind == "end":
        z = zeta * zeta
        return z, 1j * zeta * np.sqrt(1.0 - z) * np.sqrt(z + s), 2j * z
    # z - a and z - b in factored form, free of cancellation near the foci
    scale = 0.25 if kind == "gamma1" else 0.25 * s
    half = scale * (zeta - 1.0) * (zeta + 1.0) / zeta
    if kind == "gamma1":
        z = scale * (zeta + 1.0) ** 2 / zeta
        return z, half * np.sqrt(z + s), 1j * half
    z = scale * (zeta - 1.0) ** 2 / zeta
    return z, 1j * half * np.sqrt(1.0 - z), 1j * half


def period(params: CurveParams, kind: str) -> np.ndarray:
    """The three loop integrals (int phi1, int phi2, int phi3) over the
    homology class ``kind``, by the periodic trapezoidal rule.

    Each class is integrated on a contour where w is analytic, so the rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56 (2014)):

    * ``"gamma1"``, the class of a loop enclosing {0, 1}:
      z = 1/2 + (zeta + 1/zeta)/4, which makes
      w = (zeta - 1/zeta)/4 sqrt(z + sigma) and dz/w = dzeta/(zeta
      sqrt(z + sigma)), analytic for 1 < |zeta| < rho: z = 0, the pole of
      1/g, lies on |zeta| = 1, and -sigma on |zeta| = rho = x +
      sqrt(x^2 - 1), x = 1 + 2 sigma;
    * ``"gamma2"``, enclosing {-sigma, 0}: the same map with the foci
      -sigma and 0, w = i (sigma/4)(zeta - 1/zeta) sqrt(1 - z), and
      x = 1 + 2/sigma, from the branch point 1;
    * ``"end"``, the double loop around the end z = 0: z = zeta^2, once
      around |zeta| = sqrt(0.3 min(1, sigma)), w = i zeta sqrt(1 - z)
      sqrt(z + sigma), and rho = 1/0.3.  The branch points 1 and -sigma
      lie sqrt(rho) or more outside the contour; the pole of 1/g at
      zeta = 0 gives the integrand in theta only the term e^(-i theta),
      which the rule sums to 0 exactly, as its integral is.

    The gamma contours are |zeta| = sqrt(rho), midway in ln|zeta| between
    the two singular circles, so in every case the integrand is analytic
    within ln sqrt(rho) of the contour in ln|zeta|.  The rule takes
    n = 2 ceil(37 / ln sqrt(rho)) nodes: its error is at most of order
    e^(-37) ~ 1e-16 times the integrand's size halfway to the nearest
    singular circle; over sigma in [1e-3, 1e3] n runs from 18 to 2342 for
    the gamma loops and is 124 for the end loop.  Each contour runs
    counterclockwise from a point of the real axis (zeta > 0) on the
    principal root there: w > 0 right of 1, w = i sqrt(|p(z)|) on (0, 1).
    """
    z, w, dz = _loop_nodes(params, kind)
    terms = (_phi_vector(params, z, w) * dz[:, None]).T
    # the correctly rounded sum of the terms, in any order
    total = [complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
             for t in terms]
    return np.array(total) * (2.0 * math.pi / len(z))


def flux(params: CurveParams, kind: str) -> np.ndarray:
    """F(gamma) = Im int (phi1, phi2, phi3), a homology invariant."""
    return period(params, kind).imag


# ---------------------------------------------------------------------------
# symmetries


def apply_symmetry(params: CurveParams, which: str, pt: CurvePoint) -> CurvePoint:
    """S1(z,w) = (-sigma/z, -sigma w/z^2); S2 = (conj z, -conj w); S3 = conj."""
    z, w = pt.z, pt.w
    s = params.sigma
    if which == "S1":
        if np.any(z == 0):
            raise PoleOfGaussMap("S1 undefined at z = 0")
        return CurvePoint(-s / z, -s * w / z ** 2)
    if which == "S2":
        return CurvePoint(np.conj(z), -np.conj(w))
    if which == "S3":
        return CurvePoint(np.conj(z), np.conj(w))
    raise ValueError(f"unknown symmetry {which!r}")


def verify_symmetry_action(params: CurveParams, which: str,
                           samples: CurvePoint) -> float:
    """Largest defect, over the sample points (0 for none), of the
    g-relation, the phi3-pullback relation and the curve equation at the
    image point.

    S1: g o S1 = -1/g          S1* phi3 = -phi3
    S2: g o S2 = conj g        S2* phi3 = -conj phi3
    S3: g o S3 = conj g        S3* phi3 = +conj phi3
    """
    rs = math.sqrt(params.sigma)
    img = apply_symmetry(params, which, samples)
    z, w = samples.z, samples.w
    g, g_img = z / rs, img.z / rs
    if which == "S1":
        res_g = np.abs(g_img + 1.0 / g)
        # pullback density: (1/w') * d(-sigma/z)/dz = -1/w
        res_p = np.abs((1.0 / img.w) * (params.sigma / z ** 2) + 1.0 / w)
    else:
        sign = -1.0 if which == "S2" else 1.0
        res_g = np.abs(g_img - np.conj(g))
        res_p = np.abs(1.0 / img.w - sign * np.conj(1.0 / w))
    res_c = on_curve_residual(params, img)
    return float(np.max([res_g, res_p, res_c], initial=0.0))


def gauss_ode_residual(params: CurveParams, pt: CurvePoint) -> float:
    """Largest defect of (g')^2 = g(sqrt(s)+g)(sqrt(s) g - 1) and the g''
    relation over the point or points ``pt`` (0 for no points), each
    relative to the largest term of its relation.

    With phi3 = d(xi), the curve data gives g = z/sqrt(s), g' = w/sqrt(s)
    and g'' = p'(z)/(2 sqrt(s)); both displayed relations are algebraic
    consequences, so the residual measures how exactly (z, w) sits on the
    curve.  The terms are (g')^2 and the monomials sqrt(s) g^3,
    (s-1) g^2, sqrt(s) g of the first relation, and sqrt(s)/2, (s-1) g,
    3 sqrt(s) g^2 / 2 of the second: rounding leaves a defect of a few
    ulps of the largest, which at |z| ~ 800 and s = 1e3 is ~1e6.
    """
    s = params.sigma
    rs = math.sqrt(s)
    z = pt.z
    g = z / rs
    gp = pt.w / rs
    a = np.abs(g)
    res1 = np.abs(gp ** 2 - g * (rs + g) * (rs * g - 1.0))
    # every term is 0 only at the branch point z = w = 0, where res1 is 0
    terms1 = np.maximum.reduce([np.abs(gp) ** 2, rs * a ** 3,
                                abs(s - 1.0) * a ** 2, rs * a])
    gpp_curve = (3.0 * z ** 2 + 2.0 * (s - 1.0) * z - s) / (2.0 * rs)
    gpp_formula = -rs / 2.0 + (s - 1.0) * g + 1.5 * rs * g ** 2
    res2 = np.abs(gpp_curve - gpp_formula)
    terms2 = np.maximum(rs / 2.0,
                        np.maximum(abs(s - 1.0) * a, 1.5 * rs * a ** 2))
    return float(np.max([res1 / np.where(terms1 > 0.0, terms1, 1.0),
                         res2 / terms2], initial=0.0))


def gauss_derivatives(params: CurveParams, pt: CurvePoint, order: int) -> np.ndarray:
    """(g, g', ..., g^(order)) at a regular point, in the phi3 = d(xi) chart.

    g'' = -sqrt(s)/2 + (s-1) g + (3 sqrt(s)/2) g^2 is differentiated
    repeatedly through the jet, so every entry is an exact polynomial in
    (g, g'); no finite differences.  ``pt.z`` and ``pt.w`` may be arrays of
    one shape P: the result then has shape (order + 1,) + P, a trailing
    point axis, and each point's entries have the bits of the scalar call.
    Raises PoleOfGaussMap if any point has z = 0 or w = 0.
    """
    s = params.sigma
    rs = math.sqrt(s)
    z, w = pt.z, pt.w
    if (np.count_nonzero(w) < np.size(w)
            or np.count_nonzero(z) < np.size(z)):
        raise PoleOfGaussMap("jet needs a regular point")
    vals = np.zeros((order + 1,) + np.shape(z), dtype=complex)
    # by parts, as Python's complex / float rounds: numpy's complex / real
    # multiplies by a reciprocal
    vals[0] = z.real / rs + 1j * (z.imag / rs)
    if order >= 1:
        vals[1] = w.real / rs + 1j * (w.imag / rs)
    binom = [[math.comb(m, i) for i in range(m + 1)] for m in range(order + 1)]
    for k in range(2, order + 1):
        m = k - 2
        sq_m = sum(_cmul(binom[m][i] * vals[i], vals[m - i])
                   for i in range(m + 1))
        vals[k] = (s - 1.0) * vals[m] + 1.5 * rs * sq_m
        if m == 0:
            vals[k] += -rs / 2.0
    return vals


def _cmul(a, b):
    """a * b, rounded as numpy's scalar complex product rounds it: the
    array product may fuse a multiply-add and differ in the last bit."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out[()]


class _SeededDraws:
    """The two draws :func:`random_regular_points` makes, from
    ``random.Random(seed)``: each value is one ``Random.random()`` call,
    the one method whose sequence Python keeps for a seed across versions
    (numpy keeps only its legacy ``RandomState`` stream fixed)."""

    def __init__(self, seed: int):
        self._random = random.Random(seed).random

    def random(self, shape) -> np.ndarray:
        """Uniforms in [0, 1) filling ``shape`` in C order."""
        count = math.prod(shape)
        return np.fromiter(starmap(self._random, repeat((), count)), float,
                           count).reshape(shape)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """``size`` values low + floor((high - low) u), one uniform u each:
        uniform on [low, high) when high - low is a power of two."""
        return low + np.floor((high - low) * self.random((size,))).astype(int)


def random_regular_points(params: CurveParams, n: int, rng) -> CurvePoint:
    """Seeded sample of n regular curve points away from the branch points,
    as one :class:`CurvePoint` of 1-d arrays.

    z is uniform in (r, theta) over the annulus 0.15 <= r / ((1 + sigma)/2)
    <= 1.6, and a candidate closer than SAMPLE_CLEARANCE (1 + sigma) to a
    branch point {0, 1, -sigma} is rejected.  ``rng`` is any object with
    numpy ``Generator``'s ``random(shape)`` and ``integers(low, high,
    size)`` (a ``Generator``, or :class:`_SeededDraws`).  Draw order:
    rounds of one ``rng.random((2, m))`` block, r from row 0 and theta
    from row 1, m the number of points still missing, until n are kept;
    then one ``rng.integers(0, 2, n)``, a 1 putting the point on the sheet
    of -sqrt.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    scale = 0.5 * (1.0 + params.sigma)
    clear = SAMPLE_CLEARANCE * (1.0 + params.sigma)
    bps = np.array(branch_points(params))
    z = np.empty(0, dtype=complex)
    while len(z) < n:
        u = rng.random((2, n - len(z)))
        cand = scale * (0.15 + 1.45 * u[0]) * np.exp(2j * math.pi * u[1])
        near = np.abs(cand[:, None] - bps).min(axis=1)
        z = np.concatenate([z, cand[~(near < clear)]])
    # _cmul rounds as the scalar product does on every host; the array
    # product of curve_poly may fuse a multiply-add where the CPU has one
    w = np.sqrt(_cmul(_cmul(z, z - 1.0), z + params.sigma))
    return CurvePoint(z, np.where(rng.integers(0, 2, n) == 1, -w, w))
