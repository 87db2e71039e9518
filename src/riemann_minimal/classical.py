"""Riemann's classical construction of the circle-foliated minimal surfaces.

A horizontal circle foliation with |a| = 1 reduces to the radius ODE

    2 q^3 + (q')^2 + q (2 - q'') = 0,      q(z) = r(z)^2,

whose first integral (q')^2/q^2 = 4(q - 1/q) + 4*lambda turns the surface
into explicit quadratures on q in [q1, infinity):

    z(q)  =  1/2 int_{q1}^{q} du / sqrt(u^3 - u + lambda u^2)
    f(q)  = -1/2 int_{q1}^{q} u du / sqrt(u^3 - u + lambda u^2)
    X(q, v) = f(q) (1, 0) + sqrt(q) (cos v, sin v, 0) + (0, 0, z(q))

with q1 = ( -lambda + sqrt(4 + lambda^2) ) / 2 the simple root of the
radicand.  The surface is normalized so the minimum-radius circle sits at
height zero with center at the origin.  Note the two different integrands:
the height integral carries du, the center offset carries u du (resolved
against the first integral; the printed pair that shows u du for both is a
typo in the source material).

The radicand factors as u (u - q1) (u + p) with p = 1/q1 = q1 + lambda, so
both integrals are incomplete elliptic integrals in Carlson's symmetric
forms (DLMF 19.16, 19.29; Carlson, Numer. Algorithms 10 (1995),
arXiv:math/9409227):

    zeta = z(inf) = R_F(0, q1, q1 + p)
    z(q)  = sqrt(q - q1) R_F(q (q1 + p), q1 (q + p), q1 (q1 + p))
    f(q)  = -sqrt(q (q - q1) (q + p)) / q
            + (R_D(0, q1 + p, q1) - R_D(q - q1, q + p, q)) / 3

The height uses Carlson's two-limit form with lower limit q1, so it has no
cancellation near the neck; the center offset follows from
d/du (sqrt(R(u)) / u) = (u + 1/u) / (2 sqrt(R(u))).

The a = 0 branch of the same quadrature is the catenoid; its closed form is

    z(q) = arcsinh( sqrt(lambda q - 1) ) / sqrt(lambda),

the exponent on lambda being fixed by matching the quadrature (acceptance
criterion 2 compares the two).

This module also carries Enneper's reduction: the seven trigonometric
coefficients a1..a7 of (eG - 2fF + Eg) |Xu x Xv| for a general circle
foliation, plus a check of those closed forms against the DFT of the
product sampled from the surface's exact derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RiemannMinimalError

__all__ = [
    "DomainError", "ConvergenceError", "RiemannParams", "FoliationData",
    "q_min", "sigma_of_lambda", "lambda_of_sigma", "radicand", "carlson_rf", "carlson_rd",
    "height", "center_offset",
    "slab_height", "parameterize", "catenoid_height",
    "enneper_coefficients", "enneper_fourier_check",
]


class DomainError(RiemannMinimalError):
    """Argument outside the admissible q-range."""


class ConvergenceError(RiemannMinimalError):
    """A numerically computed limit failed its Cauchy check."""


def q_min(lam: float) -> float:
    """q1(lambda) = (-lambda + sqrt(4 + lambda^2))/2, the minimum of q.

    For lambda > 0 the equal form 2/(lambda + sqrt(4 + lambda^2)) avoids
    the cancellation.
    """
    root = math.hypot(2.0, lam)
    return 2.0 / (lam + root) if lam > 0 else 0.5 * (root - lam)


def sigma_of_lambda(lam: float) -> float:
    """sigma = 1/q1^2 = ((lambda + sqrt(lambda^2 + 4)) / 2)^2.

    s = |lambda|/2 + sqrt(1 + lambda^2/4) is 1/q1 for lambda > 0 and q1
    otherwise: q_min's cancellation-free branch, halved so that no finite
    lambda overflows it.  Within 3 ulp of exact; where sigma leaves the
    floats it reads inf or 0.0 rather than raising.
    """
    s = 0.5 * abs(lam) + math.hypot(1.0, 0.5 * lam)
    return s * s if lam > 0 else 1.0 / s / s


def lambda_of_sigma(sigma: float) -> float:
    """lambda = (sigma - 1)/sqrt(sigma), the inverse of
    :func:`sigma_of_lambda` (sigma = 1/q1^2)."""
    return (sigma - 1.0) / math.sqrt(sigma)


def radicand(lam: float, u):
    """u^3 + lambda u^2 - u = u (u - q1) (u + q1 + lambda)."""
    return u * (u * u + lam * u - 1.0)


# Carlson's r: the truncated series below are accurate to about r relative.
# The exponent -1/6 is the stopping rule of a fifth-order series, which
# the seventh-order series meets with room (its rule's exponent is -1/8)
_CARLSON_R = 1e-16
_RF_TOL = (3.0 * _CARLSON_R) ** (-1 / 6)
_RD_TOL = (_CARLSON_R / 4.0) ** (-1 / 6)
# in-domain arguments from 1e-300 to 1e300 stop within 14 steps
_CARLSON_MAX_STEPS = 60


def _elementwise(one, x, y, z):
    """``one`` over the broadcast of x, y, z, element by element in Python
    floats; a scalar for scalar arguments.

    The package passes at most 20 elements per call, where numpy's
    per-call overhead costs more than this loop; real IEEE + - * / and
    sqrt round correctly in both, so the values have numpy's bits.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                    for v in (x, y, z)))
    vals = map(one, x.ravel().tolist(), y.ravel().tolist(), z.ravel().tolist())
    return np.fromiter(vals, float, x.size).reshape(x.shape)[()]


def _duplicate(x, y, z, a0, tol, rd):
    """Carlson's duplication x -> (x + lam)/4 until 4^-m Q < |A_m|, for one
    argument triple.

    DomainError unless all three are finite and nonnegative with at most
    one zero, and for R_D (``rd`` set) z > 0; ConvergenceError after
    _CARLSON_MAX_STEPS steps (arguments whose sum overflows).  Returns
    (A_m, 4^-m, sum over the steps of 4^-k / (sqrt(z_k)(z_k + lam_k)));
    the sum is R_D's and only formed when ``rd`` is set.
    """
    if (not (0.0 <= x < math.inf and 0.0 <= y < math.inf
             and (0.0 < z if rd else 0.0 <= z) and z < math.inf)
            or (x == 0.0) + (y == 0.0) + (z == 0.0) > 1):
        raise DomainError(
            f"R_{'D' if rd else 'F'}({x!r}, {y!r}, {z!r}): the arguments must "
            "be finite and nonnegative, at most one zero"
            + (" and the last positive" if rd else ""))
    dev = max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    a, scale, tail = a0, 1.0, 0.0
    for _ in range(_CARLSON_MAX_STEPS):
        # Q 4^-m as (tol 4^-m) dev: the same bits as (tol dev) 4^-m, which
        # overflows for arguments beyond ~1e305
        if tol * scale * dev < abs(a):
            return a, scale, tail
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        if rd:
            tail += scale / (sz * (z + lam))
        a, scale = (a + lam) / 4, scale / 4.0
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    raise ConvergenceError(
        f"Carlson duplication took more than {_CARLSON_MAX_STEPS} steps")


def _rf_one(x, y, z):
    a0 = (x + y + z) / 3.0
    a, scale, _ = _duplicate(x, y, z, a0, _RF_TOL, False)
    return (_rf_series((a0 - x) * scale / a, (a0 - y) * scale / a)
            / math.sqrt(a))


def _rd_one(x, y, z):
    a0 = (x + y + 3.0 * z) / 5.0
    try:
        a, scale, tail = _duplicate(x, y, z, a0, _RD_TOL, True)
        return (scale * _rd_series((a0 - x) * scale / a, (a0 - y) * scale / a)
                / (a * math.sqrt(a)) + 3.0 * tail)
    except ZeroDivisionError:
        # a denominator below the floats: R_D is beyond them too
        return math.inf


def carlson_rf(x, y, z):
    """R_F(x, y, z) = 1/2 int_0^inf dt / sqrt((t + x)(t + y)(t + z)).

    Arguments finite and nonnegative, at most one of them zero
    (DomainError otherwise); scalars or arrays that broadcast.
    Duplication, then the seventh-order series (DLMF 19.36.1), one element
    at a time.
    """
    return _elementwise(_rf_one, x, y, z)


def _rf_series(X, Y):
    """R_F's seventh-order series (DLMF 19.36.1) in the scaled deviations
    X, Y of the first two arguments (Z = -X - Y), A^(1/2) R_F; real or
    complex.  Its truncation error is of order max(|X|, |Y|, |Z|)^8.  The
    constants are reciprocals, so every operation is a product or a sum."""
    Z = -X - Y
    xy = X * Y
    e2 = xy - Z * Z
    e3 = xy * Z
    return (1.0 + e3 * (1 / 14 + 3 / 104 * e3)
            + e2 * (e2 * (1 / 24 - 5 / 208 * e2 + 1 / 16 * e3)
                    - 1 / 10 - 3 / 44 * e3))


def carlson_rd(x, y, z):
    """R_D(x, y, z) = 3/2 int_0^inf dt / ((t + z) sqrt((t + x)(t + y)(t + z))).

    Arguments finite, x and y nonnegative with at most one of them zero, z
    positive (DomainError otherwise); scalars or arrays that broadcast.
    Duplication, then the seventh-order series (DLMF 19.36.2), one element
    at a time; a value beyond the floats reads inf.
    """
    return _elementwise(_rd_one, x, y, z)


def _rd_series(X, Y):
    """R_D's seventh-order series (DLMF 19.36.2) in the scaled deviations
    X, Y of the first two arguments (Z = -(X + Y)/3), A^(3/2) R_D; real or
    complex, by products and sums as :func:`_rf_series`."""
    Z = -(X + Y) * (1 / 3)
    xy, zz = X * Y, Z * Z
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * Z
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * zz * Z
    return (1.0 + e2 * (e2 * (9 / 88 - 1 / 16 * e2 + 45 / 272 * e3)
                        - 3 / 14 - 9 / 52 * e3 + 3 / 20 * e4 - 9 / 68 * e5)
            + e3 * (1 / 6 + 3 / 40 * e3 - 9 / 68 * e4)
            - 3 / 22 * e4 + 3 / 26 * e5)


@dataclass(frozen=True)
class RiemannParams:
    """One member of the family: lambda plus its derived quantities.

    The direction of the center line is fixed to (1, 0); rotating it
    rotates the surface and is not a genuine parameter.
    """

    lam: float
    q1: float
    zeta: float

    @classmethod
    def from_lambda(cls, lam: float) -> "RiemannParams":
        return cls(float(lam), q_min(lam), slab_height(lam))


def _checked_q(params, q):
    """q as a float array, clamped to q1; DomainError below q1."""
    q = np.asarray(q, dtype=float)
    if np.any(q < params.q1 - 1e-12):
        raise DomainError(f"q = {np.min(q)} below q1 = {params.q1}")
    return np.maximum(q, params.q1)


def height(params: RiemannParams, q):
    """z_lambda(q): height of the circle of radius sqrt(q) (scalar or array).

    Zero at q1, strictly increasing, bounded above by zeta; Carlson's
    two-limit form sqrt(q - q1) R_F(q (q1 + p), q1 (q + p), q1 (q1 + p)).
    """
    q = _checked_q(params, q)
    q1 = params.q1
    p = 1.0 / q1
    return (np.sqrt(q - q1)
            * carlson_rf(q * (q1 + p), q1 * (q + p), q1 * (q1 + p)))[()]


def center_offset(params: RiemannParams, q):
    """f_lambda(q): first coordinate of the circle center at parameter q
    (scalar or array).

    Zero at q1, strictly decreasing, diverging like -sqrt(q).
    """
    q = _checked_q(params, q)
    q1 = params.q1
    p = 1.0 / q1
    d = q - q1
    return (-np.sqrt(q * d * (q + p)) / q
            + (carlson_rd(0.0, q1 + p, q1) - carlson_rd(d, q + p, q)) / 3.0)[()]


def slab_height(lam: float) -> float:
    """zeta(lambda) = lim_{q->inf} z_lambda(q) = R_F(0, q1, q1 + p).

    On the Weierstrass side, with sigma = 1/q1^2, it is sigma^(1/4) t0_3 / 2
    (t0 of ``mesh.FundamentalSurface.translation_half``).
    """
    q1 = q_min(lam)
    return float(carlson_rf(0.0, q1, q1 + 1.0 / q1))


def parameterize(params: RiemannParams, q, v) -> np.ndarray:
    """X(q, v) = f(q)(1,0,0) + sqrt(q)(cos v, sin v, 0) + (0,0,z(q)).

    q and v are scalars or arrays that broadcast to a shape P; the result
    has shape (3,) + P, a leading coordinate axis and a trailing point axis.
    """
    fq = center_offset(params, q)
    zq = height(params, q)
    rq = np.sqrt(q)
    return np.stack(np.broadcast_arrays(fq + rq * np.cos(v), rq * np.sin(v),
                                        zq))


def catenoid_height(lam: float, q: float) -> float:
    """Closed form of the a = 0 (catenoid) height integral.

    z(q) = arcsinh(sqrt(lambda q - 1)) / sqrt(lambda); must agree with the
    direct quadrature of the height integral with radicand lambda u^2 - u.
    Its neck is 1/lambda, and the two-limit form of :func:`height` gives
    the same integral as sqrt(q - 1/lambda) R_F(lambda q, 1, 1), which the
    tests and ``demos/01`` compare with this one.
    """
    if lam <= 0:
        raise DomainError("catenoid branch needs lambda > 0")
    if q < 1.0 / lam - 1e-12:
        raise DomainError(f"q = {q} below the neck 1/lambda = {1.0 / lam}")
    q = max(q, 1.0 / lam)
    return math.asinh(math.sqrt(max(lam * q - 1.0, 0.0))) / math.sqrt(lam)


# ---------------------------------------------------------------------------
# Enneper's reduction


@dataclass(frozen=True)
class FoliationData:
    """Pointwise data of a circle foliation X = c(u) + r(u)(cos v n + sin v b).

    (alpha, beta, delta) are the components of the center velocity c' in
    the Frenet frame {t, n, b} of the directrix; primes are u-derivatives.
    kappa > 0 is required (the directrix of a genuinely tilting foliation
    has nowhere-vanishing curvature).
    """

    r: float
    r_p: float
    r_pp: float
    kappa: float
    kappa_p: float
    tau: float
    alpha: float
    beta: float
    delta: float
    alpha_p: float = 0.0
    beta_p: float = 0.0
    delta_p: float = 0.0

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")


def enneper_coefficients(d: FoliationData) -> np.ndarray:
    """The seven closed-form coefficients of
    a1 cos 3v + a2 sin 3v + a3 cos 2v + a4 sin 2v + a5 cos v + a6 sin v + a7.
    """
    r, rp, rpp = d.r, d.r_p, d.r_pp
    k, kp, t = d.kappa, d.kappa_p, d.tau
    al, be, de = d.alpha, d.beta, d.delta
    alp, bep, dep = d.alpha_p, d.beta_p, d.delta_p
    a1 = -0.5 * r ** 3 * k * (be ** 2 - de ** 2 + r ** 2 * k ** 2)
    a2 = -r ** 3 * be * de * k
    a3 = 0.5 * r ** 3 * (-6 * be * k * rp + r * (5 * al * k ** 2 + k * bep - be * kp))
    a4 = 0.5 * r ** 3 * (r * k * dep - de * (6 * k * rp + r * kp))
    a5 = -0.5 * r ** 2 * (
        3 * r ** 3 * k ** 3 - 4 * al * be * rp
        + r * (8 * al ** 2 * k + 3 * be ** 2 * k
               + 3 * k * (de ** 2 + 2 * rp ** 2)
               - 2 * be * alp + 2 * al * (de * t + bep))
        + 2 * r ** 2 * (rp * kp - k * rpp))
    a6 = r ** 2 * (2 * al * de * rp + r ** 2 * k * t * rp
                   + r * (de * alp + al * (be * t - dep)))
    a7 = 0.5 * r ** 2 * (
        2 * al ** 3
        + r * (2 * rp * (-2 * be * k + alp) + r * (k * (2 * de * t + bep) - be * kp))
        + al * (2 * be ** 2 + 2 * de ** 2 + 5 * r ** 2 * k ** 2
                + 2 * rp ** 2 - 2 * r * rpp))
    return np.array([a1, a2, a3, a4, a5, a6, a7])


def enneper_fourier_check(d: FoliationData) -> float:
    """How far the closed forms of :func:`enneper_coefficients` are from
    the sampled surface, exact up to rounding.

    At u = 0, in the identity Frenet frame {t, n, b}, the local surface
    X(u, v) = c(u) + r(u)(cos v n(u) + sin v b(u)) has its derivatives in
    closed form, from t' = kappa n, n' = -kappa t - tau b, b' = tau n,
    c' = alpha t + beta n + delta b and those rates' derivatives; tau' is
    taken as 0, since it only adds -tau' Xv to Xuu, which drops out of P.
    The check samples
    P(v) = G det(Xu,Xv,Xuu) - 2F det(Xu,Xv,Xuv) + E det(Xu,Xv,Xvv) on a
    uniform 16-point v-grid and returns the larger of the largest
    |DFT coefficient - closed form| over the seven coefficients and the
    largest |DFT coefficient| of harmonics 4 to 8, which the reduction says
    vanish.  Each product that makes P has degree at most 5 in v, so the
    16 points read harmonics 0 to 8 without aliasing.

    Torsion convention: b' = +tau n (equivalently n' = -kappa t - tau b).
    This is the convention under which the closed-form coefficients
    reproduce the sampled trig polynomial; the opposite sign leaves a
    2*tau*delta-sized defect in the constant coefficient.
    """
    v = 2.0 * math.pi / 16 * np.arange(16)[:, None]
    cos, sin = np.cos(v), np.sin(v)
    k, t = d.kappa, d.tau
    n, b = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
    n_u, b_u = np.array([-k, 0.0, -t]), np.array([0.0, t, 0.0])
    n_uu = np.array([-d.kappa_p, -(k * k + t * t), 0.0])
    b_uu = np.array([-t * k, 0.0, -t * t])
    c_u = np.array([d.alpha, d.beta, d.delta])
    c_uu = np.array([d.alpha_p - d.beta * k,
                     d.alpha * k + d.beta_p + d.delta * t,
                     d.delta_p - d.beta * t])
    # the circle's unit ring cos v n + sin v b and its derivatives
    ring, ring_v = cos * n + sin * b, cos * b - sin * n
    ring_u, ring_uv = cos * n_u + sin * b_u, cos * b_u - sin * n_u
    ring_uu = cos * n_uu + sin * b_uu
    r, r_u = d.r, d.r_p
    Xu = c_u + r_u * ring + r * ring_u
    Xv = r * ring_v
    Xuu = c_uu + d.r_pp * ring + 2.0 * r_u * ring_u + r * ring_uu
    Xuv = r_u * ring_v + r * ring_uv
    Xvv = -r * ring

    def dot(A, B):
        return np.einsum("ij,ij->i", A, B)[:, None]

    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    P = dot(np.cross(Xu, Xv), G * Xuu - 2.0 * F * Xuv + E * Xvv)[:, 0]
    # rfft reads p cos jv + q sin jv (j >= 1) as (p - iq) 16/2, and a
    # constant as 16 times itself
    z = np.fft.rfft(P) / 8.0
    dft = np.array([z[3].real, -z[3].imag, z[2].real, -z[2].imag,
                    z[1].real, -z[1].imag, z[0].real / 2.0])
    return float(max(np.max(np.abs(dft - enneper_coefficients(d))),
                     np.max(np.abs(z[4:]))))
