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
foliation, plus a finite-difference/DFT cross-check of the closed forms.
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
    "enneper_coefficients", "enneper_fourier_check", "foliation_frames",
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


# Carlson's r: the truncated series below are accurate to about r relative
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
    Duplication, then the fifth-order series (DLMF 19.36.1), one element
    at a time.
    """
    return _elementwise(_rf_one, x, y, z)


def _rf_series(X, Y):
    """R_F's fifth-order series (DLMF 19.36.1) in the scaled deviations X,
    Y of the first two arguments (Z = -X - Y); real or complex."""
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return 1.0 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44


def carlson_rd(x, y, z):
    """R_D(x, y, z) = 3/2 int_0^inf dt / ((t + z) sqrt((t + x)(t + y)(t + z))).

    Arguments finite, x and y nonnegative with at most one of them zero, z
    positive (DomainError otherwise); scalars or arrays that broadcast.
    Duplication, then the series (DLMF 19.36.2), one element at a time; a
    value beyond the floats reads inf.
    """
    return _elementwise(_rd_one, x, y, z)


def _rd_series(X, Y):
    """R_D's fifth-order series (DLMF 19.36.2) in the scaled deviations X,
    Y of the first two arguments (Z = -(X + Y)/3); real or complex."""
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2 = xy - 6 * zz
    e3 = (3 * xy - 8 * zz) * Z
    e4 = 3 * (xy - zz) * zz
    e5 = xy * zz * Z
    return (1.0 - 3 * e2 / 14 + e3 / 6 + 9 * e2 * e2 / 88 - 3 * e4 / 22
            - 9 * e2 * e3 / 52 + 3 * e5 / 26)


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


def foliation_frames(d: FoliationData, us):
    """Frenet frames and centers of the foliation data at the parameters us.

    The Frenet frame and center curve are integrated from the identity
    frame at u = 0 by one RK4 step to each u, all u in one (len(us), 12)
    array; |u| <= 1e-4 (ValueError otherwise), the offsets of a finite
    difference.  The step's local error is about (|A| u)^5 / 120 < 1e-19,
    A the 12x12 system matrix (|A| is at most about 3 for the data the
    tests use), so it agrees with a 64-step march to rounding.
    kappa and the velocity components vary linearly in u (their
    derivatives are the supplied primes), tau is held constant (the trig
    coefficients do not involve tau').  Returns (n, b, c), each of shape
    (len(us), 3).

    Torsion convention: b' = +tau n (equivalently n' = -kappa t - tau b).
    This is the convention under which the closed-form coefficients
    reproduce the sampled trig polynomial; the opposite sign leaves a
    2*tau*delta-sized defect in the constant coefficient.
    """
    k0, kp = d.kappa, d.kappa_p
    t0 = d.tau

    def deriv(u, y):
        t, n, b = y[:, 0:3], y[:, 3:6], y[:, 6:9]
        k = (k0 + kp * u)[:, None]
        al = (d.alpha + d.alpha_p * u)[:, None]
        be = (d.beta + d.beta_p * u)[:, None]
        de = (d.delta + d.delta_p * u)[:, None]
        dt = k * n
        dn = -k * t - t0 * b
        db = t0 * n
        dc = al * t + be * n + de * b
        return np.concatenate([dt, dn, db, dc], axis=1)

    us = np.asarray(us, dtype=float)
    if np.any(np.abs(us) > 1e-4):
        raise ValueError("foliation_frames takes one RK4 step, |u| <= 1e-4")
    y = np.tile(np.concatenate([np.eye(3).ravel(), np.zeros(3)]),
                (len(us), 1))
    h = us[:, None]
    k1 = deriv(np.zeros_like(us), y)
    k2 = deriv(us / 2, y + h / 2 * k1)
    k3 = deriv(us / 2, y + h / 2 * k2)
    k4 = deriv(us, y + h * k3)
    y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y[:, 3:6], y[:, 6:9], y[:, 9:12]


# enneper_fourier_check's v-grid and finite-difference step in u
_ENNEPER_NV = 256
_ENNEPER_H = 1e-4


def enneper_fourier_check(d: FoliationData) -> float:
    """Max |DFT coefficient - closed form| over the seven coefficients.

    Samples P(v) = G det(Xu,Xv,Xuu) - 2F det(Xu,Xv,Xuv) + E det(Xu,Xv,Xvv)
    on a uniform 256-point v-grid (P is a degree-3 trig polynomial, so the
    grid is vastly sufficient) using central finite differences in u and
    the analytic v-derivatives of the local surface
    X(u, v) = c(u) + r(u)(cos v n(u) + sin v b(u)), with the frames of
    :func:`foliation_frames` at u = -h, 0, h, h = 1e-4.

    That h is where the error is smallest.  Over the unit canonical data
    and ten random configurations (test seed 42), the check reads,
    canonical / worst random:

        h       1e-6    1e-5    3e-5    1e-4    3e-4    1e-3    3e-3
        canon.  7.6e-5  1.5e-7  7.1e-8  1.3e-8  7.4e-8  8.1e-7  7.3e-6
        random  8.1e-4  3.0e-6  6.6e-7  8.3e-8  4.3e-7  4.8e-6  4.3e-5

    Below 1e-4 rounding in the second difference grows as h shrinks;
    above it the O(h^2) truncation grows ninefold per factor of 3 in h.
    """
    n_v, h = _ENNEPER_NV, _ENNEPER_H
    v = 2.0 * math.pi * np.arange(n_v) / n_v
    cos, sin = np.cos(v)[:, None], np.sin(v)[:, None]
    X, Xv = [], []
    for u, n, b, c in zip((-h, 0.0, h), *foliation_frames(d, (-h, 0.0, h))):
        r = d.r + d.r_p * u + 0.5 * d.r_pp * u * u
        X.append(c + r * (cos * n + sin * b))
        Xv.append(r * (-sin * n + cos * b))
    (Xm1, X0, Xp1), (Xv_m1, Xv, Xv_p1) = X, Xv
    Xu = (Xp1 - Xm1) / (2 * h)
    Xuu = (Xp1 - 2 * X0 + Xm1) / (h * h)
    Xuv = (Xv_p1 - Xv_m1) / (2 * h)
    # X(0, v) = c + r(cos v n + sin v b) gives X_vv = c - X; the center c is
    # the exact mean of X over the uniform v-grid.
    Xvv = X0.mean(axis=0)[None, :] - X0

    E = np.einsum("ij,ij->i", Xu, Xu)
    F = np.einsum("ij,ij->i", Xu, Xv)
    G = np.einsum("ij,ij->i", Xv, Xv)

    def det3(A, B, C):
        return np.einsum("ij,ij->i", A, np.cross(B, C))

    P = (G * det3(Xu, Xv, Xuu) - 2.0 * F * det3(Xu, Xv, Xuv)
         + E * det3(Xu, Xv, Xvv))

    coeffs = np.array([
        2.0 / n_v * np.sum(P * np.cos(3 * v)),
        2.0 / n_v * np.sum(P * np.sin(3 * v)),
        2.0 / n_v * np.sum(P * np.cos(2 * v)),
        2.0 / n_v * np.sum(P * np.sin(2 * v)),
        2.0 / n_v * np.sum(P * np.cos(v)),
        2.0 / n_v * np.sum(P * np.sin(v)),
        1.0 / n_v * np.sum(P),
    ])
    return float(np.max(np.abs(coeffs - enneper_coefficients(d))))
