"""Finite-difference oracles and cross-construction checks.

These are the independent verification routines shared by the CLI
``verify`` command and the test suite.  They deliberately avoid the
analytic derivative formulas of the modules they check: mean curvature and
conformality come from central finite differences of sampled immersion
values only, and the classical/Weierstrass comparison is a rigid-motion
plus single-scale registration of measured circle radii.

The routes each check takes to the surface: the sampled piece and the
Weierstrass stencil's anchors are closed-form points (``curve.immerse``),
and the stencil's increments are one G7/K15 panel each
(``quad.panel_increments``); registration and the circle foliation fit
circles to slices that :func:`slice_checks`, the one code that picks
their heights, takes of the piece: it is sliced once, both checks'
crossings are refined to exact points in one lockstep Newton loop on
``curve.immerse``, and the cell's circles are the orbit of the piece's
slices under the cell's isometries; each check fits all its slices in
one stacked ``mesh.level_circle_fit`` call.  The classical stencil adds
one-panel increments to the Carlson closed forms of ``classical``.  The
periods and fluxes of ``verify`` are trapezoidal sums on analytic
contours (``curve.period``).  The sampled vertices, the periods and the stencil
increments are pinned against an adaptive quadrature oracle with branch
tracking by the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical, curve, mesh, quad
from .quad import RiemannMinimalError

__all__ = [
    "fd_surface_checks", "classical_fd_grid", "weierstrass_fd_grid",
    "RegistrationResult", "registration_error",
    "classical_radius_at_height", "foliation_residuals", "slice_checks",
    "catenoid_residual", "SliceFitError",
]


class SliceFitError(RiemannMinimalError):
    """Too few mesh slices cover the slab, or a slice is not a circle."""


def fd_surface_checks(sample, h):
    """Second-order FD fundamental forms from a 3x3 stencil of positions.

    ``sample(i, j)`` must return the surface point at (u0 + i*h, v0 + j*h),
    shape (3,), or shape (3,) + P for a batch of stencils with a trailing
    point axis (or axes) P; ``h`` is a scalar or broadcasts against P.
    Returns (|H|, conformal defect, orthogonality defect), the defects
    relative to |Xu|^2, each of shape P.  Every operation is elementwise
    over P, so a stencil's values do not depend on the batch it is in.
    """
    X00 = sample(0, 0)
    Xp0, Xm0 = sample(1, 0), sample(-1, 0)
    X0p, X0m = sample(0, 1), sample(0, -1)
    Xpp, Xpm = sample(1, 1), sample(1, -1)
    Xmp, Xmm = sample(-1, 1), sample(-1, -1)
    Xu = (Xp0 - Xm0) / (2 * h)
    Xv = (X0p - X0m) / (2 * h)
    Xuu = (Xp0 - 2 * X00 + Xm0) / (h * h)
    Xvv = (X0p - 2 * X00 + X0m) / (h * h)
    Xuv = (Xpp - Xpm - Xmp + Xmm) / (4 * h * h)

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    E, F, G = dot(Xu, Xu), dot(Xu, Xv), dot(Xv, Xv)
    n = np.cross(Xu, Xv, axis=0)
    n = n / np.sqrt(dot(n, n))
    e, f, g = dot(Xuu, n), dot(Xuv, n), dot(Xvv, n)
    H = (e * G - 2 * f * F + g * E) / (2 * (E * G - F * F))
    return np.abs(H)[()], (np.abs(E - G) / E)[()], (np.abs(F) / E)[()]


def classical_fd_grid(lam, nq=20, nv=20, h=1e-4):
    """Max FD |H| and conformality defects of the classical parameterization.

    The stencil q-values share one closed-form base evaluation of the
    height/center integrals plus short incremental quadratures over
    [q, q+h] and [q-h, q]; subtracting two independently rounded base values
    would put their error terms over h^2 and swamp the second differences.
    One batch: the base values come from one ``center_offset`` and one
    ``height`` call on all q, every increment of both integrands is one
    G7/K15 panel of one ``quad.panel_increments`` call (QuadError when a
    panel misses its tolerance), and all (q, v) stencils go through one
    :func:`fd_surface_checks` call.
    """
    params = classical.RiemannParams.from_lambda(lam)
    q1 = params.q1
    qs = np.linspace(q1 * 1.05 + 0.02, q1 + 3.0, nq)
    vs = np.linspace(0.0, 2 * math.pi, nv, endpoint=False)
    f0 = classical.center_offset(params, qs)
    z0 = classical.height(params, qs)

    def slope(u, row):
        # row 0: d(center_offset)/dq, row 1: d(height)/dq
        return (-0.5 * u if row == 0 else 0.5) / np.sqrt(
            classical.radicand(lam, u))

    # segments [q, q+h] then [q-h, q], one row per integrand
    a = np.tile(np.concatenate([qs, qs - h]), (2, 1))
    b = np.tile(np.concatenate([qs + h, qs]), (2, 1))
    inc = quad.panel_increments(
        lambda u: np.stack([slope(u[0], 0), slope(u[1], 1)]), a, b)
    (dfp, dfm), (dzp, dzm) = inc.reshape(2, 2, nq)
    fz = {-1: (f0 - dfm, z0 - dzm), 0: (f0, z0), 1: (f0 + dfp, z0 + dzp)}

    def sample(i, j):
        fq, zq = fz[i]
        rq = np.sqrt(qs + i * h)[:, None]
        return np.stack(np.broadcast_arrays(
            fq[:, None] + rq * np.cos(vs + j * h), rq * np.sin(vs + j * h),
            zq[:, None]))

    H, conf, orth = fd_surface_checks(sample, h)
    return float(H.max()), float(conf.max()), float(orth.max())


# the 3x3 stencil of fd_surface_checks without its centre
_STENCIL = ((1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (1, -1), (-1, 1), (-1, -1))


def _weierstrass_stencil(sigma, n_side, h, offsets):
    """Immersion at z0 + h_k (i + i j) for every anchor z0 and offset (i, j).

    The anchors are the interior points of the (n_side + 2)^2 grid of
    ``mesh.DomainMap(sigma, 0.35).grid``, each with X0 = psi(z0) and its
    principal branch w0 from the closed form :func:`curve.immerse`.
    z = u + iv is itself a conformal chart, but its scale shrinks near the
    branch points, so the step of anchor k is h_k = h min(1, distance from
    z0 to the nearest branch point).  The stencil values are X0 plus
    increments: every anchor x offset segment is one G7/K15 panel of one
    ``quad.panel_increments`` call (QuadError when a panel misses its
    tolerance), independent of the closed form.  Its w is the product of
    principal roots sqrt(z) sqrt(z - 1) sqrt(z + sigma), analytic on the
    open upper half-plane, where every stencil point lies (Im z0 > h_k).
    Subtracting two closed-form values instead would put their rounding
    over h^2.  Returns (X0, X, h_k) with shapes (n, 3), (n, len(offsets),
    3) and (n,).
    """
    params = curve.CurveParams(sigma)
    grid = mesh.DomainMap(sigma, 0.35).grid(n_side + 2, n_side + 2)
    z0 = grid[1:-1, 1:-1].ravel()
    X0, _ = curve.immerse(params, z0)
    bps = np.array(curve.branch_points(params))
    hk = h * np.minimum(1.0, np.min(np.abs(z0[:, None] - bps), axis=1))
    steps = np.array([complex(i, j) for i, j in offsets])
    zb = z0[:, None] + hk[:, None] * steps

    def phi(z):
        w = np.sqrt(z) * np.sqrt(z - 1.0) * np.sqrt(z + sigma)
        return curve._phi_vector(params, z, w)

    inc = quad.panel_increments(phi, np.repeat(z0, len(steps)), zb.ravel())
    return X0, X0[:, None] + inc.real.reshape(*zb.shape, 3), hk


def weierstrass_fd_grid(sigma, n_side=10, h=1e-4):
    """Max FD |H| and conformality defects of the curve immersion, from
    the stencils of :func:`_weierstrass_stencil` (step h scaled per anchor).
    """
    X0, X, hk = _weierstrass_stencil(sigma, n_side, h, _STENCIL)
    vals = {(0, 0): X0.T, **dict(zip(_STENCIL, X.transpose(1, 2, 0)))}
    H, conf, orth = fd_surface_checks(lambda i, j: vals[(i, j)], hk)
    return float(H.max()), float(conf.max()), float(orth.max())


# ---------------------------------------------------------------------------
# classical <-> Weierstrass registration


def classical_radius_at_height(params: classical.RiemannParams, z_target):
    """sqrt(q) of the circle at height z_target in [0, zeta) (scalar or
    array).

    Safeguarded Newton in s = sqrt(q - q1), where the height is smooth:
    dz/ds = 2 s dz/dq = 2 s * 0.5 / sqrt(radicand(q)) = 1 / sqrt(q (q + p)),
    finite at the neck where dz/dq is not.  z is concave in s with slope
    c = 1/sqrt(q1 (q1 + p)) at s = 0, so z(s) <= c s, and zeta - z(s) <= 1/s
    since R_F(x, y, z) <= 1/sqrt(min(x, y, z)); the sign bracket therefore
    starts as [z/c, 1/(zeta - z)], and Newton starts at its nearer end (the
    lower one below zeta/2).  A step that leaves the bracket is replaced by
    bisection; a target stops when its residual is zero or its step no
    longer moves q = q1 + s^2 by more than rounding, after 60 iterations at
    most.
    """
    z = np.asarray(z_target, dtype=float)
    if np.any((z < 0.0) | (z >= params.zeta)):
        raise classical.DomainError(
            f"height {z_target} outside [0, zeta={params.zeta})")
    q1 = params.q1
    p = 1.0 / q1
    lo = z * math.sqrt(q1 * (q1 + p))
    hi = 1.0 / (params.zeta - z)
    s = np.where(z < 0.5 * params.zeta, lo, hi)
    active = z > 0.0
    for _ in range(60):
        if not np.any(active):
            return np.sqrt(q1 + s * s)[()]
        q = q1 + s * s
        f = classical.height(params, q) - z
        lo = np.where(f <= 0.0, s, lo)
        hi = np.where(f >= 0.0, s, hi)
        step = f * np.sqrt(q * (q + p))
        new = s - step
        new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
        active &= (f != 0.0) & (np.abs(q1 + new * new - q)
                                 > 4 * np.finfo(float).eps * q)
        s = np.where(active, new, s)
    raise classical.ConvergenceError("height inversion did not converge")


@dataclass(frozen=True)
class RegistrationResult:
    scale: float
    height_offset: float
    max_radius_rel_err: float
    spacing_rel_err: float
    radii: np.ndarray
    heights: np.ndarray


def _circle_fits(heights, points, lines=()):
    """One ``mesh.level_circle_fit`` call on the slices ``points`` at
    ``heights`` (SliceFitError unless each is a circle) and on ``lines``."""
    fits = mesh.level_circle_fit([*points, *lines])
    for h, fit in zip(heights, fits[:len(points)], strict=True):
        if fit.kind != "circle":
            raise SliceFitError(f"slice at height {h} did not fit a circle")
    return fits


def registration_error(sigma, heights, points) -> RegistrationResult:
    """Register the classical surface R_lambda against M_sigma, with
    lambda = (sigma - 1)/sqrt(sigma) (:func:`classical.lambda_of_sigma`).

    ``heights`` and ``points`` are slices of the fundamental piece of
    ``sigma``, as :func:`slice_checks` picks and refines them: one (n_i, 3)
    array of exact surface points per height (ValueError when the two
    lengths differ).  Fits a circle to each slice, then a vertical offset
    plus a single scale carrying the classical radius-vs-height profile
    onto the measured radii.  Returns the worst relative radius error and
    the relative mismatch of the vertical line spacings (|t0_3| against
    2 s zeta).
    """
    cl = classical.RiemannParams.from_lambda(classical.lambda_of_sigma(sigma))
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    hs = np.asarray(heights, dtype=float)
    radii = np.array([fit.radius for fit in _circle_fits(hs, points)])
    neck_height = 0.5 * span  # the S1 fixed point sits midway between lines
    cap = 0.999 * cl.zeta
    p = 1.0 / cl.q1

    def residual_and_jacobian(x):
        # r_i = s rho(z_i) - radii_i with z_i = min(|h_i - h0| / s, cap) and
        # rho = classical_radius_at_height, d rho/dz = sqrt(q (q - q1)(q + p))
        # / sqrt(q) at q = rho^2; the capped heights do not move with x
        s, h0 = x
        zc = np.abs(hs - h0) / s
        free = zc < cap
        zc = np.minimum(zc, cap)
        rho = classical_radius_at_height(cl, zc)
        q = rho * rho
        drho = np.where(free, np.sqrt((q - cl.q1) * (q + p)), 0.0)
        jac = np.stack([rho - drho * zc, -drho * np.sign(hs - h0)], axis=1)
        return s * rho - radii, jac

    # Gauss-Newton with the analytic Jacobian; the fit is a small-residual
    # problem, so it converges in a few steps
    x = np.array([abs(span) / (2.0 * cl.zeta), neck_height])
    for _ in range(50):
        res, jac = residual_and_jacobian(x)
        dx = np.linalg.lstsq(jac, -res, rcond=None)[0]
        x = x + dx
        if np.all(np.abs(dx) <= 1e-13 * np.abs(x)):
            break
    else:
        raise classical.ConvergenceError("registration fit did not converge")
    s, h0 = x
    rel = np.max(np.abs(residual_and_jacobian(x)[0]) / radii)
    spacing_rel = abs(abs(span) - 2.0 * s * cl.zeta) / (2.0 * s * cl.zeta)
    return RegistrationResult(float(s), float(h0), float(rel),
                              float(spacing_rel), radii, hs)


def foliation_residuals(sigma, cell, heights, points):
    """Relative circle-fit residuals of slices of ``cell``, the
    fundamental piece of ``sigma`` extended by :func:`mesh.extend`.

    ``heights`` and ``points`` are generic heights in the slab and one
    (n_i, 3) array of exact surface points of ``cell`` per height, the
    orbit of the piece's slices that :func:`slice_checks` builds
    (ValueError when the two lengths differ).  ``cell`` itself is read
    only for the line heights.  Returns (relative residuals at the given
    heights, line classifications at the two line heights 0 and t0_3).
    """
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    # line heights: the slice at the height of a boundary line consists of
    # the (exactly coplanar, exactly collinear) line vertices themselves
    x3 = cell.vertices[:, 2]
    lines = [cell.vertices[np.abs(x3 - h) <= 1e-9 * max(1.0, abs(h))]
             for h in (0.0, span)]
    *circles, low, high = _circle_fits(heights, points, lines)
    rels = [fit.residual / fit.radius for fit in circles]
    return np.array(rels), [low.kind, high.kind]


def slice_checks(sigma, piece):
    """(:func:`registration_error` of ``piece``, :func:`foliation_residuals`
    of its cell): the one route from a sampled piece to its slice checks.

    ``piece``, the fundamental piece of ``sigma`` from
    :func:`mesh.sample_fundamental`, is the only mesh sliced: once, at 12
    evenly spaced candidate heights, of which registration keeps the
    first 6 that cross 8 or more edges (SliceFitError when fewer than 4
    do), and at foliation's 10 heights.  One :func:`mesh.refine_slice`
    call refines them all, 24 points per registration height and 14 per
    foliation height.  Foliation's heights are symmetric, h_j + h_(9-j) =
    t0_3, and the cell (``piece`` extended with ``copies=0``) keeps x3 in
    blocks 0 and 2 and sends it to t0_3 - x3 in blocks 1 and 3: its circle
    at h_j is blocks 0 and 2 of the piece's slice j plus blocks 1 and 3 of
    slice 9 - j.
    """
    cell = mesh.extend(piece, mesh.extension_ops(sigma), copies=0)
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    candidates = (0.14 + 0.72 * np.arange(12) / 11) * span
    fol_hs = (0.13 + 0.74 * np.arange(10) / 9.0) * span
    owner, *records = mesh.slice_mesh(piece,
                                      np.concatenate([candidates, fol_hs]))
    # extreme sigma pushes part of the slab beyond the end truncation
    kept = np.flatnonzero(np.bincount(owner, minlength=12)[:12] >= 8)[:6]
    if len(kept) < 4:
        raise SliceFitError(
            "too few heights cross 8 edges of the given piece; sample it on "
            "a finer grid or with a smaller e")
    used = np.concatenate([kept, 12 + np.arange(10)])
    sel = np.isin(owner, used)
    k = len(kept)
    pts = mesh.refine_slice(
        piece, np.concatenate([candidates[kept], fol_hs]), sigma,
        np.repeat([24, 14], [k, 10]),
        (np.searchsorted(used, owner[sel]), *(r[sel] for r in records)))
    slices, ops = pts[k:], cell.cell_ops
    circles = [np.concatenate([ops[b].apply(slices[9 - j if b % 2 else j])
                               for b in range(4)]) for j in range(10)]
    return (registration_error(sigma, candidates[kept], pts[:k]),
            foliation_residuals(sigma, cell, fol_hs, circles))


def catenoid_residual(lams=(0.5, 1.0, 2.0), n_q=20) -> float:
    """Max |Carlson form - arcsinh form| of the catenoid height integral.

    The a = 0 radicand is lambda u^2 - u, with its simple zero at the neck
    q = 1/lambda; in the Carlson form that ``classical.height`` uses, the
    height is sqrt(q - 1/lambda) R_F(lambda q, 1, 1), compared here with
    ``classical.catenoid_height`` on n_q - 1 points above each neck.
    """
    worst = 0.0
    for lam in lams:
        q = np.linspace(1.0 / lam, 1.0 / lam + 6.0, n_q)[1:]
        carlson = (np.sqrt(q - 1.0 / lam)
                   * classical.carlson_rf(lam * q, 1.0, 1.0))
        arcsinh = [classical.catenoid_height(lam, x) for x in q]
        worst = max(worst, np.max(np.abs(carlson - arcsinh), initial=0.0))
    return float(worst)
