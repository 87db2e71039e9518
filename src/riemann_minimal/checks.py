"""Finite-difference oracles and cross-construction checks.

These are the independent verification routines shared by the CLI
``verify`` command and the test suite.  Each reads the surface of the
parameter it is given, so a defect of that surface can move it; checks
on fixed data (the catenoid's closed form, Enneper's reduction) live in
the test suite.  They deliberately avoid the
analytic derivative formulas of the modules they check: mean curvature and
conformality come from central finite differences of sampled immersion
values only, and the classical/Weierstrass comparison is a rigid-motion
plus single-scale registration of measured circle radii, which
evaluates the classical height of each radius forward in closed form
and never inverts it.

The routes each check takes to the surface: both finite-difference
stencils take values relative to their centre, the Weierstrass stencil's
one G7/K15 panel each (``quad.panel_increments``); registration and the
circle foliation fit circles to slices that :func:`slice_checks`, the one
code that picks their heights, takes without a mesh: exact points in
closed form on lines of the height coordinate (``mesh.refine_slice``),
one ``curve.immerse`` call for all heights, each foliation circle half
its own slice and half the op-1 image of the slice at t0_3 - h; each
check fits all its slices in one closed-form ``mesh.level_circle_fit`` call.
The classical stencil's height and center increments are one-panel
quadratures of the integrands of ``classical``.  The periods and fluxes
of ``verify`` are trapezoidal sums on analytic contours
(``curve.period``).  The slice points, the periods and the stencil
increments are pinned against mpmath and an adaptive quadrature oracle
with branch tracking by the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import classical, curve, mesh, quad
from .errors import RiemannMinimalError

__all__ = [
    "fd_surface_checks", "classical_fd_grid", "weierstrass_fd_grid",
    "RegistrationResult", "registration_error", "foliation_residuals",
    "slice_checks", "SliceFitError",
]


class SliceFitError(RiemannMinimalError):
    """A slice that should be a circle is not one."""


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

    Each stencil's values are relative to its centre X(q, v), which is 0
    (absolute ones would carry rounding ~eps |X| over h^2): the height
    and center integrals' short increments over [q, q+h] and [q-h, q],
    sqrt(q') - sqrt(q) = (q' - q) / (sqrt(q') + sqrt(q)) at the float q'
    = q + ih those increments end at (q' - q is exact), and cos(v + jh) -
    cos v = -2 sin(jh/2) sin(v + jh/2), the same for sin.  One
    batch: every increment of both integrands is one G7/K15 panel of one
    ``quad.panel_increments`` call (QuadError when a panel misses its
    tolerance), and all (q, v) stencils go through one
    :func:`fd_surface_checks` call.
    """
    params = classical.RiemannParams.from_lambda(lam)
    q1 = params.q1
    qs = np.linspace(q1 * 1.05 + 0.02, q1 + 3.0, nq)
    vs = np.linspace(0.0, 2 * math.pi, nv, endpoint=False)
    q0 = qs[:, None]
    r0 = np.sqrt(q0)

    def slope(u, row):
        # row 0: d(center_offset)/dq, row 1: d(height)/dq
        return (-0.5 * u if row == 0 else 0.5) / np.sqrt(
            classical.radicand(lam, u))

    # segments [q, q+h] then [q-h, q], one row per integrand
    a = np.tile(np.concatenate([qs, qs - h]), (2, 1))
    b = np.tile(np.concatenate([qs + h, qs]), (2, 1))
    inc = quad.panel_increments(
        lambda u: np.stack([slope(u[0], 0), slope(u[1], 1)]), a, b)
    (dfp, dfm), (dzp, dzm) = inc.reshape(2, 2, nq, 1)
    dfz = {-1: (-dfm, -dzm), 0: (0.0, 0.0), 1: (dfp, dzp)}

    def sample(i, j):
        df, dz = dfz[i]
        qi = q0 + i * h
        dr = (qi - q0) / (np.sqrt(qi) + r0)
        half, mid = 2.0 * math.sin(0.5 * j * h), vs + 0.5 * j * h
        return np.stack(np.broadcast_arrays(
            df + dr * np.cos(vs + j * h) - r0 * half * np.sin(mid),
            dr * np.sin(vs + j * h) + r0 * half * np.cos(mid), dz))

    H, conf, orth = fd_surface_checks(sample, h)
    return float(H.max()), float(conf.max()), float(orth.max())


# the 3x3 stencil of fd_surface_checks without its centre
_STENCIL = ((1, 0), (-1, 0), (0, 1), (0, -1),
            (1, 1), (1, -1), (-1, 1), (-1, -1))


def _weierstrass_stencil(sigma, n_side, h, offsets):
    """Immersion at z0 + h_k (i + i j) minus psi(z0), each anchor z0 and
    offset (i, j).

    The anchors are the interior points of the (n_side + 2)^2 grid of
    ``mesh.DomainMap(sigma, 0.35).grid``.  z = u + iv is itself a
    conformal chart, but its scale shrinks near the branch points, so the
    step of anchor k is h_k = h min(1, distance from z0 to the nearest
    branch point).  The stencil values are the increments from the
    anchor, whose own value is 0: every anchor x offset segment is one
    G7/K15 panel of one ``quad.panel_increments`` call (QuadError when a
    panel misses its tolerance), independent of the closed form.  Its w
    is the product of principal roots sqrt(z) sqrt(z - 1) sqrt(z + sigma),
    the base point's branch, analytic on the open upper half-plane, where
    every stencil point lies (Im z0 > h_k).  psi(z0) plus increments would
    carry rounding ~eps |psi(z0)| over h^2.  Returns (X, h_k) with shapes
    (n, len(offsets), 3) and (n,).
    """
    params = curve.CurveParams(sigma)
    grid = mesh.DomainMap(sigma, 0.35).grid(n_side + 2, n_side + 2)
    z0 = grid[1:-1, 1:-1].ravel()
    bps = np.array(curve.branch_points(params))
    hk = h * np.minimum(1.0, np.min(np.abs(z0[:, None] - bps), axis=1))
    steps = np.array([complex(i, j) for i, j in offsets])
    zb = z0[:, None] + hk[:, None] * steps

    def phi(z):
        w = np.sqrt(z) * np.sqrt(z - 1.0) * np.sqrt(z + sigma)
        return curve._phi_vector(params, z, w)

    inc = quad.panel_increments(phi, np.repeat(z0, len(steps)), zb.ravel())
    return inc.real.reshape(*zb.shape, 3), hk


def weierstrass_fd_grid(sigma, n_side=10, h=1e-4):
    """Max FD |H| and conformality defects of the curve immersion, from
    the stencils of :func:`_weierstrass_stencil` (step h scaled per anchor).
    """
    X, hk = _weierstrass_stencil(sigma, n_side, h, _STENCIL)
    vals = {(0, 0): np.zeros((3, len(hk))),
            **dict(zip(_STENCIL, X.transpose(1, 2, 0)))}
    H, conf, orth = fd_surface_checks(lambda i, j: vals[(i, j)], hk)
    return float(H.max()), float(conf.max()), float(orth.max())


# ---------------------------------------------------------------------------
# classical <-> Weierstrass registration


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

    ``heights`` and ``points`` are slices of the surface of ``sigma``,
    as :func:`slice_checks` takes them: one (n_i, 3) array of exact
    surface points per height (ValueError when the two lengths differ).
    Fits a circle to each slice, then a vertical offset h0 plus a single
    scale s carrying the classical height-vs-radius profile onto the
    measured slices: Gauss-Newton on the height residuals
    d_i = s z(q_i) - |h_i - h0| at q_i = (r_i / s)^2, with the closed-form
    ``classical.height`` evaluated forward (no inversion of z) and the
    analytic Jacobian [z - 2 q z'(q), sign(h_i - h0)], z'(q) =
    1 / (2 sqrt(radicand(q))).  Returns the worst relative radius error,
    |d_i| s sqrt(radicand(q_i)) / r_i^2 (d_i carried to the radius at
    first order), and the relative mismatch of the vertical line spacings
    (|t0_3| against 2 s zeta).
    """
    cl = classical.RiemannParams.from_lambda(classical.lambda_of_sigma(sigma))
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    hs = np.asarray(heights, dtype=float)
    radii = np.array([fit.radius for fit in _circle_fits(hs, points)])
    neck_height = 0.5 * span  # the S1 fixed point sits midway between lines

    def residual_and_jacobian(x):
        s, h0 = x
        q = (radii / s) ** 2
        z = classical.height(cl, q)
        root = np.sqrt(classical.radicand(cl.lam, q))
        jac = np.stack([z - q / root, np.sign(hs - h0)], axis=1)
        return s * z - np.abs(hs - h0), jac, root

    # Gauss-Newton with the analytic Jacobian; the fit is a small-residual
    # problem, so it converges in a few steps
    x = np.array([abs(span) / (2.0 * cl.zeta), neck_height])
    for _ in range(50):
        res, jac, _ = residual_and_jacobian(x)
        dx = np.linalg.lstsq(jac, -res, rcond=None)[0]
        x = x + dx
        if np.all(np.abs(dx) <= 1e-13 * np.abs(x)):
            break
    else:
        raise classical.ConvergenceError("registration fit did not converge")
    s, h0 = x
    res, _, root = residual_and_jacobian(x)
    rel = np.max(np.abs(res) * s * root / (radii * radii))
    spacing_rel = abs(abs(span) - 2.0 * s * cl.zeta) / (2.0 * s * cl.zeta)
    return RegistrationResult(float(s), float(h0), float(rel),
                              float(spacing_rel), radii, hs)


def foliation_residuals(heights, points, lines):
    """Relative circle-fit residuals of whole slices of the surface.

    ``heights`` and ``points`` are generic heights in the slab and one
    (n_i, 3) array of exact surface points per height, the circles that
    :func:`slice_checks` builds (ValueError when the two lengths differ);
    ``lines`` are its slices at the two line heights 0 and t0_3.  Returns
    (relative residuals at the given heights, line classifications).
    """
    *circles, low, high = _circle_fits(heights, points, lines)
    rels = [fit.residual / fit.radius for fit in circles]
    return np.array(rels), [low.kind, high.kind]


def slice_checks(sigma):
    """(:func:`registration_error`, :func:`foliation_residuals`, slice
    height error) of the surface of ``sigma``: the one route to its slice
    checks, with no mesh.

    One :func:`mesh.refine_slice` call takes the whole slices at
    registration's 6 heights, foliation's 10 and the two line heights 0
    and t0_3: 24 exact points over the upper half-plane, then their mirror
    x2 -> -x2.  Registration fits the first 24.  Foliation's heights are
    symmetric, h_j + h_(9-j) = t0_3, and op 1 of the extension, the
    half-turn x -> (t0_1 - x1, x2, t0_3 - x3) of :func:`mesh.half_turn`,
    carries the slice at t0_3 - h onto the slice at h, each half onto the
    same half: each foliation circle is the first half of slice j plus op
    1 of the second half of slice 9 - j, and each line slice pairs 0 and
    t0_3 the same way.  The slice height error is the largest
    |x3 - h| / t0_3 over all the points; the fits then take each slice in
    its plane x3 = h, so only the height error sees points off it.
    """
    t0 = mesh.FundamentalSurface(sigma).translation_half()
    span = t0[2]
    reg_hs = (0.14 + 0.72 * np.arange(6) / 11) * span
    fol_hs = (0.13 + 0.74 * np.arange(10) / 9.0) * span
    hs = np.concatenate([reg_hs, fol_hs, [0.0, span]])
    pts = mesh.refine_slice(sigma, hs, 24)
    height_err = np.max(np.abs(pts[..., 2] - hs[:, None])) / span
    pts[..., 2] = hs[:, None]
    partner = np.concatenate([np.arange(15, 5, -1), [17, 16]])
    turned = mesh.half_turn(t0).apply(pts[partner, 24:])
    orbit = np.concatenate([pts[6:, :24], turned], axis=1)
    return (registration_error(sigma, reg_hs, pts[:6, :24]),
            foliation_residuals(fol_hs, orbit[:10], orbit[10:]),
            float(height_err))
