"""The elliptic curve w^2 = z(z-1)(z+sigma) and its Weierstrass data.

The stereographically projected Gauss map is g(z, w) = z/sqrt(sigma) and the
height differential is phi3 = dz/w, which fixes the other two forms:

    phi1 = (1/2)(1/g - g) phi3,      phi2 = (i/2)(1/g + g) phi3.

The surface is recovered by X(p) = X(p0) + Re int (phi1, phi2, phi3) along
any path, provided w is continued as a single continuous branch of
sqrt(z(z-1)(z+sigma)).  There are two routes to it.

On the upper half-plane the immersion is in closed form: :func:`immerse`
is one complex R_F and one complex R_D per point (Carlson's symmetric
elliptic integrals).  It is the package's only surface evaluator: the
sampled piece of ``mesh.sample_fundamental``, the refined slices of
``mesh.refine_slice`` and the anchors of the Weierstrass finite-difference
stencil.

The homology loops and their periods, and the stencil's short increments,
run through one batched quadrature kernel, :func:`_integrate_segments`, so
the checks on them stay independent of the closed form.  Each segment is a
G7/K15 panel whose nodes carry w by the nearest-sign rule, accepted only if
w turns by less than 45 degrees between consecutive nodes (which makes that
choice unambiguous); segments that fail are bisected inside the batch, and
a segment ending on a branch point ends in a singular leaf.  So a path only
has to stay off the branch points, at any distance from them.  Each round's
leaves are evaluated in equal blocks of at most 512 (LEAF_BLOCK), whose
products act on arrays below numpy's 256 KiB temporary-elision size, so a
segment's integral does not depend on the other segments in its batch.

Conventions fixed here (see README):

* base point z = 1 + 1e-2 with w real and positive;
* gamma1 = round loop enclosing the branch points {0, 1};
* gamma2 = round loop enclosing {-sigma, 0} (a circle cannot enclose 1 and
  -sigma without swallowing 0, so this homologous representative is used);
* end loops around z = 0 are traversed twice so the lift closes.

Seeded sample points come from :func:`random_regular_points` as one
:class:`CurvePoint` of arrays, which the symmetry and Gauss-ODE checks (and
``shiffkdv``'s jets) take whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import classical, quad
from .quad import NonFinite, RiemannMinimalError, SubdivisionLimit

__all__ = [
    "CurveError", "BranchAmbiguity", "ClearanceViolation", "PoleOfGaussMap",
    "CurveParams", "CurvePoint", "HomologyLoop",
    "curve_poly", "branch_points", "basepoint",
    "on_curve_residual", "immerse", "gaussian_curvature",
    "gamma1_loop", "gamma2_loop", "end_loop", "period", "flux",
    "apply_symmetry", "verify_symmetry_action", "gauss_ode_residual",
    "gauss_derivatives", "random_regular_points",
]

BASEPOINT_OFFSET = 1e-2
# most leaves per quadrature block: the largest arrays its products act
# on, the (512, 17) complex branch nodes, take 136 KiB (see
# _integrate_segments)
LEAF_BLOCK = 512
# random_regular_points rejects candidates closer than this times
# (1 + sigma) to a branch point
SAMPLE_CLEARANCE = 2e-3
# psi's duplication steps: Carlson's stopping rule (that of
# classical.carlson_rf/rd) holds after 7 everywhere on the closed upper
# half-plane for sigma in [1e-3, 1e3], and the 8th cuts the series'
# truncation error by another 4^-6
CARLSON_STEPS = 8
# psi's largest block of points: its (4096,) complex arrays take 64 KiB
PSI_BLOCK = 4096


class CurveError(RiemannMinimalError):
    pass


class BranchAmbiguity(CurveError):
    """Adaptive stepping could not disambiguate the square-root sign."""


class ClearanceViolation(CurveError):
    """A path segment passes through a branch point."""


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


def basepoint(params: CurveParams) -> CurvePoint:
    """Fixed regular base point: z = 1 + 1e-2, w real and positive."""
    z = 1.0 + BASEPOINT_OFFSET
    w = math.sqrt(z * (z - 1.0) * (z + params.sigma))
    return CurvePoint(complex(z), complex(w))


def _phi_vector(params, zs, ws):
    """Densities (phi1, phi2, phi3) with respect to dz, stacked (n, 3)."""
    rs = math.sqrt(params.sigma)
    g = zs / rs
    p3, inv_g = 1.0 / ws, 1.0 / g
    return np.stack([0.5 * (inv_g - g) * p3, 0.5j * (inv_g + g) * p3, p3],
                    axis=-1)


def _leaf_panels(params, a, b, w, singular):
    """One G7/K15 panel on each leaf a[i] -> b[i] starting on the branch
    w[i]: in z, or on a singular leaf (b[i] a branch point) in s with
    z = b + (a - b)(1 - s)^2, which cancels the 1/sqrt blow-up at b.  w is
    continued by the nearest-sign rule through a, the nodes and b (not the
    zero at a singular b).  Returns (integrals (n, 3), |K15 - G7|, values
    finite, branch at b (0 if singular), w turned < 45 degrees per step),
    evaluated in equal blocks of at most LEAF_BLOCK leaves, one
    ``quad._gk_panel`` call each."""
    n = len(a)
    k, err = np.empty((n, 3), dtype=complex), np.empty(n)
    w_end = np.empty_like(w)
    finite, turn = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    blocks = max(1, -(-n // LEAF_BLOCK))
    cuts = [i * n // blocks for i in range(blocks + 1)]
    for blk in map(slice, cuts[:-1], cuts[1:]):
        k[blk], err[blk], finite[blk], w_end[blk], turn[blk] = _block_panels(
            params, a[blk], b[blk], w[blk], singular[blk])
    return k, err, finite, w_end, turn


def _block_panels(params, a, b, w, singular):
    """:func:`_leaf_panels` on one block of leaves."""
    s = np.flatnonzero(singular)
    w_end, turn = np.empty_like(w), np.empty(len(w), dtype=bool)

    def f(x):  # z nodes on a regular leaf, s nodes on a singular one
        d, one_minus = (a[s] - b[s])[:, None], 1.0 - x[s]
        zs, end = x.copy(), b.copy()
        zs[s] = b[s, None] + d * one_minus ** 2
        end[s] = zs[s, -1]
        c = np.concatenate([w[:, None], np.sqrt(curve_poly(
            params, np.concatenate([zs, end[:, None]], axis=1)))], axis=1)
        r = c[:, 1:] * c[:, :-1].conjugate()
        ws = c[:, 1:] * np.cumprod(np.where(r.real < 0.0, -1.0, 1.0), axis=1)
        turn[:] = np.all(np.abs(r.real) > math.cos(math.pi / 4) * np.abs(r),
                         axis=1)
        w_end[:] = np.where(singular, 0.0, ws[:, -1])
        del c, r  # free them before the densities' temporaries
        phi = _phi_vector(params, zs, ws[:, :-1])
        phi[s] *= (-2.0 * d * one_minus)[..., None]
        return phi

    k, err, finite = quad._gk_panel(f, np.where(singular, 0.0, a),
                                    np.where(singular, 1.0, b))
    return k, err, finite, w_end, turn


def _integrate_segments(params, za, zb, wa):
    """Integrals of (phi1, phi2, phi3) along the segments za[i] -> zb[i],
    each starting on the branch wa[i] at za[i], as one batch.

    Returns (totals, w_end): the (n, 3) integrals and the continued branch
    at each zb[i].  Each segment starts as one leaf, and each round
    integrates the new leaves with one panel each (:func:`_leaf_panels`),
    in equal blocks of at most LEAF_BLOCK = 512 leaves.  A block's
    products act on arrays below numpy's 256 KiB temporary-elision size,
    above which numpy runs them in place, slower and rounded differently;
    so a segment's integral has the same bits in any batch, alone or among
    thousands, and the kernel's working set is one block.
    A segment is accepted once all its leaves pass the 45-degree turn test
    and the sum of their |K15 - G7| is within max(quad.ABS_TOL,
    quad.REL_TOL |total|).  Otherwise its leaves that fail the turn test,
    or whose error exceeds an equal share of that budget, are bisected (a
    share in proportion to length would keep splitting every leaf next to
    a near-singular point).  A leaf starts on the principal
    root at its start (the first on wa); as in :func:`_accumulate`, its
    sheet is the product of the sign flips between each leaf's continued
    end and the next leaf's starting root.  A segment ending within
    1e-12 (1 + sigma) of the branch point 1 or -sigma ends there, in a
    singular leaf (w_end 0), which bisects into the regular leaf
    a -> bp + (a - bp)/4 and a singular leaf from there.  Raises
    ClearanceViolation (a branch point other than its end lies on a
    segment: cross product 0 and projection in [0, 1]), PoleOfGaussMap
    (ending at z = 0), BranchAmbiguity (a start at w = 0, or a leaf failing
    the turn test at 1e-12 of its segment's length), SubdivisionLimit (more
    than quad.MAX_SUBDIVISIONS bisections of a segment, or a leaf to split
    whose split point rounds onto one of its ends in a coordinate where the
    ends differ: the leaf is below the resolution of its coordinates),
    NonFinite, and ValueError (a segment of length 0).
    """
    za, zb, wa = (np.asarray(x, dtype=complex) for x in (za, zb, wa))
    bps = branch_points(params)
    near = np.abs(zb[:, None] - np.array(bps)) < 1e-12 * (1.0 + params.sigma)
    if np.any(near[:, 0]):
        raise PoleOfGaussMap("cannot integrate into the end at z = 0")
    singular = near.any(axis=1)
    zb = np.where(singular, np.array(bps)[near.argmax(axis=1)], zb)
    if np.any(zb == za):
        raise ValueError("consecutive path nodes must be distinct")
    d, q = zb - za, np.array(bps)[:, None] - za
    dot = q.real * d.real + q.imag * d.imag
    through = ((q.real * d.imag == q.imag * d.real) & (0.0 <= dot)
               & (dot <= d.real ** 2 + d.imag ** 2) & ~near.T)
    if through.any():
        raise ClearanceViolation("segment passes through branch point "
                                 f"{bps[np.argmax(through.any(axis=1))]}")
    if np.any(wa == 0):
        raise BranchAmbiguity(
            "cannot continue a branch starting from w = 0 (branch point)")

    def tolerance(total):
        return np.maximum(quad.ABS_TOL,
                          quad.REL_TOL * np.abs(total).max(axis=1))

    totals, err, finite, w_end, turn = _leaf_panels(params, za, zb, wa,
                                                    singular)
    with np.errstate(invalid="ignore"):
        owner = np.flatnonzero(~(finite & turn & (err <= tolerance(totals))))
    # the open leaves, ordered by segment and then along it
    a, b, w, singular, k, err, finite, wb, turn = (x[owner] for x in (
        za, zb, wa, singular, totals, err, finite, w_end, turn))
    while owner.size:
        if not finite.all():
            raise NonFinite("integrand not finite on the path")
        new = np.concatenate([[True], owner[1:] != owner[:-1]])
        first, group = np.flatnonzero(new), np.cumsum(new) - 1
        same = new[1:] | ((wb[:-1] * w[1:].conjugate()).real >= 0.0)
        sheet = np.cumprod(np.concatenate([[1.0], np.where(same, 1.0, -1.0)]))
        sheet *= sheet[first][group]
        total = np.add.reduceat(k * sheet[:, None], first)
        tol, esum = tolerance(total), np.add.reduceat(err, first)
        count = np.bincount(group)
        split = ~turn | ((esum > tol)[group] & (err * count[group] > tol[group]))
        n_split = np.add.reduceat(split, first, dtype=int)
        done = n_split == 0
        totals[owner[first[done]]] = total[done]
        last = (first + count - 1)[done]
        w_end[owner[last]] = wb[last] * sheet[last]
        if done.all():
            break
        stuck = ~turn & (np.abs(b - a) < 1e-12 * np.abs(zb - za)[owner])
        if stuck.any():
            raise BranchAmbiguity(
                f"cannot track branch near z={a[np.argmax(stuck)]}")
        # each bisection adds one leaf to its segment
        over = count - 1 + n_split > quad.MAX_SUBDIVISIONS
        if over.any():
            i = np.argmax(over)
            raise SubdivisionLimit(f"error {esum[i]:.3e} > tol {tol[i]:.3e} "
                                   f"after {count[i] - 1} subdivisions")
        # drop the accepted segments; a split leaf becomes its two halves
        rep = np.flatnonzero(~done[group])
        rep = np.repeat(rep, 1 + split[rep])
        second = np.concatenate([[False], rep[1:] == rep[:-1]])
        first_half = split[rep] & ~second
        owner, a, b, w, sing = (x[rep] for x in (owner, a, b, w, singular))
        k, err, wb, turn = k[rep], err[rep], wb[rep], turn[rep]
        mid = np.where(sing, b + 0.25 * (a - b), 0.5 * (a + b))
        stall = first_half & (_onto_end(a.real, b.real, mid.real)
                              | _onto_end(a.imag, b.imag, mid.imag))
        if stall.any():
            i = np.argmax(stall)
            raise SubdivisionLimit(
                f"leaf {a[i]} -> {b[i]} has no split point between its "
                f"ends: error {err[i]:.3e}, tol {tol[group[rep[i]]]:.3e}")
        a, b = np.where(second, mid, a), np.where(first_half, mid, b)
        singular = sing & ~first_half
        w[second] = np.sqrt(curve_poly(params, a[second]))
        fresh = first_half | second
        k[fresh], err[fresh], finite, wb[fresh], turn[fresh] = _leaf_panels(
            params, a[fresh], b[fresh], w[fresh], singular[fresh])
    return totals, w_end


def _onto_end(x, y, m):
    """Whether m, a split point of x -> y in one coordinate, rounds onto
    an end where the ends differ."""
    return (x != y) & ((m == x) | (m == y))


def _march(params, z, w0):
    """Phase 1 of a march: the edges of m chains z[i, 0] -> z[i, 1] -> ...
    -> z[i, n] (z of shape (m, n + 1)), all integrated in one call of
    :func:`_integrate_segments`.

    Each edge starts on the principal root at its start node, except a
    chain's first edge, which starts on w0 (shape (m,)).  Returns
    (wa, totals, wb): each edge's start branch, integrals and continued
    end branch, shapes (m, n), (m, n, 3), (m, n).
    """
    wa = np.sqrt(curve_poly(params, z[:, :-1]))
    wa[:, 0] = w0
    totals, wb = _integrate_segments(params, z[:, :-1].reshape(-1),
                                     z[:, 1:].reshape(-1), wa.reshape(-1))
    return wa, totals.reshape(*wa.shape, 3), wb.reshape(wa.shape)


def _accumulate(edges, x0, w0):
    """Phase 2 of a march: the end of each chain of :func:`_march`,
    starting at x0 (shape (m, 3)) on the branch w0 (shape (m,)).

    phi is odd in w, so an edge integrated from the other sheet's root
    has the negated integral: an edge's sheet is the product of the flips
    Re(w * conj(wa)) < 0 between the branch w continued to its start (w0,
    then the previous edge's end) and its starting root wa.  Returns the
    integrals accumulated in marching order, ((x0 + d1) + d2) + ... (shape
    (m, 3), complex), and the branch continued to the chain's end (m,).
    """
    wa, totals, wb = edges
    w_in = np.concatenate([w0[:, None], wb[:, :-1]], axis=1)
    sheet = np.cumprod(np.where((w_in * wa.conjugate()).real < 0.0, -1.0, 1.0),
                       axis=1)
    steps = np.where(sheet[..., None] < 0.0, -totals, totals)
    acc = np.cumsum(np.concatenate([x0[:, None], steps], axis=1), axis=1)
    return acc[:, -1], wb[:, -1] * sheet[:, -1]


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

    Returns (positions of shape z.shape + (3,), w of shape z.shape), with
    w = sqrt(z) sqrt(z - 1) sqrt(z + sigma), principal roots: analytic on
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
    sqrt(z - 1) on the other side of its cut).  Both integrals come from
    one duplication loop with CARLSON_STEPS fixed steps.  Points are
    evaluated in consecutive blocks of at most PSI_BLOCK, whose arrays stay
    below numpy's 256 KiB temporary-elision size, so a point's result has
    the same bits in any call.
    """
    z = np.asarray(z, dtype=complex)
    # + 0.0 turns an imaginary part -0.0 into +0.0
    flat = z.reshape(-1) + 0.0
    pos, w = np.empty((flat.size, 3)), np.empty(flat.size, dtype=complex)
    t0 = np.array(_translation_half(params.sigma))
    for i in range(0, flat.size, PSI_BLOCK):
        blk = slice(i, i + PSI_BLOCK)
        pos[blk], w[blk] = _psi_block(params, flat[blk], t0)
    return pos.reshape(z.shape + (3,)), w.reshape(z.shape)


def _psi_block(params, z, t0):
    """:func:`immerse` on one block of points, t0 given."""
    s = params.sigma
    rs = math.sqrt(s)
    # R_D's argument order; R_F is symmetric
    x0, y0 = x, y = z - 1.0, z + s
    zz = z
    af0, ad0 = (x + y + zz) / 3.0, (x + y + 3.0 * zz) / 5.0
    af, ad, scale, tail = af0, ad0, 1.0, 0.0
    for k in range(CARLSON_STEPS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(zz)
        if k == 0:
            w = sz * sx * sy
        lam = sx * sy + sx * sz + sy * sz
        tail = tail + scale / (sz * (zz + lam))
        af, ad, scale = (af + lam) * 0.25, (ad + lam) * 0.25, scale * 0.25
        x, y, zz = (x + lam) * 0.25, (y + lam) * 0.25, (zz + lam) * 0.25
    rf = classical._rf_series((af0 - x0) * scale / af,
                              (af0 - y0) * scale / af) / np.sqrt(af)
    rd = (scale * classical._rd_series((ad0 - x0) * scale / ad,
                                       (ad0 - y0) * scale / ad)
          / (ad * np.sqrt(ad)) + 3.0 * tail)
    q = w / z / rs
    pos = np.stack([(-2.0 / 3.0 * rs * rd - q).real, -q.imag,
                    -2.0 * rf.real], axis=-1) + t0
    return pos, w


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


@dataclass(frozen=True)
class HomologyLoop:
    """A closed loop on the curve: its kind, base point and polyline
    ``nodes``.

    ``integrals`` holds the loop integrals of the closure march that built
    the loop, which :func:`period` returns instead of marching the loop
    again; None for a loop built by hand.
    """

    kind: str
    base: CurvePoint
    nodes: tuple
    integrals: np.ndarray | None = field(default=None, compare=False,
                                         repr=False)


def _circle_nodes(center, radius, n, turns=1):
    ang = np.linspace(0.0, 2.0 * math.pi * turns, n * turns + 1)
    return tuple(center + radius * np.exp(1j * ang))


def _make_loop(params, kind, center, radius, n, turns=1):
    nodes = _circle_nodes(center, radius, n, turns)
    z0 = nodes[0]
    w0 = np.sqrt(complex(curve_poly(params, z0)))
    edges = _march(params, np.array(nodes)[None], np.array([w0]))
    (acc,), (w_end,) = _accumulate(edges, np.zeros((1, 3)), np.array([w0]))
    if abs(w_end - w0) > 1e-8 * abs(w0):
        raise BranchAmbiguity(
            f"loop {kind} does not close on the curve: |dw|/|w| = "
            f"{abs(w_end - w0) / abs(w0):.3e}")
    return HomologyLoop(kind, CurvePoint(z0, w0), nodes, acc)


def gamma1_loop(params: CurveParams, n=64) -> HomologyLoop:
    """Round loop enclosing the branch points {0, 1} only.

    Re of its period vanishes (the closed-circle class of the surface).
    """
    gap = (0.5 + params.sigma) - 0.5
    return _make_loop(params, "gamma1", 0.5, 0.5 + 0.1 * gap, n)


def gamma2_loop(params: CurveParams, n=64) -> HomologyLoop:
    """Round loop enclosing {-sigma, 0} only (translation class).

    Re of its period is the translation vector 2*t0, which lies in the
    symmetry plane {x2 = 0}.
    """
    s = params.sigma
    r_in = 0.5 * s
    r_out = 1.0 + 0.5 * s
    return _make_loop(params, "gamma2", -0.5 * s, r_in + 0.1 * (r_out - r_in), n)


def end_loop(params: CurveParams, n=64, which: str = "zero") -> HomologyLoop:
    """Double round loop around an end: z = 0 or z = infinity.

    Both ends sit over branch points (the cubic has odd degree, so infinity
    branches too); a single turn flips the sign of w and two turns close
    the lift.  The infinity loop is a large double circle enclosing all
    three finite branch points.
    """
    if which == "zero":
        radius = 0.3 * min(1.0, params.sigma)
        return _make_loop(params, "end_loop", 0.0, radius, n, turns=2)
    if which == "infinity":
        radius = 3.0 * (1.0 + params.sigma)
        return _make_loop(params, "end_loop", 0.0, radius, n, turns=2)
    raise ValueError(f"unknown end {which!r}")


def period(params: CurveParams, loop: HomologyLoop) -> np.ndarray:
    """The three loop integrals (int phi1, int phi2, int phi3), with the
    loop's segments marched as one chain (see :func:`_march`).  A loop that
    carries the integrals of its closure march (built on the same curve
    ``params``) returns a copy of them instead of marching again, to the
    same bits."""
    if loop.integrals is not None:
        return loop.integrals.copy()
    w0 = np.array([loop.base.w])
    edges = _march(params, np.array(loop.nodes)[None], w0)
    return _accumulate(edges, np.zeros((1, 3)), w0)[0][0]


def flux(params: CurveParams, loop: HomologyLoop) -> np.ndarray:
    """F(gamma) = Im int (phi1, phi2, phi3), a homology invariant."""
    return period(params, loop).imag


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
    relation over the point or points ``pt`` (0 for no points).

    With phi3 = d(xi), the curve data gives g = z/sqrt(s), g' = w/sqrt(s)
    and g'' = p'(z)/(2 sqrt(s)); both displayed relations are algebraic
    consequences, so the residual measures how exactly (z, w) sits on the
    curve.
    """
    s = params.sigma
    rs = math.sqrt(s)
    z = pt.z
    g = z / rs
    gp = pt.w / rs
    res1 = np.abs(gp ** 2 - g * (rs + g) * (rs * g - 1.0))
    gpp_curve = (3.0 * z ** 2 + 2.0 * (s - 1.0) * z - s) / (2.0 * rs)
    gpp_formula = -rs / 2.0 + (s - 1.0) * g + 1.5 * rs * g ** 2
    res2 = np.abs(gpp_curve - gpp_formula)
    return float(np.max([res1, res2], initial=0.0))


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


def random_regular_points(params: CurveParams, n: int, rng) -> CurvePoint:
    """Seeded sample of n regular curve points away from the branch points,
    as one :class:`CurvePoint` of 1-d arrays.

    z is uniform in (r, theta) over the annulus 0.15 <= r / ((1 + sigma)/2)
    <= 1.6, and a candidate closer than SAMPLE_CLEARANCE (1 + sigma) to a
    branch point {0, 1, -sigma} is rejected.  Draw order, from any numpy
    ``Generator``: rounds of one ``rng.random((2, m))`` block, r from row 0
    and theta from row 1, m the number of points still missing, until n
    are kept; then one ``rng.integers(0, 2, n)``, a 1 putting the point on
    the sheet of -sqrt.
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
