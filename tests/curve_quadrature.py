"""Quadrature route for the Weierstrass integrals, kept as the oracle that
the fixed rules of ``riemann_minimal`` are pinned against: the loop
periods of ``curve.period`` (trapezoidal rule on analytic contours), the
closed form ``curve.immerse`` and the one-panel increments of the
Weierstrass FD stencil.

* :func:`_integrate_segments` -- one batched, adaptive G7/K15 kernel with
  branch tracking: the Weierstrass forms along straight segments, each
  starting on a given branch of w.  A path only has to stay off the
  branch points, at any distance from them.
* :func:`_march` and :func:`_accumulate` -- chains of segments marched in
  one kernel call, and their sums in marching order.
* :func:`basepoint` -- the regular point z = 1 + 1e-2, w > 0, where the
  marched routes to the fundamental piece start (the sheet of the closed
  form's principal roots).
* :class:`HomologyLoop`, :func:`gamma1_loop`, :func:`gamma2_loop` and
  :func:`end_loop` -- round polyline loops, one representative of each
  homology class, and :func:`period`/:func:`flux` marched along them.
* ``MAX_SUBDIVISIONS`` and the kernel's failures: ``SubdivisionLimit``,
  ``NonFinite`` (shared with ``classical_quadrature``), ``BranchAmbiguity``
  and ``ClearanceViolation``.

The kernel's segments are G7/K15 panels (``quad._gk_panel``, called
through the module attribute) whose nodes carry w by the nearest-sign
rule, accepted only if w turns by less than 45 degrees between
consecutive nodes (which makes that choice unambiguous); segments that
fail are bisected inside the batch, and a segment ending on a branch
point ends in a singular leaf.  Each round's leaves are evaluated in
equal blocks of at most LEAF_BLOCK, whose products act on arrays below
numpy's 256 KiB temporary-elision size, so a segment's integral does not
depend on the other segments in its batch.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from riemann_minimal import curve, quad
from riemann_minimal.curve import (CurveError, CurvePoint, PoleOfGaussMap,
                                   branch_points, curve_poly)
from riemann_minimal.quad import QuadError

# most bisections of one segment (here) or of one integral
# (classical_quadrature._adaptive)
MAX_SUBDIVISIONS = 2000
# most leaves per quadrature block: the largest arrays its products act
# on, the (512, 17) complex branch nodes, take 136 KiB
LEAF_BLOCK = 512
# the base point's distance to the branch point 1
BASEPOINT_OFFSET = 1e-2


class SubdivisionLimit(QuadError):
    """Bisection exceeded the subdivision budget."""


class NonFinite(QuadError):
    """The integrand evaluated to nan or inf on the path."""


class BranchAmbiguity(CurveError):
    """Adaptive stepping could not disambiguate the square-root sign."""


class ClearanceViolation(CurveError):
    """A path segment passes through a branch point."""


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
        phi = curve._phi_vector(params, zs, ws[:, :-1])
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
    than MAX_SUBDIVISIONS bisections of a segment, or a leaf to split
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
        over = count - 1 + n_split > MAX_SUBDIVISIONS
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


def basepoint(params) -> CurvePoint:
    """Fixed regular base point: z = 1 + 1e-2, w real and positive."""
    z = 1.0 + BASEPOINT_OFFSET
    w = math.sqrt(z * (z - 1.0) * (z + params.sigma))
    return CurvePoint(complex(z), complex(w))


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
# round homology loops, marched


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


def gamma1_loop(params, n=64) -> HomologyLoop:
    """Round loop enclosing the branch points {0, 1} only.

    Re of its period vanishes (the closed-circle class of the surface).
    """
    gap = (0.5 + params.sigma) - 0.5
    return _make_loop(params, "gamma1", 0.5, 0.5 + 0.1 * gap, n)


def gamma2_loop(params, n=64) -> HomologyLoop:
    """Round loop enclosing {-sigma, 0} only (translation class).

    Re of its period is the translation vector 2*t0, which lies in the
    symmetry plane {x2 = 0}.
    """
    s = params.sigma
    r_in = 0.5 * s
    r_out = 1.0 + 0.5 * s
    return _make_loop(params, "gamma2", -0.5 * s, r_in + 0.1 * (r_out - r_in), n)


def end_loop(params, n=64, which: str = "zero") -> HomologyLoop:
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


def period(params, loop: HomologyLoop) -> np.ndarray:
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


def flux(params, loop: HomologyLoop) -> np.ndarray:
    """F(gamma) = Im int (phi1, phi2, phi3), a homology invariant."""
    return period(params, loop).imag
