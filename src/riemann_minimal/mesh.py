"""Fundamental-piece sampling, reflection extension, and mesh export.

The half-annulus {e <= |zeta| <= 1, Im zeta >= 0} is carried by an explicit
Moebius map onto the fundamental domain

    Omega_sigma = { |z - (1-sigma)/2| <= (1+sigma)/2, Im z >= 0 }

minus a round neighborhood of the end z = 0 (the image of |zeta| = e is a
circle exactly centered at the origin; the smaller e, the more of the end
is kept).  The piece is the closed form ``curve.immerse`` evaluated at
every grid point in one call, on the sheet w = sqrt(z) sqrt(z - 1)
sqrt(z + sigma) of principal roots, which is the base point's sheet on the
closed upper half-plane; the two grid corners sit on the branch points
z = 1 and z = -sigma, where w = 0.  No point needs a path, so every
sigma > 0 is sampled the same way.

The surface is then grown by the four-step symmetry pipeline: 180-degree
rotation about the horizontal line through psi(i sqrt(sigma)), reflection
in {x2 = 0}, 180-degree rotation about the x2-axis, and translation by
multiples of 2*t0 with t0 = psi(-sigma).  Both anchors are elliptic
integrals on the rectangular curve, evaluated in closed form by Carlson's
R_F and R_D (see :meth:`FundamentalSurface.translation_half`).  Each
symmetry is a signed diagonal map plus an offset (:class:`IsometryOp`)
with its action on the surface's orientation.  The extended mesh keeps
the piece once plus the isometries of its orbit; its blocks are walked
on demand (:meth:`TriMesh.blocks`), and the exporters write them one
block at a time, so no array the size of the cell is built.

Slices are taken without a mesh: in the height coordinate u of
``curve.immerse`` the upper half-plane is a rectangle on which the plane
{x3 = h} is a vertical line, and :func:`refine_slice` takes exact surface
points on such lines in closed form, with their mirror x2 -> -x2 the whole
slice.  :func:`slice_mesh` cuts a mesh at a sequence of heights, walking
its edges once per height.  :func:`level_circle_fit` fits a sequence of
slices in one stacked solve, one circle or line per slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import curve as _curve
from .curve import CurveParams
from .errors import RiemannMinimalError

__all__ = [
    "DegenerateCell", "Degenerate", "DomainMap", "TriMesh", "IsometryOp",
    "FundamentalSurface", "sample_fundamental", "extension_ops", "extend",
    "CircleFit", "level_circle_fit", "slice_mesh", "refine_slice",
    "export_obj", "export_ply",
]


class DegenerateCell(RiemannMinimalError):
    """Adjacent grid samples coincide."""


class Degenerate(RiemannMinimalError):
    """Point set spans fewer than two dimensions."""


@dataclass(frozen=True)
class DomainMap:
    """Moebius map of the half-annulus onto Omega_sigma minus the end disk.

    The rational-coefficient formula below was validated against the
    boundary arcs rather than trusted: it sends |zeta|=1 onto the circle
    |z-(1-sigma)/2| = (1+sigma)/2 with f(1)=1 and f(-1)=-sigma, the real
    segments [e,1] and [-1,-e] into [0,1] and [-sigma,0], and |zeta|=e onto
    a circle centered exactly at the origin (see tests).
    """

    sigma: float
    e: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not 0.0 < self.e < 1.0:
            raise ValueError("e must lie in (0, 1)")

    def map(self, zeta):
        a, e = self.sigma, self.e
        R = math.sqrt(4.0 * (a - 1.0) ** 2 * e ** 2
                      + (1.0 + a) ** 2 * (e ** 2 - 1.0) ** 2)
        zeta = np.asarray(zeta, dtype=complex)
        num = (-a * a * (1 + e * e) * (zeta - 1.0) - 2.0 * a * (e * e - 3.0) * zeta
               - (1 + e * e) * (1.0 + zeta) + R * (1.0 + a * (zeta - 1.0) + zeta))
        den = 2.0 * R - 2.0 * ((1.0 + a) * (e * e - 1.0) - 2.0 * (a - 1.0) * zeta)
        return num / den

    def grid(self, nr: int, nt: int):
        """The (nr, nt) image of the polar grid r in linspace(e, 1, nr), t in
        linspace(0, 1, nt), zeta = r exp(i pi t), with its outer corners
        set to the branch points 1 and -sigma exactly (the formula is exact
        there up to roundoff)."""
        rr = np.linspace(self.e, 1.0, nr)
        tt = np.linspace(0.0, 1.0, nt)
        Z = self.map(rr[:, None] * np.exp(1j * math.pi * tt[None, :]))
        Z[nr - 1, 0] = 1.0
        Z[nr - 1, nt - 1] = -self.sigma
        return Z


@dataclass(frozen=True)
class IsometryOp:
    """Affine isometry v -> signs * v + offset (``signs`` +1 or -1 per
    axis), and its action on the surface's orientation, ``orientation`` =
    +1 (kept) or -1 (reversed).  ``IsometryOp()`` is the identity.

    A symmetry of the surface maps its unit normal N to orientation *
    signs * N.  That sign is not det = prod(signs): a rotation about a
    line lying in the surface reverses the orientation, and a reflection
    in a plane meeting the surface at right angles keeps it.
    """

    signs: np.ndarray = (1.0, 1.0, 1.0)
    offset: np.ndarray = (0.0, 0.0, 0.0)
    orientation: float = 1.0

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if s.shape != (3,) or b.shape != (3,) or np.any(np.abs(s) != 1.0):
            raise ValueError("signs must be 3 of +1 or -1, offset length 3")
        if self.orientation not in (1.0, -1.0):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "signs", s)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "orientation", float(self.orientation))

    def apply(self, pts):
        return np.asarray(pts) * self.signs + self.offset

    def apply_normals(self, normals):
        # + 0.0 turns -0.0 into 0.0, as a matmul does (OBJ writes "-0")
        return self.orientation * (np.asarray(normals) * self.signs + 0.0)

    def compose(self, other: "IsometryOp") -> "IsometryOp":
        """self after other: v -> self(other(v))."""
        return IsometryOp(self.signs * other.signs,
                          self.signs * other.offset + self.offset,
                          self.orientation * other.orientation)


class TriMesh:
    """Oriented triangle mesh with per-vertex normals, stored as an orbit.

    The stored part is the *piece*: ``base_vertices``, ``base_normals`` and
    ``base_faces``, kept once.  The mesh is ``len(flips)`` blocks per copy
    and ``copies + 1`` copies, walked by :meth:`blocks`: block b of copy 0
    is the piece under the isometry ``cell_ops[b]`` (block 0, under the
    identity, is the piece's own arrays), with the base faces reversed
    where ``flips[b]`` is set, computed once here: where that isometry's
    orientation times prod(signs) is negative (the winding turns with each
    sign, the normal also with the orientation).  Block b of copy k + 1
    is block b of copy k under ``translation`` (ValueError if missing).
    Vertex i is base vertex ``i % n`` of block ``i // n`` (n the base
    vertex count), and its faces are the base faces shifted by that
    block's first index.  The first ``len(flips)`` blocks are the *cell*.
    A plain mesh is one block with no copies.  The cell of :func:`extend`
    is eight blocks, one period of the translation 2 t0.  The translation
    by t0 (op 1 after op 3) maps the surface onto itself too, but reverses
    its orientation, so the cell holds two of the paper's fundamental
    domains.

    ``vertices``, ``normals``, ``faces`` and ``edges`` are the whole mesh,
    built on first use and kept; the piece must not change after.  Counts
    and the walk never build them.
    """

    def __init__(self, vertices, normals, faces, cell_ops=None, *,
                 translation: IsometryOp | None = None, copies: int = 0):
        self.base_vertices = np.asarray(vertices)
        self.base_normals = np.asarray(normals)
        self.base_faces = np.asarray(faces)
        self.cell_ops = [IsometryOp()] if cell_ops is None else cell_ops
        self.flips = tuple(bool(op.orientation * np.prod(op.signs) < 0)
                           for op in self.cell_ops)
        if copies and translation is None:
            raise ValueError("copies need a translation")
        self.translation, self.copies = translation, copies

    @property
    def base_count(self) -> int:
        return len(self.base_vertices)

    @property
    def vertex_count(self) -> int:
        return self.base_count * len(self.flips) * (self.copies + 1)

    @property
    def face_count(self) -> int:
        return len(self.base_faces) * len(self.flips) * (self.copies + 1)

    def blocks(self):
        """Yield (vertices, normals) of every block in mesh order, copy by
        copy, each an (n, 3) array.

        Block b of copy 0 is ``cell_ops[b].apply`` of the piece and
        ``apply_normals`` of its normals, block 0 the piece's own arrays.
        Block b of copy k + 1 is block b of copy k plus the translation's
        offset with its zeros made +0.0: on finite values, the bits of
        copy k times the identity matrix plus the offset, a matmul's sum
        turning -0.0 into 0.0 as adding 0.0 does.  Copies 1..copies share
        one normals array per block, copy 0's plus 0.0, which is
        ``translation.apply_normals`` of any copy (so copy 0's normals may
        differ in sign bits from the others').  Only the blocks of the
        last copy are kept, and none for a mesh with no copies.
        """
        v0, n0 = self.base_vertices, self.base_normals
        last = []
        for b, op in enumerate(self.cell_ops):
            v, nrm = (v0, n0) if b == 0 else (op.apply(v0),
                                              op.apply_normals(n0))
            yield v, nrm
            if self.copies:
                last.append((v, nrm + 0.0))
        if self.copies:  # tiled: an add of (n, 3) and (3,) loops per row
            shift = np.tile(self.translation.offset + 0.0, (len(v0), 1))
        for _ in range(self.copies):
            for b, (v, nrm) in enumerate(last):
                last[b] = v + shift, nrm
                yield last[b]

    def _whole(self, part):
        parts = [c[part] for c in self.blocks()]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @cached_property
    def vertices(self):
        return self._whole(0)

    @cached_property
    def normals(self):
        return self._whole(1)

    @cached_property
    def _cell_faces(self):
        f, n = self.base_faces.astype(np.int64), self.base_count
        return np.concatenate([(f[:, ::-1] if flip else f) + b * n
                               for b, flip in enumerate(self.flips)])

    @cached_property
    def faces(self):
        f, n = self._cell_faces, self.base_count * len(self.flips)
        return np.concatenate([f + k * n for k in range(self.copies + 1)]
                              ).astype(self.base_faces.dtype)

    @cached_property
    def edges(self):
        """Unique undirected edges (i, j), i < j, in ascending order: the
        ``np.unique`` of the whole mesh's face edges.  Computed on first
        use and kept; the faces must not change after.
        """
        n = self.vertex_count
        faces = self.faces.astype(np.int64)
        nxt = np.roll(faces, -1, axis=1)
        return np.divmod(np.unique(np.minimum(faces, nxt) * n
                                   + np.maximum(faces, nxt)), n)


# ---------------------------------------------------------------------------
# fundamental piece


class FundamentalSurface:
    """The curve of one sigma and the anchor the extension reads, t0: an
    elliptic integral in closed form, no path.  Op 1's offset (t0_1, 0,
    t0_3) is twice the fixed point psi(i sqrt(sigma)) in x1 and x3."""

    def __init__(self, sigma: float):
        self.params = CurveParams(sigma)

    def translation_half(self):
        """t0 = psi(-sigma), half the translation, in closed form; a new
        array per call.

        psi runs from 1 to -sigma along the real boundary, over the end at
        0.  The forms are multiples of dz/w, and w is imaginary on (0, 1)
        and real on (-sigma, 0), so only (-sigma, 0) adds to t0_1 and t0_3.
        Since

            d(w/z) = (z^2 + sigma) dz / (2 z w),

        phi2 = (i / sqrt(sigma)) d(w/z) is exact, and w/z vanishes at both
        ends: t0_2 = 0.  The same identity turns phi1 = (sigma/z - z) dz /
        (2 sqrt(sigma) w) into (d(w/z) - z dz/w) / sqrt(sigma), so the
        z^(-3/2) end term drops out.  With u = -z on (-sigma, 0):

            t0_1 = int_0^sigma u du / sqrt(sigma u (u + 1) (sigma - u))
                 = (2/3) sqrt(sigma) R_D(0, 1 + sigma, 1),
            t0_3 = int_0^sigma du / sqrt(u (u + 1) (sigma - u))
                 = 2 R_F(0, 1, 1 + sigma)

        (Carlson's symmetric forms, DLMF 19.29), which
        ``curve._translation_half`` evaluates.
        """
        return np.array(_curve._translation_half(self.params.sigma))


def sample_fundamental(sigma: float, e: float, nr: int, nt: int) -> TriMesh:
    """Sample psi = X - X(1) on the image of an nr x nt polar grid.

    Grid: r in linspace(e, 1, nr), t in linspace(0, 1, nt), z through the
    Moebius map of r*exp(i pi t), every point in the closed upper
    half-plane.  The positions come from one ``curve.immerse`` call on the
    whole grid; the vertices are taken relative to the corner z = 1, so
    that corner lies exactly at the origin.

    DegenerateCell when adjacent grid samples coincide, or when a sampled
    position or normal is not finite: an e small enough that the r = e
    row lands on the end z = 0, where the immersion is infinite.
    """
    params = CurveParams(sigma)
    dm = DomainMap(sigma, e)
    if nr < 2 or nt < 3:  # with nt = 2 every row runs through the end z = 0
        raise ValueError("need nr >= 2 and nt >= 3")

    Z = dm.grid(nr, nt)
    if (np.min(np.abs(np.diff(Z, axis=1))) == 0.0
            or np.min(np.abs(np.diff(Z, axis=0))) == 0.0):
        raise DegenerateCell("adjacent grid samples coincide")

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        X, _ = _curve.immerse(params, Z)  # a point on z = 0 is not finite
        verts = (X - X[nr - 1, 0]).reshape(-1, 3)
        normals = _unit_normals(sigma, Z.reshape(-1))
    if not (np.isfinite(verts).all() and np.isfinite(normals).all()):
        raise DegenerateCell("sampled positions or normals are not finite")

    v00 = (np.arange(nr - 1)[:, None] * nt + np.arange(nt - 1)).reshape(-1)
    v11 = v00 + nt + 1
    faces = np.stack([v00, v00 + nt, v11, v00, v11, v00 + 1], axis=1)

    return TriMesh(verts, normals, faces.reshape(-1, 3).astype(np.int32))


def _unit_normals(sigma, z):
    """The unit normals over the domain points z: the inverse
    stereographic projection of g = z / sqrt(sigma)."""
    g = z / math.sqrt(sigma)
    a2 = np.abs(g) ** 2
    return np.stack([2.0 * g.real, 2.0 * g.imag, a2 - 1.0],
                    axis=-1) / (1.0 + a2)[..., None]


# ---------------------------------------------------------------------------
# extension pipeline


def extension_ops(sigma: float):
    """The four extension operations of the reflection pipeline.

    1. 180-degree rotation, signs (-1, 1, -1), with offset (2c1, 0, 2c3)
       = (t0_1, 0, t0_3), where c = psi(i sqrt(sigma)) is the fixed point
       of the first symmetry (c1 and c3 are half of t0's);
    2. reflection, signs (1, -1, 1), in the plane {x2 = 0};
    3. 180-degree rotation, signs (-1, 1, -1), about the x2-axis;
    4. translation by 2 t0 with t0 = psi(-sigma).

    Each op's orientation is the sign of signs . N(p)^2 at a surface point
    p it fixes, the same for every sigma.  Over z = i sqrt(sigma), g = i
    and N = (0, 1, 0): op 1 keeps it (+1).  Over the real axis g is real
    and N = (N1, 0, N3): op 2 fixes the points over (-sigma, 0), which lie
    in {x2 = 0}, and keeps it (+1); op 3 fixes those over (0, 1), which
    lie on the x2-axis, and reverses it (-1).  The translation keeps it.
    """
    t0 = FundamentalSurface(sigma).translation_half()
    rot = np.array([-1.0, 1.0, -1.0])
    return [
        IsometryOp(rot, np.array([t0[0], 0.0, t0[2]]), 1.0),
        IsometryOp(np.array([1.0, -1.0, 1.0]), np.zeros(3), 1.0),
        IsometryOp(rot, np.zeros(3), -1.0),
        IsometryOp(offset=2.0 * t0),
    ]


def extend(mesh: TriMesh, ops, copies: int = 0) -> TriMesh:
    """Apply the pipeline: double the mesh at each of the first three ops,
    then append ``copies`` translated copies of the result.

    Only the isometries are built, no vertex or normal array: block b of
    the cell is the piece under ``cell_ops[b]``, the doublings' ops
    composed (every op after every block so far), its normals under
    ``apply_normals``, and its faces reversed as :class:`TriMesh` derives
    from that isometry.  The blocks are walked on demand
    (:meth:`TriMesh.blocks`); the result keeps the piece's arrays.  Every
    op of :func:`extension_ops` is a signed diagonal map and only op 1 has
    an offset, so a composed isometry maps the piece to the same bits as
    the ops applied one after the other.  Vertex count grows exactly by
    2^3 * (copies + 1).  The input must not be extended already, and the
    fourth op must be a pure translation (signs and orientation +1):
    copies add its offset, and need that op (ValueError).
    """
    if copies < 0:
        raise ValueError("copies must be >= 0")
    if len(mesh.cell_ops) > 1 or mesh.copies:
        raise ValueError("mesh is already extended")
    if len(ops) > 3 and (ops[3].orientation != 1.0
                         or np.any(ops[3].signs != 1.0)):
        raise ValueError("the fourth op must be a pure translation")
    cell_ops = [IsometryOp()]
    for op in ops[:3]:
        cell_ops += [op.compose(a) for a in cell_ops]
    return TriMesh(mesh.base_vertices, mesh.base_normals, mesh.base_faces,
                   cell_ops=cell_ops,
                   translation=ops[3] if len(ops) > 3 else None, copies=copies)


# ---------------------------------------------------------------------------
# level slices and circle fitting


@dataclass(frozen=True)
class CircleFit:
    kind: str          # "circle" or "line"
    center: np.ndarray  # (2,) for circles; a point on the line for lines
    radius: float       # inf for lines
    residual: float
    direction: np.ndarray | None = None  # line direction for kind == "line"


LINE_RADIUS_FACTOR = 1e6
_HEIGHT_TOL = 1e-9  # relative spread of a slice's heights


def level_circle_fit(slices) -> list[CircleFit]:
    """Algebraic least-squares circles through slices of coplanar
    horizontal points: one CircleFit per (n_i, 3) array of the sequence.

    Each slice needs >= 5 points at a common height (to ``_HEIGHT_TOL``),
    else ValueError, and Degenerate when its points do not even span one
    dimension; the message names the slice's index.  A slice whose points
    are collinear, or whose fitted radius exceeds 1e6 times its point
    spread, is a line (total-least-squares fit).  The slices are fitted
    together, padded with zero rows to one stack, which moves neither the
    singular values nor the least-squares solutions: one SVD decides the
    lines and gives their directions, and one SVD solve fits the circles.
    """
    pts = []
    for i, p in enumerate(slices):
        p = np.asarray(p, dtype=float)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError(f"slice {i}: points must be (n, 3)")
        if len(p) < 5:
            raise ValueError(f"slice {i}: need at least 5 points")
        pts.append(p)
    if not pts:
        return []
    n = np.array([len(p) for p in pts])
    # a column per slice, zero past its points: (n_max, 3, k), so a sum
    # over axis 0 adds each slice's points in order, as for one slice
    valid = np.arange(n.max())[:, None] < n
    stack = np.zeros((len(valid), 3, len(pts)))
    stack.transpose(2, 0, 1)[valid.T] = np.concatenate(pts)
    x, y, h = stack.transpose(1, 0, 2)
    mx, my, mh = stack.sum(axis=0) / n
    h_spread = (np.where(valid, h, -np.inf).max(axis=0)
                - np.where(valid, h, np.inf).min(axis=0))
    tol = _HEIGHT_TOL * np.maximum(1.0, np.abs(mh))
    bad = np.flatnonzero(h_spread > tol)
    if bad.size:
        raise ValueError(f"slice {bad[0]}: points do not share a common "
                         "height")
    ux, uy = np.where(valid, x - mx, 0.0), np.where(valid, y - my, 0.0)
    b = ux * ux + uy * uy
    spread = np.sqrt(b.max(axis=0))
    bad = np.flatnonzero(spread == 0.0)
    if bad.size:
        raise Degenerate(f"slice {bad[0]}: all points coincide")
    # principal components decide 1-d (line) vs 2-d data; 2-d data is a
    # line too when its circle is too large
    _, sv, vt = np.linalg.svd(np.stack([ux.T, uy.T], axis=2),
                              full_matrices=False)
    line = sv[:, 1] <= 1e-12 * sv[:, 0]
    # x^2 + y^2 = 2 cx x + 2 cy y + c0 in centred coordinates, solved by
    # the SVD of each slice's (n, 3) matrix with lstsq's cut-off, below
    # which only a line's singular values fall
    ua, sa, vat = np.linalg.svd(
        np.stack([2.0 * ux.T, 2.0 * uy.T, valid.T * 1.0], axis=2),
        full_matrices=False)
    ub = (np.ascontiguousarray(b.T)[:, None] @ ua)[:, 0]
    ub = np.divide(ub, sa, out=np.zeros_like(ub),
                   where=sa > np.finfo(float).eps * n[:, None] * sa[:, :1])
    cx, cy, c0 = (ub[:, None] @ vat)[:, 0].T
    radius = np.sqrt(np.maximum(c0 + cx * cx + cy * cy, 0.0))
    line |= radius > LINE_RADIUS_FACTOR * spread
    ox, oy = mx + cx, my + cy
    dist = np.sqrt((x - ox) ** 2 + (y - oy) ** 2)
    resid = np.max(np.where(valid, np.abs(dist - radius), 0.0), axis=0)
    d = vt[:, 0]
    line_resid = np.max(np.abs(ux * d[:, 1] - uy * d[:, 0]), axis=0)
    return [CircleFit("line", np.array([mx[i], my[i]]), math.inf,
                      float(line_resid[i]), d[i]) if line[i] else
            CircleFit("circle", np.array([ox[i], oy[i]]), float(radius[i]),
                      float(resid[i]))
            for i in range(len(pts))]


def slice_mesh(mesh: TriMesh, heights):
    """Intersect the mesh with the planes {x3 = h} of a 1-d sequence of
    heights, one walk over its edges per height.

    A crossing is a mesh edge (ia < ib) whose ends lie strictly on opposite
    sides of the plane (an end at the height itself makes none), recorded
    as (ia, ib, s) with s = fa / (fa - fb), fa and fb the ends' x3 - h.
    The edge set is the mesh's cached ``TriMesh.edges``, in ascending
    (ia, ib) order.  Returns the records of all heights as arrays (owner,
    ia, ib, s), owner the index of the record's height: height-major, in
    edge order within each height.
    """
    i, j = mesh.edges
    x3 = mesh.vertices[:, 2]
    lo, hi = np.minimum(x3[i], x3[j]), np.maximum(x3[i], x3[j])
    hs = np.asarray(heights, dtype=float).reshape(-1)
    edge = [np.flatnonzero((lo < h) & (h < hi)) for h in hs]
    owner = np.repeat(np.arange(len(hs)), [len(e) for e in edge])
    edge = np.concatenate(edge) if edge else np.zeros(0, dtype=np.intp)
    i, j = i[edge], j[edge]
    fa, fb = x3[i] - hs[owner], x3[j] - hs[owner]
    return owner, i, j, fa / (fa - fb)


def refine_slice(sigma: float, heights, n_points: int):
    """Exact whole slices of the surface at a 1-d sequence of heights in
    the slab [0, t0_3]: an array of shape (len(heights), 2 n_points, 3).

    The height coordinate u = U(z) of ``curve.immerse`` maps the upper
    half-plane onto the rectangle [-t0_3, 0] x [0, b]
    (``curve._u_height``), and x3 = Re u + t0_3, so height h is the
    vertical line Re u = h - t0_3 across it: the heights 0 and t0_3 are
    its sides z in (0, 1) and z < -sigma, the boundary lines of the
    surface, where z is real.  A slice's first n_points are z(u) at Im u =
    (k + 1/2) b / n_points by the closed-form inverse ``curve._z_of_u``;
    one ``curve.immerse`` call evaluates all heights' points.  The other
    n_points are their image under op 2 of :func:`extension_ops`, x2 ->
    -x2, the slice over the lower half-plane.  ValueError for a height
    outside the slab.
    """
    heights = np.asarray(heights, dtype=float)
    span = _curve._translation_half(sigma)[2]
    if not np.all((heights >= 0.0) & (heights <= span)):
        raise ValueError(f"heights must lie in the slab [0, t0_3 = {span!r}]")
    b = _curve._u_height(sigma)
    u = (heights[:, None] - span) + 1j * ((np.arange(n_points) + 0.5)
                                          * (b / n_points))
    z = _curve._z_of_u(sigma, u)
    # on the sides an imaginary part is rounding, which moves x1 by up to
    # ~1e-12 next to the end z = 0
    z.imag[(heights == 0.0) | (heights == span)] = 0.0
    pos, _ = _curve.immerse(CurveParams(sigma), z)
    return np.concatenate([pos, pos * [1.0, -1.0, 1.0]], axis=1)


# ---------------------------------------------------------------------------
# export


_CHUNK = 1 << 12  # rows formatted per write
_KERNEL_COLUMNS = 8  # most block columns one digit-kernel call takes
_KERNEL_VALUES = 1 << 15  # most values one digit-kernel call takes
_MINUS = np.uint8(ord("-"))  # the sign byte of a negative value

# decimal exponents e for which y = |x| 10^(8 - e) is at most two roundings
# away from exact: 10^k is an exact double for |k| <= 22
_EMIN, _EMAX = -36, 30


def _units(texts):
    """Each of ``texts`` (at most 4 bytes) zero-padded to one uint32 unit."""
    return np.frombuffer(b"".join(t.ljust(4, b"\0") for t in texts),
                         dtype=np.uint32)


def _digits(width, drop=None):
    """(10^width, width) ASCII digits of 0 .. 10^width - 1, zero-padded,
    with their leading (``drop="lead"``, all of them for 0) or trailing
    (``"trail"``) zeros replaced by zero bytes."""
    i = np.arange(10 ** width)[:, None] // 10 ** np.arange(width)[::-1] % 10
    d = (i + ord("0")).astype(np.uint8)
    if drop == "lead":
        d[np.logical_and.accumulate(i == 0, axis=1)] = 0
    elif drop == "trail":
        d[np.logical_and.accumulate(i[:, ::-1] == 0, axis=1)[:, ::-1]] = 0
    return d


@cache
def _g9_tables():
    """Scale factors and unit tables of the ``'%.9g'`` digit kernel, built
    on first use (not at import) and read-only.

    Per exponent index e - _EMIN, e in [_EMIN, _EMAX]: ``scale`` holds the
    exact factors (m1, m2, d) with 10^(8 - e) = m1 m2 / d.  For e up to
    _EMAX + 1, where the rounding carry may take it, ``split`` holds
    10^(8 - s), which cuts the integer part off M, and 10^(4 + s), which
    scales the rest to 12 fraction digits, with s = e in fixed notation
    (-4 <= e < 9) and s = 0 in exponent notation; ``expo`` holds 0 in
    fixed notation and the row of e's exponent text in ``frac4`` in
    exponent notation.  The unit tables: ``lead2`` is a separator, a zero
    byte for the sign and 2 digits with leading zeros dropped; ``int4`` is
    4 digits with leading zeros dropped, then full; ``int3`` is 3 digits
    with leading zeros dropped down to a last "0", then full, each without
    and with a trailing "."; ``frac4`` is 4 digits with trailing zeros
    dropped, then full, then the exponents "e-36" to "e+31".
    """
    p10 = np.array([float(10 ** k) for k in range(23)])
    e = np.arange(_EMIN, _EMAX + 2)  # the carry reaches _EMAX + 1
    k = 8 - e[:-1]
    scale = np.stack([p10[np.clip(k, 0, 22)], p10[np.clip(k - 22, 0, 22)],
                      p10[np.clip(-k, 0, 22)]])
    fixed = (e >= -4) & (e < 9)
    s = np.where(fixed, e, 0)
    split = 10 ** np.stack([8 - s, 4 + s]).astype(np.int64)
    expo = np.where(fixed, 0, 20_000 + e - _EMIN)
    lead2 = np.zeros((100, 4), dtype=np.uint8)
    lead2[:, 0], lead2[:, 2:] = ord(" "), _digits(2, "lead")
    int4 = np.concatenate([_digits(4, "lead"), _digits(4)])
    int3 = np.zeros((2, 2, 1000, 4), dtype=np.uint8)  # full, point, i
    int3[0, :, :, :3], int3[0, :, 0, 2] = _digits(3, "lead"), ord("0")
    int3[1, :, :, :3], int3[:, 1, :, 3] = _digits(3), ord(".")
    frac4 = np.concatenate([_digits(4, "trail"), _digits(4)])
    lead2, int4, int3, frac4 = (t.reshape(-1, 4).view(np.uint32)[:, 0]
                                for t in (lead2, int4, int3, frac4))
    frac4 = np.concatenate([frac4, _units(
        [b"e%+03d" % e for e in range(_EMIN, _EMAX + 2)])])
    tables = scale, split, expo, lead2, int4, int3, frac4
    for t in tables:
        t.flags.writeable = False
    return tables


class _DigitWork:
    """The buffers of one digit-kernel call of up to ``size`` values,
    allocated once and reused through ``out=``: fresh arrays of this size
    would fault in fresh pages on every call.  ``mag`` takes the
    magnitudes.  Three float rows hold them and two float temporaries;
    M, an int64, is cast in place over the last (``m``), and the six text
    units (``units``) are written over all three once those are spent."""

    def __init__(self, size):
        self.size = size
        self.f = np.empty((3, size))
        self.i = np.empty((4, size), dtype=np.int64)
        self.t = np.empty(size, dtype=np.int16)
        self.b = np.empty((4, size), dtype=bool)
        self.mag, self.m = self.f[0], self.f[2].view(np.int64)
        self.units = self.f.view(np.uint32).reshape(6, size)


def _decimal9(a, work):
    """(M, e - _EMIN, slow) for an array ``a`` of |x| (at most ``work.size``
    values, ``work.mag`` itself or another array), as views into ``work``:
    x = M 10^(e - 8) rounded to 9 significant digits, 10^8 <= M < 10^9
    (M = e = 0 for x = 0), and ``slow`` a mask.

    e starts as floor(log10 a), corrected by one where y = a 10^(8 - e)
    falls outside [10^8, 10^9); M is y rounded to an integer, with the
    carry 10^9 -> 10^8, e + 1.  y carries at most two roundings, < 2.4e-7
    at y < 2^30, so M is the correctly rounded significand unless frac(y)
    lies within 5e-7 of 0.5.  Those values, non-finite ones and those with
    e outside [_EMIN, _EMAX] are marked ``slow`` and take ``'%.9g'``.
    """
    scale = _g9_tables()[0]
    n = len(a)
    y, fy = work.f[1, :n], work.f[2, :n]
    e, m = work.i[0, :n], work.m[:n]  # m is fy's memory
    fin, ok, slow, up = work.b[:, :n]
    with np.errstate(invalid="ignore"):  # inf - inf for frac(inf)
        np.isfinite(a, out=fin)
        np.greater(a, 0.0, out=ok)
        fin &= ok
        y[...] = 0.0  # log10(1) where a is not finite and positive
        np.log10(a, out=y, where=fin)
        np.floor(y, out=y)
        np.copyto(e, y, casting="unsafe")
        np.clip(e, _EMIN, _EMAX, out=e)
        e -= _EMIN
        m1, m2, d = scale
        m1.take(e, out=fy, mode="clip")
        np.multiply(a, fy, out=y)
        m2.take(e, out=fy, mode="clip")
        y *= fy
        d.take(e, out=fy, mode="clip")
        y /= fy
        np.greater_equal(y, 1e8, out=ok)
        np.less(y, 1e9, out=slow)
        ok &= slow
        np.greater(fin, ok, out=slow)  # finite, y off [1e8, 1e9)
        off = np.flatnonzero(slow)
        if off.size:
            e[off] = np.clip(e[off] + np.where(y[off] < 1e8, -1, 1),
                             0, _EMAX - _EMIN)
            m1, m2, d = scale.take(e[off], axis=1)
            y[off] = a[off] * m1 * m2 / d
            np.greater_equal(y, 1e8, out=ok)
            np.less(y, 1e9, out=slow)
            ok &= slow
        ok &= fin
        np.floor(y, out=fy)
        y -= fy  # frac(y)
        np.greater(y, 0.5, out=up)
        y -= 0.5
        np.abs(y, out=y)
        np.greater(y, 5e-7, out=slow)
        ok &= slow  # fast
        np.not_equal(a, 0.0, out=slow)
        np.greater(slow, ok, out=slow)
    np.copyto(fy, 0.0, where=slow)
    np.copyto(m, fy, casting="unsafe")  # in place, element by element
    np.add(m, up, out=m)
    np.equal(m, 1_000_000_000, out=up)  # the carry
    np.copyto(m, 100_000_000, where=up)
    np.add(e, up, out=e)
    return m, e, slow


def _g9_units(a, work):
    """(units, slow) of an array ``a`` of |x| (see :func:`_decimal9`), the
    sign-free text of :func:`export_obj`'s values.

    ``units`` is a (6, len(a)) uint32 view into ``work``, one row per text
    unit: ``lead2`` of the integer digits above the last seven, then
    ``int4``, ``int3`` and three of ``frac4``.  ``slow`` holds the indices
    of the values :func:`_decimal9` leaves to ``'%.9g'``; their units are
    meaningless.  The integer part is M // 10^(8 - s) and the rest, scaled
    to 12 digits, the fraction, s as in :func:`_g9_tables`.
    """
    _, split, expo, lead2, int4, int3, frac4 = _g9_tables()
    n = len(a)
    m, e, slow = _decimal9(a, work)
    slow = np.flatnonzero(slow)
    ip, q, r = work.i[1:, :n]
    t, (c, big) = work.t[:n], work.b[:2, :n]
    split[0].take(e, out=q, mode="clip")
    np.floor_divide(m, q, out=ip)
    q *= ip
    m -= q
    split[1].take(e, out=q, mode="clip")
    m *= q  # the fraction's 12 digits
    u = work.units[:, :n]  # over a and the float buffers: both are spent
    # integer digits: i0 = ip // 10^7, i1 = ip // 1000 % 10^4, i2 = ip % 1000
    np.greater_equal(ip, 1000, out=big)
    np.floor_divide(ip, 10_000_000, out=q)
    lead2.take(q, out=u[0], mode="clip")
    np.greater(q, 0, out=c)
    q *= -10_000
    np.floor_divide(ip, 1000, out=r)
    q += r
    np.multiply(c, 10_000, out=t)
    q += t
    int4.take(q, out=u[1], mode="clip")
    r *= -1000
    ip += r
    np.multiply(big, 2000, out=t)
    ip += t
    np.greater(m, 0, out=c)
    np.multiply(c, 1000, out=t)
    ip += t
    int3.take(ip, out=u[2], mode="clip")
    # fraction digits: f0 = fp // 10^8, f1 = fp // 10^4 % 10^4, f2 = fp % 10^4
    np.floor_divide(m, 100_000_000, out=q)
    np.floor_divide(m, 10_000, out=r)
    np.multiply(r, -10_000, out=ip)
    ip += m  # f2
    np.multiply(q, 10_000, out=m)
    r -= m  # f1
    np.add(r, ip, out=m)
    np.greater(m, 0, out=c)
    np.multiply(c, 10_000, out=t)
    q += t
    frac4.take(q, out=u[3], mode="clip")
    np.greater(ip, 0, out=c)
    np.multiply(c, 10_000, out=t)
    r += t
    frac4.take(r, out=u[4], mode="clip")
    expo.take(e, out=q, mode="clip")
    q += ip  # f2 is 0 in exponent notation
    frac4.take(q, out=u[5], mode="clip")
    return u, slow


def _reused(buffers, size):
    """The bytearray of ``size`` bytes in the dict ``buffers``, made on
    first use: text buffers of a few sizes serve a whole export."""
    buf = buffers.get(size)
    if buf is None:
        buf = buffers[size] = bytearray(size)
    return buf


class _Column:
    """One block column's sign-free text: the bytes of its magnitudes
    (``key``), its (rows, 6) uint32 ``units``, the rows that take
    ``'%.9g'`` (``slow``) and whether any value uses the ``int4`` unit
    (``wide``)."""

    def __init__(self, key):
        self.key, self.units, self.slow, self.wide = key, None, None, False


class _ColumnDigits:
    """The text of block columns for :func:`export_obj`, keeping the
    sign-free units of the columns of its last :meth:`text` call, keyed by
    the bytes of the column of magnitudes itself, for blocks of ``rows``
    rows.

    Only the sign depends on more than |x|, so a column's units are a
    function of its magnitudes alone, and the bytes cannot tell whether
    they were kept.  :meth:`text` sends the columns of its blocks that
    were not kept through the digit kernel whole, up to ``columns`` (but
    at least one, and no more than fit in ``_KERNEL_VALUES`` values) to a
    call, into buffers allocated once (:class:`_DigitWork`).
    """

    def __init__(self, rows, columns=_KERNEL_COLUMNS):
        self.rows = rows
        self.columns = max(1, min(columns, _KERNEL_VALUES // max(rows, 1)))
        self.work = _DigitWork(self.columns * rows)
        self.kept = {}
        self.mag = np.empty(rows)
        self.lines = {}
        self.sign = np.empty(min(rows, _CHUNK), dtype=bool)

    def text(self, tag, blocks):
        """ASCII lines ``tag x0 x1 ...`` of the rows of each (rows, k)
        array in ``blocks``, each value as ``'%.9g'`` writes it, in chunks
        of at most ``_CHUNK`` rows.  The columns kept from the last call
        that these blocks do not have give their unit arrays to new ones;
        the rest are released before the first line."""
        cols, table = {}, []
        for x in blocks:
            table.append([])
            for c in range(x.shape[1]):
                key = np.abs(x[:, c], out=self.mag).tobytes()
                col = cols.get(key)
                if col is None:
                    col = self.kept.pop(key, None) or _Column(key)
                    cols[key] = col
                table[-1].append(col)
        spare = [col.units for col in self.kept.values()]
        self.kept = cols
        new = [col for col in cols.values() if col.units is None]
        for col in new:
            col.units = spare.pop() if spare else np.empty(
                (self.rows, 6), dtype=np.uint32)
        del spare
        self._fill(new)
        for x, row in zip(blocks, table):
            yield from self._lines(tag, x, row)

    def _fill(self, cols):
        """The units of the columns ``cols``, ``self.columns`` whole
        columns laid end to end to a kernel call."""
        n, work = self.rows, self.work
        for i in range(0, len(cols), self.columns):
            batch = cols[i:i + self.columns]
            for j, col in enumerate(batch):
                work.mag[j * n:(j + 1) * n] = np.frombuffer(col.key)
            units, slow = _g9_units(work.mag[:len(batch) * n], work)
            ends = np.searchsorted(slow, n * np.arange(len(batch) + 1))
            for j, col in enumerate(batch):
                part = units[:, j * n:(j + 1) * n]
                col.units[...] = part.T
                col.slow = slow[ends[j]:ends[j + 1]] - j * n
                col.wide = bool(part[1].any())

    def _lines(self, tag, x, cols):
        """The lines of the rows of ``x`` from the units of its columns.

        A line is the tag, the values and a newline, bytes of a reused
        buffer.  A value's text is six 4-byte units of zero-padded text,
        copied whole from its column: separator, a zero byte for the sign
        and the integer digits above the last seven (``lead2``); the next
        four (``int4``); the last three and "." if a fraction follows
        (``int3``); the fraction as 12 digits in three units, trailing
        zeros dropped (``frac4``), where the last unit holds the exponent
        in exponent notation.  A column whose values all leave ``int4``
        empty (so ``lead2`` holds the separator alone) takes two bytes,
        separator and sign, in place of both.  The sign byte is "-" where
        ``np.signbit(x)``.  One ``bytes.translate`` drops the zero padding.
        ``slow`` values are written by ``'%.9g'`` from the signed value
        into their bytes (at most 17, in 18): Python writes a NaN with its
        sign bit set as ``nan``.
        """
        widths = [24 if col.wide else 18 for col in cols]
        size = len(tag) + sum(widths) + 1
        for i in range(0, len(x), _CHUNK):
            r = min(_CHUNK, len(x) - i)
            buf = _reused(self.lines, r * size)
            line = np.frombuffer(buf, dtype=np.uint8).reshape(r, size)
            line[:, :len(tag)] = np.frombuffer(tag, dtype=np.uint8)
            line[:, -1] = ord("\n")
            p = len(tag)
            for c, (col, w) in enumerate(zip(cols, widths)):
                if w == 24:
                    units, at = col.units[i:i + r], p
                else:  # separator and sign, then int3 and the fraction
                    units, at = col.units[i:i + r, 2:], p + 2
                    line[:, p] = ord(" ")
                item = np.dtype((np.void, 4 * units.shape[1]))
                line[:, at:p + w].view(item)[:, 0] = units.view(item)[:, 0]
                sign = self.sign[:r]
                np.signbit(x[i:i + r, c], out=sign)
                np.multiply(sign, _MINUS, out=line[:, p + 1])
                s0, s1 = np.searchsorted(col.slow, (i, i + r))
                for j in col.slow[s0:s1] - i:
                    text = (b" %.9g" % x[i + j, c]).ljust(w, b"\0")
                    line[j, p:p + w] = np.frombuffer(text, dtype=np.uint8)
                p += w
            yield buf.translate(None, b"\0")


def _copies(mesh, part):
    """Lists of the vertex (``part`` 0) or normal (1) arrays of the mesh's
    blocks, one list per copy (:meth:`TriMesh.blocks`)."""
    blocks = mesh.blocks()
    for _ in range(mesh.copies + 1):
        yield [next(blocks)[part] for _ in mesh.flips]


def _obj_values(mesh):
    """The ``v`` then the ``vn`` text of :func:`export_obj`, a copy at a
    time, through one store of block column digits
    (:class:`_ColumnDigits`).

    Each copy's blocks go through :meth:`_ColumnDigits.text` together, so
    the columns the last copy did not have take one kernel call where they
    fit.  The translated copies 1..copies share one normals array per
    block (:meth:`TriMesh.blocks`), so their ``vn`` text is copy 1's,
    formatted once and written ``copies`` times; copy 0's normals are its
    own, and the walk stops after copy 1.
    """
    digits = _ColumnDigits(mesh.base_count)
    for vertices in _copies(mesh, 0):
        yield from digits.text(b"v", vertices)
        del vertices  # the walk's next copy replaces these arrays
    digits.lines.clear()  # vn lines have another width
    normals = _copies(mesh, 1)
    yield from digits.text(b"vn", next(normals))
    if mesh.copies:
        text = digits.text(b"vn", next(normals))
        if mesh.copies > 1:  # a translated bytearray keeps its old size
            text = list(map(bytes, text))
        del normals  # ends the walk
        for _ in range(mesh.copies):
            yield from text


def _token_table(first, count, out):
    """Tokens ``" i//i"`` for the indices i = first .. first + count - 1
    (first >= 0, count >= 1), written into the front of the uint8 buffer
    ``out``: (table, padded), item r of the table holding the ASCII bytes
    of first + r's token zero-padded to the widest item, and ``padded``
    whether any item is padded.

    The digits of each i are read four at a time from the full 4-digit
    unit table (``int4``'s second half), and its leading zeros are cut.
    Items are fixed-width ``void`` scalars, so a gather copies whole rows;
    so do the copies that fill the table.  The indices are consecutive,
    so the rows of one digit count are one block, cut at the powers of
    ten.
    """
    digits_last = len(str(first + count - 1))
    groups = -(-digits_last // 4)
    part = np.empty((count, groups), dtype=np.int64)
    rest = np.arange(first, first + count)
    for g in range(groups - 1, 0, -1):  # 4 digits at a time, lowest first
        high = rest // 10_000
        np.subtract(rest, 10_000 * high, out=part[:, g])
        rest = high
    part[:, 0] = rest
    digits = _g9_tables()[4][10_000:].take(part).view(np.uint8)
    top = digits_last + 1  # " i" bytes of the widest row
    table = out[:count * (2 * top + 1)].reshape(count, 2 * top + 1)
    cuts = [0] + [min(max(10 ** d - first, 0), count)
                  for d in range(1, digits_last)] + [count]
    for w, r0, r1 in zip(range(2, top + 1), cuts, cuts[1:]):
        item = np.dtype((np.void, w - 1))  # one row's digits
        tok = digits[r0:r1, 4 * groups + 1 - w:].view(item)
        table[r0:r1, 0] = ord(" ")
        table[r0:r1, 1:w].view(item)[...] = tok
        table[r0:r1, w] = table[r0:r1, w + 1] = ord("/")
        table[r0:r1, w + 2:2 * w + 1].view(item)[...] = tok
        table[r0:r1, 2 * w + 1:] = 0
    padded = len(str(first)) < digits_last
    return table.view(np.dtype((np.void, table.shape[1])))[:, 0], padded


def _obj_faces(mesh):
    """The ``f`` text of :func:`export_obj`, block by block as
    :func:`export_ply` writes its faces.

    Block b's faces are the base faces, reversed where ``flips[b]`` is
    set, with each index moved to block b's first row.  Copy k holds the
    consecutive vertices k c + 1 .. (k + 1) c (1-based, c the cell's
    vertex count), so one token table of them (:func:`_token_table`),
    rebuilt into one buffer per copy, serves its blocks: block b's lines
    are a byte gather of rows ``faces + b n`` (n the base vertex count)
    between ``f`` and a newline.  The padding is dropped only where a
    copy's indices differ in digit count.  A yielded chunk may be a reused
    buffer: write it before drawing the next.
    """
    f = mesh.base_faces.astype(np.intp)  # take converts to intp per call
    n, flips = mesh.base_count, mesh.flips
    if not len(f):
        return
    faces = f, f[:, ::-1].copy()
    cell = n * len(flips)
    width = 2 * len(str(mesh.vertex_count)) + 3
    table = np.empty(cell * width, dtype=np.uint8)
    gathered = np.empty(3 * len(f) * width, dtype=np.uint8)
    block, lines = np.empty_like(faces[0]), {}
    for k in range(mesh.copies + 1):
        tokens, padded = _token_table(k * cell + 1, cell, table)
        w = tokens.itemsize
        tok = gathered[:3 * len(f) * w].view(tokens.dtype).reshape(-1, 3)
        buf = _reused(lines, len(f) * (3 * w + 2))
        line = np.frombuffer(buf, dtype=np.uint8).reshape(len(f), -1)
        line[:, 0], line[:, -1] = ord("f"), ord("\n")
        body = line[:, 1:-1].view(tokens.dtype)
        for b, flip in enumerate(flips):
            np.add(faces[flip], b * n, out=block)
            tokens.take(block, out=tok, mode="clip")
            body[...] = tok
            yield buf.translate(None, b"\0") if padded else buf


def export_obj(mesh: TriMesh, path) -> int:
    """ASCII OBJ (v/vn/f with 1-based i//i indices, 9 significant digits).

    ValueError, before the file is opened, when a base face names no
    vertex: an index outside [0, ``base_count``).

    Every ``v`` and ``vn`` value is written as Python's ``'%.9g'`` writes
    it, byte for byte: :func:`_g9_units` renders the correctly rounded
    digits in numpy and leaves near-ties, non-finite values and extreme
    exponents to ``'%.9g'`` itself.  The mesh is walked a copy at a time
    (:meth:`TriMesh.blocks`, ``base_count`` rows a block), so no
    whole-mesh or cell-sized array is built.  Every isometry of the
    extension is a signed diagonal map plus an offset with no x2
    component, so most block columns repeat the magnitudes of an earlier
    one: x2 in every block, x1 and x3 in blocks paired by a zero-offset op,
    all normals those of the base block.  The sign-free digits of the
    distinct block columns of the last copy written are therefore kept,
    keyed by the bytes of their magnitudes (at most one copy's, so memory
    does not grow with the copy count), and the sign is added per value.
    The key is the data, so reuse needs no assumption about the ops and
    the bytes are the same with or without it.  A copy's columns that the
    last copy did not have go through the digit kernel whole, into
    buffers allocated once per export that hold ``_KERNEL_COLUMNS``
    columns or ``_KERNEL_VALUES`` values, whichever is fewer, but at least
    one column: one call per copy at 40x60 (136 columns in 18 calls at
    ``--copies 16``), more where a copy's new columns exceed them.  The
    normals go through the same store, and the translated copies' ``vn``
    text is formatted once (:func:`_obj_values`).

    ``f`` is written block by block (:func:`_obj_faces`), from the base
    faces and a table of each copy's ``" i//i"`` tokens.  Deterministic
    bytes for identical input.  Returns the byte count.
    """
    f = mesh.base_faces
    if len(f) and not 0 <= f.min() <= f.max() < mesh.base_count:
        raise ValueError(f"OBJ faces must name a vertex: indices {f.min()}"
                         f"..{f.max()} on {mesh.base_count} vertices")
    with open(path, "wb") as fh:
        nbytes = sum(map(fh.write, _obj_values(mesh)))
        nbytes += sum(map(fh.write, _obj_faces(mesh)))
    return nbytes


_PLY_FACE = np.dtype([("n", "u1"), ("i", "<i4", (3,))])  # triangles only


def export_ply(mesh: TriMesh, path) -> int:
    """Binary little-endian PLY: float32 x y z nx ny nz, int32 indices.

    ValueError, before the file is opened, when a face index would not fit
    in an int32.  The header comes from the counts.  Then come the vertex
    rows, block by block (:meth:`TriMesh.blocks`), and the face records,
    block i's being the base faces, reversed where its ``flips`` entry is
    set, plus i n (n the base vertex count).  Each block goes through
    reused arrays of one block's size, so no cell-sized array is built.
    Returns the byte count.
    """
    f, n, flips = mesh.base_faces, mesh.base_count, mesh.flips
    top = int(f.max(initial=0)) + mesh.vertex_count - n
    if len(f) and top >= 2 ** 31:
        raise ValueError(f"PLY indices are int32: face index {top} "
                         "does not fit")
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {mesh.vertex_count}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        f"element face {mesh.face_count}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    # a cast of (n, 3) into strided rows, or an add into the records'
    # unaligned int32 field, loops 3 values at a time: cast or add into a
    # contiguous array, then copy 12-byte items
    item = np.dtype((np.void, 12))
    rows, part = np.empty((n, 2), item), np.empty((n, 3), "<f4")
    faces = np.asarray(f, np.int32)  # the indices fit, checked above
    faces = (faces, faces[:, ::-1].copy())
    idx = np.empty_like(faces[0])
    records = np.empty(len(f), dtype=_PLY_FACE)
    records["n"] = 3
    body = records["i"].view(item)[:, 0]
    with open(path, "wb") as fh:
        nbytes = fh.write(header)
        for block in mesh.blocks():
            for c, a in enumerate(block):
                part[...] = a
                rows[:, c] = part.view(item)[:, 0]
            nbytes += fh.write(rows)
        for i in range(len(flips) * (mesh.copies + 1)):
            np.add(faces[flips[i % len(flips)]], i * n, out=idx)
            body[...] = idx.view(item)[:, 0]
            nbytes += fh.write(records)
    return nbytes
