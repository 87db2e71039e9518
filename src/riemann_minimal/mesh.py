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
symmetry carries its action on the surface's orientation, which maps the
normals and decides which blocks' faces are reversed.  The extended mesh
keeps the piece once plus the isometries of its orbit; its blocks are
walked on demand (:meth:`TriMesh.blocks`), and the exporters write them
one block at a time, so no array the size of the cell is built.

The piece is the only mesh that is sliced to exact points: it is cut at
a sequence of heights in one pass over its edges (:func:`slice_mesh`),
and :func:`refine_slice` moves those records to exact surface points by
Newton on the same closed form, one evaluation of all crossings of all
heights per round.  A slice of the extended surface is the orbit of the
piece's slices under the cell's isometries.  :func:`level_circle_fit`
fits a sequence of slices in one stacked solve, one circle or line per
slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import curve as _curve
from .curve import CurveParams
from .quad import RiemannMinimalError

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
    """Affine isometry v -> linear @ v + offset with orthogonal linear part,
    and its action on the surface's orientation, ``orientation`` = +1 (kept)
    or -1 (reversed).

    A symmetry of the surface maps its unit normal N to orientation * L N
    (L the linear part).  That sign is not det(L): a rotation about a line
    lying in the surface reverses the orientation, and a reflection in a
    plane meeting the surface at right angles keeps it.
    """

    linear: np.ndarray
    offset: np.ndarray
    orientation: float = 1.0

    def __post_init__(self):
        L = np.asarray(self.linear, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if L.shape != (3, 3) or b.shape != (3,):
            raise ValueError("linear must be 3x3 and offset length 3")
        if np.max(np.abs(L @ L.T - np.eye(3))) > 1e-12:
            raise ValueError("linear part is not orthogonal to 1e-12")
        if self.orientation not in (1.0, -1.0):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "offset", b)
        object.__setattr__(self, "orientation", float(self.orientation))

    def apply(self, pts):
        return np.asarray(pts) @ self.linear.T + self.offset

    def apply_normals(self, normals):
        return self.orientation * (np.asarray(normals) @ self.linear.T)

    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    def compose(self, other: "IsometryOp") -> "IsometryOp":
        """self after other: v -> self(other(v))."""
        return IsometryOp(self.linear @ other.linear,
                          self.linear @ other.offset + self.offset,
                          self.orientation * other.orientation)


def identity_op() -> IsometryOp:
    return IsometryOp(np.eye(3), np.zeros(3))


class TriMesh:
    """Oriented triangle mesh with per-vertex normals, stored as an orbit.

    The stored part is the *piece*: ``base_vertices``, ``base_normals`` and
    ``base_faces``, kept once.  The mesh is ``len(flips)`` blocks per copy
    and ``copies + 1`` copies, walked by :meth:`blocks`: block b of copy 0
    is the piece under the isometry ``cell_ops[b]`` (block 0, under the
    identity, is the piece's own arrays), with the base faces reversed
    where ``flips[b]`` is set, and block b of copy k + 1 is block b of
    copy k under ``translation``.  Vertex i is base vertex ``i % n`` of
    block ``i // n`` (n the base vertex count), and its faces are the base
    faces shifted by that block's first index.  The first ``len(flips)``
    blocks are the *cell*.  A plain mesh is one block with no copies.
    The cell of :func:`extend` is eight blocks, one period of the
    translation 2 t0.  The translation by t0 (op 1 after op 3) maps the
    surface onto itself too, but reverses its orientation, so the cell
    holds two of the paper's fundamental domains.

    Only the piece of :func:`sample_fundamental` also keeps, per vertex,
    the domain parameter z it was sampled at and the branch value w there
    (``domain_z``, ``domain_w``), the record :func:`refine_slice` reads;
    an extended mesh's slices are the orbit of the piece's.

    ``vertices``, ``normals``, ``faces`` and ``edges`` are the whole mesh,
    built on first use and kept; the piece must not change after.  Counts
    and the walk never build them.
    """

    def __init__(self, vertices, normals, faces, domain_z=None, domain_w=None,
                 cell_ops=None, *, flips=(False,),
                 translation: IsometryOp | None = None, copies: int = 0):
        self.base_vertices = np.asarray(vertices)
        self.base_normals = np.asarray(normals)
        self.base_faces = np.asarray(faces)
        self.domain_z, self.domain_w = domain_z, domain_w
        self.cell_ops = [identity_op()] if cell_ops is None else cell_ops
        self.flips = tuple(map(bool, flips))
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
        offset (zeros made +0.0), and copies 1..copies share one normals
        array per block, copy 0's plus 0.0.  On finite values that is
        ``translation.apply``/``apply_normals`` of copy k bit for bit, a
        pure translation's identity matmul being exact up to turning -0.0
        into 0.0, as adding 0.0 does (so copy 0's normals may differ in
        sign bits from the others').  Only the blocks of the last copy are
        kept, and none for a mesh with no copies.
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
        """Unique undirected edges (i, j), i < j, in ascending order.

        Blocks share no vertex, and block b's edges are the base faces'
        shifted by b times the base vertex count (a reversed face has the
        same edges): the base faces' unique edges are shifted to every
        block of every copy, in order.  Computed on first use and kept;
        the faces must not change after.
        """
        n = self.base_count
        faces = np.asarray(self.base_faces, dtype=np.int64)
        nxt = np.roll(faces, -1, axis=1)
        key = _unique(np.minimum(faces, nxt) * n + np.maximum(faces, nxt))
        i, j = np.divmod(key, n)
        shift = n * np.arange(self.vertex_count // n)[:, None]
        return (i + shift).ravel(), (j + shift).ravel()


# ---------------------------------------------------------------------------
# fundamental piece


class FundamentalSurface:
    """The curve of one sigma and the two anchors the extension reads, t0
    and the fixed point: elliptic integrals in closed form, no path."""

    def __init__(self, sigma: float):
        self.params = CurveParams(sigma)

    def psi_fixed_point(self):
        """c = psi(i sqrt(sigma)), the S1 fixed point, in closed form: c1
        and c3 are half of t0's, and c2 = Re(i w / (sqrt(sigma) z)) =
        -1/sqrt(sigma) with w = i sigma - sqrt(sigma) there (see
        :meth:`translation_half`); a new array per call."""
        t0 = self.translation_half()
        return np.array([t0[0] / 2.0, -1.0 / math.sqrt(self.params.sigma),
                         t0[2] / 2.0])

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
    half-plane.  Positions and branch values come from one
    ``curve.immerse`` call on the whole grid; the vertices are taken
    relative to the corner z = 1, so that corner lies exactly at the origin.
    ``domain_w`` is the base point's sheet: i sqrt(x (1 - x) (x + sigma))
    on the t = 0 column, and 0 at the corners on the branch points.
    """
    params = CurveParams(sigma)
    dm = DomainMap(sigma, e)
    if nr < 2 or nt < 3:  # with nt = 2 every row runs through the end z = 0
        raise ValueError("need nr >= 2 and nt >= 3")

    Z = dm.grid(nr, nt)
    if (np.min(np.abs(np.diff(Z, axis=1))) == 0.0
            or np.min(np.abs(np.diff(Z, axis=0))) == 0.0):
        raise DegenerateCell("adjacent grid samples coincide")

    X, W = _curve.immerse(params, Z)
    verts = (X - X[nr - 1, 0]).reshape(-1, 3)

    normals = _unit_normals(sigma, Z.reshape(-1))

    v00 = (np.arange(nr - 1)[:, None] * nt + np.arange(nt - 1)).reshape(-1)
    v11 = v00 + nt + 1
    faces = np.stack([v00, v00 + nt, v11, v00, v11, v00 + 1], axis=1)

    return TriMesh(
        vertices=verts,
        normals=normals,
        faces=faces.reshape(-1, 3).astype(np.int32),
        domain_z=Z.reshape(-1),
        domain_w=W.reshape(-1),
    )


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

    1. 180-degree rotation diag(-1,1,-1) with offset (2c1, 0, 2c3), where
       c = psi(i sqrt(sigma)) is the fixed point of the first symmetry;
    2. reflection diag(1,-1,1) in the plane {x2 = 0};
    3. 180-degree rotation diag(-1,1,-1) about the x2-axis;
    4. translation by 2 t0 with t0 = psi(-sigma).

    Each op's orientation is the sign of (L N(p)) . N(p) at a surface point
    p it fixes: p over z = i sqrt(sigma) for op 1 (+1), over (-sigma, 0),
    which lies in {x2 = 0}, for op 2 (+1), and over (0, 1), which lies on
    the x2-axis, for op 3 (-1).  The translation keeps it.
    """
    surface = FundamentalSurface(sigma)
    c, t0 = surface.psi_fixed_point(), surface.translation_half()
    rot = np.diag([-1.0, 1.0, -1.0])

    def symmetry(linear, offset, z_fixed):
        n = _unit_normals(sigma, np.array([z_fixed]))[0]
        return IsometryOp(linear, offset, float(np.sign(linear @ n @ n)))

    return [
        symmetry(rot, np.array([2.0 * c[0], 0.0, 2.0 * c[2]]),
                 1j * math.sqrt(sigma)),
        symmetry(np.diag([1.0, -1.0, 1.0]), np.zeros(3), -0.5 * sigma),
        symmetry(rot, np.zeros(3), 0.5),
        IsometryOp(np.eye(3), 2.0 * t0),
    ]


def extend(mesh: TriMesh, ops, copies: int = 0) -> TriMesh:
    """Apply the pipeline: double the mesh at each of the first three ops,
    then append ``copies`` translated copies of the result.

    Only the isometries are built, no vertex or normal array: block b of
    the cell is the piece under ``cell_ops[b]``, the doublings' ops
    composed (every op after every block so far), its normals under
    ``apply_normals``, and its faces reversed where that isometry's
    orientation times det(L) is negative (the mapped winding turns with
    det(L), the mapped normal with the orientation).  The blocks are
    walked on demand (:meth:`TriMesh.blocks`); the result keeps the
    piece's arrays but no domain record.  Every op of
    :func:`extension_ops` is a signed diagonal map and only op 1 has an
    offset, so a composed isometry maps the piece to the same bits as
    the ops applied one after the other.  Vertex count grows exactly by
    2^3 * (copies + 1).  The input must not be extended already, and the
    fourth op must be a pure translation (linear part exactly the
    identity, orientation +1): copies add its offset.
    """
    if copies < 0:
        raise ValueError("copies must be >= 0")
    if len(mesh.flips) > 1 or mesh.copies:
        raise ValueError("mesh is already extended")
    if len(ops) > 3 and (ops[3].orientation != 1.0
                         or not np.array_equal(ops[3].linear, np.eye(3))):
        raise ValueError("the fourth op must be a pure translation")
    flips, cell_ops = [False], [identity_op()]
    for op in ops[:3]:
        flips += [f != (op.orientation * op.det() < 0) for f in flips]
        cell_ops += [op.compose(a) for a in cell_ops]
    return TriMesh(mesh.base_vertices, mesh.base_normals, mesh.base_faces,
                   cell_ops=cell_ops, flips=flips,
                   translation=ops[3] if copies else None, copies=copies)


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
    heights, in one pass over its edges.

    A crossing is a mesh edge (ia < ib) whose ends lie strictly on opposite
    sides of the plane (an end at the height itself makes none), recorded
    as (ia, ib, s) with s = fa / (fa - fb), fa and fb the ends' x3 - h.
    The edge set is the mesh's cached ``TriMesh.edges``, in ascending
    (ia, ib) order.  Returns the records of all heights as arrays (owner,
    ia, ib, s), owner the index of the record's height: height-major, in
    edge order within each height, the form :func:`refine_slice` takes.
    The pass places every vertex among the sorted heights
    (``searchsorted``); an edge crosses the run of them between its ends'
    places, so the cost is one walk over the vertices and edges plus one
    step per record, not a walk per height.
    """
    i, j = mesh.edges
    x3 = mesh.vertices[:, 2]
    hs = np.asarray(heights, dtype=float).reshape(-1)
    order = np.argsort(hs, kind="stable")
    # per vertex, the count of sorted heights below it and at or below it:
    # an edge crosses sorted heights first .. first + n - 1, those above
    # its lower end and below its upper end
    below, upto = (np.searchsorted(hs[order], x3, side=side)
                   for side in ("left", "right"))
    first = np.minimum(upto[i], upto[j])
    n = np.maximum(np.maximum(below[i], below[j]) - first, 0)
    e = np.flatnonzero(n)
    first, n = first[e], n[e]
    edge = np.repeat(e, n)
    owner = order[np.arange(len(edge)) + np.repeat(first - np.cumsum(n) + n,
                                                    n)]
    by_height = np.argsort(owner, kind="stable")
    owner, edge = owner[by_height], edge[by_height]
    i, j = i[edge], j[edge]
    fa, fb = x3[i] - hs[owner], x3[j] - hs[owner]
    return owner, i, j, fa / (fa - fb)


def _thin(owner, n_heights, max_points):
    """Indices of the records kept when each height's run of ``owner``
    (height-major) is thinned to ``max_points`` (an int or one per height)
    evenly spaced ones: those ``np.linspace(0, count - 1,
    max_points).astype(int)`` picks, j (count - 1) / (max_points - 1)
    truncated and the run's last record at the end."""
    count = np.bincount(owner, minlength=n_heights)
    keep = np.minimum(count, max_points)
    c, m = np.repeat(count, keep), np.repeat(keep, keep)
    j = np.arange(len(m)) - np.repeat(np.cumsum(keep) - keep, keep)
    even = (j * ((c - 1) / np.maximum(m - 1, 1))).astype(np.intp)
    at = np.where(c == m, j, np.where((j == m - 1) & (m > 1), c - 1, even))
    return at + np.repeat(np.cumsum(count) - count, keep)


def refine_slice(mesh: TriMesh, heights, sigma: float, max_points,
                 crossings):
    """Exact surface points of the slices of a fundamental piece at a 1-d
    sequence of heights, on the curve of ``sigma`` it was sampled for: a
    list with one (n_i, 3) array per height, in crossing order.

    ``mesh`` must come from :func:`sample_fundamental` (ValueError
    otherwise: only the piece keeps the domain record, and an extended
    mesh's slices are the orbit of the piece's under its ``cell_ops``).
    ``crossings`` are the (owner, ia, ib, s) records of :func:`slice_mesh`
    on it at ``heights``; each height's are thinned to ``max_points`` (an
    int or one per height) evenly spaced records.

    Each crossing solves f = x3 - h on the straight z-segment from its end
    za with w != 0 to its other end zb, z = za + s (zb - za), with the
    closed-form slope df/du = Re((dz/du) / w) (phi3 = dz/w).  Where zb is
    a branch point (w = 0), f has a square-root end, and Newton runs in t
    with 1 - s = (1 - t)^2, in which f is smooth; elsewhere in u = s.
    Safeguarded Newton starts at the mesh's linear guess (u = s, or t =
    1 - sqrt(1 - s)) and keeps the sign bracket, bisecting where a step
    would leave it or w = 0.  A crossing stops when f == 0 or its next
    step (the Newton step, or the step taken) is below 1e-13 in u and,
    where |df/du| > 1, in height, after 60 rounds at most.  All crossings
    of all heights run in lockstep, one :func:`curve.immerse` call per
    round on those still active, so every iterate is an exact surface
    point that depends on its parameter alone.
    """
    if mesh.domain_z is None or len(mesh.domain_z) != mesh.vertex_count:
        raise ValueError("refine_slice takes a piece from sample_fundamental")
    heights = np.asarray(heights, dtype=float)
    keep = _thin(crossings[0], len(heights), max_points)
    owner, ia, ib, s = (c[keep] for c in crossings)
    target = heights[owner]
    # anchor at the end with w != 0: the two branch-point corners share no
    # edge
    at_a = mesh.domain_w[ia] != 0.0
    i0, i1 = np.where(at_a, ia, ib), np.where(at_a, ib, ia)
    s = np.where(at_a, s, 1.0 - s)
    pos = mesh.vertices[i0]
    f0 = pos[:, 2] - target
    za, zb = mesh.domain_z[i0], mesh.domain_z[i1]
    dz = zb - za
    root = mesh.domain_w[i1] == 0.0
    u = np.where(root, 1.0 - np.sqrt(1.0 - s), s)
    u_lo, u_hi = np.zeros_like(u), np.ones_like(u)
    params = CurveParams(sigma)
    a = np.arange(len(u))
    for _ in range(60):
        if not a.size:
            break
        r, ua = root[a], u[a]
        z = np.where(r, zb[a] - (1.0 - ua) ** 2 * dz[a], za[a] + ua * dz[a])
        p, w = _curve.immerse(params, z)
        pos[a] = p
        f = p[:, 2] - target[a]
        same = (f > 0.0) == (f0[a] > 0.0)
        u_lo[a[same]], u_hi[a[~same]] = ua[same], ua[~same]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (np.where(r, 2.0 * (1.0 - ua), 1.0) * dz[a] / w).real
            newton = ua - f / slope
        u_next = np.where((w != 0.0) & (u_lo[a] < newton) & (newton < u_hi[a]),
                          newton, 0.5 * (u_lo[a] + u_hi[a]))
        # a Newton step that rounds to nothing stops the crossing even
        # where it would land on the collapsed bracket's end
        step = np.fmin(np.abs(newton - ua), np.abs(u_next - ua)) * np.where(
            w != 0.0, np.fmax(1.0, np.abs(slope)), 1.0)
        go = (f != 0.0) & ~(step < 1e-13)
        u[a] = u_next
        a = a[go]
    return [pos[owner == h] for h in range(len(heights))]


# ---------------------------------------------------------------------------
# export


_CHUNK = 1 << 12  # rows formatted per write: ~2 MB of numpy text temporaries
_UNIT_COLUMNS = 8  # block columns whose digits export_obj keeps
_VALUE = np.dtype((np.void, 24))  # one value's six text units, copied whole

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
    """Scale factors and unit tables of :func:`_g9_rows`, built on first
    use (not at import) and read-only.

    ``scale`` holds, per exponent e in [_EMIN, _EMAX], the exact factors
    (m1, m2, d) with 10^(8 - e) = m1 m2 / d.  The unit tables: ``lead2``
    is separator, sign and 2 digits with leading zeros dropped; ``int4``
    is 4 digits with leading zeros dropped, then full; ``int3`` is 3
    digits with leading zeros dropped down to a last "0", then full, each
    without and with a trailing "."; ``frac4`` is 4 digits with trailing
    zeros dropped, then full, then the exponents "e-36" to "e+31".
    """
    p10 = np.array([float(10 ** k) for k in range(23)])
    k = 8 - np.arange(_EMIN, _EMAX + 1)
    scale = np.stack([p10[np.clip(k, 0, 22)], p10[np.clip(k - 22, 0, 22)],
                      p10[np.clip(-k, 0, 22)]])
    lead2 = np.zeros((2, 100, 4), dtype=np.uint8)
    lead2[:, :, 0], lead2[1, :, 1] = ord(" "), ord("-")
    lead2[:, :, 2:] = _digits(2, "lead")
    int4 = np.concatenate([_digits(4, "lead"), _digits(4)])
    int3 = np.zeros((2, 2, 1000, 4), dtype=np.uint8)  # full, point, i
    int3[0, :, :, :3], int3[0, :, 0, 2] = _digits(3, "lead"), ord("0")
    int3[1, :, :, :3], int3[:, 1, :, 3] = _digits(3), ord(".")
    frac4 = np.concatenate([_digits(4, "trail"), _digits(4)])
    lead2, int4, int3, frac4 = (t.reshape(-1, 4).view(np.uint32)[:, 0]
                                for t in (lead2, int4, int3, frac4))
    frac4 = np.concatenate([frac4, _units(
        [b"e%+03d" % e for e in range(_EMIN, _EMAX + 2)])])
    tables = scale, lead2, int4, int3, frac4
    for t in tables:
        t.flags.writeable = False
    return tables


def _decimal9(a):
    """(M, e, slow) for an array ``a`` of |x|: x = M 10^(e - 8) rounded to
    9 significant digits, 10^8 <= M < 10^9 (M = e = 0 for x = 0).

    e starts as floor(log10 a), corrected by one where y = a 10^(8 - e)
    falls outside [10^8, 10^9); M is y rounded to an integer, with the
    carry 10^9 -> 10^8, e + 1.  y carries at most two roundings, < 2.4e-7
    at y < 2^30, so M is the correctly rounded significand unless frac(y)
    lies within 5e-7 of 0.5.  Those values, non-finite ones and those with
    e outside [_EMIN, _EMAX] are marked ``slow`` and take ``'%.9g'``.
    """
    scale = _g9_tables()[0]
    fin = np.isfinite(a) & (a > 0)
    with np.errstate(invalid="ignore"):  # inf - inf for frac(inf)
        e = np.clip(np.floor(np.log10(np.where(fin, a, 1.0))).astype(np.int64),
                    _EMIN, _EMAX)
        m1, m2, d = scale.take(e - _EMIN, axis=1)
        y = a * m1 * m2 / d
        off = np.flatnonzero(fin & ~((y >= 1e8) & (y < 1e9)))
        if off.size:
            e[off] = np.clip(e[off] + np.where(y[off] < 1e8, -1, 1),
                             _EMIN, _EMAX)
            m1, m2, d = scale.take(e[off] - _EMIN, axis=1)
            y[off] = a[off] * m1 * m2 / d
        fy = np.floor(y)
        frac = y - fy
        slow = (a != 0) & ~(fin & (y >= 1e8) & (y < 1e9)
                            & (np.abs(frac - 0.5) > 5e-7))
    m = np.where(slow, 0.0, fy).astype(np.int64) + (frac > 0.5)
    carry = m == 1_000_000_000
    m[carry] = 100_000_000
    return m, e + carry, slow


def _g9_units(a):
    """(units, slow) of a 1-D array ``a`` of |x|, the sign-free part of
    :func:`_g9_rows`'s text.

    ``units`` holds one ``_VALUE`` item per value, six uint32 units: the
    integer digits above the last seven as a number i0 < 100 (its row of
    ``lead2`` before the sign is added), then the five text units that
    follow (``int4``, ``int3`` and three of ``frac4``).  ``slow`` holds the
    indices of the values :func:`_decimal9` leaves to ``'%.9g'``; their
    units are meaningless.
    """
    _, _, int4, int3, frac4 = _g9_tables()
    p10 = 10 ** np.arange(13, dtype=np.int64)
    m, e, slow = _decimal9(a)
    fixed = (e >= -4) & (e < 9)
    s = np.where(fixed, e, 0)
    ip = m // p10[8 - s]
    fp = (m - ip * p10[8 - s]) * p10[4 + s]
    i0, i1 = ip // 10_000_000, ip // 1000
    i1, i2 = i1 - 10_000 * i0, ip - 1000 * i1
    f0, f1 = fp // 100_000_000, fp // 10_000
    f1, f2 = f1 - 10_000 * f0, fp - 10_000 * f1
    u = np.empty((6, len(a)), dtype=np.uint32)
    u[0] = i0
    int4.take(i1 + 10_000 * (i0 > 0), out=u[1])
    int3.take(i2 + 2000 * (ip >= 1000) + 1000 * (fp > 0), out=u[2])
    frac4.take(f0 + 10_000 * (f1 + f2 > 0), out=u[3])
    frac4.take(f1 + 10_000 * (f2 > 0), out=u[4])
    frac4.take(np.where(fixed, f2, 20_000 + e - _EMIN), out=u[5])
    return u.T.copy().view(_VALUE)[:, 0], np.flatnonzero(slow)


def _g9_rows(tag, rows, units=_g9_units):
    """``rows`` as ASCII lines ``tag x0 x1 ...``, each value as ``'%.9g'``
    would write it, in chunks of ``_CHUNK`` rows.

    A value becomes six uint32 units of zero-padded text: separator, sign
    and the integer digits above the last seven (``lead2``); the next four
    (``int4``); the last three and "." if a fraction follows (``int3``);
    the fraction as 12 digits in three units, trailing zeros dropped
    (``frac4``).  The integer part is M // 10^(8 - s), s = e in fixed
    notation (-4 <= e < 9) and s = 0 in exponent notation, where the last
    fraction unit, always empty, holds the exponent.  One ``bytes.translate``
    drops the zero padding.

    Only the sign depends on more than |x|, so the text is built in two
    steps: ``units`` maps each column of magnitudes to its sign-free units
    (:func:`_g9_units`), and the sign unit comes from ``np.signbit(x)``.
    A caller may pass a ``units`` that returns stored results for a column
    it has seen before; the bytes cannot tell, since a column's units are a
    function of its magnitudes alone.  ``slow`` values (see
    :func:`_decimal9`) are written by ``'%.9g'`` from the signed value into
    their six units: Python writes a NaN with its sign bit set as ``nan``.
    """
    lead2 = _g9_tables()[1]
    head, newline = _units([tag, b"\n"])
    x = np.asarray(rows, dtype=np.float64)
    cols = [units(np.abs(x[:, c])) for c in range(x.shape[1])]
    for i in range(0, len(x), _CHUNK):
        xc = x[i:i + _CHUNK]
        buf = bytearray(4 * len(xc) * (6 * x.shape[1] + 2))
        line = np.frombuffer(buf, dtype=np.uint32).reshape(len(xc), -1)
        line[:, 0], line[:, -1] = head, newline
        body = line[:, 1:-1].reshape(xc.shape + (6,))
        values = line[:, 1:-1].view(_VALUE)  # body, one item per value
        for c, (u, _) in enumerate(cols):
            values[:, c] = u[i:i + _CHUNK]
        body[..., 0] = lead2.take(body[..., 0] + 100 * np.signbit(xc))
        for c, (_, slow) in enumerate(cols):
            for j in slow[(slow >= i) & (slow < i + len(xc))] - i:
                text = (b" %.9g" % xc[j, c]).ljust(24, b"\0")  # <= 17 bytes
                body[j, c] = np.frombuffer(text, dtype=np.uint32)
        yield buf.translate(None, b"\0")


def _token_table(idx):
    """Item r holds the ASCII bytes of ``" i//i"`` for i = idx[r] >= 0,
    zero-padded to the widest item.  The digits of each i are read four at
    a time from the full 4-digit unit table (``int4``'s second half), and
    its leading zeros are cut.  Items are fixed-width ``void`` scalars, so
    a gather copies whole rows; so do the copies that fill the table."""
    groups = max(1, -(-len(str(int(idx.max(initial=0)))) // 4))
    digits = _g9_tables()[2][10_000:].take(np.stack(
        [idx // 10_000 ** g % 10_000 for g in range(groups - 1, -1, -1)],
        axis=1)).view(np.uint8)
    # " i" bytes per row: one more than the digit count
    width = 2 + np.searchsorted(10 ** np.arange(1, 4 * groups), idx,
                                side="right")
    table = np.zeros((len(idx), 2 * width.max(initial=0) + 1), dtype=np.uint8)
    # rows of equal width are filled as one block (sorted idx: a few blocks)
    runs = np.flatnonzero(np.diff(width, prepend=-1, append=-1))
    for r0, r1 in zip(runs[:-1], runs[1:]):
        w = width[r0]
        item = np.dtype((np.void, w - 1))  # one row's digits
        tok = digits[r0:r1, 4 * groups + 1 - w:].view(item)
        table[r0:r1, 0] = ord(" ")
        table[r0:r1, 1:w].view(item)[...] = tok
        table[r0:r1, w] = table[r0:r1, w + 1] = ord("/")
        table[r0:r1, w + 2:2 * w + 1].view(item)[...] = tok
    return table.view(np.dtype((np.void, table.shape[1])))[:, 0]


def _unique(a):
    """The sorted distinct values of an integer array, as ``np.unique``
    gives them, from one sort: numpy 2.4's hash-based ``np.unique`` took
    12x as long on the 1.8M face indices of a 160x240 extended mesh, and
    6x as long on the 4278 edge keys of a 24x32 piece."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _unit_cache(size):
    """:func:`_g9_units` behind a least-recently-used store of ``size``
    columns, keyed by the bytes of the column of magnitudes itself."""
    store = {}

    def units(a):
        key = a.tobytes()
        hit = store.pop(key, None)
        if hit is None:
            hit = _g9_units(a)
            if len(store) == size:
                del store[next(iter(store))]
        store[key] = hit
        return hit
    return units


def _obj_values(mesh):
    """The ``v`` then the ``vn`` text of :func:`export_obj`, block by
    block (:meth:`TriMesh.blocks`), with one store of block column digits;
    the store is freed when the text ends, before the face section
    allocates.  A block's ``vn`` text is written again while later copies
    yield the same normals array for that block."""
    units = _unit_cache(_UNIT_COLUMNS)
    for v, _ in mesh.blocks():
        yield from _g9_rows(b"v", v, units)
    kept = [(None, None)] * len(mesh.flips)
    for i, (_, nrm) in enumerate(mesh.blocks()):
        b = i % len(kept)
        if kept[b][0] is not nrm:
            kept[b] = nrm, list(_g9_rows(b"vn", nrm, units))
        yield from kept[b][1]


def export_obj(mesh: TriMesh, path) -> int:
    """ASCII OBJ (v/vn/f with 1-based i//i indices, 9 significant digits).

    Every ``v`` and ``vn`` value is written as Python's ``'%.9g'`` writes
    it, byte for byte: :func:`_g9_rows` renders the correctly rounded
    digits in numpy and leaves near-ties, non-finite values and extreme
    exponents to ``'%.9g'`` itself.  ``v`` and ``vn`` walk the mesh block
    by block (:meth:`TriMesh.blocks`, ``base_count`` rows each), so no
    whole-mesh or cell-sized array is built.  Every isometry of
    the extension is a signed diagonal map plus an offset with no x2
    component, so most block columns repeat the magnitudes of an earlier
    one: x2 in every block, x1 and x3 in blocks paired by a zero-offset op,
    all normals those of the base block.  The sign-free digits of a block
    column are therefore kept, keyed by the bytes of its magnitudes, for
    the last ``_UNIT_COLUMNS`` distinct columns (a fixed bound, so memory
    does not grow with the copy count); the sign is added per value.  The
    key is the data, so reuse needs no assumption about the ops and the
    bytes are the same with or without it.  A block's ``vn`` text is also
    written again for every following copy that yields the same normals
    array for it (translated copies 1..copies share one per block).

    ``f`` formats each distinct vertex index of a copy once, into a
    per-copy table of ``" i//i"`` tokens (:func:`_token_table`).  Copy k's
    faces are the cell's shifted by k times its vertex count, so every
    copy maps its faces to the same table rows, and a chunk of face lines
    is a byte gather of three rows between ``f`` and a newline.  The
    padding is dropped only where a copy's indices differ in digit count.
    Deterministic bytes for identical input.  Returns the byte count.
    """
    with open(path, "wb") as fh:
        nbytes = sum(map(fh.write, _obj_values(mesh)))
        faces, n = mesh._cell_faces, mesh.base_count * len(mesh.flips)
        used = _unique(faces)  # faces may point past the vertex array
        rows = np.searchsorted(used, faces)
        for k in range(mesh.copies + 1):
            tokens = _token_table(used + (k * n + 1))
            # used is sorted: if its first token is unpadded, all are
            padded = not tokens[:1].view(np.uint8).all()
            for i in range(0, len(rows), _CHUNK):
                part = rows[i:i + _CHUNK]
                line = np.empty((len(part), 3 * tokens.itemsize + 2),
                                dtype=np.uint8)
                line[:, 0], line[:, -1] = ord("f"), ord("\n")
                line[:, 1:-1] = tokens[part].view(np.uint8).reshape(
                    len(part), -1)
                nbytes += fh.write(line[line != 0] if padded else line)
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
