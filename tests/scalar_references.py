"""One-point-at-a-time versions of the batched verify paths, kept as the
references that the batched code in ``riemann_minimal`` is pinned against.

* :class:`WeierstrassForms` and :func:`weierstrass_at` -- g and the three
  form densities at one point, the scalar version of ``curve._phi_vector``.
* :func:`march` -- the Weierstrass forms integrated along polylines by the
  quadrature kernel (``curve_quadrature._march`` and ``_accumulate``), and
  :func:`march_piece`, the fundamental piece marched edge by edge along
  the grid in one kernel batch: the oracles of the closed form
  ``curve.immerse``.
* :func:`random_regular_points` -- the sampler's draw order taken one
  candidate at a time in scalar arithmetic: blocks of (r, theta) uniforms,
  then one ``integers(0, 2)`` sign per kept point.
* :func:`algebro_geometric_fit` -- the KdV fit with one g-jet, u-jet and
  set of flows per point.
* :func:`classical_fd_grid` -- one :func:`checks.fd_surface_checks` call per
  (q, v) pair on values relative to the stencil's centre, with two scalar
  ``_adaptive`` increments per q (the adaptive oracle of
  ``classical_quadrature``) and the circle's part as the difference of
  absolute points in mpmath.
* :func:`classical_slice_points` -- one ``parameterize`` call per v, with
  ``math.cos`` and ``math.sin``.
* :func:`carlson_rf` and :func:`carlson_rd` -- Carlson's duplication as
  one masked numpy loop over whole arrays, each element stopping at its
  own step: the bit reference of ``classical``'s per-element loop in
  ``math``.
* :func:`apply` and :func:`apply_normals` -- an ``mesh.IsometryOp``
  applied by a matmul with the 3x3 diagonal matrix of its signs: the
  reference of its sign arithmetic.
* :func:`translated_copies` -- an extended mesh's cell built as the
  piece doubled by one op after another, one :func:`apply` of the whole
  array and one concatenation per op, and its copies, each the
  translation's :func:`apply`/:func:`apply_normals` of the one before.
* :func:`export_obj` -- the OBJ writer that formats every number with
  Python's ``%`` (``'%.9g'`` and ``%d``), one line template per chunk.
* :func:`export_ply` -- the PLY writer with one ``hstack`` of float32 rows
  per copy and every face packed by ``struct``.
"""

import itertools
import math
import struct
from dataclasses import dataclass

import mpmath
import numpy as np

import curve_quadrature as kernel
from classical_quadrature import _adaptive
from riemann_minimal import checks, classical, curve, mesh, shiffkdv
from riemann_minimal.curve import CurvePoint, PoleOfGaussMap


@dataclass(frozen=True)
class WeierstrassForms:
    """Values of g and the three 1-form densities (with respect to dz)."""

    g: complex
    phi1_density: complex
    phi2_density: complex
    phi3_density: complex

    @classmethod
    def from_g(cls, g, phi3_density=1.0):
        g = complex(g)
        if g == 0 or not np.isfinite(g):
            raise PoleOfGaussMap(f"g = {g}")
        p3 = complex(phi3_density)
        return cls(g, 0.5 * (1.0 / g - g) * p3, 0.5j * (1.0 / g + g) * p3, p3)


def weierstrass_at(params, pt):
    """WeierstrassForms at the regular point ``pt`` (g = z / sqrt(sigma),
    phi3 density 1/w); PoleOfGaussMap at z = 0 or a branch point."""
    g = pt.z / math.sqrt(params.sigma)
    if g == 0 or not np.isfinite(g):
        raise PoleOfGaussMap(f"g = {g}")
    if pt.w == 0:
        raise PoleOfGaussMap("phi3 density 1/w undefined at a branch point")
    return WeierstrassForms.from_g(g, 1.0 / pt.w)


def march(params, nodes, w_start, base_position=(0.0, 0.0, 0.0)):
    """Integrate the Weierstrass forms along the polyline ``nodes``, marched
    as one chain by the quadrature kernel; for nodes of shape (m, n + 1),
    along m polylines in one kernel call, from w_start of shape (m,)
    (base_position broadcast to (m, 3)).

    Returns (position, end_point): ``base_position + Re int (phi1,phi2,phi3)``
    and the curve point at the last node with the continued branch of w
    (shapes (m, 3) and (m,) for m polylines).  A path whose last node is
    the branch point 1 or -sigma ends in a singular leaf (the end point
    then carries w = 0).  The path only has to stay off the branch points,
    and consecutive nodes must differ (ClearanceViolation and ValueError
    from ``curve_quadrature._integrate_segments``).
    """
    pos = np.asarray(base_position, dtype=float)
    z = np.asarray(nodes, dtype=complex)
    if z.ndim == 1:
        if len(z) < 2:
            return pos.copy(), CurvePoint(complex(z[0]) if len(z) else 0j,
                                          complex(w_start))
        pos, end = march(params, z[None], [w_start], pos[None])
        return pos[0], CurvePoint(complex(end.z[0]), complex(end.w[0]))
    w0 = np.asarray(w_start, dtype=complex)
    acc, w_end = kernel._accumulate(kernel._march(params, z, w0),
                                    np.broadcast_to(pos, (len(z), 3)), w0)
    return acc.real, CurvePoint(z[:, -1], w_end)


def chain_sums(edges, x0, w0):
    """``curve_quadrature._accumulate`` at every node of its chains: the sums
    ((x0 + d1) + d2) + ... of shape (m, n + 1, 3) and the branch values
    (m, n + 1)."""
    wa, totals, wb = edges
    w_in = np.concatenate([w0[:, None], wb[:, :-1]], axis=1)
    sheet = np.cumprod(np.where((w_in * wa.conjugate()).real < 0.0, -1.0, 1.0),
                       axis=1)
    steps = np.where(sheet[..., None] < 0.0, -totals, totals)
    return (np.cumsum(np.concatenate([x0[:, None], steps], axis=1), axis=1),
            np.concatenate([w0[:, None], wb * sheet], axis=1))


def piece_chains(Z):
    """The marching order of the grid Z (nr, nt): the t = 0 column walked
    down the real axis from its vertex nearest z = 1 (as ``order``, the
    row indices), each row walked in t from its t = 0 vertex, the outer
    row reached radially from the row below, and the two corners on the
    branch points by one edge each from their outer-row neighbour.
    Returns (order, chains), the four chains' node arrays."""
    nr, nt = Z.shape
    top, k, nb = nr - 1, slice(1, nt - 1), [1, nt - 2]
    order = np.argsort(-Z[:top, 0].real)
    return order, [Z[order, 0][None], Z[:top],
                   np.stack([Z[top - 1, k], Z[top, k]], axis=1),
                   np.stack([Z[top, nb], Z[top, [0, nt - 1]]], axis=1)]


def piece_edges(params, Z):
    """The edges (za, zb) of :func:`piece_chains` as one batch, and the
    principal root wa at each start."""
    ab = np.concatenate([np.stack([c[:, :-1], c[:, 1:]], axis=-1)
                         .reshape(-1, 2) for c in piece_chains(Z)[1]])
    return ab[:, 0], ab[:, 1], np.sqrt(curve.curve_poly(params, ab[:, 0]))


def march_piece(params, Z):
    """psi = X - X(1) and the branch w at every point of the grid Z,
    marched along :func:`piece_chains`: every edge integrated as a one-edge
    path in one kernel batch, and positions and branch signs accumulated
    along the marching order from the column's first vertex x0, where w on
    the base point's sheet is i sqrt(x0 (1 - x0) (x0 + sigma)).  Returns
    (vertices (nr * nt, 3), w (nr * nt,)) as ``mesh.sample_fundamental``
    stores them."""
    nr, nt = Z.shape
    top, k, nb = nr - 1, slice(1, nt - 1), [1, nt - 2]
    X = np.zeros((nr, nt, 3))
    W = np.zeros((nr, nt), dtype=complex)
    order, chains = piece_chains(Z)
    za, zb, wa = piece_edges(params, Z)
    d, end = march(params, np.stack([za, zb], axis=1), wa)
    cuts = np.cumsum([c[:, 1:].size for c in chains])[:-1]
    column, rows, radial, corner = [
        (a.reshape(c[:, 1:].shape), t.reshape(*c[:, 1:].shape, 3),
         b.reshape(c[:, 1:].shape)) for c, a, t, b in
        zip(chains, *(np.split(x, cuts) for x in (wa, d, end.w)))]
    x0 = Z[order[0], 0].real
    # in real arithmetic: np.sqrt of the complex -p - 0j is -i sqrt(p)
    w0 = np.array([1j * math.sqrt(x0 * (1.0 - x0) * (x0 + params.sigma))])
    xs, ws = chain_sums(column, np.zeros((1, 3)), w0)
    X[order, 0], W[order, 0] = xs[0], ws[0]
    X[:top], W[:top] = chain_sums(rows, X[:top, 0], W[:top, 0])
    xs, ws = chain_sums(radial, X[top - 1, k], W[top - 1, k])
    X[top, k], W[top, k] = xs[:, 1], ws[:, 1]
    xs, _ = chain_sums(corner, X[top, nb], W[top, nb])  # their w stays 0
    X[top, [0, nt - 1]] = xs[:, 1]
    return (X - X[top, 0]).reshape(-1, 3), W.reshape(-1)


def random_regular_points(params, n, rng, stats=None):
    """A list of n scalar CurvePoints; ``stats``, if given, is a dict that
    gets the candidate count."""
    scale = 0.5 * (1.0 + params.sigma)
    clear = curve.SAMPLE_CLEARANCE * (1.0 + params.sigma)
    bps = curve.branch_points(params)
    zs = []
    candidates = 0
    while len(zs) < n:
        u_r, u_theta = rng.random((2, n - len(zs)))
        for a, b in zip(u_r, u_theta):
            candidates += 1
            z = scale * (0.15 + 1.45 * a) * np.exp(2j * math.pi * b)
            if min(abs(z - bp) for bp in bps) >= clear:
                zs.append(complex(z))
    pts = []
    for z, sign in zip(zs, rng.integers(0, 2, n)):
        w = np.sqrt(complex(curve.curve_poly(params, z)))
        pts.append(CurvePoint(z, complex(-w if sign else w)))
    if stats is not None:
        stats["candidates"] = candidates
    return pts


def algebro_geometric_fit(params, n, pts):
    """(coefficients, residual) of the least-squares fit of flow_n against
    flow_0 .. flow_{n-1} over a list of scalar CurvePoints."""
    A = np.zeros((len(pts), n), dtype=complex)
    b = np.zeros(len(pts), dtype=complex)
    for i, pt in enumerate(pts):
        u = shiffkdv.potential_u(shiffkdv.msigma_jet(params, pt, 2 * n + 3))
        for k in range(n):
            A[i, k] = shiffkdv.flow_n(k, u)
        b[i] = shiffkdv.flow_n(n, u)
    coef, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return coef, float(np.linalg.norm(A @ coef - b) / np.linalg.norm(b))


def classical_fd_grid(lam, nq=20, nv=20, h=1e-4):
    params = classical.RiemannParams.from_lambda(lam)
    q1 = params.q1
    qs = np.linspace(q1 * 1.05 + 0.02, q1 + 3.0, nq)
    vs = np.linspace(0.0, 2 * math.pi, nv, endpoint=False)
    worst_H = worst_conf = worst_orth = 0.0
    for q in qs:
        def increment(a, b):
            df, _ = _adaptive(
                lambda u: -0.5 * u / np.sqrt(classical.radicand(lam, u)),
                [(a, b)])
            dz, _ = _adaptive(
                lambda u: 0.5 / np.sqrt(classical.radicand(lam, u)),
                [(a, b)])
            return float(np.real(df)), float(np.real(dz))

        dfp, dzp = increment(q, q + h)
        dfm, dzm = increment(q - h, q)
        ends = {-1: (q - h, -dfm, -dzm), 0: (q, 0.0, 0.0),
                1: (q + h, dfp, dzp)}
        for v in vs:
            def sample(i, j, q=q, v=v):
                # X(q', v + jh) - X(q, v) from the absolute circle points
                # in 30-digit mpmath, q' the float the increments end at
                qi, df, dz = ends[i]
                with mpmath.workdps(30):
                    r0, ri = mpmath.sqrt(q), mpmath.sqrt(qi)
                    vj = mpmath.mpf(v) + j * mpmath.mpf(h)
                    return np.array([
                        float(df + ri * mpmath.cos(vj) - r0 * mpmath.cos(v)),
                        float(ri * mpmath.sin(vj) - r0 * mpmath.sin(v)), dz])
            H, conf, orth = checks.fd_surface_checks(sample, h)
            worst_H = max(worst_H, H)
            worst_conf = max(worst_conf, conf)
            worst_orth = max(worst_orth, orth)
    return worst_H, worst_conf, worst_orth


def classical_slice_points(params, q, vs):
    """(len(vs), 3) points of the level circle at q."""
    fq = classical.center_offset(params, q)
    zq = classical.height(params, q)
    rq = math.sqrt(q)
    return np.array([[fq + rq * math.cos(v), rq * math.sin(v), zq]
                     for v in vs])


_CARLSON_MAX_STEPS = 60


def _duplicate(args, a0, tol, rd=False):
    """Carlson's duplication x -> (x + lam)/4 until 4^-m Q < |A_m|.

    Each element stops at its own m, so an element of an array gets the
    same bits as a call on that element alone.  Returns (A_m, 4^-m, sum
    over the steps of 4^-k / (sqrt(z_k)(z_k + lam_k)) with z the last
    argument); the sum is R_D's and only formed when ``rd`` is set.
    """
    x, y, z = args
    q = tol * np.maximum(np.maximum(abs(a0 - x), abs(a0 - y)), abs(a0 - z))
    a, scale, tail = a0, 1.0, 0.0
    for _ in range(_CARLSON_MAX_STEPS):
        go = q * scale >= abs(a)
        if not go.any():
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        new = ((a + lam) / 4, scale / 4.0,
               tail + scale / (sz * (z + lam)) if rd else tail)
        if not go.all():
            # stopped elements keep A, 4^-m and the sum; their x, y, z
            # run on but no longer reach the result
            new = [np.where(go, n, o) for n, o in zip(new, (a, scale, tail))]
        a, scale, tail = new
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
    return a, scale, tail


def carlson_rf(x, y, z):
    """R_F by :func:`_duplicate`, then the series of ``classical``."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    a0 = (x + y + z) / 3.0
    a, scale, _ = _duplicate((x, y, z), a0,
                             (3.0 * classical._CARLSON_R) ** (-1 / 6))
    X = (a0 - x) * scale / a
    Y = (a0 - y) * scale / a
    return (classical._rf_series(X, Y) / np.sqrt(a))[()]


def carlson_rd(x, y, z):
    """R_D by :func:`_duplicate`, then the series of ``classical``."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    a0 = (x + y + 3.0 * z) / 5.0
    a, scale, tail = _duplicate((x, y, z), a0,
                                (classical._CARLSON_R / 4.0) ** (-1 / 6),
                                rd=True)
    X = (a0 - x) * scale / a
    Y = (a0 - y) * scale / a
    return (scale * classical._rd_series(X, Y) / (a * np.sqrt(a))
            + 3.0 * tail)[()]


def _chunks(line, rows):
    """``rows`` as ASCII text in chunks of 2^15 rows, each one ``%`` format
    of a repeated line template."""
    for i in range(0, len(rows), 1 << 15):
        part = rows[i:i + (1 << 15)]
        yield (line * len(part) % tuple(part.ravel().tolist())).encode("ascii")


def apply(op, pts):
    """``op`` applied to the (n, 3) ``pts``: a matmul with the diagonal
    matrix of its signs, plus its offset."""
    return pts @ np.diag(op.signs).T + op.offset


def apply_normals(op, normals):
    """``op``'s orientation times the matmul of the (n, 3) ``normals``
    with the diagonal matrix of its signs."""
    return op.orientation * (normals @ np.diag(op.signs).T)


def _cell(m):
    """(vertices, normals) of the cell of the mesh ``m``, built from its
    piece by the doublings one after another: the arrays so far, then
    their image under the next doubling's op, concatenated.  Those ops are
    ``cell_ops[1]``, ``[2]`` and ``[4]``, each a doubling's op after the
    identity."""
    v, nrm = m.base_vertices, m.base_normals
    while len(v) < m.base_count * len(m.flips):
        op = m.cell_ops[len(v) // m.base_count]
        v = np.concatenate([v, apply(op, v)])
        nrm = np.concatenate([nrm, apply_normals(op, nrm)])
    return v, nrm


def translated_copies(m):
    """Yield (vertices, normals) of copies 0..copies of the mesh ``m``:
    copy 0 its cell by sequential transforms and concatenation
    (:func:`_cell`), copy k + 1 the translation's :func:`apply` and
    :func:`apply_normals` (matmuls) of copy k.  This is the walk of
    ``TriMesh.blocks`` without its composed isometries, its sign
    arithmetic and its shortcut."""
    v, nrm = _cell(m)
    yield v, nrm
    for _ in range(m.copies):
        v, nrm = apply(m.translation, v), apply_normals(m.translation, nrm)
        yield v, nrm


def export_obj(m, path):
    """``mesh.export_obj``'s file, every number formatted by ``%``: the
    ``v`` and ``vn`` lines copy by copy (:func:`translated_copies`), then
    the ``f`` lines, copy k's faces being the cell's shifted by k times its
    vertex count.  Returns the byte count."""
    n = m.base_count * len(m.flips)
    nbytes = 0
    with open(path, "wb") as fh:
        for v, _ in translated_copies(m):
            nbytes += sum(map(fh.write, _chunks("v %.9g %.9g %.9g\n", v)))
        for _, nrm in translated_copies(m):
            nbytes += sum(map(fh.write, _chunks("vn %.9g %.9g %.9g\n", nrm)))
        for k in range(m.copies + 1):
            faces = np.repeat(m._cell_faces + (k * n + 1), 2, axis=1)
            nbytes += sum(map(fh.write,
                              _chunks("f %d//%d %d//%d %d//%d\n", faces)))
    return nbytes


def export_ply(m, path):
    """``mesh.export_ply``'s file: the header, each copy's vertex rows as
    one ``hstack`` of positions and normals cast to ``'<f4'``
    (:func:`translated_copies`), then every face as ``struct`` packs it,
    copy k's being the cell's shifted by k times its vertex count.
    Returns the byte count."""
    n, faces = m.base_count * len(m.flips), m._cell_faces
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n * (m.copies + 1)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        f"element face {len(faces) * (m.copies + 1)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    with open(path, "wb") as fh:
        nbytes = fh.write(header)
        for v, nrm in translated_copies(m):
            nbytes += fh.write(np.hstack([v, nrm]).astype("<f4").tobytes())
        pack = struct.Struct("<B3i").pack
        for k in range(m.copies + 1):
            nbytes += fh.write(b"".join(
                map(pack, itertools.repeat(3), *(faces + k * n).T.tolist())))
    return nbytes


def gen_extended(sigma, nr, nt, copies):
    """The extended mesh ``gen --sigma SIGMA --grid NRxNT --copies COPIES``
    builds."""
    fund = mesh.sample_fundamental(sigma, 0.1, nr, nt)
    return mesh.extend(fund, mesh.extension_ops(sigma), copies)

