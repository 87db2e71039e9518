import filecmp
import json
import math
import struct
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import curve_quadrature as kernel
import scalar_references as scalar
from riemann_minimal import classical, curve, mesh, quad
from riemann_minimal.mesh import (Degenerate, DomainMap,
                                  FundamentalSurface, IsometryOp, TriMesh,
                                  extend, extension_ops, export_obj,
                                  export_ply, level_circle_fit, refine_slice,
                                  sample_fundamental, slice_mesh)


@pytest.fixture(scope="module")
def surf2():
    return FundamentalSurface(2.0)


@pytest.fixture(scope="module")
def fund2():
    return sample_fundamental(2.0, 0.1, 14, 20)


@pytest.fixture(scope="module")
def ops2():
    return extension_ops(2.0)


# --- Moebius domain map validation (the formula is checked, not trusted) ----


@pytest.mark.parametrize("sigma,e", [(2.0, 0.1), (0.5, 0.2), (5.0, 0.05)])
def test_domain_map_boundary_arcs(sigma, e):
    dm = DomainMap(sigma, e)
    th = np.linspace(0, math.pi, 33)
    # outer half circle onto the boundary circle of Omega_sigma
    outer = dm.map(np.exp(1j * th))
    assert np.max(np.abs(np.abs(outer - (1 - sigma) / 2) - (1 + sigma) / 2)) < 1e-9
    assert abs(dm.map(1.0) - 1.0) < 1e-12
    assert abs(dm.map(-1.0) + sigma) < 1e-11 * (1 + sigma)
    # radial segments onto the real segments [0,1] and [-sigma, 0]
    rr = np.linspace(e, 1.0, 17)
    right = dm.map(rr)
    left = dm.map(-rr)
    assert np.max(np.abs(right.imag)) < 1e-12
    assert np.all((right.real > 0) & (right.real <= 1 + 1e-12))
    assert np.max(np.abs(left.imag)) < 1e-12
    assert np.all((left.real < 0) & (left.real >= -sigma - 1e-9))
    # inner half circle onto a circle centered exactly at the origin
    inner = dm.map(e * np.exp(1j * th))
    r0 = abs(dm.map(e))
    assert np.max(np.abs(np.abs(inner) - r0)) < 1e-9
    assert 0.0 < r0 < 1.0
    # upper half plane preserved
    zz = 0.3 * np.exp(1j * np.linspace(0.2, 2.8, 9)) + 0.2
    assert np.all(dm.map(zz).imag > 0)


def test_domain_map_validation():
    with pytest.raises(ValueError):
        DomainMap(2.0, 1.5)
    with pytest.raises(ValueError):
        DomainMap(-1.0, 0.1)


# --- fundamental sampling -----------------------------------------------------


def test_fundamental_grid_basics(fund2):
    nr, nt = 14, 20
    assert fund2.vertex_count == nr * nt
    assert fund2.face_count == (nr - 1) * (nt - 1) * 2
    # the grid corner on z = 1 maps to the origin by construction
    corner = fund2.vertices[(nr - 1) * nt + 0]
    assert np.allclose(corner, 0.0)
    # the t = 0 column is the straight line: x1 and x3 frozen, x2 sweeping
    col = fund2.vertices[[j * nt for j in range(nr)]]
    assert np.ptp(col[:, 0]) < 1e-6
    assert np.ptp(col[:, 2]) < 1e-6
    assert np.ptp(col[:, 1]) > 0.05
    # the t = 1 column is the planar geodesic in {x2 = 0}
    geo = fund2.vertices[[j * nt + (nt - 1) for j in range(nr)]]
    assert np.max(np.abs(geo[:, 1])) < 1e-7
    # normals are unit and consistent with face orientation
    assert np.max(np.abs(np.linalg.norm(fund2.normals, axis=1) - 1)) < 1e-12
    v = fund2.vertices
    for f in fund2.faces[::7]:
        fn = np.cross(v[f[1]] - v[f[0]], v[f[2]] - v[f[0]])
        nfn = np.linalg.norm(fn)
        if nfn < 1e-12:
            continue
        assert fn @ fund2.normals[f[0]] > 0


def _entry_arc(params):
    """Position and curve point at 1 - 1e-2, reached from the base point
    1 + 1e-2 (w > 0) over the upper half circle around the branch point 1:
    the route that fixes the sheet sample_fundamental starts on."""
    base = kernel.basepoint(params)
    arc = 1.0 + kernel.BASEPOINT_OFFSET * np.exp(
        1j * np.linspace(0.0, math.pi, 7))
    return scalar.march(params, [base.z, *arc[1:]], base.w)


def _sample_fundamental_reference(params, Z):
    """Vertex-by-vertex marching, one kernel path per vertex, from the base
    point over the entry arc.  Returns (vertices, faces) as the mesh
    stores them."""
    nr, nt = Z.shape
    X = np.zeros((nr, nt, 3))
    W = np.zeros((nr, nt), dtype=complex)

    def step(pos, z, w, target):
        return scalar.march(params, [z, target], w, pos)

    pos, pt = _entry_arc(params)
    for j in np.argsort(-Z[:nr - 1, 0].real):
        pos, pt = step(pos, pt.z, pt.w, Z[j, 0])
        X[j, 0], W[j, 0] = pos, pt.w
    for j in range(nr - 1):
        for k in range(1, nt):
            pos, pt = step(X[j, k - 1], Z[j, k - 1], W[j, k - 1], Z[j, k])
            X[j, k], W[j, k] = pos, pt.w
    for k in range(1, nt - 1):
        pos, pt = step(X[nr - 2, k], Z[nr - 2, k], W[nr - 2, k], Z[nr - 1, k])
        X[nr - 1, k], W[nr - 1, k] = pos, pt.w
    X[nr - 1, 0], _ = step(X[nr - 1, 1], Z[nr - 1, 1], W[nr - 1, 1], Z[nr - 1, 0])
    X[nr - 1, nt - 1], _ = step(X[nr - 1, nt - 2], Z[nr - 1, nt - 2],
                                W[nr - 1, nt - 2], Z[nr - 1, nt - 1])
    faces = []
    for j in range(nr - 1):
        for k in range(nt - 1):
            v00, v01 = j * nt + k, j * nt + k + 1
            v10, v11 = v00 + nt, v01 + nt
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return (X - X[nr - 1, 0]).reshape(-1, 3), np.array(faces, dtype=np.int32)


@pytest.mark.parametrize("nr,nt,sigma", [
    (nr, nt, sigma) for nr, nt in ((40, 60), (14, 20))
    for sigma in (0.012, 0.5, 2.0, 83.0)] + [(14, 20, 1e-3), (14, 20, 1e3)])
def test_batched_sampling_matches_vertex_marching(sigma, nr, nt):
    # the closed-form piece against the kernel's march, vertex by vertex;
    # its height coordinate u has x3 = Re u + t0_3
    m = sample_fundamental(sigma, 0.1, nr, nt)
    grid = DomainMap(sigma, 0.1).grid(nr, nt)
    verts, faces = _sample_fundamental_reference(curve.CurveParams(sigma),
                                                 grid)
    scale = max(1.0, np.max(np.abs(verts)))
    assert np.max(np.abs(m.vertices - verts)) <= 1e-13 * scale
    u = curve.immerse(curve.CurveParams(sigma), grid)[1].reshape(-1)
    height = u.real - u[(nr - 1) * nt].real
    assert np.max(np.abs(height - verts[:, 2])) <= 1e-13 * scale
    assert m.faces.dtype == np.int32
    assert np.array_equal(m.faces, faces)


@pytest.mark.parametrize("sigma", [1e-3, 0.012, 2.0, 8.0, 100.0, 1e3])
def test_column_branch_is_the_entry_arc_continuation(sigma):
    # the closed form's branch is the one the entry arc continues to: the
    # integral of phi3 = dz/w down the t = 0 column, marched on from
    # 1 - 1e-2 by the kernel, is the rise of the height coordinate u there
    # (imaginary: x3 is constant on the column), with its sign
    nr, nt = 40, 60
    params = curve.CurveParams(sigma)
    column = DomainMap(sigma, 0.1).grid(nr, nt)[:-1, 0]
    order = np.argsort(-column.real)
    _, entry = _entry_arc(params)
    w0 = np.array([entry.w])
    chain = np.append(entry.z, column[order])[None]
    sums, _ = scalar.chain_sums(kernel._march(params, chain, w0),
                                np.zeros((1, 3)), w0)
    want = sums[0, 1:, 2] - sums[0, 1, 2]
    got = curve.immerse(params, column[order])[1]
    got = got - got[0]
    assert np.abs(want[-1].imag) > 0.5 * np.abs(want[-1])
    assert np.all(np.abs(got - want) <= 2e-14 * np.abs(want[-1]))


@settings(max_examples=60, deadline=None)
@given(log_sigma=st.floats(-3.0, 3.0), e=st.floats(1e-3, 0.95),
       nr=st.integers(2, 8), nt=st.integers(3, 10))
def test_sampled_piece_is_on_the_base_points_sheet(log_sigma, e, nr, nt):
    # the closed form takes principal roots, which give the base point's
    # sheet on the closed upper half-plane only: every domain point lies
    # there, and on the t = 0 column, where w = i sqrt(x (1 - x) (x +
    # sigma)) on that sheet, u = -t0_3 + i int_x^1 dt / sqrt(t (1 - t)
    # (t + sigma)) = -t0_3 + 2i sqrt((1 - x)/(1 + sigma)) R_F(1, x,
    # (x + sigma)/(1 + sigma)), so the piece's column lies at x3 = 0
    sigma = 10.0 ** log_sigma
    m = sample_fundamental(sigma, e, nr, nt)
    Z = DomainMap(sigma, e).grid(nr, nt)
    assert np.all(Z.imag >= 0.0)
    t03 = FundamentalSurface(sigma).translation_half()[2]
    u = curve.immerse(curve.CurveParams(sigma), Z[:, 0])[1]
    column = m.vertices.reshape(nr, nt, 3)[:, 0, 2]
    assert np.all(np.abs(column - (u.real + t03)) <= 1e-14 * t03)
    for x, got in zip(Z[:, 0].real, u):
        rise = 2.0 * math.sqrt((1.0 - x) / (1.0 + sigma)) * (
            classical.carlson_rf(1.0, x, (x + sigma) / (1.0 + sigma)))
        assert abs(got - complex(-t03, rise)) <= 1e-14 * t03


def _count_panel_leaves(monkeypatch):
    """Record the ends (a, b) of every batch ``quad._gk_panel`` integrates."""
    calls = []
    panel = quad._gk_panel

    def counting(f, a, b):
        calls.append((np.atleast_1d(a), np.atleast_1d(b)))
        return panel(f, a, b)

    monkeypatch.setattr(quad, "_gk_panel", counting)
    return calls


def test_batched_sampling_falls_back_on_few_edges(monkeypatch):
    # the edge batch of the 40x60 grid's marching order
    nr, nt = 40, 60
    params = curve.CurveParams(2.0)
    batch = scalar.piece_edges(params, DomainMap(2.0, 0.1).grid(nr, nt))
    calls = _count_panel_leaves(monkeypatch)
    kernel._integrate_segments(params, *batch)
    # every edge and both corners are one leaf first; bisection adds leaves
    edges = (nr - 2) + (nr - 1) * (nt - 1) + (nt - 2) + 2
    bisected = sum(len(a) for a, _ in calls) - edges
    assert 2 <= bisected <= 0.01 * edges


@pytest.mark.parametrize("sigma", [0.0127, 2.0, 70.0])
def test_segment_integral_does_not_depend_on_its_batch(sigma):
    # the 2301 row edges of the 40x60 grid as one batch, and one by one
    params = curve.CurveParams(sigma)
    z = DomainMap(sigma, 0.1).grid(40, 60)[:-1]
    za, zb = z[:, :-1].reshape(-1), z[:, 1:].reshape(-1)
    wa = np.sqrt(curve.curve_poly(params, za))
    totals, w_end = kernel._integrate_segments(params, za, zb, wa)
    assert len(za) == 2301
    for i in range(len(za)):
        t, w = kernel._integrate_segments(params, za[i:i + 1], zb[i:i + 1],
                                          wa[i:i + 1])
        assert np.array_equal(t[0], totals[i]) and w[0] == w_end[i], i


@pytest.mark.parametrize("nr,nt", [(40, 60), (160, 240)])
def test_quadrature_blocks_stay_within_the_block_size(monkeypatch, nr, nt):
    # the grid's edge batch (2399 edges at 40x60, 38399 at 160x240)
    # reaches the panel kernel in equal blocks of at most LEAF_BLOCK leaves
    params = curve.CurveParams(2.0)
    batch = scalar.piece_edges(params, DomainMap(2.0, 0.1).grid(nr, nt))
    calls = _count_panel_leaves(monkeypatch)
    kernel._integrate_segments(params, *batch)
    sizes = [len(a) for a, _ in calls]
    edges = (nr - 2) + (nr - 1) * (nt - 1) + (nt - 2) + 2
    first = sizes[:-(-edges // kernel.LEAF_BLOCK)]  # the first round
    assert sum(first) == edges and max(first) - min(first) <= 1
    assert max(sizes) <= kernel.LEAF_BLOCK


def test_segment_batch_rejects_edge_through_branch_point():
    params = curve.CurveParams(2.0)
    w = np.sqrt(curve.curve_poly(params, 0.5 + 0j))
    with pytest.raises(kernel.ClearanceViolation):
        kernel._integrate_segments(params, [0.5 + 0j], [1.5 + 0j], [w])
    with pytest.raises(ValueError):
        kernel._integrate_segments(params, [0.5 + 0j], [0.5 + 0j], [w])


def test_segment_batch_matches_immerse_near_branch_point():
    # one edge 1e-3 from z = 1 (branch tracking must subdivide) next to
    # edges far from every branch point, on either sheet
    params = curve.CurveParams(2.0)
    za = np.array([0.77 + 1e-3j, 0.3 + 0.4j, -0.5 + 0.9j])
    zb = np.array([1.2 + 1e-3j, 0.6 + 0.5j, -0.9 + 0.6j])
    wa = np.sqrt(curve.curve_poly(params, za)) * np.array([1.0, -1.0, 1.0])
    totals, w_end = kernel._integrate_segments(params, za, zb, wa)
    for i in range(len(za)):
        pos, end = scalar.march(params, [za[i], zb[i]], wa[i])
        assert np.max(np.abs(totals[i].real - pos)) <= 1e-12 * max(
            1.0, np.max(np.abs(pos)))
        assert abs(w_end[i] - end.w) <= 1e-12 * abs(end.w)


def test_segment_batch_tracks_fast_turning_branch(monkeypatch):
    # with tolerances loose enough that every panel passes its error test,
    # the 45-degree turn budget alone bisects the edge that passes 1e-3
    # from z = 1 between two nodes
    params = curve.CurveParams(2.0)
    monkeypatch.setattr(quad, "ABS_TOL", 1e6)
    monkeypatch.setattr(quad, "REL_TOL", 1e6)
    za = np.array([0.77 + 1e-3j, 0.3 + 0.4j])
    zb = np.array([1.2 + 1e-3j, 0.6 + 0.5j])
    wa = np.sqrt(curve.curve_poly(params, za))
    calls = _count_panel_leaves(monkeypatch)
    kernel._integrate_segments(params, za, zb, wa)
    assert np.array_equal(calls[0][0], za) and len(calls) > 1
    for a, b in calls[1:]:  # every bisected leaf lies on the first edge
        for z in (a, b):
            assert np.all((z.imag == 1e-3) & (0.77 <= z.real)
                          & (z.real <= 1.2))


def test_fundamental_slab_confinement(fund2, surf2):
    t0 = surf2.translation_half()
    x3 = fund2.vertices[:, 2]
    assert abs((x3.max() - x3.min()) - abs(t0[2])) < 1e-8


def _fixed_point(sigma):
    """c = psi(i sqrt(sigma)), the S1 fixed point, in closed form: c1 and
    c3 are half of t0's, and c2 = Re(i w / (sqrt(sigma) z)) =
    -1/sqrt(sigma) with w = i sigma - sqrt(sigma) there (see
    ``FundamentalSurface.translation_half``)."""
    t0 = FundamentalSurface(sigma).translation_half()
    return np.array([t0[0] / 2.0, -1.0 / math.sqrt(sigma), t0[2] / 2.0])


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_op1_offset_is_twice_the_fixed_point(sigma):
    # op 1 is the half turn about the horizontal line through c: its
    # offset (2 c1, 0, 2 c3), taken from t0, is 2 c in x1 and x3 bit for bit
    offset = extension_ops(sigma)[0].offset
    c = _fixed_point(sigma)
    assert offset[[0, 2]].tobytes() == (2.0 * c[[0, 2]]).tobytes()
    assert offset[1] == 0.0


def _xor_doubling(ops):
    """The face flip of each block of the cell the doublings by ``ops``
    build: the blocks so far, then the same blocks with the op's flip
    toggled, an op's flip being orientation times det < 0, the det of a
    signed diagonal map the product of its signs."""
    flips = [False]
    for op in ops:
        flip = op.orientation * np.prod(op.signs) < 0
        flips += [f != flip for f in flips]
    return flips


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_flips_follow_from_the_cell_ops(sigma):
    # TriMesh derives each block's face flip from its isometry; extend
    # passes only the ops
    fund = sample_fundamental(sigma, 0.1, 4, 5)
    ops = extension_ops(sigma)
    assert fund.flips == (False,)
    for k in range(4):
        assert list(extend(fund, ops[:k]).flips) == _xor_doubling(ops[:k])
    # op 2 (a reflection) and op 3 (orientation -1) each flip once
    want = [False, False, True, True, True, True, False, False]
    assert _xor_doubling(ops[:3]) == want
    for copies in (1, 3):
        assert list(extend(fund, ops, copies=copies).flips) == want
    m = TriMesh(fund.vertices, fund.normals, fund.faces, cell_ops=ops)
    assert m.flips == (False, True, True, False)


def test_extension_ops_structure(surf2, ops2):
    op1, op2, op3, op4 = ops2
    # involutions and the translation
    assert np.allclose(op1.apply(op1.apply(np.array([[0.3, 1.2, -0.7]]))),
                       [[0.3, 1.2, -0.7]], atol=1e-12)
    c = _fixed_point(2.0)
    # op1 fixes the fixed point and the x2-line through it
    assert np.max(np.abs(op1.apply(c[None, :]) - c)) < 1e-12
    probe = c + np.array([0.0, 3.7, 0.0])
    assert np.max(np.abs(op1.apply(probe[None, :]) - probe)) < 1e-12
    assert np.array_equal(op2.signs, [1.0, -1.0, 1.0])
    assert np.array_equal(op3.signs, [-1.0, 1.0, -1.0])
    t0 = surf2.translation_half()
    assert np.allclose(op4.offset, 2 * t0)
    assert np.array_equal(op4.signs, np.ones(3))
    # the fixed point sits at half the translation
    assert np.allclose(c[[0, 2]], t0[[0, 2]] / 2.0, atol=1e-9)
    assert abs(t0[1]) < 1e-9


def test_translation_matches_gamma2_period(surf2, ops2):
    params = curve.CurveParams(2.0)
    per = curve.period(params, "gamma2")
    assert np.max(np.abs(ops2[3].offset - per.real)) < 1e-8


def _anchor_references(sigma, xs):
    """psi(i sqrt(sigma)) and psi(x) for each x in ``xs`` (in [-sigma, 0)),
    by quadrature: one kernel path per point from the end of the entry
    arc, minus X(1) from its own path.  The left boundary is reached over
    the end at 0 by a half circle through the upper half plane."""
    params = curve.CurveParams(sigma)
    entry_pos, entry = _entry_arc(params)
    arc = 0.3 * min(1.0, sigma) * np.exp(1j * np.linspace(0.0, math.pi, 9))
    x1, fixed, *left = [
        scalar.march(params, [entry.z, *nodes], entry.w, entry_pos)[0]
        for nodes in ([1.0 + 0j], [1j * math.sqrt(sigma)],
                      *([0.5 + 0j, *arc, x + 0j] for x in xs))]
    return fixed - x1, [p - x1 for p in left]


@pytest.mark.parametrize("sigma", [1e-3, 0.0167, 0.3, 2.0, 8.0, 100.0, 1e3])
def test_anchor_closed_forms_match_the_kernel_path(sigma):
    # the quadrature route the closed forms replaced; at sigma 100 and 1e3
    # its t0 path starts 1e-2 from z = 1, closer than 1e-3 (1 + sigma).
    # Measured worst cases over these sigmas: t0_1 2.44e-12 relative and
    # |t0_2| 4.60e-12 (both at 1e-3), c_2 4.61e-12 relative (at 1e3);
    # t0_3, c_1 and c_3 below 4e-14 relative
    surf = FundamentalSurface(sigma)
    fixed, (left,) = _anchor_references(sigma, [-sigma])
    t0, c = surf.translation_half(), _fixed_point(sigma)
    for got, want in ((t0, left), (c, fixed)):
        for i in (0, 2):
            assert abs(got[i] - want[i]) <= 5e-12 * abs(got[i])
    assert t0[1] == 0.0 and abs(left[1]) <= 5e-12
    assert c[1] == -1.0 / math.sqrt(sigma)
    assert abs(fixed[1] - c[1]) <= 5e-12 * abs(c[1])


def test_slab_height_is_a_quarter_power_of_t0():
    # the classical slab height zeta = R_F(0, q1, q1 + 1/q1) and the
    # Weierstrass half translation t0_3 = 2 R_F(0, 1, 1 + sigma) are the
    # same elliptic integral: R_F is homogeneous of degree -1/2 and
    # sigma = 1/q1^2.  Measured worst relative difference 6.7e-15 here,
    # 7.4e-15 over 2001 lambdas in [-30, 30]
    for lam in np.linspace(-30.0, 30.0, 25):
        sigma = classical.sigma_of_lambda(lam)
        t0 = FundamentalSurface(sigma).translation_half()
        want = sigma ** 0.25 * abs(t0[2]) / 2.0
        assert abs(classical.slab_height(lam) - want) <= 1e-14 * want, lam


def test_gen_makes_one_integrator_call(monkeypatch):
    # the sampled piece is one closed-form evaluation, and so are the
    # anchors: no path is integrated
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    counting(quad, "_gk_panel")
    counting(curve, "immerse")
    FundamentalSurface(2.0)
    sample_fundamental(2.0, 0.1, 40, 60)
    extension_ops(2.0)
    assert calls == ["immerse"]


def test_t0_sqrt_epsilon_extrapolation(surf2):
    # psi approaches its boundary value like sqrt(eps); two evaluations near
    # -sigma extrapolate to the closed form
    t0 = surf2.translation_half()
    _, (x1, x2) = _anchor_references(2.0, [-2.0 + 1e-5, -2.0 + 1e-6])
    s1, s2 = math.sqrt(1e-5), math.sqrt(1e-6)
    extrap = x2 - (x1 - x2) * s2 / (s1 - s2)
    assert np.max(np.abs(x1 - x2)) > 5e-4   # raw values are NOT stable
    assert np.max(np.abs(extrap - t0)) < 1e-4


def test_extend_counts_and_isometry(fund2, ops2):
    ext0 = extend(fund2, ops2, copies=0)
    assert ext0.vertex_count == fund2.vertex_count * 8
    ext1 = extend(fund2, ops2, copies=1)
    assert ext1.vertex_count == fund2.vertex_count * 16
    # distances preserved by every op
    rng = np.random.default_rng(3)
    idx = rng.integers(0, fund2.vertex_count, size=(20, 2))
    for op in ops2:
        a = op.apply(fund2.vertices)
        for i, j in idx:
            d0 = np.linalg.norm(fund2.vertices[i] - fund2.vertices[j])
            d1 = np.linalg.norm(a[i] - a[j])
            assert abs(d1 - d0) <= 1e-10 * max(d0, 1.0)


def test_extend_shared_boundary_and_periodicity(fund2, ops2):
    nt = 20
    # step-2 mirror: the plane geodesic column lies in {x2=0}, so mirrored
    # copies coincide there
    m1 = extend(fund2, ops2[:1], copies=0)  # only op1 doubling
    geo_idx = [j * nt + (nt - 1) for j in range(14)]
    geo = fund2.vertices[geo_idx]
    mirrored = ops2[1].apply(geo)
    assert np.max(np.abs(mirrored - geo)) < 1e-7
    # translated copy sits exactly at vertex + 2 t0 (bitwise construction)
    ext1 = extend(fund2, ops2, copies=1)
    n8 = fund2.vertex_count * 8
    expect = ext1.vertices[:n8] + ops2[3].offset
    assert np.array_equal(ext1.vertices[n8:], expect)


def test_extended_slab_growth(fund2, ops2):
    span = abs(ops2[3].offset[2]) / 2.0
    m3 = extend(fund2, ops2, copies=0)
    x3 = m3.vertices[:, 2]
    assert abs((x3.max() - x3.min()) - 2 * span) < 1e-8


def _flat_reference(m):
    """A plain mesh as the flat record extend used to build: every array
    at full length, including each vertex's fundamental position and the
    index of its isometry in a per-block catalog."""
    return SimpleNamespace(
        vertices=m.vertices, normals=m.normals, faces=m.faces,
        fundamental_xyz=m.vertices.copy(),
        op_index=np.zeros(m.vertex_count, dtype=np.int32),
        op_catalog=[(np.diag(op.signs), op.offset, op.orientation)
                    for op in m.cell_ops])


def _transform_reference(m, op):
    """The per-op mesh copy the one-pass extend replaces, each op a matmul
    with the diagonal matrix of its signs: its isometries composed as
    (linear, offset, orientation) triples, its faces reversed where the
    orientation times det of the linear part is negative."""
    L = np.diag(op.signs)
    faces = (m.faces[:, ::-1].copy()
             if op.orientation * np.linalg.det(L) < 0 else m.faces.copy())
    return SimpleNamespace(
        vertices=scalar.apply(op, m.vertices),
        normals=scalar.apply_normals(op, m.normals),
        faces=faces, fundamental_xyz=m.fundamental_xyz.copy(),
        op_index=m.op_index.copy(),
        op_catalog=[(L @ a, L @ b + op.offset, op.orientation * o)
                    for a, b, o in m.op_catalog])


def _concat_reference(a, b):
    return SimpleNamespace(
        vertices=np.vstack([a.vertices, b.vertices]),
        normals=np.vstack([a.normals, b.normals]),
        faces=np.vstack([a.faces, b.faces + len(a.vertices)]),
        fundamental_xyz=np.concatenate([a.fundamental_xyz,
                                        b.fundamental_xyz]),
        op_index=np.concatenate([a.op_index,
                                 b.op_index + len(a.op_catalog)]),
        op_catalog=a.op_catalog + b.op_catalog)


def _extend_reference(mesh, ops, copies):
    m = _flat_reference(mesh)
    for op in ops[:3]:
        m = _concat_reference(m, _transform_reference(m, op))
    out = cur = m
    for _ in range(copies):
        cur = _transform_reference(cur, ops[3])
        out = _concat_reference(out, cur)
    return out


@pytest.mark.parametrize("n_ops,copies", [(1, 0), (4, 0), (4, 1), (4, 3)])
def test_extend_matches_transform_concat(fund2, ops2, n_ops, copies):
    got = extend(fund2, ops2[:n_ops], copies=copies)
    want = _extend_reference(fund2, ops2[:n_ops], copies)
    assert got.vertex_count == len(want.vertices)
    assert got.face_count == len(want.faces)
    for name in ("vertices", "normals", "faces"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        # bytes, not values: -0.0 must stay -0.0 (OBJ prints it as "-0")
        assert a.tobytes() == b.tobytes(), name
    # provenance of vertex i: base vertex i % n under the isometry of its
    # block, cell_ops[b], then k translations, b and k the block and copy
    # of i
    n, blocks = fund2.vertex_count, len(got.flips)
    i = np.arange(got.vertex_count)
    assert got.vertices[:n][i % n].tobytes() == want.fundamental_xyz.tobytes()
    assert np.array_equal(i // n, want.op_index)
    assert len(got.cell_ops) == blocks
    assert len(want.op_catalog) == blocks * (copies + 1)
    for index, b in enumerate(want.op_catalog):
        k, a = divmod(index, blocks)
        a = got.cell_ops[a]
        for _ in range(k):
            a = got.translation.compose(a)
        assert np.array_equal(np.diag(a.signs), b[0])
        assert a.offset.tobytes() == b[1].tobytes()
        assert a.orientation == b[2]


def test_extension_ops_orientation_from_geometry():
    # op 1 fixes psi(i sqrt(sigma)), op 2 the points over (-sigma, 0) and
    # op 3 those over (0, 1); compose multiplies the signs
    for sigma in (1e-3, 2.0, 1e3):
        ops = extension_ops(sigma)
        assert [op.orientation for op in ops] == [1.0, 1.0, -1.0, 1.0]
        assert [np.prod(op.signs) for op in ops] == [1.0, -1.0, 1.0, 1.0]
        assert ops[2].compose(ops[1]).orientation == -1.0
        assert ops[2].compose(ops[2]).orientation == 1.0
    with pytest.raises(ValueError, match="orientation"):
        IsometryOp(np.ones(3), np.zeros(3), 0.5)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_half_translation_is_a_symmetry_reversing_orientation(sigma):
    # op 1 after op 3 is exactly the translation by t0, with orientation -1:
    # t0 maps the surface onto itself but swaps its sides, so the eight
    # blocks of the cell are one period of the orientation-preserving
    # translation 2 t0 and hold two of the fundamental domains
    ops = extension_ops(sigma)
    t0 = FundamentalSurface(sigma).translation_half()
    half = ops[0].compose(ops[2])
    assert np.array_equal(half.signs, np.ones(3))
    assert np.array_equal(half.offset, t0)
    assert half.orientation == -1.0
    twice = half.compose(half)
    assert np.array_equal(twice.offset, ops[3].offset)
    assert twice.orientation == ops[3].orientation == 1.0


def _weld(m, tol):
    """The representative of each vertex of ``m`` (the smallest index of
    the vertices welded to it, where coordinates agree to ``tol``), and
    the welded pairs (i, j), i < j."""
    v = m.vertices
    rep = np.arange(len(v))
    pairs = np.array(sorted(cKDTree(v).query_pairs(tol)), dtype=int)
    pairs = pairs.reshape(-1, 2)
    for i, j in pairs:  # union by smallest index
        a, b = rep[i], rep[j]
        while rep[a] != a:
            a = rep[a]
        while rep[b] != b:
            b = rep[b]
        rep[max(a, b)] = min(a, b)
    for i in range(len(rep)):
        rep[i] = rep[rep[i]]
    return rep, pairs


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
@pytest.mark.parametrize("copies", [0, 1])
def test_extended_mesh_is_consistently_oriented(sigma, copies):
    # welded by coordinates, no edge is traversed the same way by both of
    # its faces, no welded pair has opposite normals, and no face winds
    # against its vertex normals
    m = extend(sample_fundamental(sigma, 0.1, 20, 30), extension_ops(sigma),
               copies=copies)
    v, nrm = m.vertices, m.normals
    rep, pairs = _weld(m, 1e-7 * max(1.0, np.abs(v).max()))
    assert len(pairs) > 0
    faces = rep[m.faces]
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                               faces[:, [2, 0]]])
    directed = directed[directed[:, 0] != directed[:, 1]]
    _, count = np.unique(directed, axis=0, return_counts=True)
    assert np.count_nonzero(count > 1) == 0
    dots = np.einsum("ij,ij->i", nrm[pairs[:, 0]], nrm[pairs[:, 1]])
    assert np.count_nonzero(dots < 0.0) == 0
    fn = np.cross(v[m.faces[:, 1]] - v[m.faces[:, 0]],
                  v[m.faces[:, 2]] - v[m.faces[:, 0]])
    against = np.einsum("ij,ij->i", fn, nrm[m.faces].sum(axis=1)) < 0.0
    assert np.count_nonzero(against) == 0


def test_extend_refuses_extended_mesh(fund2, ops2):
    with pytest.raises(ValueError):
        extend(extend(fund2, ops2, copies=0), ops2)
    with pytest.raises(ValueError):
        extend(fund2, ops2, copies=-1)


def test_extend_refuses_a_fourth_op_that_is_not_a_translation(fund2, ops2):
    # copies are built by adding the offset, so every sign must be +1 and
    # the orientation kept
    t = ops2[3].offset
    for op in (IsometryOp([1.0, -1.0, 1.0], t),
               IsometryOp(offset=t, orientation=-1.0)):
        for copies in (0, 1):
            with pytest.raises(ValueError, match="translation"):
                extend(fund2, ops2[:3] + [op], copies=copies)


def test_copies_without_a_translation_are_refused(fund2, ops2):
    # copies are the cell under the translation, op 4: without one,
    # extend and TriMesh refuse before any walk
    for k in range(4):
        extend(fund2, ops2[:k], copies=0)
        for copies in (1, 3):
            with pytest.raises(ValueError, match="translation"):
                extend(fund2, ops2[:k], copies=copies)
    v, n, f = fund2.base_vertices, fund2.base_normals, fund2.base_faces
    with pytest.raises(ValueError, match="translation"):
        TriMesh(v, n, f, copies=1)
    with pytest.raises(ValueError, match="translation"):
        TriMesh(v, n, f, cell_ops=ops2[:3], copies=2)
    assert TriMesh(v, n, f, translation=ops2[3]).copies == 0


def _signed_zero_mesh(copies):
    """A cell with -0.0 in every column of its vertices and normals, beside
    values of either sign, under a translation with a -0.0 component."""
    cell = np.array([[-0.0, -0.0, -0.0], [-0.0, -1.0, -0.0],
                     [2.5, -0.0, -3.0], [-1.0, 4.0, -0.0], [0.0, -0.0, 1.0]])
    return TriMesh(cell, -cell[::-1], np.array([[0, 1, 2], [2, 3, 4]]),
                   translation=IsometryOp(offset=[1.5, -0.0, -2.0]),
                   copies=copies)


@pytest.mark.parametrize("copies", [0, 1, 3])
@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3, "signed zeros"])
def test_iter_copies_matches_repeated_translation(sigma, copies):
    # the block walk, taken a copy (len(flips) blocks) at a time, is the
    # sequential transforms and the matmul walk bit for bit, signed zeros
    # included
    if sigma == "signed zeros":
        m = _signed_zero_mesh(copies)
    else:
        m = extend(sample_fundamental(sigma, 0.1, 14, 20),
                   extension_ops(sigma), copies=copies)
    blocks, cell = list(m.blocks()), len(m.flips)
    assert len(blocks) == cell * (copies + 1)
    got = [[np.concatenate(part) for part in zip(*blocks[k:k + cell])]
           for k in range(0, len(blocks), cell)]
    want = list(scalar.translated_copies(m))
    assert len(got) == len(want) == copies + 1
    for pair, ref in zip(got, want):
        for a, b in zip(pair, ref):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


# --- circle fitting -----------------------------------------------------------


def test_circle_fit_exact_circle():
    th = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = np.stack([1.3 + 2.0 * np.cos(th), -0.4 + 2.0 * np.sin(th),
                    np.full_like(th, 0.7)], axis=1)
    fit, = level_circle_fit([pts])
    assert fit.kind == "circle"
    assert abs(fit.radius - 2.0) < 1e-12
    assert np.allclose(fit.center, [1.3, -0.4], atol=1e-12)
    assert fit.residual < 1e-12


def test_circle_fit_line_and_degenerate():
    t = np.linspace(-1, 1, 9)
    pts = np.stack([0.5 + t, 2.0 * t, np.zeros_like(t)], axis=1)
    fit, = level_circle_fit([pts])
    assert fit.kind == "line"
    assert fit.residual < 1e-12
    assert abs(fit.direction[1] / fit.direction[0] - 2.0) < 1e-12
    with pytest.raises(Degenerate):
        level_circle_fit([np.tile([1.0, 2.0, 0.0], (6, 1))])
    with pytest.raises(ValueError):
        level_circle_fit([pts[:4]])
    bad = pts.copy()
    bad[0, 2] = 0.5
    with pytest.raises(ValueError):
        level_circle_fit([bad])
    assert level_circle_fit([]) == []


def test_circle_fit_errors_name_the_slice():
    # each error of a bad slice in the middle of a batch names its index
    th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    ring = np.stack([np.cos(th), np.sin(th), np.full_like(th, 0.3)], axis=1)
    mixed = ring.copy()
    mixed[3, 2] = 0.4
    for bad, error, what in (
            (ring[:, :2], ValueError, "must be \\(n, 3\\)"),
            (ring[:4], ValueError, "at least 5 points"),
            (mixed, ValueError, "common height"),
            (np.tile(ring[0], (6, 1)), Degenerate, "coincide")):
        with pytest.raises(error, match=f"^slice 2: .*{what}"):
            level_circle_fit([ring, 2.0 * ring, bad, ring + 1.0])
    # one (n, 3) array is a sequence of rows, not of slices
    with pytest.raises(ValueError, match="^slice 0: points must be"):
        level_circle_fit(ring)


def test_classical_slice_fits_circle():
    from riemann_minimal import classical
    p = classical.RiemannParams.from_lambda(1.0)
    q = p.q1 + 0.9
    pts = np.array([classical.parameterize(p, q, v)
                    for v in np.linspace(0, 2 * np.pi, 16, endpoint=False)])
    fit, = level_circle_fit([pts])
    assert fit.kind == "circle"
    assert abs(fit.radius - math.sqrt(q)) < 1e-9
    assert fit.residual < 1e-10


def _slice_points(m, records):
    """The edge-interpolated points of slice_mesh records (ia, ib, s)."""
    _, ia, ib, s = records
    v = m.vertices
    return v[ia] + s[:, None] * (v[ib] - v[ia])


def test_refined_slice_is_exact_circle(fund2, ops2, surf2):
    ext = extend(fund2, ops2, copies=0)
    h = 0.45 * surf2.translation_half()[2]
    coarse = _slice_points(ext, slice_mesh(ext, [h]))
    assert len(coarse) >= 5
    pts = refine_slice(2.0, [h], 24)[0]
    assert len(pts) == 48
    # the second half is the first under op 2, x2 -> -x2
    assert np.array_equal(pts[24:], pts[:24] * [1.0, -1.0, 1.0])
    fit_c, fit = level_circle_fit([coarse, pts])
    assert fit.kind == "circle"
    assert fit.residual < 1e-5 * fit.radius
    # the coarse fit agrees at mesh-chord accuracy
    assert abs(fit_c.radius - fit.radius) < 5e-2 * fit.radius


@pytest.mark.parametrize("cell,copies", [(False, 0), (True, 0), (True, 1),
                                         (True, 3)])
def test_edges_match_the_whole_mesh_unique(fund2, ops2, cell, copies):
    # the unique edges, in ascending order, of the per-face walk
    m = extend(fund2, ops2, copies=copies) if cell else fund2
    ia, ib = m.edges
    assert ia.dtype == ib.dtype == np.int64
    assert list(zip(ia.tolist(), ib.tolist())) == _edge_set(m)


def _edge_set(m):
    """The mesh's undirected edges from a per-face walk, sorted."""
    edges = set()
    for (a, b, c) in m.faces.tolist():
        for i, j in ((a, b), (b, c), (c, a)):
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _slice_mesh_reference(m, edges, height):
    """The sorted edge set of ``_edge_set`` walked in order: the loop
    slice_mesh must reproduce crossing for crossing."""
    x3 = m.vertices[:, 2]
    pts, crossings = [], []
    for (i, j) in edges:
        fa, fb = x3[i] - height, x3[j] - height
        if fa == 0.0 or fb == 0.0 or fa * fb > 0.0:
            continue
        s = fa / (fa - fb)
        pts.append(m.vertices[i] + s * (m.vertices[j] - m.vertices[i]))
        crossings.append((int(i), int(j), float(s)))
    return np.asarray(pts, dtype=float).reshape(-1, 3), crossings


def test_slice_mesh_matches_edge_set_reference(fund2, ops2, surf2):
    ext = extend(fund2, ops2, copies=1)
    span = surf2.translation_half()[2]
    # generic heights, a vertex height (edges touching it are skipped) and
    # one above the mesh
    heights = [0.3 * span, 0.45 * span, 1.6 * span,
               float(ext.vertices[37, 2]), 10.0 * abs(span)]
    records = slice_mesh(ext, heights)
    owner, ia, ib, s = records
    pts = _slice_points(ext, records)
    edges = _edge_set(ext)
    for k, h in enumerate(heights):
        ref_pts, ref_crossings = _slice_mesh_reference(ext, edges, h)
        at = owner == k
        assert list(zip(ia[at].tolist(), ib[at].tolist(),
                        s[at].tolist())) == ref_crossings
        assert np.array_equal(pts[at], ref_pts)
    assert np.any(owner == 0)
    assert not np.any(owner == len(heights) - 1)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
@pytest.mark.parametrize("cell", [False, True])
def test_slice_mesh_height_sequence_matches_scalar_calls(sigma, cell):
    # verify's 24x32 piece and its cell, sliced at generic heights in
    # descending order with one repeated, at two vertices' exact heights
    # (an end at distance 0 is no crossing), at the mesh's extreme heights
    # and outside the mesh, against one reference call per height
    piece = sample_fundamental(sigma, 0.1, 24, 32)
    m = extend(piece, extension_ops(sigma), copies=0) if cell else piece
    span = FundamentalSurface(sigma).translation_half()[2]
    x3 = m.vertices[:, 2]
    generic = list(np.linspace(0.13, 0.87, 10)[::-1] * span)
    vertex = [float(x3[37]), float(x3[len(x3) // 2])]
    outside = [float(x3.max()), float(x3.min()), float(x3.max()) + 1.0,
               float(x3.min()) - 1.0]
    hs = generic + [generic[3]] + vertex + outside
    owner, ia, ib, s = slice_mesh(m, hs)
    assert np.all(np.diff(owner) >= 0)
    want, edges = [], _edge_set(m)
    for k, h in enumerate(hs):
        _, records = _slice_mesh_reference(m, edges, h)
        at = owner == k
        assert list(zip(ia[at].tolist(), ib[at].tolist(),
                        s[at].tolist())) == records
        want += records
        if h in vertex:
            assert records and not np.any(x3[ia[at]] == h)
            assert not np.any(x3[ib[at]] == h)
        assert (h in outside) == (not records)
    assert s.tobytes() == np.array([r[2] for r in want]).tobytes()
    empty = slice_mesh(m, [])
    assert [(len(a), a.dtype.kind) for a in empty] == [(0, "i")] * 3 + [
        (0, "f")]


# points of the sigma = 2 surface at frac * t0_3, five of the 20 of each
# whole slice of 10 points per height (k = 0, 4, 9 and the mirrors of k =
# 2, 7): each z(u) on the line Re u = (frac - 1) t0_3, Im u = (k + 1/2) b
# / 10, and its position evaluated at 30 digits by mpmath (ellipfun,
# elliprf and elliprd, with t0_3 and b = 2 R_F(0, sigma, 1 + sigma) there
# too); x1 = 0 on the x2-axis, the line at height 0
REFINED_PINS = {
    0.0: [(0.0, -0.10626958782291886, 0.0),
          (0.0, -1.0623096996977779, 0.0),
          (0.0, -14.115044865888708, 0.0),
          (0.0, 0.543998204185463, 0.0),
          (0.0, 2.757362043586106, 0.0)],
    0.25: [(0.159634085612498, -0.10043373137652101, 0.585710042073385),
           (0.5204995801261134, -0.8486937178368047, 0.585710042073385),
           (2.423465735063291, -0.39671193266728727, 0.585710042073385),
           (0.2635524118486841, 0.4912258440895918, 0.585710042073385),
           (1.452759526851405, 1.1616658061914777, 0.585710042073385)],
    0.45: [(0.08704762873337503, -0.1106618282367392, 1.0542780757320929),
           (0.6165881040488645, -0.69800974409865, 1.0542780757320929),
           (1.5084423836993799, -0.13960550352422213, 1.0542780757320929),
           (0.27313683336006667, 0.4930227257362053, 1.0542780757320929),
           (1.233566115713179, 0.577269093058782, 1.0542780757320929)],
    0.7: [(-0.6374755334971237, -0.280048949234234, 1.6399881178054776),
          (0.6528548037705019, -0.9084804153457566, 1.6399881178054776),
          (1.267629730240253, -0.09994455636555886, 1.6399881178054776),
          (0.024500798701010077, 0.9367863583271403, 1.6399881178054776),
          (1.1466266548557318, 0.479810012965065, 1.6399881178054776)],
    1.0: [(1.4326238774001785, -14.115044865888708, 2.34284016829354),
          (1.4326238774001785, -1.412017606943383, 2.34284016829354),
          (1.4326238774001785, -0.10626958782291886, 2.34284016829354),
          (1.4326238774001785, 2.757362043586106, 2.34284016829354),
          (1.4326238774001785, 0.543998204185463, 2.34284016829354)],
}


def test_refine_slice_pinned_points(surf2):
    # each pin is a point of a whole slice, the refined points or their
    # mirror (measured to 2.6e-15, and 7.8e-14 on the line at height 0,
    # whose points run out to |x2| = 14 toward the end z = 0)
    span = surf2.translation_half()[2]
    for frac, want in REFINED_PINS.items():
        whole = refine_slice(2.0, [frac * span], 10)[0]
        gap = np.abs(whole[:, None] - np.array(want)[None]).max(axis=2)
        assert np.all(gap.min(axis=0) < 1e-11)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_refined_points_lie_at_their_heights(sigma):
    # 24 points at each of 49 heights across the slab and at its ends 0
    # and t0_3, one closed-form point each (measured at most 1.3e-15 t0_3
    # over sigma in [1e-3, 1e3])
    span = FundamentalSurface(sigma).translation_half()[2]
    hs = np.concatenate([[0.0], np.linspace(0.02, 0.98, 49), [1.0]]) * span
    pts = refine_slice(sigma, hs, 24)
    assert pts.shape == (51, 48, 3)
    assert np.max(np.abs(pts[..., 2] - hs[:, None])) <= 2e-14 * span
    # the ends are the boundary lines x1 = 0 and x1 = t0_1, where z is
    # real: straight to 1e-15 of their extent in x2 (measured 4.4e-17;
    # 6e-14 at sigma 1e3 with z's rounding off the real axis kept)
    t0_1 = FundamentalSurface(sigma).translation_half()[0]
    for line, x1 in ((pts[0], 0.0), (pts[-1], t0_1)):
        extent = np.max(np.abs(line[:, 1]))
        assert np.max(np.abs(line[:, 0] - x1)) <= 1e-15 * extent


def test_refined_points_next_to_the_branch_points():
    # heights 1e-9 to 1e-3 t0_3 inside both ends of the slab, next to the
    # sides z in (0, 1) and z < -sigma of the u rectangle: each point
    # misses its height by at most twice what mpmath's z(u) at 30 digits,
    # rounded to a double, misses by, plus 2e-14 t0_3 (measured: within
    # 1.1e-15 t0_3 at 13 sigmas in [1e-3, 1e3], since Im u keeps at least
    # b / 48 from the corners z = 1 and z = -sigma)
    span = FundamentalSurface(2.0).translation_half()[2]
    b = 2.0 * classical.carlson_rf(0.0, 2.0, 3.0)
    inside = np.array([1e-9, 1e-7, 1e-5, 1e-4, 1e-3])
    hs = np.concatenate([inside, 1.0 - inside]) * span
    got = refine_slice(2.0, hs, 24)
    im = (np.arange(24) + 0.5) * (b / 24)
    for h, pts in zip(hs, got[:, :24]):
        with mpmath.workdps(30):
            m = mpmath.mpf(2) / 3
            want = np.array([complex(-2 + 3 / mpmath.ellipfun(
                "sn", mpmath.mpc(h - span, y) * mpmath.sqrt(3) / 2,
                m=m) ** 2) for y in im])
        want.imag = np.maximum(want.imag, 0.0)
        floor = np.abs(curve.immerse(curve.CurveParams(2.0), want)[0][:, 2]
                       - h)
        assert np.all(np.abs(pts[:, 2] - h) <= 2.0 * floor + 2e-14 * span)


def test_refine_slice_batches_each_height(surf2, monkeypatch):
    span = surf2.translation_half()[2]
    calls = []
    immerse = curve.immerse

    def counting(params, z):
        calls.append(np.size(z))
        return immerse(params, z)

    # one immerse call, shared by all points
    monkeypatch.setattr(curve, "immerse", counting)
    for frac in (0.13, 0.3, 0.5, 0.77, 0.87):
        del calls[:]
        pts = refine_slice(2.0, [frac * span], 24)
        assert pts.shape == (1, 48, 3) and calls == [24]


@pytest.mark.parametrize("sigma", [0.0167, 2.0, 8.0])
def test_refine_slice_height_sequence_matches_per_height_calls(sigma,
                                                               monkeypatch):
    span = FundamentalSurface(sigma).translation_half()[2]
    calls = []
    immerse = curve.immerse

    def counting(params, z):
        calls.append(np.size(z))
        return immerse(params, z)

    monkeypatch.setattr(curve, "immerse", counting)
    # the slab's ends, generic heights and one repeated; at 25 heights of
    # 200 points the one immerse call spans two immerse blocks
    hs = np.array([0.0, 0.13, 0.3, 0.5, 0.3, 0.77, 1.0]) * span
    for n_points, heights in ((24, hs), (5, hs),
                              (200, np.linspace(0.02, 0.98, 25) * span)):
        del calls[:]
        want = [refine_slice(sigma, [h], n_points)[0] for h in heights]
        per_height = len(calls)
        del calls[:]
        got = refine_slice(sigma, heights, n_points)
        assert got.shape == (len(heights), 2 * n_points, 3)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
        assert per_height == len(heights) and len(calls) == 1
        if n_points == 200:
            assert calls[0] > curve.PSI_BLOCK
    assert refine_slice(sigma, [], 32).shape == (0, 64, 3)


def _immerse_calls(monkeypatch):
    """A list that records every curve.immerse call from now on."""
    calls, immerse = [], curve.immerse

    def counting(*args, **kwargs):
        calls.append(1)
        return immerse(*args, **kwargs)

    monkeypatch.setattr(curve, "immerse", counting)
    return calls


def test_refine_slice_refuses_heights_outside_the_slab(surf2, monkeypatch):
    # a height off [0, t0_3] has no line in the u rectangle: refused
    # before any point is evaluated; the ends themselves are lines
    span = surf2.translation_half()[2]
    calls = _immerse_calls(monkeypatch)
    for hs in ([-1e-300], [span * (1.0 + 1e-15)], [0.3 * span, 1.4 * span],
               [math.nan], [-math.inf]):
        with pytest.raises(ValueError, match="slab"):
            refine_slice(2.0, hs, 24)
    assert calls == []
    assert refine_slice(2.0, [0.0, span], 24).shape == (2, 48, 3)


def test_refine_slice_hits_height_with_few_immerse_calls(surf2, monkeypatch):
    span = surf2.translation_half()[2]
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    # the surface points are one closed-form evaluation: no path is
    # integrated
    counting(curve, "immerse")
    counting(quad, "_gk_panel")
    for frac in (0.13, 0.3, 0.5, 0.77, 0.87):
        h = frac * span
        del calls[:]
        pts = refine_slice(2.0, [h], 24)[0]
        assert np.max(np.abs(pts[:, 2] - h)) <= 1e-12 * max(1.0, abs(h))
        assert calls == ["immerse"]


# --- export -------------------------------------------------------------------


def tiny_mesh():
    return TriMesh(
        vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]),
        normals=np.array([[0.0, 0, 1], [0.0, 0, 1], [0.0, 0, 1]]),
        faces=np.array([[0, 1, 2]], dtype=np.int32),
    )


def parse_obj(path) -> TriMesh:
    """The v, vn and f lines of an OBJ file, each kind's fields read in one
    pass over their joined text."""
    rows = {"v": [], "vn": [], "f": []}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            tag, _, rest = line.partition(" ")
            if tag in rows:
                rows[tag].append(rest)
    fields = {tag: " ".join(lines).split() for tag, lines in rows.items()}
    verts, normals = (np.array(list(map(float, fields[tag]))).reshape(-1, 3)
                      for tag in ("v", "vn"))
    faces = [int(t.split("/")[0]) - 1 for t in fields["f"]]
    return TriMesh(verts, normals,
                   np.array(faces, dtype=np.int32).reshape(-1, 3))


def parse_ply(path) -> TriMesh:
    with open(path, "rb") as fh:
        data = fh.read()
    head_end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:head_end].decode("ascii").splitlines()
    nv = nf = 0
    for line in header:
        if line.startswith("element vertex"):
            nv = int(line.split()[-1])
        elif line.startswith("element face"):
            nf = int(line.split()[-1])
    vbytes = nv * 6 * 4
    varr = np.frombuffer(data[head_end:head_end + vbytes],
                         dtype="<f4").reshape(nv, 6)
    fdata = np.frombuffer(data, dtype=mesh._PLY_FACE, count=nf,
                          offset=head_end + vbytes)
    if np.any(fdata["n"] != 3):
        raise ValueError("PLY faces must all be triangles")
    return TriMesh(varr[:, :3].astype(float), varr[:, 3:].astype(float),
                   fdata["i"].astype(np.int32))


def test_export_obj_structure(tmp_path):
    p = tmp_path / "m.obj"
    n = export_obj(tiny_mesh(), p)
    text = p.read_text().splitlines()
    assert n == len(p.read_bytes())
    assert sum(1 for l in text if l.startswith("v ")) == 3
    assert sum(1 for l in text if l.startswith("vn ")) == 3
    assert sum(1 for l in text if l.startswith("f ")) == 1
    assert text[-1] == "f 1//1 2//2 3//3"


def test_export_round_trip_and_determinism(tmp_path, fund2):
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    export_obj(fund2, p1)
    export_obj(fund2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = parse_obj(p1)
    scale = np.max(np.abs(fund2.vertices))
    assert np.max(np.abs(back.vertices - fund2.vertices)) < 1e-8 * max(scale, 1)
    assert np.array_equal(back.faces, fund2.faces)
    q1 = tmp_path / "a.ply"
    q2 = tmp_path / "b.ply"
    export_ply(fund2, q1)
    export_ply(fund2, q2)
    assert q1.read_bytes() == q2.read_bytes()
    back = parse_ply(q1)
    assert np.max(np.abs(back.vertices - fund2.vertices)) < 1e-6 * max(scale, 1)
    assert np.array_equal(back.faces, fund2.faces)


def _ply_faces_reference(faces):
    return b"".join(struct.pack("<B3i", 3, int(f[0]), int(f[1]), int(f[2]))
                    for f in faces)


def test_export_ply_faces_match_struct_packing(tmp_path, fund2, ops2):
    ext = extend(fund2, ops2, copies=1)
    p = tmp_path / "e.ply"
    n = export_ply(ext, p)
    data = p.read_bytes()
    assert n == len(data)
    faces = data[-13 * ext.face_count:]
    assert faces == _ply_faces_reference(ext.faces)
    head_end = data.index(b"end_header\n") + len(b"end_header\n")
    vdata = b"".join(np.hstack(c).astype("<f4").tobytes()
                     for c in scalar.translated_copies(ext))
    assert data[head_end:] == vdata + faces
    # the reference writer that gen's PLY files are compared with
    assert scalar.export_ply(ext, tmp_path / "ref.ply") == n
    assert (tmp_path / "ref.ply").read_bytes() == data


def _export_obj_reference(m):
    """One f-string per line, joined: the loop the chunked export replaces."""
    lines = [f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}" for v in m.vertices]
    lines += [f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}" for n in m.normals]
    for f in m.faces:
        a, b, c = (int(i) + 1 for i in f)
        lines.append(f"f {a}//{a} {b}//{b} {c}//{c}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _special_values_mesh():
    vals = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e22, -1e22, 123456789.5,
                     np.inf, -np.inf, np.nan, 5e-324, 1.0 / 3.0])
    v = np.resize(vals, 36).reshape(12, 3)
    return TriMesh(v, -v[::-1], np.array([[0, 1, 2], [9, 10, 11],
                                         [11, 4, 7]], dtype=np.int32))


def _chunk_crossing_mesh():
    rng = np.random.default_rng(11)
    n = mesh._CHUNK + 1234
    v = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-12, 12, (n, 1))
    faces = rng.integers(0, n, (2 * mesh._CHUNK + 5, 3), dtype=np.int32)
    return TriMesh(v, rng.standard_normal((n, 3)), faces)


@pytest.mark.parametrize("make", ["extended", "chunks", "special"])
def test_export_obj_matches_fstring_loop(tmp_path, fund2, ops2, make):
    m = {"extended": lambda: extend(fund2, ops2, copies=1),
         "chunks": _chunk_crossing_mesh,
         "special": _special_values_mesh}[make]()
    p = tmp_path / "m.obj"
    n = export_obj(m, p)
    want = _export_obj_reference(m)
    assert p.read_bytes() == want
    assert n == len(want)


@pytest.mark.parametrize("bad", [-1, 12])
def test_export_obj_refuses_faces_that_name_no_vertex(tmp_path, bad):
    # an OBJ face names a vertex of the file: an index below 0 or at the
    # base vertex count is refused before the file is opened
    v = np.zeros((12, 3))
    m = TriMesh(v, v, np.array([[0, 1, 2], [3, bad, 11]], dtype=np.int32))
    with pytest.raises(ValueError, match="name a vertex"):
        export_obj(m, tmp_path / "m.obj")
    assert not (tmp_path / "m.obj").exists()


def _digit_crossing_mesh(fund2, ops2):
    """14x20 piece with copies 0..4: copy 4 holds 1-based indices 8961 to
    11200, so 9999 -> 10000 falls inside one copy's index table.  Copies 0
    and 4 mix digit counts and have their face lines compacted; copies 1
    to 3 keep one digit count and are written as gathered."""
    m = extend(fund2, ops2, copies=4)
    n = m.base_count * len(m.flips)
    assert 4 * n + 1 <= 9999 < 10000 <= 5 * n
    same = [len(str(k * n + 1)) == len(str(k * n + n)) for k in range(5)]
    assert same == [False, True, True, True, False]
    return m


def _unused_vertices_mesh(fund2, ops2):
    """Every third base face only, so the cell leaves vertices unused."""
    part = TriMesh(fund2.base_vertices, fund2.base_normals,
                   fund2.base_faces[::3])
    m = extend(part, ops2, copies=2)
    n = m.base_count * len(m.flips)
    unused = np.setdiff1d(np.arange(n), m._cell_faces)
    assert unused.size and unused.max() < n - 1
    return m


@pytest.mark.parametrize("make", [_digit_crossing_mesh, _unused_vertices_mesh])
def test_export_obj_face_table_matches_fstring_loop(tmp_path, fund2, ops2,
                                                     make):
    m = make(fund2, ops2)
    p = tmp_path / "m.obj"
    n = export_obj(m, p)
    want = _export_obj_reference(m)
    got = p.read_bytes()
    start = want.index(b"\nf ") + 1
    assert got[start:] == want[start:]
    assert got == want and n == len(want)
    q = tmp_path / "m.ply"
    assert export_ply(m, q) == _export_ply_whole(m, tmp_path / "w.ply")
    assert q.read_bytes() == (tmp_path / "w.ply").read_bytes()


def test_parse_ply_reads_extended_faces(tmp_path, fund2, ops2):
    ext = extend(fund2, ops2, copies=1)
    p = tmp_path / "e.ply"
    export_ply(ext, p)
    back = parse_ply(p)
    assert back.faces.dtype == np.int32
    assert np.array_equal(back.faces, ext.faces)
    assert np.array_equal(back.vertices, ext.vertices.astype("<f4"))
    # a quad is not cut to its first three indices
    data = p.read_bytes()
    head_end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:head_end].replace(b"element face %d" % ext.face_count,
                                     b"element face 1")
    p.write_bytes(header + data[head_end:head_end + 24 * ext.vertex_count]
                  + struct.pack("<B4i", 4, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        parse_ply(p)


def _export_obj_whole(m, path):
    """The whole-array OBJ export the copy-streamed one replaces."""
    faces = np.repeat(np.asarray(m.faces, dtype=np.int64) + 1, 2, axis=1)
    sections = (("v %.9g %.9g %.9g\n", m.vertices),
                ("vn %.9g %.9g %.9g\n", m.normals),
                ("f %d//%d %d//%d %d//%d\n", faces))
    nbytes = 0
    with open(path, "wb") as fh:
        for line, rows in sections:
            for i in range(0, len(rows), mesh._CHUNK):
                part = rows[i:i + mesh._CHUNK]
                text = line * len(part) % tuple(part.ravel().tolist())
                nbytes += fh.write(text.encode("ascii"))
    return nbytes


def _export_ply_whole(m, path):
    """The whole-array PLY export the copy-streamed one replaces."""
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(m.vertices)}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        f"element face {len(m.faces)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    ).encode("ascii")
    vdata = np.hstack([m.vertices, m.normals]).astype("<f4").tobytes()
    fdata = np.empty(len(m.faces), dtype=mesh._PLY_FACE)
    fdata["n"] = 3
    fdata["i"] = m.faces
    data = header + vdata + fdata.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


@pytest.mark.parametrize("copies", [0, 1, 3])
def test_streamed_export_matches_whole_array_export(tmp_path, fund2, ops2,
                                                    copies):
    got = extend(fund2, ops2, copies=copies)
    want = _extend_reference(fund2, ops2, copies)
    for new, old, fmt in ((export_obj, _export_obj_whole, "obj"),
                          (export_ply, _export_ply_whole, "ply")):
        a, b = tmp_path / f"new.{fmt}", tmp_path / f"old.{fmt}"
        assert new(got, a) == old(want, b) == len(b.read_bytes())
        assert a.read_bytes() == b.read_bytes(), fmt
    # exporting built no whole-mesh array
    assert not {"vertices", "normals", "faces"} & set(vars(got))


def test_export_memory_does_not_grow_with_copies(tmp_path, fund2, ops2):
    def peak(copies):
        tracemalloc.start()
        try:
            ext = extend(fund2, ops2, copies=copies)
            export_obj(ext, tmp_path / "m.obj")
            export_ply(ext, tmp_path / "m.ply")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    export_obj(fund2, tmp_path / "m.obj")  # the text tables, built once
    assert peak(32) <= 1.5 * peak(2)


@pytest.fixture(scope="module")
def piece40():
    return sample_fundamental(2.0, 0.1, 40, 60)


def _traced_peak(call):
    """(result, peak traced bytes above those held before the call)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_extend_builds_no_vertex_array(piece40):
    # extend composes the isometries only: the 40x60 cell's blocks are
    # walked on demand from the piece's own arrays
    ops = extension_ops(2.0)
    cell, peak = _traced_peak(lambda: extend(piece40, ops, copies=0))
    assert peak < piece40.base_vertices.nbytes / 2
    assert cell.base_vertices is piece40.base_vertices
    assert cell.base_normals is piece40.base_normals
    assert not {"vertices", "normals", "faces"} & set(vars(cell))


def test_export_ply_peaks_at_a_few_blocks(tmp_path, piece40):
    # one block's vertices and normals are 48 bytes per piece vertex; the
    # cell's are 8 blocks, and a writer that casts the whole cell at once,
    # with an int64 face stack, peaks at ~20 blocks
    cell = extend(piece40, extension_ops(2.0), copies=0)
    block = 48 * piece40.vertex_count
    _, peak = _traced_peak(lambda: export_ply(cell, tmp_path / "m.ply"))
    assert peak <= 6 * block
    assert not {"vertices", "normals", "faces"} & set(vars(cell))


def test_export_obj_peaks_at_a_few_blocks(tmp_path, piece40):
    # blocks of 48 bytes per piece vertex, as above.  The OBJ writer keeps
    # the digit kernel's buffers (one copy's new columns, ~10 blocks),
    # the unit arrays of the last copy's columns, one copy's blocks from
    # the walk and, from copy 1 on, one copy's vn text; its faces go a
    # block at a time.  Peaks: 20.5 blocks at copies 0 and 31.4 at
    # copies 16, where the writer with a cell-sized face pass peaked at
    # 24.1 and 33.5
    ops = extension_ops(2.0)
    block = 48 * piece40.vertex_count
    export_obj(piece40, tmp_path / "m.obj")  # the text tables, built once
    for copies, bound in ((0, 24), (16, 33)):
        ext = extend(piece40, ops, copies=copies)
        _, peak = _traced_peak(lambda: export_obj(ext, tmp_path / "m.obj"))
        assert peak <= bound * block, (copies, peak / block)
        assert not {"vertices", "normals", "faces", "_cell_faces"} & set(
            vars(ext))


def test_export_obj_drops_the_v_lines_before_the_vn_pass(monkeypatch,
                                                          piece40):
    # the v lines' reused buffers have another width than the vn lines':
    # when the first vn line is written, the store holds its buffer only.
    # Keeping the v buffers raises the copies-16 peak above from 31.4 to
    # 32.6 blocks, still under its bound
    stores = []

    class Store(mesh._ColumnDigits):
        def __init__(self, rows):
            super().__init__(rows)
            stores.append(self)

    monkeypatch.setattr(mesh, "_ColumnDigits", Store)
    ext = extend(piece40, extension_ops(2.0), copies=16)
    v_sizes = set()
    for chunk in mesh._obj_values(ext):
        if chunk.startswith(b"vn "):
            break
        v_sizes |= set(stores[0].lines)
    assert v_sizes and len(stores[0].lines) == 1
    assert not v_sizes & set(stores[0].lines)


def test_export_ply_refuses_indices_past_int32(tmp_path, fund2, ops2):
    # an index of 2^31 or more would wrap to a negative int32; the file is
    # not opened
    v = np.zeros((3, 3))
    big = TriMesh(v, v, np.array([[0, 1, 2 ** 31 + 5]], dtype=np.int64))
    small = sample_fundamental(2.0, 0.1, 2, 3)
    huge = extend(small, ops2, copies=50_000_000)  # 2.4e9 vertices
    for m in (big, huge):
        with pytest.raises(ValueError, match="int32"):
            export_ply(m, tmp_path / "m.ply")
        assert not (tmp_path / "m.ply").exists()
    # the largest index that fits is written as it is
    edge = TriMesh(v, v, np.array([[0, 1, 2 ** 31 - 1]], dtype=np.int64))
    export_ply(edge, tmp_path / "e.ply")
    data = (tmp_path / "e.ply").read_bytes()
    assert data[-13:] == struct.pack("<B3i", 3, 0, 1, 2 ** 31 - 1)


@pytest.mark.parametrize("sigma, grid, copies", [
    (0.0121, "40x60", 16), (2.0, "40x60", 16), (8.0, "40x60", 16),
    (1e-3, "40x60", 16), (1e-3, "40x60", 0), (1e3, "40x60", 16),
    (1e3, "40x60", 0), (1e3, "6x8", 300)],
    ids=["0.0121", "2.0", "8.0", "0.001", "0.001-copies-0", "1000.0",
         "1000.0-copies-0", "1000.0-6x8-copies-300"])
def test_export_obj_matches_percent_writer_on_gen_meshes(tmp_path, gen_files,
                                                         sigma, grid, copies):
    # gen's extended OBJ and PLY, and the byte counts its report gives,
    # equal the reference writers' on the mesh gen builds.  40x60 with
    # --copies 16 has 979k vertex and normal values; at sigma 1e-3 and
    # 1e3, the ends of the tested range, they span the most decades (1e-18
    # to 1e2), the widest mix of magnitudes and exponents for the reused
    # digits.  With --copies 0 the block walk keeps no copy and the face
    # pass builds one token table.  The 6x8 piece at sigma 1e3 with 300
    # copies shifts x1 by 2 t0_1 ~ 3.99 a copy, to |x| = 1199.86: from
    # |x| >= 1000 on, a column's text takes the int4 unit (24 bytes a
    # value), which the 40x60 runs, peaking near 1e2, never reach
    out = gen_files(sigma, grid, copies)
    files = json.loads((out / "report.json").read_text())["result"]["files"]
    nr, nt = map(int, grid.split("x"))
    ext = scalar.gen_extended(sigma, nr, nt, copies)
    for fmt, writer in (("obj", scalar.export_obj),
                        ("ply", scalar.export_ply)):
        want = tmp_path / f"want.{fmt}"
        assert files[f"extended.{fmt}"] == writer(ext, want)
        assert filecmp.cmp(out / f"extended.{fmt}", want, shallow=False)
        want.unlink()  # up to 53 MB


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_gen_obj_and_ply_describe_one_mesh(gen_files, sigma):
    # the two writers walk the same blocks: with 3 copies, at the range's
    # ends and at 2, the PLY has the OBJ's counts and faces, inside the
    # vertex range, and its float32 positions lie within one float32 ulp
    # of the OBJ's 9-digit values
    out = gen_files(sigma, "40x60", 3)
    obj, ply = parse_obj(out / "extended.obj"), parse_ply(out / "extended.ply")
    data = (out / "extended.ply").read_bytes()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    assert end + 24 * ply.vertex_count + 13 * ply.face_count == len(data)
    assert ((ply.vertex_count, ply.face_count)
            == (obj.vertex_count, obj.face_count))
    assert np.array_equal(ply.faces, obj.faces)
    assert ply.faces.min() >= 0 and ply.faces.max() < ply.vertex_count
    p = ply.vertices.astype(np.float32)
    assert (np.abs(p - obj.vertices) <= np.spacing(np.abs(p))).all()


def test_export_obj_writes_wide_columns_as_percent_writer(tmp_path):
    # 300 copies of a 2x3 piece at sigma 1e3 shift x1 by 2 t0_1 ~ 3.99
    # each, to |x| = 1199.86: the columns take the 24-byte text with its
    # int4 unit from |x| >= 1000 on
    ext = scalar.gen_extended(1e3, 2, 3, 300)
    big = np.abs(ext.vertices).max(axis=1) >= 1000.0
    assert big.sum() == 2394 and 1199 < np.abs(ext.vertices).max() < 1200
    got, want = tmp_path / "got.obj", tmp_path / "want.obj"
    assert export_obj(ext, got) == scalar.export_obj(ext, want)
    assert filecmp.cmp(got, want, shallow=False)


def test_isometry_validation():
    # signs other than +1 and -1, or of the wrong shape (a 3x3 matrix
    # included), and offsets of the wrong shape are refused
    for signs in ([2.0, 1.0, 1.0], [1.0, 0.0, -1.0], [1.0, -0.5, 1.0],
                  [1.0, np.nan, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                  np.eye(3)):
        with pytest.raises(ValueError, match="signs"):
            IsometryOp(signs, np.zeros(3))
    with pytest.raises(ValueError, match="offset"):
        IsometryOp(np.ones(3), np.zeros(2))
    op = IsometryOp([-1, 1, -1])
    assert np.array_equal(op.signs, [-1.0, 1.0, -1.0])
    assert np.array_equal(op.offset, np.zeros(3)) and op.orientation == 1.0


def test_sample_fundamental_rejects_two_angle_grid():
    with pytest.raises(ValueError):
        sample_fundamental(2.0, 0.1, 40, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma, e, nr, nt", [
    (2.0, 1e-17, 10, 15), (2.0, 1e-17, 2, 3), (2.0, 1e-17, 3, 3),
    (1e-3, 1e-16, 10, 15)])
def test_sample_fundamental_rejects_a_row_on_the_end(sigma, e, nr, nt):
    # an e this small maps the r = e row onto the end z = 0, where the
    # immersion is infinite, with no numpy warning; ten times larger,
    # every sample is finite
    with pytest.raises(mesh.DegenerateCell, match="not finite"):
        sample_fundamental(sigma, e, nr, nt)
    piece = sample_fundamental(sigma, 10.0 * e, nr, nt)
    assert np.isfinite(piece.base_vertices).all()
    assert np.isfinite(piece.base_normals).all()

