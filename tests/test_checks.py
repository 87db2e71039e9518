import math

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares

import classical_quadrature as quadrature
import scalar_references as scalar
from riemann_minimal import checks, classical, mesh, quad
from riemann_minimal.quad import RiemannMinimalError


def _quadrature_params(sigma):
    """RiemannParams of sigma's lambda with the quadrature slab height."""
    lam = (sigma - 1.0) / math.sqrt(sigma)
    return classical.RiemannParams(lam, classical.q_min(lam),
                                   quadrature.slab_height(lam))


def _quadrature_radius(cl, z):
    """sqrt(q) of the circle at height z: brentq on the quadrature
    height, the inversion registration_error does not run."""
    if z == 0.0:
        return math.sqrt(cl.q1)
    hi = cl.q1 + 1.0
    while quadrature.height(cl, hi) < z:
        hi *= 4.0
    return math.sqrt(brentq(lambda q: quadrature.height(cl, q) - z,
                            cl.q1, hi, xtol=1e-13, rtol=1e-13))


def _least_squares_fit(sigma, reg):
    """The registration fit as scipy's least_squares over brentq inversions
    of the quadrature height, started where registration_error starts."""
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    cl = _quadrature_params(sigma)

    def model(x):
        s, h0 = x
        zc = np.minimum(np.abs(reg.heights - h0) / s, 0.999 * cl.zeta)
        return s * np.array([_quadrature_radius(cl, z) for z in zc]) - reg.radii

    x0 = [abs(span) / (2.0 * cl.zeta), 0.5 * span]
    return least_squares(model, x0=x0, xtol=1e-14, ftol=1e-14).x


def _piece(sigma, nr=24, nt=32):
    """The fundamental piece verify's slice checks read."""
    return mesh.sample_fundamental(sigma, 0.1, nr, nt)


def _cell(sigma, copies=0, piece=None):
    """``piece`` (by default ``_piece``) extended to its cell and
    ``copies`` copies."""
    return mesh.extend(_piece(sigma) if piece is None else piece,
                       mesh.extension_ops(sigma), copies=copies)


def _candidates(sigma):
    """Registration's 12 evenly spaced candidate heights."""
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    return (0.14 + 0.72 * np.arange(12) / 11) * span


def _foliation_heights(sigma):
    """Foliation's 10 heights, symmetric about t0_3 / 2."""
    span = mesh.FundamentalSurface(sigma).translation_half()[2]
    return (0.13 + 0.74 * np.arange(10) / 9.0) * span


def _refined(piece, heights, max_points):
    """The slices of ``piece`` at ``heights``, refined in one refine_slice
    call on its own crossings."""
    return mesh.refine_slice(piece, heights, max_points,
                             mesh.slice_mesh(piece, heights))


def _registration_slices(sigma, piece):
    """The first 6 candidates that cross 8 or more edges of ``piece``, each
    counted by its own slice_mesh call, refined on ``piece``."""
    candidates = _candidates(sigma)
    covered = [i for i, h in enumerate(candidates)
               if len(mesh.slice_mesh(piece, [h])[0]) >= 8][:6]
    return candidates[covered], _refined(piece, candidates[covered], 24)


def _foliation_slices(sigma, piece, cell):
    """Foliation's 10 heights and the circles of ``cell`` there, each the
    orbit of the piece's slices (14 points each) under the cell's blocks
    0 and 2 (slice j) and 1 and 3 (slice 9 - j)."""
    hs = _foliation_heights(sigma)
    pts = _refined(piece, hs, 14)
    return hs, [np.concatenate([op.apply(pts[9 - j if b % 2 else j])
                                for b, op in enumerate(cell.cell_ops[:4])])
                for j in range(10)]


@pytest.mark.parametrize("sigma", [0.0167, 0.5, 2.78, 8.0])
def test_registration_fit_matches_least_squares(sigma):
    reg, _ = checks.slice_checks(_piece(sigma))
    s, h0 = _least_squares_fit(sigma, reg)
    assert abs(reg.scale - s) <= 1e-10 * abs(s)
    assert abs(reg.height_offset - h0) <= 1e-10 * abs(h0)
    assert reg.max_radius_rel_err < 1e-12
    assert reg.spacing_rel_err < 1e-12


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_registration_radius_is_the_radius_error(sigma):
    # slice 2 scaled about its circle's centre by 1 + 1e-6: the height
    # residuals carried to the radius at first order must give the radius
    # error at the fitted (s, h0), taken exactly by brentq on the
    # quadrature height, to 1e-4 of itself (first order leaves ~1e-6)
    hs, pts = _registration_slices(sigma, _piece(sigma))
    center = mesh.level_circle_fit(pts[2:3])[0].center
    pts[2] = pts[2].copy()
    pts[2][:, :2] = center + (1.0 + 1e-6) * (pts[2][:, :2] - center)
    reg = checks.registration_error(sigma, hs, pts)
    cl = _quadrature_params(sigma)
    s, h0 = reg.scale, reg.height_offset
    exact = s * np.array([_quadrature_radius(cl, abs(h - h0) / s)
                          for h in reg.heights])
    want = np.max(np.abs(reg.radii - exact) / reg.radii)
    assert 5e-7 < want < 1e-6
    assert abs(reg.max_radius_rel_err - want) <= 1e-4 * want


def test_foliation_residuals_builds_the_edge_set_once(monkeypatch):
    calls = []
    unique = mesh._unique

    def counting_unique(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    # slicing the piece at foliation's 10 heights, refining them and
    # fitting the cell's circles builds one edge set, the piece's
    piece = _piece(2.0)
    cell = _cell(2.0, copies=1, piece=piece)
    monkeypatch.setattr(mesh, "_unique", counting_unique)
    rels, _ = checks.foliation_residuals(
        2.0, cell, *_foliation_slices(2.0, piece, cell))
    assert len(rels) == 10
    assert len(calls) == 1


def test_slice_checks_refine_all_heights_in_one_call(monkeypatch):
    calls = []
    refine = mesh.refine_slice

    def counting(m, heights, *args):
        calls.append((m, len(heights)))
        calls.append(refine(m, heights, *args))
        return calls[-1]

    monkeypatch.setattr(mesh, "refine_slice", counting)
    # at sigma 1e3 only 5 of the 12 candidates cross 8 edges of the piece
    for sigma, n_reg in ((1e-3, 6), (2.78, 6), (1e3, 5)):
        piece = _piece(sigma)
        cell = _cell(sigma, piece=piece)
        # each set refined alone, in its own call on the piece
        del calls[:]
        reg_hs, reg_pts = _registration_slices(sigma, piece)
        fol_hs, circles = _foliation_slices(sigma, piece, cell)
        assert calls[0] == (piece, n_reg) and calls[2] == (piece, 10)
        fol_pts = calls[3]
        reg = checks.registration_error(sigma, reg_hs, reg_pts)
        rels, kinds = checks.foliation_residuals(sigma, cell, fol_hs,
                                                 circles)
        # together, in one call on the piece, registration's heights
        # first, to the same bits
        del calls[:]
        reg2, (rels2, kinds2) = checks.slice_checks(piece)
        assert len(calls) == 2 and calls[0] == (piece, n_reg + 10)
        for got, want in zip(calls[1], reg_pts + fol_pts, strict=True):
            assert got.tobytes() == want.tobytes()
        for name in ("scale", "height_offset", "max_radius_rel_err",
                     "spacing_rel_err", "radii", "heights"):
            assert np.array_equal(getattr(reg2, name), getattr(reg, name))
        assert np.array_equal(rels2, rels) and kinds2 == kinds


@pytest.mark.parametrize("sigma", [1e-3, 0.05, 2.0, 8.0, 100.0, 1e3])
def test_foliation_circles_are_the_orbit_of_the_piece(sigma, monkeypatch):
    # each circle point lies on its height, and its mirror x2 -> -x2 is a
    # point of the same circle; every circle has at least the 28 points
    # (24 at sigma 1e3) it had when the cell itself was refined
    seen = []
    foliation = checks.foliation_residuals

    def recording(sigma, cell, heights, points):
        seen.append((heights, points))
        return foliation(sigma, cell, heights, points)

    monkeypatch.setattr(checks, "foliation_residuals", recording)
    checks.slice_checks(_piece(sigma))
    (heights, circles), = seen
    assert np.array_equal(heights, _foliation_heights(sigma))
    for h, pts in zip(heights, circles, strict=True):
        assert len(pts) >= (24 if sigma == 1e3 else 28)
        assert np.max(np.abs(pts[:, 2] - h)) <= 1e-12 * max(1.0, abs(h))
        mirror = pts * [1.0, -1.0, 1.0]
        gap = np.abs(mirror[:, None] - pts[None]).max(axis=2).min(axis=1)
        assert np.all(gap == 0.0)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_stacked_circle_fit_matches_one_slice_fits(sigma, monkeypatch):
    # verify's slices, as slice_checks hands them to the fit: one call for
    # registration's slices, one for foliation's 10 circles and its two
    # line slices; each fit against the one-slice reference
    batches = []
    fit = mesh.level_circle_fit

    def recording(slices):
        batches.append(list(slices))
        return fit(batches[-1])

    monkeypatch.setattr(mesh, "level_circle_fit", recording)
    checks.slice_checks(_piece(sigma))
    assert [len(b) for b in batches] == [5 if sigma == 1e3 else 6, 12]
    for batch in batches:
        for got, pts in zip(fit(batch), batch, strict=True):
            want = scalar.level_circle_fit(pts)
            assert got.kind == want.kind
            if want.kind == "circle":
                r = want.radius
                assert abs(got.radius - r) <= 1e-15 * r
                # the centre's rounding is relative to its own size
                assert np.max(np.abs(got.center - want.center)) <= 1e-15 * (
                    r + np.max(np.abs(want.center)))
                # the residual is the fitted circle's own: a distance from
                # the centre, it cannot agree closer than the centres do
                dist = np.linalg.norm(pts[:, :2] - got.center, axis=1)
                assert abs(got.residual
                           - np.max(np.abs(dist - got.radius))) <= 1e-15 * r
            else:
                # the centroid keeps its bits; the direction has a sign
                assert np.array_equal(got.center, want.center)
                assert got.radius == math.inf and got.residual <= 1e-12
                assert abs(abs(got.direction @ want.direction) - 1.0) <= 1e-15
    assert [f.kind for f in fit(batches[1])[-2:]] == ["line", "line"]


def test_fits_reject_heights_and_points_of_different_lengths():
    piece = _piece(2.0)
    cell = _cell(2.0, piece=piece)
    hs, pts = _registration_slices(2.0, piece)
    assert len(checks.registration_error(2.0, hs, pts).radii) == len(hs)
    for bad in ((hs, pts[:-1]), (hs[:-1], pts)):
        with pytest.raises(ValueError):
            checks.registration_error(2.0, *bad)
    hs, pts = _foliation_slices(2.0, piece, cell)
    assert len(checks.foliation_residuals(2.0, cell, hs, pts)[0]) == 10
    for bad in ((hs, pts[:-1]), (hs[:-1], pts)):
        with pytest.raises(ValueError):
            checks.foliation_residuals(2.0, cell, *bad)


def test_translation_half_is_computed_once(monkeypatch):
    # t0 is a closed form: no quadrature panel runs, and every call
    # returns a new array
    surf = mesh.FundamentalSurface(2.0)
    calls = []
    panel = quad._gk_panel

    def counting(*args):
        calls.append(1)
        return panel(*args)

    monkeypatch.setattr(quad, "_gk_panel", counting)
    surf.translation_half()[:] = 0.0
    assert np.all(surf.translation_half()[[0, 2]] != 0.0)
    assert calls == []


def test_slice_fit_error_is_a_package_error(monkeypatch):
    assert issubclass(checks.SliceFitError, RiemannMinimalError)
    # a 2x3 grid has 9 edges: no height crosses 8 of them
    piece = _piece(1.0, 2, 3)
    with pytest.raises(checks.SliceFitError, match="given piece"):
        checks.slice_checks(piece)


def test_slice_checks_takes_only_a_sampled_piece():
    # the piece records the sigma of its curve; its cell and a hand-built
    # mesh of its arrays record none
    piece = _piece(2.0)
    for m in (_cell(2.0, piece=piece),
              mesh.TriMesh(piece.vertices, piece.normals, piece.faces)):
        assert m.domain_sigma is None
        with pytest.raises(ValueError, match="sample_fundamental"):
            checks.slice_checks(m)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_registration_slices_until_it_has_its_heights(sigma, monkeypatch):
    # slice_checks keeps for registration the first 6 candidates that
    # cross 8 or more edges of the piece by slice_mesh's count (at sigma
    # 1e3 only 5 of the 12 do); one slice_mesh call on the piece gives the
    # records of all 12 and of foliation's 10 heights, and the cell is
    # never sliced
    m = _piece(sigma)
    candidates = _candidates(sigma)
    covered = [i for i, h in enumerate(candidates)
               if len(mesh.slice_mesh(m, [h])[0]) >= 8][:6]
    calls = []
    slice_mesh = mesh.slice_mesh

    def counting(m, heights):
        calls.append((m, heights))
        return slice_mesh(m, heights)

    monkeypatch.setattr(mesh, "slice_mesh", counting)
    reg, _ = checks.slice_checks(m)
    assert np.array_equal(reg.heights, candidates[covered])
    assert len(calls) == 1 and calls[0][0] is m
    assert np.array_equal(calls[0][1], np.concatenate(
        [candidates, _foliation_heights(sigma)]))
    assert (len(covered) == 6) == (sigma != 1e3)


@pytest.mark.parametrize("sigma", [0.0167, 0.35938, 2.0, 8.0, 1e3])
def test_classical_fd_grid_matches_the_per_point_loop(sigma, monkeypatch):
    lam = (sigma - 1.0) / math.sqrt(sigma)
    calls = {}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    expect = scalar.classical_fd_grid(lam, nq=10, nv=10)
    for mod, name in ((classical, "center_offset"), (classical, "height"),
                      (quad, "_gk_panel"), (checks, "fd_surface_checks")):
        monkeypatch.setattr(mod, name, count(name, getattr(mod, name)))
    got = checks.classical_fd_grid(lam, nq=10, nv=10)
    # one batch: no increment misses the one-panel tolerance here, and the
    # stencil, relative to its centre, needs no closed-form base value
    assert calls == {"_gk_panel": 1, "fd_surface_checks": 1}
    # the defects agree to ~1 ulp (measured at most 5e-16 relative).  |H|
    # (4e-8 to 1.3e-6 here, truncation) divides the increments' rounding
    # by h^2: it differs with the one-panel and the adaptive increments,
    # which agree to ~2 ulps, by at most 6.0e-11 (sigma 0.0167)
    np.testing.assert_allclose(got[1:], expect[1:], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got[0], expect[0], rtol=0.0, atol=1e-10)


def test_classical_fd_grid_raises_on_a_missed_panel():
    # h = 0.05 at lambda 0: [q - h, q] of the first q starts 0.02 above the
    # neck q1 = 1, where one panel misses the tolerance of dz/dq ~ 1/sqrt(u - 1)
    with pytest.raises(quad.QuadError, match=r"error .* > tol"):
        checks.classical_fd_grid(0.0, nq=5, nv=6, h=0.05)


@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 1.0, 1e2, 1e4])
def test_classical_fd_grid_panels_meet_the_tolerance(sigma):
    # one panel per increment suffices across the family at h = 1e-4
    lam = (sigma - 1.0) / math.sqrt(sigma)
    H, conf, orth = checks.classical_fd_grid(lam, nq=10, nv=10)
    assert all(np.isfinite([H, conf, orth]))


def test_catenoid_residual_carlson_form():
    # the Carlson form of the a = 0 height against its arcsinh closed form
    assert checks.catenoid_residual() < 1e-14


def test_weierstrass_fd_grid_matches_the_per_anchor_loop():
    X, hk = checks._weierstrass_stencil(2.0, 4, 1e-4, checks._STENCIL)
    worst = np.zeros(3)
    for x, h in zip(X, hk):
        vals = {(0, 0): np.zeros(3), **dict(zip(checks._STENCIL, x))}
        worst = np.maximum(worst, checks.fd_surface_checks(
            lambda i, j: vals[(i, j)], h))
    assert list(checks.weierstrass_fd_grid(2.0, n_side=4)) == list(worst)
