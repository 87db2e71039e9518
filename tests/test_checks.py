import math

import mpmath
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


def _span(sigma):
    """t0_3, the height of the slab."""
    return mesh.FundamentalSurface(sigma).translation_half()[2]


def _registration_heights(sigma):
    """Registration's 6 evenly spaced heights."""
    return (0.14 + 0.72 * np.arange(6) / 11) * _span(sigma)


def _foliation_heights(sigma):
    """Foliation's 10 heights, symmetric about t0_3 / 2."""
    return (0.13 + 0.74 * np.arange(10) / 9.0) * _span(sigma)


def _in_planes(hs, pts):
    """Whole slices moved into their planes x3 = h, as slice_checks fits
    them."""
    pts = np.array(pts)
    pts[..., 2] = np.asarray(hs)[:, None]
    return pts


def _registration_slices(sigma):
    """Registration's heights and the first halves of their whole slices,
    in one refine_slice call."""
    hs = _registration_heights(sigma)
    return hs, list(_in_planes(hs, mesh.refine_slice(sigma, hs, 24))[:, :24])


def _foliation_slices(sigma):
    """Foliation's 10 heights, its circles there and its slices at the
    line heights 0 and t0_3, in one refine_slice call: each the first half
    of the whole slice at h plus op 1 (from mesh.extension_ops) of the
    second half of the whole slice at t0_3 - h."""
    hs = np.append(_foliation_heights(sigma), [0.0, _span(sigma)])
    whole = _in_planes(hs, mesh.refine_slice(sigma, hs, 24))
    op1 = mesh.extension_ops(sigma)[0]
    orbit = [np.concatenate([whole[j, :24], op1.apply(whole[k, 24:])])
             for j, k in enumerate([*range(9, -1, -1), 11, 10])]
    return hs[:10], orbit[:10], orbit[10:]


@pytest.mark.parametrize("sigma", [0.0167, 0.5, 2.78, 8.0])
def test_registration_fit_matches_least_squares(sigma):
    reg, *_ = checks.slice_checks(sigma)
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
    hs, pts = _registration_slices(sigma)
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


def test_slice_checks_refine_all_heights_in_one_call(monkeypatch):
    calls = []
    refine = mesh.refine_slice

    def counting(sigma, heights, n_points):
        calls.append((sigma, len(heights), n_points))
        calls.append(refine(sigma, heights, n_points))
        return calls[-1].copy()

    monkeypatch.setattr(mesh, "refine_slice", counting)
    for sigma in (1e-3, 2.78, 1e3):
        # each set refined alone, in its own call
        del calls[:]
        reg_hs, reg_pts = _registration_slices(sigma)
        fol_hs, circles, lines = _foliation_slices(sigma)
        assert calls[0] == (sigma, 6, 24) and calls[2] == (sigma, 12, 24)
        alone = np.concatenate([calls[1], calls[3]])
        reg = checks.registration_error(sigma, reg_hs, reg_pts)
        rels, kinds = checks.foliation_residuals(fol_hs, circles, lines)
        # together, in one call, registration's heights first, to the
        # same bits
        del calls[:]
        reg2, (rels2, kinds2), height_err = checks.slice_checks(sigma)
        assert len(calls) == 2 and calls[0] == (sigma, 18, 24)
        assert calls[1].tobytes() == alone.tobytes()
        for name in ("scale", "height_offset", "max_radius_rel_err",
                     "spacing_rel_err", "radii", "heights"):
            assert np.array_equal(getattr(reg2, name), getattr(reg, name))
        assert np.array_equal(rels2, rels) and kinds2 == kinds
        hs = np.concatenate([reg_hs, fol_hs, [0.0, _span(sigma)]])
        assert height_err == np.max(
            np.abs(calls[1][..., 2] - hs[:, None])) / _span(sigma)


@pytest.mark.parametrize("sigma", [1e-3, 0.05, 2.0, 8.0, 100.0, 1e3])
def test_foliation_circles_are_the_orbit_of_the_piece(sigma, monkeypatch):
    # each circle is the first half of the whole slice at h_j (refine_slice's
    # 24 points over the upper half-plane) in its plane x3 = h_j, plus op 1
    # of the second half (their mirror x2 -> -x2, op 2) of the whole slice
    # at h_(9-j) = t0_3 - h_j; the line slices pair 0 and t0_3 the same
    # way.  op 1, the half-turn that sends x3 to t0_3 - x3, carries point k
    # of a half onto point 23 - k of the same half at the partner height
    # (measured to 5.6e-13 t0_3 on the circles and 2.9e-12 t0_3 on the
    # lines over 25 sigmas in [1e-3, 1e3])
    seen = []
    foliation = checks.foliation_residuals

    def recording(heights, points, lines):
        seen.append((heights, points, lines))
        return foliation(heights, points, lines)

    monkeypatch.setattr(checks, "foliation_residuals", recording)
    checks.slice_checks(sigma)
    (heights, circles, lines), = seen
    assert np.array_equal(heights, _foliation_heights(sigma))
    span = _span(sigma)
    hs = np.append(heights, [0.0, span])
    whole = mesh.refine_slice(sigma, hs, 24)
    op1 = mesh.extension_ops(sigma)[0]
    for j, (h, pts) in enumerate(zip(hs, [*circles, *lines], strict=True)):
        k = 9 - j if j < 10 else 21 - j
        assert len(pts) == 48
        assert np.array_equal(pts[:24, :2], whole[j, :24, :2])
        assert np.all(pts[:24, 2] == h)
        turned = op1.apply(whole[k, 24:])
        assert np.array_equal(pts[24:, :2], turned[:, :2])
        assert np.max(np.abs(pts[24:, 2] - h)) <= 1e-12 * max(1.0, h)
        assert np.max(np.abs(turned[::-1, :2] - whole[j, 24:, :2])) \
            <= 1e-11 * span


def _exact_circle(pts):
    """The algebraic least-squares circle of a slice's (x, y), exactly:
    [2x, 2y, 1] . (cx, cy, c0) = x^2 + y^2 by its normal equations in
    mpmath at 50 digits.  Returns the centre, radius, centroid and
    principal direction (at atan2(2 Suv, Suu - Svv) / 2 of the centred
    points) as mpf."""
    with mpmath.workdps(50):
        x, y = ([mpmath.mpf(float(c)) for c in col] for col in pts[:, :2].T)
        a = mpmath.matrix([[2 * xi, 2 * yi, 1] for xi, yi in zip(x, y)])
        b = mpmath.matrix([xi * xi + yi * yi for xi, yi in zip(x, y)])
        cx, cy, c0 = mpmath.lu_solve(a.T * a, a.T * b)
        mx, my = mpmath.fsum(x) / len(x), mpmath.fsum(y) / len(y)
        u, v = [xi - mx for xi in x], [yi - my for yi in y]
        theta = mpmath.atan2(
            2 * mpmath.fsum(ui * vi for ui, vi in zip(u, v)),
            mpmath.fsum(ui * ui - vi * vi for ui, vi in zip(u, v))) / 2
        return ((cx, cy), mpmath.sqrt(c0 + cx * cx + cy * cy), (mx, my),
                (mpmath.cos(theta), mpmath.sin(theta)))


def _bits(fit):
    direction = None if fit.direction is None else fit.direction.tobytes()
    return (fit.kind, fit.center.tobytes(), fit.radius.hex(),
            fit.residual.hex(), direction)


def _err(got, want):
    """max |got - want| over the components, in float."""
    return float(max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want)))


@pytest.mark.parametrize("sigma", [1e-3, 0.0042, 2.0, 1e3])
def test_stacked_circle_fit_is_the_exact_circle(sigma, monkeypatch):
    # verify's slices, as slice_checks hands them to the fit: one call for
    # registration's slices, one for foliation's 10 circles and its two
    # line slices; each fit against the exact least-squares circle, and
    # with the same bits alone as in its batch and in a ragged batch
    batches = []
    fit = mesh.level_circle_fit

    def recording(slices):
        batches.append(list(slices))
        return fit(batches[-1])

    monkeypatch.setattr(mesh, "level_circle_fit", recording)
    checks.slice_checks(sigma)
    assert [len(b) for b in batches] == [6, 12]
    for batch in batches:
        for got, pts in zip(fit(batch), batch, strict=True):
            assert _bits(got) == _bits(fit([pts])[0])
            center, r, centroid, direction = _exact_circle(pts)
            if got.kind == "circle":
                assert _err([got.radius], [r]) <= 1e-15 * float(r)
                # the centre's rounding is relative to its own size
                scale = float(r) + float(max(abs(c) for c in center))
                assert _err(got.center, center) <= 1e-15 * scale
                # the residual is the fitted circle's own: a distance from
                # the centre, it cannot agree closer than the centres do
                dist = np.linalg.norm(pts[:, :2] - got.center, axis=1)
                assert abs(got.residual - np.max(np.abs(dist - got.radius))) \
                    <= 1e-15 * float(r)
            else:
                extent = np.max(np.abs(pts[:, :2]))
                assert _err(got.center, centroid) <= 1e-15 * extent
                # the direction has a sign
                sign = math.copysign(1.0, got.direction @ np.array(
                    direction, dtype=float))
                assert _err(sign * got.direction, direction) <= 1e-15
                assert got.radius == math.inf and got.residual <= 1e-12
    assert [f.kind for f in fit(batches[1])[-2:]] == ["line", "line"]
    # slices of several lengths, interleaved
    ragged = [p[:len(p) - k % 3] for k, p in enumerate(sum(batches, []))]
    assert len({len(p) for p in ragged}) == 6
    for got, pts in zip(fit(ragged), ragged, strict=True):
        assert _bits(got) == _bits(fit([pts])[0])


def test_fits_reject_heights_and_points_of_different_lengths():
    hs, pts = _registration_slices(2.0)
    assert len(checks.registration_error(2.0, hs, pts).radii) == len(hs)
    for bad in ((hs, pts[:-1]), (hs[:-1], pts)):
        with pytest.raises(ValueError):
            checks.registration_error(2.0, *bad)
    hs, pts, lines = _foliation_slices(2.0)
    assert len(checks.foliation_residuals(hs, pts, lines)[0]) == 10
    for bad in ((hs, pts[:-1]), (hs[:-1], pts)):
        with pytest.raises(ValueError):
            checks.foliation_residuals(*bad, lines)


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


def test_slice_fit_error_is_a_package_error():
    assert issubclass(checks.SliceFitError, RiemannMinimalError)
    # a line slice handed over as a circle
    hs, pts, lines = _foliation_slices(2.0)
    with pytest.raises(checks.SliceFitError, match="did not fit a circle"):
        checks.foliation_residuals(hs[:2], [pts[0], lines[0]], lines)


@pytest.mark.parametrize("sigma", [1e-3, 2.0, 1e3])
def test_registration_slices_until_it_has_its_heights(sigma, monkeypatch):
    # registration has all 6 of its heights at every sigma, the ends of
    # the range included: one refine_slice call takes them with
    # foliation's 10 and the two line heights, and no mesh is sliced
    calls = []
    refine = mesh.refine_slice

    def counting(sigma, heights, n_points):
        calls.append(heights)
        return refine(sigma, heights, n_points)

    def no_mesh(*args):
        raise AssertionError("slice_checks sliced a mesh")

    monkeypatch.setattr(mesh, "refine_slice", counting)
    monkeypatch.setattr(mesh, "slice_mesh", no_mesh)
    reg, *_ = checks.slice_checks(sigma)
    assert np.array_equal(reg.heights, _registration_heights(sigma))
    assert len(reg.radii) == 6
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate(
        [_registration_heights(sigma), _foliation_heights(sigma),
         [0.0, _span(sigma)]]))


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
    # the Carlson form of the a = 0 height, sqrt(q - 1/lambda)
    # R_F(lambda q, 1, 1), against its arcsinh closed form above the neck
    for lam in (0.5, 1.0, 2.0):
        q = np.linspace(1.0 / lam, 1.0 / lam + 6.0, 20)[1:]
        root = np.sqrt(q - 1.0 / lam)
        carlson = root * classical.carlson_rf(lam * q, 1.0, 1.0)
        arcsinh = [classical.catenoid_height(lam, x) for x in q]
        assert np.max(np.abs(carlson - arcsinh)) < 1e-14


def test_weierstrass_fd_grid_matches_the_per_anchor_loop():
    X, hk = checks._weierstrass_stencil(2.0, 4, 1e-4, checks._STENCIL)
    worst = np.zeros(3)
    for x, h in zip(X, hk):
        vals = {(0, 0): np.zeros(3), **dict(zip(checks._STENCIL, x))}
        worst = np.maximum(worst, checks.fd_surface_checks(
            lambda i, j: vals[(i, j)], h))
    assert list(checks.weierstrass_fd_grid(2.0, n_side=4)) == list(worst)
