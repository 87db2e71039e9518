"""One-point-at-a-time versions of the batched verify paths, kept as the
references that the batched code in ``riemann_minimal`` is pinned against.

* :func:`random_regular_points` -- the rejection loop that draws one
  candidate at a time from the Generator: two uniforms (r, theta), then one
  ``integers(0, 2)`` sign per accepted point.
* :func:`classical_fd_grid` -- one :func:`checks.fd_surface_checks` call per
  (q, v) pair, with two scalar ``_adaptive`` increments per q.
* :func:`classical_slice_points` -- one ``parameterize`` call per v, with
  ``math.cos`` and ``math.sin``.
"""

import math

import numpy as np

from riemann_minimal import checks, classical, curve
from riemann_minimal.curve import CurvePoint
from riemann_minimal.quad import _adaptive


def random_regular_points(params, n, rng, r_min=None, r_max=None,
                          stats=None):
    """``stats``, if given, is a dict that gets the candidate count."""
    scale = 0.5 * (1.0 + params.sigma)
    r_lo = 0.15 * scale if r_min is None else r_min
    r_hi = 1.6 * scale if r_max is None else r_max
    clear = 2.0 * curve.default_clearance(params)
    pts = []
    bps = curve.branch_points(params)
    candidates = 0
    while len(pts) < n:
        candidates += 1
        r = rng.uniform(r_lo, r_hi)
        th = rng.uniform(0.0, 2.0 * math.pi)
        z = r * np.exp(1j * th)
        if min(abs(z - bp) for bp in bps) < clear:
            continue
        w = np.sqrt(complex(curve.curve_poly(params, z)))
        if rng.integers(0, 2):
            w = -w
        pts.append(CurvePoint(complex(z), complex(w)))
    if stats is not None:
        stats["candidates"] = candidates
    return pts


def classical_fd_grid(lam, nq=20, nv=20, h=1e-4, settings=None):
    params = classical.RiemannParams.from_lambda(lam)
    q1 = params.q1
    qs = np.linspace(q1 * 1.05 + 0.02, q1 + 3.0, nq)
    vs = np.linspace(0.0, 2 * math.pi, nv, endpoint=False)
    worst_H = worst_conf = worst_orth = 0.0
    for q in qs:
        f0 = classical.center_offset(params, q)
        z0 = classical.height(params, q)

        def increment(a, b):
            df, _ = _adaptive(
                lambda u: -0.5 * u / np.sqrt(classical.radicand(lam, u)),
                [(a, b)], settings)
            dz, _ = _adaptive(
                lambda u: 0.5 / np.sqrt(classical.radicand(lam, u)),
                [(a, b)], settings)
            return float(np.real(df)), float(np.real(dz))

        dfp, dzp = increment(q, q + h)
        dfm, dzm = increment(q - h, q)
        fz = {-1: (f0 - dfm, z0 - dzm), 0: (f0, z0), 1: (f0 + dfp, z0 + dzp)}
        for v in vs:
            def sample(i, j, q=q, v=v):
                fq, zq = fz[i]
                rq = math.sqrt(q + i * h)
                return np.array([fq + rq * math.cos(v + j * h),
                                 rq * math.sin(v + j * h), zq])
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
