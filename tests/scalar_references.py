"""One-point-at-a-time versions of the batched verify paths, kept as the
references that the batched code in ``riemann_minimal`` is pinned against.

* :class:`WeierstrassForms` and :func:`weierstrass_at` -- g and the three
  form densities at one point, the scalar version of ``curve._phi_vector``.
* :func:`random_regular_points` -- the sampler's draw order taken one
  candidate at a time in scalar arithmetic: blocks of (r, theta) uniforms,
  then one ``integers(0, 2)`` sign per kept point.
* :func:`algebro_geometric_fit` -- the KdV fit with one g-jet, u-jet and
  set of flows per point.
* :func:`classical_fd_grid` -- one :func:`checks.fd_surface_checks` call per
  (q, v) pair, with two scalar ``_adaptive`` increments per q (the
  adaptive oracle of ``classical_quadrature``).
* :func:`classical_slice_points` -- one ``parameterize`` call per v, with
  ``math.cos`` and ``math.sin``.
* :func:`export_obj` -- the OBJ writer that formats every number with
  Python's ``%`` (``'%.9g'`` and ``%d``), one line template per chunk.

Run as a script, ``python tests/scalar_references.py SIGMA NRxNT COPIES
PATH`` writes the extended OBJ that ``gen`` would write (``--e 0.1``) with
:func:`export_obj`.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

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
        f0 = classical.center_offset(params, q)
        z0 = classical.height(params, q)

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


def _chunks(line, rows):
    """``rows`` as ASCII text in chunks of 2^15 rows, each one ``%`` format
    of a repeated line template."""
    for i in range(0, len(rows), 1 << 15):
        part = rows[i:i + (1 << 15)]
        yield (line * len(part) % tuple(part.ravel().tolist())).encode("ascii")


def export_obj(m, path):
    """``mesh.export_obj``'s file, every number formatted by ``%``: the
    ``v`` and ``vn`` lines copy by copy, then the ``f`` lines, copy k's
    faces being the cell's shifted by k times its vertex count.  Returns
    the byte count."""
    n = len(m.cell_vertices)
    nbytes = 0
    with open(path, "wb") as fh:
        for v, _ in m.iter_copies():
            nbytes += sum(map(fh.write, _chunks("v %.9g %.9g %.9g\n", v)))
        for _, nrm in m.iter_copies():
            nbytes += sum(map(fh.write, _chunks("vn %.9g %.9g %.9g\n", nrm)))
        for k in range(m.copies + 1):
            faces = np.repeat(m._cell_faces + (k * n + 1), 2, axis=1)
            nbytes += sum(map(fh.write,
                              _chunks("f %d//%d %d//%d %d//%d\n", faces)))
    return nbytes


def gen_extended(sigma, nr, nt, copies):
    """The extended mesh ``gen --sigma SIGMA --grid NRxNT --copies COPIES``
    builds."""
    fund = mesh.sample_fundamental(sigma, 0.1, nr, nt)
    return mesh.extend(fund, mesh.extension_ops(sigma), copies)


if __name__ == "__main__":
    sigma, grid, copies, out = sys.argv[1:]
    nr, nt = map(int, grid.split("x"))
    export_obj(gen_extended(float(sigma), nr, nt, int(copies)), out)
