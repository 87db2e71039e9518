"""Gauss-Kronrod quadrature kernel and the path type.

* :func:`_gk_panel` -- one G7/K15 panel on each of a batch of straight
  segments; the Weierstrass integrals (``curve._integrate_segments``)
  bisect their segments around it, inside the batch.
* :func:`_adaptive` -- globally adaptive G7/K15 over a list of segments.
* :func:`integrate_sqrt_singular` -- real integral whose integrand blows up
  like (u - a)^(-1/2) at the lower endpoint.  The substitution u = a + s^2
  removes the singularity exactly, so no endpoint tricks are needed.

All are pure functions of their inputs and safe to call concurrently.
Double precision throughout; no oscillatory specializations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RiemannMinimalError",
    "QuadError",
    "SubdivisionLimit",
    "NonFinite",
    "QuadSettings",
    "ComplexPath",
    "integrate_sqrt_singular",
]


class RiemannMinimalError(Exception):
    """Base class of every numeric failure the package raises.

    Defined here because every module imports ``quad``; the CLI maps this
    class, and only this class, to its numeric-failure exit code.
    """


class QuadError(RiemannMinimalError):
    """Base class for quadrature failures."""


class SubdivisionLimit(QuadError):
    """Adaptive refinement exceeded the subdivision budget."""


class NonFinite(QuadError):
    """The integrand evaluated to nan or inf on the path."""


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  Nodes at odd
# indices are the embedded Gauss points.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_GAUSS_IDX = slice(1, 15, 2)


@dataclass(frozen=True)
class QuadSettings:
    """Tolerances and budget for the adaptive kernel.

    The defaults leave two to four digits of slack below every tolerance
    the library asserts against (1e-6 .. 1e-8).
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def _segment_distances(p, a, b):
    """Distance from each point p[i] to each segment a[j] -> b[j] (a[j] !=
    b[j]), shape (len(p), len(a)).  ``hypot`` and ``float_power`` round as
    Python's scalar ``abs`` and ``** 2`` do; numpy's complex ``abs`` and
    array ``** 2`` may differ in the last bit.
    """
    p = np.asarray(p, dtype=complex)[:, None]
    d = b - a
    t = ((p - a).real * d.real + (p - a).imag * d.imag) / np.float_power(
        np.hypot(d.real, d.imag), 2.0)
    q = p - (a + np.minimum(1.0, np.maximum(0.0, t)) * d)
    return np.hypot(q.real, q.imag)


@dataclass(frozen=True)
class ComplexPath:
    """Oriented polyline in the complex plane.

    ``clearance`` is the distance the path must keep from the branch points
    when ``curve.immerse`` integrates along it (0: the curve's default).
    """

    nodes: tuple
    clearance: float = 0.0

    def __init__(self, nodes, clearance=0.0):
        nodes = tuple(complex(z) for z in nodes)
        for a, b in zip(nodes[:-1], nodes[1:]):
            if a == b:
                raise ValueError("consecutive path nodes must be distinct")
        if clearance < 0:
            raise ValueError("clearance must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "clearance", float(clearance))


def _gk_panel(f, a, b):
    """One G7/K15 panel on each (complex or real) straight segment a -> b.

    ``a`` and ``b`` are scalars or arrays of segment ends of one shape S.
    ``f`` is evaluated vectorized on the mapped nodes, shape S + (15,), and
    may return shape S + (15,) or S + (15, m).  Returns (kronrod,
    error_estimate, values_finite): the Kronrod values (shape S or
    S + (m,)), the largest |K15 - G7| over the components and whether every
    value is finite (shape S each); the Kronrod value and error of a
    segment with non-finite values mean nothing.
    """
    a, b = np.asarray(a), np.asarray(b)
    half = 0.5 * (b - a)
    zs = (0.5 * (a + b))[..., None] + half[..., None] * _XK
    with np.errstate(all="ignore"):
        vals = np.moveaxis(np.asarray(f(zs)), a.ndim, -1)  # S + values + (15,)
        per_segment = tuple(range(a.ndim, vals.ndim))
        half = np.expand_dims(half, per_segment[:-1])
        k = (vals @ _WK) * half
        err = np.abs(k - (vals[..., _GAUSS_IDX] @ _WG) * half).max(
            axis=per_segment[:-1])
    return k, err, np.isfinite(vals).all(axis=per_segment)


def _adaptive(f, segments, settings):
    """Globally adaptive G7/K15 over a list of straight segments.

    ``f`` maps an ndarray of parameter points to values (vectorized).
    Worst-interval bisection with a deterministic heap; the accepted
    result satisfies sum(err) <= max(abs_tol, rel_tol*|result|).
    """
    if settings is None:
        settings = QuadSettings()
    heap, ids, total, total_err = [], itertools.count(), 0.0, 0.0
    for (a, b) in segments:
        k, err, ok = _gk_panel(f, a, b)
        if not ok:
            raise NonFinite("integrand not finite on the path")
        total, total_err = total + k, total_err + err
        heapq.heappush(heap, (-err, next(ids), a, b, k))
    splits = 0
    while True:
        tol = max(settings.abs_tol,
                  settings.rel_tol * float(np.max(np.abs(np.atleast_1d(total)))))
        if total_err <= tol:
            break
        if splits >= settings.max_subdivisions:
            raise SubdivisionLimit(
                f"error {total_err:.3e} > tol {tol:.3e} after "
                f"{splits} subdivisions")
        neg_err, _, a, b, k_old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        kl, el, okl = _gk_panel(f, a, mid)
        kr, er, okr = _gk_panel(f, mid, b)
        if not (okl and okr):
            raise NonFinite("integrand not finite on the path")
        total = total - k_old + kl + kr
        total_err += el + er + neg_err  # neg_err = -old error
        heapq.heappush(heap, (-el, next(ids), a, mid, kl))
        heapq.heappush(heap, (-er, next(ids), mid, b, kr))
        splits += 1
    return total, total_err


def integrate_sqrt_singular(f, a: float, b: float,
                            settings: QuadSettings | None = None) -> float:
    """Integral of f over [a, b] where f(u)*sqrt(u - a) extends smoothly.

    Uses u = a + s^2; the Kronrod nodes are interior, so f is never
    evaluated at the endpoint itself.
    """
    if not b > a:
        raise ValueError("need a < b")
    smax = np.sqrt(b - a)
    # below s_floor, a + s^2 rounds back to a; the substituted integrand is
    # smooth there, so clamping the evaluation point costs O(eps) only
    s_floor = np.sqrt(np.finfo(float).eps * (abs(a) + (b - a)))

    def g(s):
        se = np.maximum(s, s_floor)
        return 2.0 * s * np.asarray(f(a + se * se))

    total, _ = _adaptive(g, [(0.0, smax)], settings)
    return float(np.real(total))
