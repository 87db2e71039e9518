"""Quadrature route for the classical integrals, kept as a second
evaluation that the closed forms in ``riemann_minimal.classical`` are
pinned against.

* :func:`_adaptive` -- globally adaptive G7/K15 over a list of segments,
  built on ``quad._gk_panel`` and held to ``quad``'s tolerance constants.
* :func:`integrate_sqrt_singular` -- real integral whose integrand blows up
  like (u - a)^(-1/2) at the lower endpoint.  The substitution u = a + s^2
  removes the singularity exactly, so no endpoint tricks are needed.

The height and center integrals are split at Q = max(4, 2 q1 + 2): the
sqrt-singular head over [q1, Q] goes through the u = q1 + s^2 substitution
and the body through adaptive G7/K15; the slab height adds an improper
u^(-3/2) tail mapped to (0, 1].
"""

import heapq
import itertools

import numpy as np

import curve_quadrature as kernel
from curve_quadrature import NonFinite, SubdivisionLimit
from riemann_minimal import quad
from riemann_minimal.classical import DomainError, q_min, radicand
from riemann_minimal.quad import QuadError


def _adaptive(f, segments):
    """Globally adaptive G7/K15 over a list of straight segments.

    ``f`` maps an ndarray of parameter points to values (vectorized).
    Worst-interval bisection with a deterministic heap; the accepted
    result satisfies sum(err) <= max(quad.ABS_TOL, quad.REL_TOL |result|),
    within curve_quadrature.MAX_SUBDIVISIONS bisections.
    """
    heap, ids, total, total_err = [], itertools.count(), 0.0, 0.0
    for (a, b) in segments:
        k, err, ok = quad._gk_panel(f, a, b)
        if not ok:
            raise NonFinite("integrand not finite on the path")
        total, total_err = total + k, total_err + err
        heapq.heappush(heap, (-err, next(ids), a, b, k))
    splits = 0
    while True:
        tol = max(quad.ABS_TOL,
                  quad.REL_TOL * float(np.max(np.abs(np.atleast_1d(total)))))
        if total_err <= tol:
            break
        if splits >= kernel.MAX_SUBDIVISIONS:
            raise SubdivisionLimit(
                f"error {total_err:.3e} > tol {tol:.3e} after "
                f"{splits} subdivisions")
        neg_err, _, a, b, k_old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        kl, el, okl = quad._gk_panel(f, a, mid)
        kr, er, okr = quad._gk_panel(f, mid, b)
        if not (okl and okr):
            raise NonFinite("integrand not finite on the path")
        total = total - k_old + kl + kr
        total_err += el + er + neg_err  # neg_err = -old error
        heapq.heappush(heap, (-el, next(ids), a, mid, kl))
        heapq.heappush(heap, (-er, next(ids), mid, b, kr))
        splits += 1
    return total, total_err


def integrate_sqrt_singular(f, a: float, b: float) -> float:
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

    total, _ = _adaptive(g, [(0.0, smax)])
    return float(np.real(total))


class Divergent(QuadError):
    """Declared decay exponent does not give a convergent tail."""


def integrate_tail(f, a, p, substitution="auto"):
    """Integral of f over [a, infinity), f(u)*u^p bounded, p > 1.

    ``substitution`` selects the compactifying change of variables:
    "inverse" (u = a/v) or "inverse_square" (u = a/v^2).  The default picks
    u = a/v^2 for slowly decaying tails (p < 2.5), which turns the
    u^(-3/2) tails of the slab-height integrals into smooth integrands.
    """
    if p <= 1:
        raise Divergent(f"decay exponent p={p} <= 1")
    if a <= 0:
        raise ValueError("tail integrals need a > 0")
    if substitution == "auto":
        substitution = "inverse_square" if p < 2.5 else "inverse"
    # clamp v away from 0 so u = a/v^k (and u^3 downstream) stays finite;
    # the clamped sliver contributes O(1e-40^(p-1)) at most
    v_floor = 1e-40
    if substitution == "inverse":
        def g(v):
            ve = np.maximum(v, v_floor)
            return np.asarray(f(a / ve)) * a / (ve * ve)
    elif substitution == "inverse_square":
        def g(v):
            ve = np.maximum(v, v_floor)
            return np.asarray(f(a / (ve * ve))) * 2.0 * a / (ve * ve * ve)
    else:
        raise ValueError(f"unknown substitution {substitution!r}")
    total, _ = _adaptive(g, [(0.0, 1.0)])
    return float(np.real(total))


def _split_point(lam):
    return max(4.0, 2.0 * q_min(lam) + 2.0)


def _integral(params, q, f):
    if q < params.q1 - 1e-12:
        raise DomainError(f"q = {q} below q1 = {params.q1}")
    q = max(q, params.q1)
    if q == params.q1:
        return 0.0
    Q = _split_point(params.lam)
    if q <= Q:
        return integrate_sqrt_singular(f, params.q1, q)
    head = integrate_sqrt_singular(f, params.q1, Q)
    body, _ = _adaptive(f, [(Q, q)])
    return head + float(np.real(body))


def height(params, q):
    """z_lambda(q) by quadrature."""
    return _integral(params, q,
                     lambda u: 0.5 / np.sqrt(radicand(params.lam, u)))


def center_offset(params, q):
    """f_lambda(q) by quadrature."""
    return _integral(params, q,
                     lambda u: -0.5 * u / np.sqrt(radicand(params.lam, u)))


def slab_height(lam):
    """zeta(lambda) by quadrature: sqrt-singular head plus u^(-3/2) tail."""
    q1 = q_min(lam)
    Q = _split_point(lam)
    f = lambda u: 0.5 / np.sqrt(radicand(lam, u))
    return (integrate_sqrt_singular(f, q1, Q)
            + integrate_tail(f, Q, 1.5))
