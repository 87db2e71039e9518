"""Quadrature route for the classical integrals, kept as a second
evaluation that the closed forms in ``riemann_minimal.classical`` are
pinned against.

The height and center integrals are split at Q = max(4, 2 q1 + 2): the
sqrt-singular head over [q1, Q] goes through the u = q1 + s^2 substitution
and the body through adaptive G7/K15; the slab height adds an improper
u^(-3/2) tail mapped to (0, 1].
"""

import numpy as np

from riemann_minimal.classical import DomainError, q_min, radicand
from riemann_minimal.quad import QuadError, _adaptive, integrate_sqrt_singular


class Divergent(QuadError):
    """Declared decay exponent does not give a convergent tail."""


def integrate_tail(f, a, p, settings=None, substitution="auto"):
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
    total, _ = _adaptive(g, [(0.0, 1.0)], settings)
    return float(np.real(total))


def _split_point(lam):
    return max(4.0, 2.0 * q_min(lam) + 2.0)


def _integral(params, q, f, settings):
    if q < params.q1 - 1e-12:
        raise DomainError(f"q = {q} below q1 = {params.q1}")
    q = max(q, params.q1)
    if q == params.q1:
        return 0.0
    Q = _split_point(params.lam)
    if q <= Q:
        return integrate_sqrt_singular(f, params.q1, q, settings)
    head = integrate_sqrt_singular(f, params.q1, Q, settings)
    body, _ = _adaptive(f, [(Q, q)], settings)
    return head + float(np.real(body))


def height(params, q, settings=None):
    """z_lambda(q) by quadrature."""
    return _integral(params, q,
                     lambda u: 0.5 / np.sqrt(radicand(params.lam, u)), settings)


def center_offset(params, q, settings=None):
    """f_lambda(q) by quadrature."""
    return _integral(params, q,
                     lambda u: -0.5 * u / np.sqrt(radicand(params.lam, u)),
                     settings)


def slab_height(lam, settings=None):
    """zeta(lambda) by quadrature: sqrt-singular head plus u^(-3/2) tail."""
    q1 = q_min(lam)
    Q = _split_point(lam)
    f = lambda u: 0.5 / np.sqrt(radicand(lam, u))
    return (integrate_sqrt_singular(f, q1, Q, settings)
            + integrate_tail(f, Q, 1.5, settings))
