"""Gauss-Kronrod panels and their tolerances.

:func:`_gk_panel` evaluates one G7/K15 panel on each of a batch of straight
segments.  It is the package's only quadrature, and it runs no adaptive
subdivision: :func:`panel_increments` takes one panel per segment and
holds each to max(ABS_TOL, REL_TOL |increment|), for the short increments
of the two finite-difference stencils (``checks.classical_fd_grid`` and
the Weierstrass stencil ``checks._weierstrass_stencil``).  The loop
periods are trapezoidal sums (``curve.period``), and the classical height
and center integrals need no quadrature: ``classical`` evaluates them in
Carlson's closed forms.

The constants leave two to four digits of slack below every tolerance the
library asserts against (1e-6 .. 1e-8).  Callers read them as
``quad.ABS_TOL`` at call time, so rebinding one changes every later call.

``RiemannMinimalError``, the base of ``QuadError``, lives in
:mod:`riemann_minimal.errors`; it is imported back here, so
``quad.RiemannMinimalError`` still names it.

Pure functions of their inputs, safe to call concurrently; double
precision throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import RiemannMinimalError

__all__ = [
    "RiemannMinimalError",
    "QuadError",
    "ABS_TOL",
    "REL_TOL",
    "panel_increments",
]

ABS_TOL = 1e-10
REL_TOL = 1e-10


class QuadError(RiemannMinimalError):
    """A quadrature panel is not finite or misses its tolerance."""


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
        # S + values + (15,); a plain swap, as values has at most one axis
        vals = np.asarray(f(zs)).swapaxes(a.ndim, -1)
        per_segment = tuple(range(a.ndim, vals.ndim))
        half = half.reshape(half.shape + (1,) * (len(per_segment) - 1))
        k = (vals @ _WK) * half
        err = np.abs(k - (vals[..., _GAUSS_IDX] @ _WG) * half).max(
            axis=per_segment[:-1])
    return k, err, np.isfinite(vals).all(axis=per_segment)


def panel_increments(f, a, b):
    """The Kronrod values of one G7/K15 panel on each segment a -> b, as
    :func:`_gk_panel` takes them (its call goes through the module
    attribute).  Raises QuadError if a panel has a value that is not
    finite or its |K15 - G7| exceeds max(ABS_TOL, REL_TOL |increment|),
    |increment| being the largest magnitude over the components.
    """
    inc, err, ok = _gk_panel(f, a, b)
    size = np.abs(inc).reshape(err.shape + (-1,)).max(axis=-1)
    tol = np.maximum(ABS_TOL, REL_TOL * size)
    miss = ~(ok & (err <= tol))
    if miss.any():
        i = np.unravel_index(np.argmax(miss), miss.shape)
        a, b = np.broadcast_arrays(a, b)
        raise QuadError(
            f"increment panel [{a[i]:.6g}, {b[i]:.6g}] misses its tolerance: "
            f"error {err[i]:.3e} > tol {tol[i]:.3e}")
    return inc
