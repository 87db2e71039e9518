"""Gauss-Kronrod quadrature kernel and its tolerances.

:func:`_gk_panel` evaluates one G7/K15 panel on each of a batch of straight
segments.  It is the package's only quadrature: the Weierstrass integrals
(``curve._integrate_segments``) bisect their segments around it, inside
the batch, and the classical FD oracle (``checks.classical_fd_grid``)
takes one panel per increment.  The classical height and center integrals
need no quadrature: ``classical`` evaluates them in Carlson's closed forms,
and ``checks.catenoid_residual`` compares the a = 0 height in that form,
sqrt(q - 1/lambda) R_F(lambda q, 1, 1), with the arcsinh formula.

A segment's integral is accepted once the sum of |K15 - G7| over its
panels is at most max(ABS_TOL, REL_TOL |integral|); more than
MAX_SUBDIVISIONS bisections of one segment, or a leaf whose split point
rounds onto one of its ends, raise SubdivisionLimit.  The
constants leave two to four digits of slack below every tolerance the
library asserts against (1e-6 .. 1e-8).  Callers read them as
``quad.ABS_TOL`` at call time, so rebinding one changes every later call.

Pure functions of their inputs, safe to call concurrently; double
precision throughout.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RiemannMinimalError",
    "QuadError",
    "SubdivisionLimit",
    "NonFinite",
    "ABS_TOL",
    "REL_TOL",
    "MAX_SUBDIVISIONS",
]

ABS_TOL = 1e-10
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2000


class RiemannMinimalError(Exception):
    """Base class of every numeric failure the package raises.

    Defined here because every module imports ``quad``; the CLI maps this
    class, and only this class, to its numeric-failure exit code.
    """


class QuadError(RiemannMinimalError):
    """Base class for quadrature failures."""


class SubdivisionLimit(QuadError):
    """Bisection exceeded the subdivision budget."""


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
