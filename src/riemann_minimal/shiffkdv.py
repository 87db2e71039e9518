"""Shiffman function, Jacobi operator, and the KdV hierarchy.

In a conformal coordinate xi with height differential d(xi), the Shiffman
function of a minimal surface with Gauss map g is

    S = Im[ (3/2)(g'/g)^2 - g''/g - (g'/g)^2 / (1 + |g|^2) ],

a Jacobi function whose vanishing says the horizontal sections are circles
or lines.  Its complexification S + iS* feeds an evolution equation for g
(the Shiffman velocity), which the substitutions x = g'/g and
u = x'/2 - x^2/4 = -3(g')^2/(4g^2) + g''/(2g) carry to mKdV and KdV.

The KdV hierarchy's polynomials P_n in u, u', u'', ... (exact rational
coefficients, P_1 = u, P_2 = u'' + 3u^2) live in the numpy-free
:mod:`riemann_minimal.hierarchy`, whose names are imported back here;
the flows du/dt_n = -d/dz P_{n+1}(u) are evaluated here, on jets.

Jets (value plus derivative towers) are the working representation for g
and u: on the curve w^2 = z(z-1)(z+sigma) every derivative of g is an
exact polynomial in (g, g'), so the hierarchy can be evaluated without any
finite differencing.  A jet may carry a trailing point axis, so the
Shiffman check and the algebro-geometric fit each take all their sample
points (one ``curve.CurvePoint`` of arrays) in one array computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve as _curve
from .curve import CurveParams, PoleOfGaussMap, gaussian_curvature
from .errors import RiemannMinimalError
from .hierarchy import (MAX_HIERARCHY_LEVEL, DiffPoly, JetTooShort,  # noqa: F401
                        NotExactDerivative, hierarchy_P)

__all__ = [
    "GridTooSmall", "NotExactDerivative", "JetTooShort",
    "Jet", "DiffPoly",
    "level_curvature_raw", "shiffman", "shiffman_complex", "shiffman_velocity",
    "potential_u", "miura", "mkdv_flow",
    "hierarchy_P", "flow_n", "jacobi_residual",
    "algebro_geometric_residual", "AlgebroGeometricFit", "msigma_jet",
]


class GridTooSmall(RiemannMinimalError):
    pass


# ---------------------------------------------------------------------------
# jets


class Jet:
    """Value-plus-derivatives tower (f, f', ..., f^(k)) at a point.

    Arithmetic is exact truncated Leibniz calculus; the order of a product
    is the smaller of the factors' orders.  ``d(m)`` shifts by m
    derivatives (dropping order by m).  The values may carry trailing
    point axes, shape (k + 1, n) or (k + 1, nx, ny), one tower per point:
    arithmetic, :func:`potential_u`, :func:`flow_n` and :func:`shiffman`
    then act on every point at once.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim == 0 or len(self.values) == 0:
            raise ValueError("jet needs a nonempty value list")

    @property
    def order(self):
        return len(self.values) - 1

    def __getitem__(self, k):
        return self.values[k]

    def d(self, m=1):
        if self.order < m:
            raise JetTooShort(f"need order >= {m}, have {self.order}")
        return Jet(self.values[m:])

    def _coerce(self, other):
        """``other``, or the constant jet of the number ``other`` in this
        jet's shape."""
        if isinstance(other, Jet):
            return other
        v = np.zeros_like(self.values)
        v[0] = other
        return Jet(v)

    def __add__(self, other):
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet(self.values[:n + 1] + o.values[:n + 1])

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.values)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.values * complex(other))
        n = min(self.order, other.order)
        a, b = self.values, other.values
        return Jet([sum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1))
                    for k in range(n + 1)])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.values / complex(other))
        n = min(self.order, other.order)
        a, b = self.values, other.values
        if np.any(b[0] == 0):
            raise ZeroDivisionError("jet division by a jet with zero value")
        out = []
        for k in range(n + 1):
            s = a[k] - sum(math.comb(k, i) * out[i] * b[k - i] for i in range(k))
            out.append(s / b[0])
        return Jet(out)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def scale_domain(self, c):
        """Jet of xi -> f(c xi): multiplies the k-th entry by c^k."""
        return Jet(self.values * np.power(complex(c), np.arange(len(self.values))))

    def __repr__(self):
        return f"Jet({np.array2string(self.values, precision=6)})"


# ---------------------------------------------------------------------------
# Shiffman function and friends


def _require(j: Jet, order: int, who: str):
    if j.order < order:
        raise JetTooShort(f"{who} needs a jet of order >= {order}, got {j.order}")


def _check_g(j: Jet):
    g = j[0]
    bad = (g == 0) | ~np.isfinite(g)
    if bad.any():
        raise PoleOfGaussMap(f"g = {np.asarray(g)[bad].flat[0]}")


def level_curvature_raw(j: Jet):
    """Planar curvature bracket of the horizontal level section,
    |g|/(1+|g|^2) * Re(g'/g), exactly as displayed (convention note: at a
    catenoid neck this evaluates to 1/2 while a unit circle has curvature
    1; the factor is absorbed downstream by the Shiffman formula).

    A float for a jet at one point; for a jet with a trailing point axis,
    the array of values at every point, each with the one-point call's
    bits (hypot and float_power round as the scalar abs and ** 2 do).
    """
    _require(j, 1, "level_curvature_raw")
    _check_g(j)
    g, gp = j[0], j[1]
    abs_g = np.hypot(g.real, g.imag)
    k = np.asarray(abs_g / (1.0 + np.float_power(abs_g, 2.0))
                   * (gp / g).real)
    return float(k) if k.ndim == 0 else k


def _bracket(j: Jet) -> complex:
    _require(j, 2, "shiffman")
    _check_g(j)
    g, gp, gpp = j[0], j[1], j[2]
    lg = gp / g
    # _cmul, hypot and float_power round as the scalar *, abs and ** 2 do,
    # so a jet with a point axis gives each point the scalar bits
    abs_g2 = np.float_power(np.hypot(g.real, g.imag), 2.0)
    return (_curve._cmul(1.5 * lg, lg) - gpp / g
            - _curve._cmul(lg, lg) / (1.0 + abs_g2))


def shiffman(j: Jet):
    """S = Im[...bracket...]; zero iff the horizontal sections are circular.

    A float for a jet at one point; for a jet with a trailing point axis
    (see :class:`Jet`), the array of S at every point.  Raises
    PoleOfGaussMap if g is 0 or not finite at any point.
    """
    s = np.asarray(_bracket(j)).imag
    return float(s) if s.ndim == 0 else s


def shiffman_complex(j: Jet) -> complex:
    """S + i S* = -i * bracket  (so Re is S, Im is the conjugate function S*,
    which is minus the real part of the bracket)."""
    return -1j * _bracket(j)


def shiffman_velocity(j: Jet) -> Jet:
    """Deformation speed of g driven by the complex Shiffman function,
    (i/2)(g''' - 3 g' g''/g + (3/2)(g')^3/g^2), as a jet (value at [0]).
    Divided by g it is (i/2)(x'' - x^3/2) with x = g'/g, whose derivative
    is :func:`mkdv_flow` of x."""
    _require(j, 3, "shiffman_velocity")
    _check_g(j)
    gp = j.d(1)
    return 0.5j * (j.d(3) - 3.0 * gp * j.d(2) / j + 1.5 * gp * gp * gp / (j * j))


def potential_u(j: Jet) -> Jet:
    """KdV potential u = miura(g'/g) = -3(g')^2/(4g^2) + g''/(2g) as a jet:
    a g-jet of order m + 2 gives a u-jet of order m."""
    _check_g(j)
    _require(j, 2, "potential_u")
    return miura(j.d(1) / j)


def miura(x: Jet) -> Jet:
    """Miura transformation u = x'/2 - x^2/4."""
    _require(x, 1, "miura")
    return 0.5 * x.d(1) - 0.25 * (x * x)


def mkdv_flow(x: Jet) -> Jet:
    """dx/dt = (i/2)(x''' - (3/2) x^2 x') as a jet, from an x-jet of order
    >= 3.  Under it u = miura(x) moves by du/dt = -(i/2) flow_n(1, u)."""
    _require(x, 3, "mkdv_flow")
    return 0.5j * (x.d(3) - 1.5 * (x * x) * x.d(1))


def flow_n(n: int, j: Jet) -> complex:
    """du/dt_n = -d/dz P_{n+1}(u) evaluated on a u-jet of order >= 2n+1
    (at every point of a jet with a point axis)."""
    need = 2 * n + 1
    if j.order < need:
        raise JetTooShort(f"flow {n} needs jet order {need}, got {j.order}")
    return -hierarchy_P(n + 1).derivative().evaluate(j)


# ---------------------------------------------------------------------------
# the Jacobi operator


def jacobi_residual(g: Jet, fld: np.ndarray, spacing: float) -> float:
    """Max over interior nodes of |Lambda^-2 (5-point Laplacian) f - 2K f|.

    ``g`` is the jet (order >= 1) of the Gauss map on a grid of nodes
    xi = x + iy, ``spacing`` apart, in the conformal coordinate with
    phi3 = d(xi): its point axis is the (nx, ny) grid, x along the first
    axis.  Lambda = (|g| + 1/|g|)/2 (from ds = Lambda |d xi|).
    Second-order stencil: the residual of a true Jacobi function is
    discretization-limited and should shrink ~4x when the spacing halves.
    """
    shape = g.values.shape[1:]
    if len(shape) != 2 or min(shape) < 3:
        raise GridTooSmall(f"need at least a 3x3 grid, have shape {shape}")
    _require(g, 1, "jacobi_residual")
    fld = np.asarray(fld, dtype=float)
    if fld.shape != shape:
        raise ValueError("field shape does not match grid")
    if not np.all(np.isfinite(fld)):
        raise ValueError("field must be finite")
    f = fld[1:-1, 1:-1]
    lap = (fld[2:, 1:-1] + fld[:-2, 1:-1] + fld[1:-1, 2:] + fld[1:-1, :-2]
           - 4.0 * f) / spacing ** 2
    gi = g[0][1:-1, 1:-1]
    ag = np.abs(gi)
    K = gaussian_curvature(gi, g[1][1:-1, 1:-1])
    return float(np.max(np.abs(lap / (0.5 * (ag + 1.0 / ag)) ** 2 - 2.0 * K * f)))


# ---------------------------------------------------------------------------
# jets on the curve and the algebro-geometric test


def msigma_jet(params: CurveParams, pt, order: int) -> Jet:
    """Jet of the Gauss map of M_sigma at a regular curve point.

    Uses the exact derivative relations of the curve (g' = w/sqrt(sigma),
    the closed form for g'', and its repeated differentiation).  If
    ``pt.z`` and ``pt.w`` are arrays of n points, the jet carries a
    trailing point axis, values of shape (order + 1, n) (see
    :func:`curve.gauss_derivatives`).
    """
    return Jet(_curve.gauss_derivatives(params, pt, order))


# singular values of the KdV design matrix at or below this share of the
# largest count as zero; the flows' rounding residue, the second largest,
# reads at most 1.1e-12 at n = 2 and 1.6e-11 at n = 3 (13 log-spaced
# sigmas over [1e-3, 1e3]; 60 points, seed 7)
_KDV_RCOND = 1e-9


@dataclass(frozen=True)
class AlgebroGeometricFit:
    coefficients: np.ndarray
    residual: float
    rank_deficient: bool


def algebro_geometric_residual(params: CurveParams, n: int, samples) -> AlgebroGeometricFit:
    """Least-squares fit of flow_n against span{flow_0, ..., flow_{n-1}}.

    Builds one u-jet over the sample points (a :class:`curve.CurvePoint` of
    1-d arrays) from the curve's exact g-jets, evaluates each hierarchy flow
    once on all points, and reports the fitted coefficients and the
    relative residual ||defect|| / ||flow_n||.  A potential is
    algebro-geometric when the residual vanishes.  Constant potentials
    (all flows zero) and an empty sample report residual 0 by convention.
    Rank deficiency of the design matrix is reported, not raised: its rank
    counts the singular values above ``_KDV_RCOND`` times the largest, and
    a rank-deficient fit returns the minimum-norm coefficients.  On the
    curve every flow is a multiple of flow_0 up to rounding (the potential
    is stationary at level 1), so a fit at n >= 2 is rank-deficient.

    The level-1 coefficient is c = (1 - sigma)/2.  With s = sigma and
    v = 1/g, the curve gives (v')^2 = sqrt(s) v + (s-1) v^2 - sqrt(s) v^3
    and u = -(s-1)/4 + (sqrt(s)/2) v.  In u'' + 3u^2 = c u + d the v^2
    terms cancel and the v terms give c = -(s-1)/2; so flow_1 =
    -(u'' + 3u^2)' = -c u' = c flow_0.
    """
    if n < 1:
        raise ValueError("need n >= 1 (no lower-order flows below flow_0)")
    u = potential_u(msigma_jet(params, samples, 2 * n + 3))
    A = np.stack([flow_n(k, u) for k in range(n)], axis=-1)
    b = flow_n(n, u)
    nb = np.linalg.norm(b)
    if nb == 0 and np.linalg.norm(A) == 0:
        return AlgebroGeometricFit(np.zeros(n), 0.0, False)
    coef, _, rank, _ = np.linalg.lstsq(A, b, rcond=_KDV_RCOND)
    defect = A @ coef - b
    residual = float(np.linalg.norm(defect) / (nb if nb > 0 else 1.0))
    return AlgebroGeometricFit(coef, residual, rank < n)
