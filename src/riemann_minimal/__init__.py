"""Riemann's minimal examples, built two independent ways and cross-checked.

Subpackages:

* :mod:`riemann_minimal.quad` -- the G7/K15 panel, its tolerance
  constants, and ``RiemannMinimalError``, the base class of every numeric
  failure the package raises.
* :mod:`riemann_minimal.curve` -- the elliptic curve w^2 = z(z-1)(z+sigma),
  Weierstrass data, the immersion in closed form, periods and flux by the
  trapezoidal rule, symmetries.
* :mod:`riemann_minimal.classical` -- the classical construction (radius
  ODE, height/center integrals in Carlson's closed forms, the catenoid's
  arcsinh form, Enneper coefficients).
* :mod:`riemann_minimal.shiffkdv` -- Shiffman function, Jacobi operator,
  jets, Miura transformation, the KdV hierarchy as exact differential
  polynomials.
* :mod:`riemann_minimal.mesh` -- fundamental-piece sampling, the four-step
  reflection/translation extension, circle fitting, OBJ/PLY export.
* :mod:`riemann_minimal.checks` -- finite-difference oracles and the
  classical/Weierstrass registration used for verification.
* :mod:`riemann_minimal.cli` -- the `riemann-minimal` command (gen, verify,
  kdv).
"""

__version__ = "0.1.0"

from . import checks, classical, curve, mesh, quad, shiffkdv  # noqa: F401
