"""Riemann's minimal examples, built two independent ways and cross-checked.

Modules, each imported on use (``import riemann_minimal`` loads none of
them, and ``riemann_minimal.mesh`` imports ``mesh`` when first read):

* :mod:`riemann_minimal.errors` -- ``RiemannMinimalError``, the base class
  of every numeric failure the package raises.
* :mod:`riemann_minimal.quad` -- the G7/K15 panel and its tolerance
  constants.
* :mod:`riemann_minimal.curve` -- the elliptic curve w^2 = z(z-1)(z+sigma),
  Weierstrass data, the immersion in closed form, periods and flux by the
  trapezoidal rule, symmetries.
* :mod:`riemann_minimal.classical` -- the classical construction (radius
  ODE, height/center integrals in Carlson's closed forms, the catenoid's
  arcsinh form, Enneper coefficients).
* :mod:`riemann_minimal.hierarchy` -- the KdV hierarchy as exact
  differential polynomials, in ``Fraction`` arithmetic without numpy.
* :mod:`riemann_minimal.shiffkdv` -- Shiffman function, Jacobi operator,
  jets, Miura transformation, the hierarchy's flows on jets.
* :mod:`riemann_minimal.mesh` -- fundamental-piece sampling, the four-step
  reflection/translation extension, circle fitting, OBJ/PLY export.
* :mod:`riemann_minimal.checks` -- finite-difference oracles and the
  classical/Weierstrass registration used for verification.
* :mod:`riemann_minimal.cli` -- the `riemann-minimal` command (gen, verify,
  kdv), which imports each subcommand's modules when it runs.
"""

__version__ = "0.1.0"

_MODULES = {"checks", "classical", "cli", "curve", "errors", "hierarchy",
            "mesh", "quad", "shiffkdv"}


def __getattr__(name):
    if name in _MODULES:
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
