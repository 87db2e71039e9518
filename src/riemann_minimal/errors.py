"""The base class of the package's numeric failures.

A module of its own, with no import, so that every other module can
import it and the command line can catch it without loading numpy.
"""

__all__ = ["RiemannMinimalError"]


class RiemannMinimalError(Exception):
    """Base class of every numeric failure the package raises.

    The CLI maps this class, and only this class, to its numeric-failure
    exit code.
    """
