"""The KdV hierarchy as exact formal differential polynomials.

:class:`DiffPoly` is a polynomial in u, u', u'', ... with exact rational
coefficients, and :func:`hierarchy_P` builds the Gelfand-Dickey
polynomials by the recursion

    d/dz P_{n+1} = (d^3/dz^3 + 4u d/dz + 2u') P_n,     P_0 = 1/2,

each antiderivative taken exactly with integration constant zero, so
P_1 = u and P_2 = u'' + 3u^2.  Everything here is ``Fraction`` arithmetic
from the standard library, and :class:`DiffPoly` is a plain class rather
than a dataclass (``dataclasses`` imports ``inspect``), so
``kdv --print-p`` loads neither numpy nor those modules; ``shiffkdv``
imports these names back and evaluates the polynomials on jets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import RiemannMinimalError

__all__ = [
    "NotExactDerivative", "JetTooShort", "DiffPoly", "MAX_HIERARCHY_LEVEL",
    "hierarchy_P",
]


class NotExactDerivative(RiemannMinimalError):
    """Formal antidifferentiation left a nonzero remainder (a bug, not math)."""


class JetTooShort(RiemannMinimalError):
    pass


def _fmt_monomial(mono):
    if not mono:
        return ""
    parts = []
    orders = sorted(set(mono))
    for k in orders:
        count = mono.count(k)
        sym = "u" + "'" * k
        parts.append(sym if count == 1 else f"{sym}^{count}")
    return " ".join(parts)


class DiffPoly:
    """Formal polynomial in u, u', u'', ... with exact Fraction coefficients.

    Monomials are stored as descending-sorted tuples of derivative orders,
    e.g. (2, 0, 0) is u'' u^2.  Zero coefficients are never stored.  Two
    polynomials are equal when their terms are, and ``terms`` cannot be
    reassigned: the memoized P_n are shared by every caller.
    """

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", {} if terms is None else terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to DiffPoly.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete DiffPoly.{name}")

    def __eq__(self, other):
        if type(other) is not DiffPoly:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"DiffPoly(terms={self.terms!r})"

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return DiffPoly({m: c for m, c in out.items() if c != 0})

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return DiffPoly({})
        return DiffPoly({m: c * v for m, v in self.terms.items()})

    def mul_factor(self, k):
        """Multiply by u^(k)."""
        return DiffPoly({tuple(sorted(m + (k,), reverse=True)): c
                         for m, c in self.terms.items()})

    def derivative(self):
        out = {}
        for mono, c in self.terms.items():
            for i in range(len(mono)):
                bumped = tuple(sorted(mono[:i] + (mono[i] + 1,) + mono[i + 1:],
                                      reverse=True))
                out[bumped] = out.get(bumped, Fraction(0)) + c
        return DiffPoly({m: c for m, c in out.items() if c != 0})

    def antiderivative(self):
        """Exact formal antiderivative via leading-term peeling.

        Repeatedly integrates the lexicographically greatest monomial by
        parts; raises NotExactDerivative if a remainder survives (for the
        hierarchy this would signal an implementation bug, exactness being
        a theorem).
        """
        rest = dict(self.terms)
        out = {}
        while rest:
            mono = max(rest)
            c = rest.pop(mono)
            k = mono[0]
            if k == 0 or (len(mono) > 1 and mono[1] == k):
                raise NotExactDerivative(
                    f"term {c} * {_fmt_monomial(mono)} is not an exact z-derivative")
            cand = tuple(sorted(mono[1:] + (k - 1,), reverse=True))
            mult = cand.count(k - 1)
            coeff = c / mult
            out[cand] = out.get(cand, Fraction(0)) + coeff
            for m, v in DiffPoly({cand: coeff}).derivative().terms.items():
                if m == mono:
                    continue
                nv = rest.get(m, Fraction(0)) - v
                if nv == 0:
                    rest.pop(m, None)
                else:
                    rest[m] = nv
        return DiffPoly({m: c for m, c in out.items() if c != 0})

    def evaluate(self, j) -> complex:
        """The polynomial's value on a u-jet ``j`` (a ``shiffkdv.Jet``;
        entry k is u^(k)), at every point of a jet with a point axis."""
        total = 0.0 + 0.0j
        for mono, c in self.terms.items():
            if mono and mono[0] > j.order:
                raise JetTooShort(
                    f"monomial {_fmt_monomial(mono)} needs jet order {mono[0]}, "
                    f"got {j.order}")
            v = complex(c)
            for k in mono:
                v *= j[k]
            total += v
        return total

    def max_order(self) -> int:
        return max((m[0] for m in self.terms if m), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            mono_s = _fmt_monomial(mono)
            mag = abs(c)
            if not mono_s:
                coeff_s = str(mag)
            elif mag == 1:
                coeff_s = ""
            else:
                coeff_s = str(mag) + " "
            term = coeff_s + mono_s if mono_s else coeff_s
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


MAX_HIERARCHY_LEVEL = 6


@cache
def hierarchy_P(n: int) -> DiffPoly:
    """The n-th Gelfand-Dickey polynomial P_n of the KdV hierarchy.

    d/dz P_{n+1} = (d^3 + 4u d + 2u') P_n with P_0 = 1/2 and integration
    constants zero, so P_1 = u, P_2 = u'' + 3u^2, ...
    Each level is built once, from the memoized level below; levels above
    MAX_HIERARCHY_LEVEL are refused (desk scale).
    """
    if n < 0:
        raise ValueError("hierarchy level must be >= 0")
    if n > MAX_HIERARCHY_LEVEL:
        raise ValueError(f"hierarchy level {n} above configured max "
                         f"{MAX_HIERARCHY_LEVEL}")
    if n == 0:
        return DiffPoly({(): Fraction(1, 2)})
    p = hierarchy_P(n - 1)
    rhs = (p.derivative().derivative().derivative()
           + p.derivative().mul_factor(0).scale(4)
           + p.mul_factor(1).scale(2))
    return rhs.antiderivative()
