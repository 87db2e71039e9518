import numpy as np
import pytest

import curve_quadrature as kernel
import scalar_references as scalar
from classical_quadrature import (Divergent, _adaptive,
                                  integrate_sqrt_singular, integrate_tail)
from curve_quadrature import NonFinite, SubdivisionLimit
from riemann_minimal import curve, quad

ABS = 1e-10


def _segments(nodes):
    """The (start, end) pairs of a polyline's consecutive nodes."""
    nodes = [complex(z) for z in nodes]
    return tuple(zip(nodes[:-1], nodes[1:]))


def q1_of(lam):
    return 0.5 * (-lam + np.hypot(2.0, lam))


def test_polynomial_antiderivative():
    val = _adaptive(lambda z: z ** 2, _segments([0, 1]))[0]
    assert abs(val - 1.0 / 3.0) < ABS


def test_residue_theorem_square_loop():
    loop = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]
    val = _adaptive(lambda z: 1.0 / z, _segments(loop))[0]
    assert abs(val - 2j * np.pi) < 1e-9


def test_orientation_reverses_sign():
    path = [0, 1 + 1j, 2]
    f = lambda z: np.exp(z) * np.sin(z)
    fwd = _adaptive(f, _segments(path))[0]
    bwd = _adaptive(f, _segments(path[::-1]))[0]
    assert abs(fwd + bwd) < ABS


def test_additivity_over_concatenation():
    f = lambda z: np.cos(z) / (z + 3.0)
    whole = _adaptive(f, _segments([0, 1 + 2j]))[0]
    mid = 0.37 + 0.74j
    parts = (_adaptive(f, _segments([0, mid]))[0]
             + _adaptive(f, _segments([mid, 1 + 2j]))[0])
    assert abs(whole - parts) < ABS


def test_homotopy_independence_same_winding():
    # integrand holomorphic off z0; two paths, same endpoints, same winding
    z0 = 0.5 + 0.2j
    f = lambda z: 1.0 / (z - z0) + z ** 3
    a = [-1 - 1j, 2 - 1j, 2 + 2j]
    b = [-1 - 1j, -1 + 2j, 2 + 2j]
    ia = _adaptive(f, _segments(a))[0]
    ib = _adaptive(f, _segments(b))[0]
    assert abs(ia - ib) > 1.0  # opposite sides: winding differs, values differ
    # route b around the same side as a: now they must agree to 10*abs_tol
    c = [-1 - 1j, 2 - 2j, 3 + 0j, 2 + 2j]
    ic = _adaptive(f, _segments(c))[0]
    assert abs(ia - ic) < 10 * ABS


def test_cauchy_closed_loop_holomorphic():
    loop = [2 + 0j, 2 + 2j, 4 + 2j, 4 + 0j, 2 + 0j]
    val = _adaptive(lambda z: np.exp(z) + 1.0 / z, _segments(loop))[0]
    assert abs(val) < ABS


def test_deterministic_repeat():
    path = [0, 1 + 1j, 2 - 1j]
    f = lambda z: np.exp(-z * z)
    assert (_adaptive(f, _segments(path))[0]
            == _adaptive(f, _segments(path))[0])


def test_nonfinite_raises():
    with pytest.raises(NonFinite):
        _adaptive(lambda z: 1.0 / (z - 0.5), _segments([0, 1]))


def test_subdivision_limit_raises(monkeypatch):
    monkeypatch.setattr(kernel, "MAX_SUBDIVISIONS", 3)
    # sharp near-singularity mid-path defeats a 3-split budget
    f = lambda z: 1.0 / (z - (0.5 + 1e-9j))
    with pytest.raises(SubdivisionLimit):
        _adaptive(f, _segments([0, 1]))


def test_path_invariants():
    # a path is a plain node sequence; the march rejects repeated nodes
    params = curve.CurveParams(2.0)
    w = np.sqrt(complex(curve.curve_poly(params, 2.0)))
    for nodes in ([2, 2, 3], [2, 3 + 1j, 3 + 1j], [2, 3, 3, 2]):
        with pytest.raises(ValueError, match="distinct"):
            scalar.march(params, nodes, w)
    assert scalar.march(params, [2], w)[1] == curve.CurvePoint(2 + 0j, w)


def test_panel_increments_hold_each_panel_to_its_tolerance():
    # one panel per segment, vector values held to their largest component
    a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    inc = quad.panel_increments(
        lambda x: np.stack([np.exp(x), 1e-12 * np.exp(x)], axis=-1), a, b)
    assert inc.shape == (2, 2)
    # the nodes and weights carry 15 digits
    want = np.exp(b) - np.exp(a)
    np.testing.assert_allclose(inc[:, 0], want, rtol=1e-14)
    np.testing.assert_allclose(inc[:, 1], 1e-12 * want, rtol=1e-14)
    # a panel 1e-3 from a pole misses its tolerance; a panel through it is
    # not finite
    with pytest.raises(quad.QuadError,
                       match=r"increment panel \[1, 2\] misses its tolerance"):
        quad.panel_increments(lambda x: 1.0 / (x - 1.9 - 1e-3j), a, b)
    with pytest.raises(quad.QuadError, match=r"error nan"):
        quad.panel_increments(lambda x: 1.0 / (x - x[..., 7:8]), a, b)


# --- sqrt-singular endpoint ------------------------------------------------


def test_sqrt_singular_closed_form():
    val = integrate_sqrt_singular(lambda u: u ** -0.5, 0.0, 1.0)
    assert abs(val - 2.0) < ABS


def test_sqrt_singular_constant():
    val = integrate_sqrt_singular(lambda u: 3.5 + 0 * u, 2.0, 5.0)
    assert abs(val - 3.5 * 3.0) < ABS


def test_sqrt_singular_vs_truncated_richardson():
    # radicand u^3 + u^2 - u has its simple zero at q1(1)
    lam = 1.0
    a = q1_of(lam)
    b = 2.0
    f = lambda u: 1.0 / np.sqrt(u ** 3 - u + lam * u ** 2)
    val = integrate_sqrt_singular(f, a, b)

    def truncated(eps):
        path = [a + eps, b]
        return np.real(_adaptive(lambda z: f(np.real(z)), _segments(path))[0])

    # truncation error is ~ c*sqrt(eps): one Richardson step removes it
    eps = 1e-8
    oracle = 2.0 * truncated(eps / 4.0) - truncated(eps)
    assert abs(val - oracle) < 1e-6


# --- improper tails ---------------------------------------------------------


def test_tail_closed_forms():
    assert abs(integrate_tail(lambda u: u ** -1.5, 1.0, 1.5) - 2.0) < ABS
    assert abs(integrate_tail(lambda u: u ** -2.0, 2.0, 2.0) - 0.5) < ABS


def test_tail_two_substitutions_agree_on_slab_integral():
    # zeta(1) = int_{q1}^inf du/(2 sqrt(u^3 - u + u^2)), singular lower end
    lam = 1.0
    a = q1_of(lam)
    f = lambda u: 0.5 / np.sqrt(u ** 3 - u + lam * u ** 2)
    v1 = integrate_tail(f, a, 1.5, substitution="inverse")
    v2 = integrate_tail(f, a, 1.5, substitution="inverse_square")
    assert v2 > 0
    assert abs(v1 - v2) < 1e-8


def test_tail_divergent_exponent():
    with pytest.raises(Divergent):
        integrate_tail(lambda u: 1.0 / u, 1.0, 1.0)

