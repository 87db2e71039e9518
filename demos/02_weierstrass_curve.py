#!/usr/bin/env python3
"""Weierstrass data on the curve w^2 = z(z-1)(z+sigma).

Demonstrates branch-continuous continuation, the period problem (the
gamma1 class closes, the gamma2 class carries the translation, end loops
carry nothing), the flux vector, the three symmetries, and the pointwise
vanishing of the Shiffman function that forces the circle foliation.
"""

import numpy as np

from riemann_minimal import curve, shiffkdv

SIGMA = 2.0
params = curve.CurveParams(SIGMA)

print(f"curve: w^2 = z(z-1)(z+{SIGMA}), g = z/sqrt(sigma), phi3 = dz/w\n")

# square-root monodromy: continue w around z = 1 node by node, taking at
# each node the root nearer the previous value
loop1 = 1.0 + 0.45 * np.exp(1j * np.linspace(0, 2 * np.pi, 65))
w0 = w1 = np.sqrt(complex(curve.curve_poly(params, loop1[0])))
for z in loop1[1:]:
    w = np.sqrt(complex(curve.curve_poly(params, z)))
    w1 = w if abs(w - w1) < abs(w + w1) else -w
print(f"one turn around z=1:   w -> {w1 / w0:+.6f} * w   (sign flip)")


def rounded(x, digits):
    """x rounded to ``digits``, a zero of either sign shown as 0."""
    return np.round(x, digits) + np.zeros_like(x)


# periods (the trapezoidal rule on a contour per homology class) and flux
p1, p2 = curve.period(params, "gamma1"), curve.period(params, "gamma2")
print("\nperiods:")
print("  gamma1:", rounded(p1, 8), " (Re = 0: the immersion closes)")
print("  gamma2:", rounded(p2, 8), " (Re = translation vector 2 t0)")
print("  double end loop:", rounded(curve.period(params, "end"), 10))
print("flux (Im of period):")
print("  gamma1:", rounded(curve.flux(params, "gamma1"), 8))
print("  gamma2:", rounded(curve.flux(params, "gamma2"), 12))

# symmetries
rng = np.random.default_rng(0)
pts = curve.random_regular_points(params, 50, rng)
print("\nsymmetry residuals over 50 random points:")
for which in ("S1", "S2", "S3"):
    print(f"  {which}: {curve.verify_symmetry_action(params, which, pts):.2e}")

# Shiffman function
worst = np.max(np.abs(shiffkdv.shiffman(shiffkdv.msigma_jet(params, pts, 3))))
print(f"\nmax |Shiffman| over the samples: {worst:.2e}"
      " (zero <=> horizontal circles)")

# Gaussian curvature along the real axis
print("\nGaussian curvature at sample points (conformal phi3 = d(xi) chart):")
for z in (2.0, 3.0, 0.5 + 0.8j):
    w = np.sqrt(complex(curve.curve_poly(params, z)))
    K = curve.gaussian_curvature(z / np.sqrt(SIGMA), w / np.sqrt(SIGMA))
    print(f"  z={z}: K = {K:+.6f}")
