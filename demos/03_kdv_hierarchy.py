#!/usr/bin/env python3
"""From the Shiffman function to the KdV hierarchy.

The complexified Shiffman function drives an evolution of the Gauss map;
x = g'/g turns it into mKdV, and the Miura transformation u = x'/2 - x^2/4
turns that into KdV.  The hierarchy polynomials P_n are generated by the
recurrence d/dz P_{n+1} = (d^3 + 4u d + 2u') P_n with exact rational
coefficients, and the curve potential turns out to be stationary already at
level one: flow_1 = -(sigma-1)/2 * flow_0, with numerically zero residual.
"""

import numpy as np

from riemann_minimal import curve, shiffkdv
from riemann_minimal.shiffkdv import (Jet, flow_n, hierarchy_P, miura,
                                      mkdv_flow, msigma_jet, potential_u)

print("Gelfand-Dickey polynomials:")
for n in range(5):
    print(f"  P{n} = {hierarchy_P(n)}")

# the catenoid: constant potential, every flow vanishes
g = Jet([np.exp(0.3)] * 9)
u = potential_u(g)
print(f"\ncatenoid g = e^xi: u = {u[0].real:+.3f} (constant), "
      f"kdv flow = {abs(flow_n(1, u)):.1e}")

# Miura bridge with the forced -i/2 time normalization
rng = np.random.default_rng(5)
vals = 0.6 * (rng.normal(size=7) + 1j * rng.normal(size=7))
vals[0] += 2.0
x = Jet(vals)
xdot = mkdv_flow(x)
u = miura(x)
udot = 0.5 * xdot.d(1) - 0.5 * (x * xdot)
print("\nMiura chain rule on a random jet:")
print(f"  du/dt under mKdV       = {udot[0]:+.6f}")
print(f"  -(i/2)(-u''' - 6uu')   = {-0.5j * flow_n(1, u):+.6f}")

# the curve potential is algebro-geometric at level 1
params = curve.CurveParams(2.0)
pts = curve.random_regular_points(params, 60, np.random.default_rng(7))
fit = shiffkdv.algebro_geometric_residual(params, 1, pts)
print(f"\nsigma=2 potential: flow_1 = c * flow_0 with "
      f"c = {fit.coefficients[0].real:+.9f}")
print(f"  least-squares residual {fit.residual:.2e} "
      f"(theory: c = -(sigma-1)/2 = -0.5, residual 0)")

# u on the curve is a shifted reciprocal of g: u = -(sigma-1)/4 + sqrt(sigma)/(2g)
pt = curve.CurvePoint(pts.z[0], pts.w[0])
uj = potential_u(msigma_jet(params, pt, 3))
g0 = pt.z / np.sqrt(2.0)
closed = -(2.0 - 1.0) / 4.0 + np.sqrt(2.0) / (2.0 * g0)
print(f"\nclosed-form check of u at a sample: jet {uj[0]:+.8f} vs "
      f"-(s-1)/4 + sqrt(s)/(2g) = {closed:+.8f}")
