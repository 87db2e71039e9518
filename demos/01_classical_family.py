#!/usr/bin/env python3
"""The classical one-parameter family, from the radius ODE to numbers.

Walks the quadrature construction: the admissible radius range starts at
q1(lambda) = (-lambda + sqrt(4 + lambda^2))/2, the surface fills a slab of
height zeta(lambda), the a = 0 branch of the same integral is the catenoid,
whose Carlson form sqrt(q - 1/lambda) R_F(lambda q, 1, 1) meets its arcsinh
closed form, and the limiting Gauss-map ratio ties lambda to the curve
parameter sigma = 1/q1^2.
"""

import numpy as np

from riemann_minimal import classical


def gauss_limit(p, h=1e-2):
    """lim N1/(1 - N3) of the normal at (q, v = 0) as q -> infinity, from
    central differences of X at q = 100, 200, 400; the ratio converges like
    1/q, so two Richardson steps extrapolate it."""
    def ratio(q):
        X = classical.parameterize
        n = np.cross(X(p, q + h, 0.0) - X(p, q - h, 0.0),
                     X(p, q, h) - X(p, q, -h))
        n /= np.linalg.norm(n)
        return n[0] / (1.0 - n[2])

    r1, r2, r4 = (ratio(q) for q in (100.0, 200.0, 400.0))
    return (4.0 * (2.0 * r4 - r2) - (2.0 * r2 - r1)) / 3.0


print("lambda      q1        sigma     zeta      gauss limit  -sqrt(sigma)")
for lam in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
    p = classical.RiemannParams.from_lambda(lam)
    sig = classical.sigma_of_lambda(lam)
    gl = gauss_limit(p)
    print(f"{lam:6.2f}  {p.q1:9.6f}  {sig:9.6f}  {p.zeta:9.6f}"
          f"  {gl:11.6f}  {-np.sqrt(sig):11.6f}")

print("\nsigma(lambda) * q1(lambda)^2 == 1:")
lams = np.linspace(-2, 4, 7)
prods = [classical.sigma_of_lambda(l) * classical.q_min(l) ** 2 for l in lams]
print("  max deviation:", max(abs(p - 1) for p in prods))

print("\ncatenoid branch (a = 0): Carlson form vs arcsinh closed form")
for lam in (0.5, 1.0, 2.0):
    q = 1.0 / lam + 2.0
    carlson = np.sqrt(q - 1.0 / lam) * classical.carlson_rf(lam * q, 1.0, 1.0)
    closed = classical.catenoid_height(lam, q)
    print(f"  lambda={lam}: R_F form={carlson:.12f} arcsinh={closed:.12f}"
          f" diff={abs(carlson - closed):.2e}")

print("\ncircle slices of X(q, v): radius sqrt(q), center on the x1-axis")
p = classical.RiemannParams.from_lambda(1.0)
for q in (p.q1, p.q1 + 0.5, p.q1 + 2.0):
    x = classical.parameterize(p, q, 0.0)
    print(f"  q={q:8.4f}: point at v=0 -> ({x[0]:+.4f}, {x[1]:+.4f}, {x[2]:+.4f}),"
          f" radius {np.sqrt(q):.4f}")
