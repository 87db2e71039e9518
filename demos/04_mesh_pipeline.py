#!/usr/bin/env python3
"""The reflection/translation mesh pipeline, end to end.

Samples the fundamental piece of the sigma = 2 surface on the Moebius image
of a polar grid, extends it by the four-step symmetry pipeline (rotation
about the horizontal line through psi(i sqrt(sigma)), mirror in {x2 = 0},
rotation about the x2-axis, translation by 2 t0), writes OBJ/PLY files, and
verifies the circle foliation on exact slices, taken on lines of the height
coordinate without a mesh (each circle is the slice over the upper
half-plane plus its mirror x2 -> -x2), against which it measures the
extended mesh's own cut at the same heights.

Writes meshes into ./demo_out/.
"""

import math
import os

import numpy as np

from riemann_minimal import mesh

SIGMA, E, NR, NT = 2.0, 0.1, 40, 60
OUT = "demo_out"

os.makedirs(OUT, exist_ok=True)
fund = mesh.sample_fundamental(SIGMA, E, NR, NT)
print(f"fundamental piece: {fund.vertex_count} vertices, "
      f"{fund.face_count} faces")
x3 = fund.vertices[:, 2]
print(f"  slab: x3 in [{x3.min():.6f}, {x3.max():.6f}]")

ops = mesh.extension_ops(SIGMA)
t0 = mesh.FundamentalSurface(SIGMA).translation_half()
# psi(i sqrt(sigma)), fixed by the first symmetry: half of t0 in x1 and x3
c = np.array([t0[0] / 2.0, -1.0 / math.sqrt(SIGMA), t0[2] / 2.0])
print(f"  fixed point c = {np.round(c, 6)}")
print(f"  op 1 offset (2 c1, 0, 2 c3) = {np.round(ops[0].offset, 6)}")
print(f"  translation 2 t0 = {np.round(ops[3].offset, 6)}")

ext = mesh.extend(fund, ops, copies=1)
print(f"extended surface: {ext.vertex_count} vertices "
      f"(= {fund.vertex_count} x 8 x 2)")

for name, m in (("fundamental", fund), ("extended", ext)):
    nb = mesh.export_obj(m, os.path.join(OUT, f"{name}.obj"))
    np_ = mesh.export_ply(m, os.path.join(OUT, f"{name}.ply"))
    print(f"  wrote {name}.obj ({nb} bytes), {name}.ply ({np_} bytes)")

print("\nhorizontal slices of the surface:")
span = ops[3].offset[2] / 2.0
# exact whole slices on the lines Re u = h - t0_3 of the height coordinate:
# the points over the upper half-plane, then their mirror x2 -> -x2; the
# slab's ends 0 and t0_3 are lines
hs = np.array([0.0, 0.25, 0.5, 0.75, 1.0]) * span
exact = mesh.level_circle_fit(mesh.refine_slice(SIGMA, hs, 24))
# the extended mesh cut at the same heights: its edges walked once per
# height, each crossing interpolated along its edge
owner, ia, ib, s = mesh.slice_mesh(ext, hs)
v = ext.vertices
cut = v[ia] + s[:, None] * (v[ib] - v[ia])
# the boundary lines at the slab's ends are mesh vertices, which make no
# crossing: the mesh's cut is compared on the circles
inner = range(1, len(hs) - 1)
coarse = mesh.level_circle_fit([cut[owner == k] for k in inner])
for k, fit in enumerate(exact):
    if fit.kind == "line":
        print(f"  x3 = {hs[k]:8.4f}: line (the height of a boundary line)")
        continue
    mesh_fit = coarse[k - 1]
    print(f"  x3 = {hs[k]:8.4f}: {fit.kind}, radius {fit.radius:9.6f}, "
          f"max deviation {fit.residual:.2e}; the mesh's cut: radius "
          f"{mesh_fit.radius:9.6f} ({mesh_fit.radius / fit.radius - 1:+.1e})")
