#!/usr/bin/env python3
"""The reflection/translation mesh pipeline, end to end.

Samples the fundamental piece of the sigma = 2 surface on the Moebius image
of a polar grid, extends it by the four-step symmetry pipeline (rotation
about the horizontal line through psi(i sqrt(sigma)), mirror in {x2 = 0},
rotation about the x2-axis, translation by 2 t0), writes OBJ/PLY files, and
verifies the circle foliation by slicing the piece: the extended mesh's
circles are the orbit of its slices.

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

print("\nhorizontal slices of the extended mesh:")
span = ops[3].offset[2] / 2.0
# slice the piece at all heights in one pass, then refine those crossings
# on the curve whose sigma the piece records;
# the heights are symmetric about span / 2, and the extended mesh's circle
# at hs[j] is the orbit of the piece's slices: blocks 0 and 2 (which keep
# x3) of slice j, blocks 1 and 3 (x3 -> span - x3) of slice 2 - j
hs = np.array([0.25, 0.5, 0.75]) * span
slices = mesh.refine_slice(fund, hs, 24, mesh.slice_mesh(fund, hs))
circles = [np.concatenate([op.apply(slices[2 - j if b % 2 else j])
                           for b, op in enumerate(ext.cell_ops[:4])])
           for j in range(len(hs))]
# one fit call for all the circles, one fit per slice
for h, fit in zip(hs, mesh.level_circle_fit(circles)):
    print(f"  x3 = {h:8.4f}: {fit.kind}, radius {fit.radius:9.6f}, "
          f"max deviation {fit.residual:.2e}")

# at the height of a boundary line the slice degenerates to a line
sel = np.abs(ext.vertices[:, 2]) <= 1e-9
fit, = mesh.level_circle_fit([ext.vertices[sel]])
print(f"  x3 = 0 (line height): classified as {fit.kind!r}")
