"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` reassigns the public functions listed in SPANNED (and
``FundamentalSurface.__init__``) on their modules to wrappers that record a
span: name, parent span, start and end.  ``quad._gk_panel`` gets a
count-only wrapper, since no public quadrature call sits on the hot paths.
Calls made through a module attribute (``curve.immerse``, ``mesh.slice_mesh``
from inside ``mesh``) reach the wrappers; nothing inside the package changes.
Spans stay in memory until ``layer_metrics`` and ``dump`` read them.
"""

from __future__ import annotations

import json
import time

# (module, attribute) pairs that get a span named "<module>.<attribute>"
SPANNED = [
    ("cli", "main"),
    ("curve", "immerse"), ("curve", "period"),
    ("classical", "slab_height"), ("classical", "height"),
    ("classical", "center_offset"), ("classical", "parameterize"),
    ("classical", "enneper_fourier_check"),
    ("shiffkdv", "shiffman"),
    ("mesh", "sample_fundamental"), ("mesh", "extension_ops"),
    ("mesh", "extend"), ("mesh", "export_obj"), ("mesh", "export_ply"),
    ("mesh", "slice_mesh"), ("mesh", "refine_slice"),
    ("mesh", "level_circle_fit"),
    ("checks", "registration_error"), ("checks", "foliation_residuals"),
    ("checks", "weierstrass_fd_grid"), ("checks", "classical_fd_grid"),
]
# (module, class, attribute): spans named "<module>.<class>"
SPANNED_METHODS = [
    ("mesh", "FundamentalSurface", "__init__"),
    ("classical", "RiemannParams", "from_lambda"),
]
# what a span keeps of its result (None when the call raised): exported
# bytes, refined slice points
PAYLOAD = {
    "mesh.export_obj": int,
    "mesh.export_ply": int,
    "mesh.refine_slice": len,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # one [name, parent index or -1, start, end, payload] per span
        self.spans = []
        self.panels = 0
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = PAYLOAD.get(name)
        clock = self.clock

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if keep is not None:
                rec[4] = keep(out)
            return out

        return traced

    def _count_panels(self, fn):
        def counted(*args):
            self.panels += 1
            return fn(*args)
        return counted

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap the layers; ``modules`` maps short names to module objects."""
        for mod, attr in SPANNED:
            m = modules[mod]
            self._replace(m, attr,
                          self.wrap(f"{mod}.{attr}", m.__dict__[attr]))
        for mod, cls_name, attr in SPANNED_METHODS:
            cls = getattr(modules[mod], cls_name)
            raw = cls.__dict__[attr]
            name = f"{mod}.{cls_name}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._replace(cls, attr, new)
        quad = modules["quad"]
        self._replace(quad, "_gk_panel", self._count_panels(quad._gk_panel))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "parent", "start", "end",
                                   "payload"],
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans]},
                      fh, separators=(",", ":"))


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def _under(spans, ancestor):
    """Per span: whether some strict ancestor is named ``ancestor``."""
    flags = []
    for s in spans:
        p = s[1]
        flags.append(p >= 0 and (spans[p][0] == ancestor or flags[p]))
    return flags


INCLUSIVE = [
    "cli.main", "curve.period", "mesh.FundamentalSurface",
    "mesh.sample_fundamental", "mesh.extension_ops", "mesh.extend",
    "mesh.export_obj", "mesh.export_ply", "mesh.slice_mesh",
    "mesh.refine_slice", "checks.registration_error",
    "checks.foliation_residuals", "checks.weierstrass_fd_grid",
    "checks.classical_fd_grid", "shiffkdv.shiffman",
]
SELF = ["cli.main", "curve.immerse", "mesh.sample_fundamental",
        "mesh.refine_slice"]


def layer_metrics(spans, panels, n_ops):
    """Per-op layer figures: inclusive seconds ``<span>.s``, self seconds
    ``<span>.self_s`` and counts, each divided by ``n_ops``."""
    own = self_times(spans)
    total, self_total, calls = {}, {}, {}
    for s, t in zip(spans, own):
        total[s[0]] = total.get(s[0], 0.0) + (s[3] - s[2])
        self_total[s[0]] = self_total.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1
    m = {f"{n}.s": total.get(n, 0.0) for n in INCLUSIVE}
    m.update({f"{n}.self_s": self_total.get(n, 0.0) for n in SELF})
    m["cli.self_s"] = m.pop("cli.main.self_s")
    m["classical.self_s"] = sum(v for n, v in self_total.items()
                                if n.startswith("classical."))
    m["curve.immerse.calls"] = calls.get("curve.immerse", 0)
    m["quad.panels"] = panels
    m["mesh.export.bytes"] = sum(s[4] or 0 for s in spans
                                 if s[0] in ("mesh.export_obj",
                                             "mesh.export_ply"))
    refined = sum(s[4] or 0 for s in spans if s[0] == "mesh.refine_slice")
    under = _under(spans, "mesh.refine_slice")
    in_refine = sum(1 for s, f in zip(spans, under)
                    if f and s[0] == "curve.immerse")
    per_op = {k: v / n_ops for k, v in m.items()}
    per_op["mesh.refine_slice.immerse_per_point"] = (
        in_refine / refined if refined else 0.0)
    return per_op
