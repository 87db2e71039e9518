import os
import subprocess
import sys

import riemann_minimal
from riemann_minimal import (checks, classical, cli, curve, errors, hierarchy,
                             mesh, quad, shiffkdv)

MODULES = (checks, classical, cli, curve, errors, hierarchy, mesh, quad,
           shiffkdv)


def test_every_name_in_all_exists():
    for module in MODULES:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # the command module is run, not imported from: it declares no __all__
    assert [m.__name__ for m in MODULES if not hasattr(m, "__all__")] == [
        "riemann_minimal.cli"]


def test_moved_names_stay_where_they_were():
    # the numpy-free modules' names, imported back by the modules that
    # held them, are the same objects
    assert quad.RiemannMinimalError is errors.RiemannMinimalError
    for name in ("DiffPoly", "hierarchy_P", "MAX_HIERARCHY_LEVEL",
                 "NotExactDerivative", "JetTooShort"):
        assert getattr(shiffkdv, name) is getattr(hierarchy, name), name
    for module in MODULES:
        assert getattr(riemann_minimal, module.__name__.rpartition(".")[2]) \
            is module


def test_package_imports_a_module_when_first_read():
    code = ("import sys, riemann_minimal; "
            "print(sorted(m for m in sys.modules if m.startswith('riemann'))); "
            "print(riemann_minimal.mesh.__name__, 'numpy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(riemann_minimal.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == ["['riemann_minimal']",
                                       "riemann_minimal.mesh True"]
