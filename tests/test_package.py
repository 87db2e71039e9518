from riemann_minimal import checks, classical, cli, curve, mesh, quad, shiffkdv

MODULES = (checks, classical, cli, curve, mesh, quad, shiffkdv)


def test_every_name_in_all_exists():
    for module in MODULES:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    # the command module is run, not imported from: it declares no __all__
    assert [m.__name__ for m in MODULES if not hasattr(m, "__all__")] == [
        "riemann_minimal.cli"]
