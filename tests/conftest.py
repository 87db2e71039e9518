import shutil

import pytest

from riemann_minimal import cli


@pytest.fixture(scope="session")
def gen_files(tmp_path_factory):
    """``gen_files(sigma, grid, copies)``, sigma a float: the directory of one
    ``gen --sigma SIGMA --grid GRID --copies COPIES --format both`` run
    through ``cli.main``, made once per configuration and shared by the
    tests that read its files; removed at the end of the session (a
    40x60 run with 16 copies writes ~70 MB)."""
    runs = {}

    def files(sigma, grid, copies):
        key = (sigma, grid, copies)
        if key not in runs:
            out = tmp_path_factory.mktemp("gen")
            assert cli.main(["gen", "--sigma", repr(sigma),
                             "--grid", grid, "--copies", str(copies),
                             "--format", "both", "-o", str(out)]) == 0
            runs[key] = out
        return runs[key]

    yield files
    for out in runs.values():
        shutil.rmtree(out)
