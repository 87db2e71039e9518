"""README's fenced ``python`` blocks run as written, each in a fresh
namespace, and every ``riemann-minimal`` line of its ``sh`` blocks exits 0.
Its table of verify's checks matches a report, its demo lines name files
of ``demos/`` (``test_demos.py`` runs them), and every test it cites is
defined under ``tests/``."""

import ast
import json
import re
import shlex
from pathlib import Path

from riemann_minimal import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _text():
    return README.read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", _text(), re.M | re.S)


def _sh_lines():
    return [shlex.split(line, comments=True)
            for block in _blocks("sh") for line in block.splitlines()]


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch):
    # a stale flag in README fails here; the pip, pytest and demo lines
    # are not run
    monkeypatch.chdir(tmp_path)
    commands = [argv[1:] for argv in _sh_lines()
                if argv[:1] == ["riemann-minimal"]]
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv


def test_readme_lists_verify_checks_in_report_order(tmp_path):
    # the rows "| k | `name` | threshold | ..." of README's check table
    rows = re.findall(r"^\| (\d+) \| `(\w+)` \| ([0-9.e+-]+) \|", _text(),
                      re.M)
    assert [int(k) for k, _, _ in rows] == list(range(1, len(rows) + 1))
    path = tmp_path / "v.json"
    assert cli.main(["verify", "--sigma", "2", "--seed", "7",
                     "--json", str(path)]) == 0
    checks = json.loads(path.read_text())["checks"]
    assert [(name, float(thr)) for _, name, thr in rows] == [
        (c["name"], c["threshold"]) for c in checks]


def test_readme_demo_lines_name_demo_files():
    names = [argv[1] for argv in _sh_lines()
             if argv[:1] == ["python"] and argv[1:2]
             and argv[1].startswith("demos/")]
    assert names
    for name in names:
        assert (ROOT / name).is_file(), name


def test_readme_cites_only_defined_tests():
    cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", _text()))
    assert cited
    defined = {node.name for path in (ROOT / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert sorted(cited - defined) == []
