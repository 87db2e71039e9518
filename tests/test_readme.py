"""README's fenced ``python`` blocks run as written, each in a fresh
namespace, and every ``riemann-minimal`` line of its ``sh`` blocks exits 0."""

import re
import shlex
from pathlib import Path

from riemann_minimal import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch):
    # a stale flag in README fails here; the pip, pytest and demo lines
    # are not run
    monkeypatch.chdir(tmp_path)
    lines = [shlex.split(line, comments=True)
             for block in _blocks("sh") for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["riemann-minimal"]]
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv
