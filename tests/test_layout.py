"""The package's shape: which names its modules share, and README's map of them."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logit_anchor"


def _private_imports(source: str, name: str) -> list[str]:
    """Each relative ``from .module import _name`` in module ``name``'s ``source``, as text."""
    return [
        f"{name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names if alias.name.startswith("_")
    ]


def test_no_module_imports_another_modules_private_name():
    """A check several modules call has a public name in the module that owns it."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    assert [line for path in modules
            for line in _private_imports(path.read_text(encoding="utf-8"), path.name)] == []


def test_private_import_rule():
    source = "from .runner import _decode, run_many\nfrom . import _x\nfrom os import _exit\n"
    assert _private_imports(source, "m.py") == [
        "m.py:1: from .runner import _decode", "m.py:2: from . import _x"]


def _layout_rows() -> list[str]:
    """The ``.py`` rows under ``src/logit_anchor/`` in README's "Repository layout" block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Repository layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\S+\.py) ", block, re.M)


def test_readme_layout_names_every_module_and_no_other():
    rows = _layout_rows()
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert sorted(modules - set(rows)) == []
    assert [row for row in rows if not (PACKAGE / row).is_file()] == []
