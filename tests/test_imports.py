"""Every module-level import in src/rborch is read by its module.

Checked with `ast` alone: a name bound by a top-level `import` or
`from ... import` must occur as a name somewhere in the module (string
annotations included).  `__init__.py` is exempt, its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rborch"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)  # a string annotation such as -> "RtThresholds"
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


def test_checker_finds_an_unused_import():
    src = "import os\nimport sys\nfrom math import inf, pi\nprint(sys.argv, pi)\n"
    assert unused_imports(src) == ["line 1: os", "line 3: inf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
