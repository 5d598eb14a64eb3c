"""Every function, class and method of the package is used by the package.

A definition whose name no other node of ``src/multisent`` reads, as a
``Name`` or an ``Attribute``, is code that only the tests run: its tests
belong on the reference side (``tests/oracles.py``) or on the functions
the program runs. An import is not a read, so a re-export in an
``__init__.py`` keeps nothing alive. Dunder methods are exempt, since
Python calls them itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "multisent"

# (module, name) of each definition kept for readers outside the package:
# ``load_model`` reads a model file back, for perfbench's checks and the
# README's library use.
USED_OUTSIDE = {("classifiers/io.py", "load_model")}


def unreferenced_definitions(root):
    """``<module>:<line> <name>`` of each definition under ``root`` that
    no node under ``root`` reads and ``USED_OUTSIDE`` does not list."""
    defined, read = [], set()
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{line} {name}" for module, line, name in defined
            if name not in read and (module, name) not in USED_OUTSIDE
            and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_read_in_the_package():
    assert unreferenced_definitions(PACKAGE) == []


def test_scan_sees_definitions_only_an_import_names(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import kept, unused\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.size = kept()\n"
        "    def grow(self):\n"
        "        return self.size\n"
        "def kept():\n"
        "    return Box\n"
        "def unused():\n"
        "    return Box().grow\n", encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == ["a.py:8 unused"]
