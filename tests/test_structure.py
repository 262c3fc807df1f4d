"""The package's structure: src/ltlab holds only what its commands run.
Reference rules that only tests call live in tests/oracles.py."""

import ast
import pathlib

import ltlab


def unreferenced_definitions(package: pathlib.Path) -> list[tuple[str, str]]:
    """(module, name) of each def or class in the package's modules whose
    name no code in the package reads, as a Name or an Attribute node.
    Docstrings and comments do not count; dunder methods, which Python
    calls itself, do."""
    defs, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, name) for module, name in defs
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_in_src_is_used_or_exported():
    unused = [f"{module}.{name}" for module, name
              in unreferenced_definitions(pathlib.Path(ltlab.__file__).parent)
              if name not in ltlab.__all__]
    assert unused == []


def test_the_scan_reads_code_not_docstrings(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""dead() and unread are named here."""\n\n\n'
        "class Unread:\n    def __init__(self):\n        self.unread = used\n\n\n"
        "def dead():\n    pass\n\n\n"
        "def used():\n    pass\n\n\n"
        "used()\n", encoding="utf-8")
    assert unreferenced_definitions(tmp_path) == [("m", "Unread"), ("m", "dead")]
