"""The package's structure: src/ltlab holds only what its commands run.
Reference rules that only tests call live in tests/oracles.py."""

import ast
import pathlib

import ltlab
from ltlab.metatrain import SPLITS


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


def split_fields_outside_split_accuracy(package: pathlib.Path) -> list[tuple[str, str, str]]:
    """(module, class, field) of each field named in SPLITS that a
    dataclass in the package other than SplitAccuracy declares."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name == "SplitAccuracy":
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            found += [(path.stem, node.name, item.target.id) for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and item.target.id in SPLITS]
    return found


def report_rows_built_outside_result(package: pathlib.Path) -> list[tuple[str, int]]:
    """(module, line) of each call of ReportRow in the package other than
    those inside harness._result."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for fn in ast.walk(tree) if path.stem == "harness"
                  and isinstance(fn, ast.FunctionDef) and fn.name == "_result"
                  for node in ast.walk(fn)}
        found += [(path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ReportRow"]
    return found


def errstate_uses_outside_cli(package: pathlib.Path) -> list[tuple[str, int]]:
    """(module, line) of each name errstate that a module in the package
    other than cli.py reads or imports."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:  # a Name's id or an Attribute's attr
                names = [getattr(node, "id", getattr(node, "attr", None))]
            found += [(path.stem, node.lineno) for name in names if name == "errstate"]
    return found


def test_only_the_cli_sets_numpys_error_state():
    # every command runs under cli.main's one floating-point policy, and the
    # library leaves numpy's error state to its caller
    assert errstate_uses_outside_cli(pathlib.Path(ltlab.__file__).parent) == []


def test_the_errstate_scan_reads_code_not_comments(tmp_path):
    (tmp_path / "cli.py").write_text("import numpy as np\n\nnp.errstate()\n", encoding="utf-8")
    (tmp_path / "m.py").write_text(
        '"""np.errstate is named here."""\nimport numpy as np\nfrom numpy import errstate\n\n'
        "# np.errstate()\n@np.errstate(over='ignore')\ndef f():\n    pass\n", encoding="utf-8")
    assert errstate_uses_outside_cli(tmp_path) == [("m", 3), ("m", 6)]


def test_only_split_accuracy_declares_the_splits():
    # every per-split row extends SplitAccuracy, so the split names are declared once
    assert split_fields_outside_split_accuracy(pathlib.Path(ltlab.__file__).parent) == []


def test_the_split_scan_reads_dataclasses(tmp_path):
    (tmp_path / "m.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass\nclass SplitAccuracy:\n    overall: float\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Row:\n    few: float\n    name: str\n\n\n"
        "class Plain:\n    many: float\n", encoding="utf-8")
    assert split_fields_outside_split_accuracy(tmp_path) == [("m", "Row", "few")]


def test_only_result_builds_a_report_row():
    # every command's row is the one report reads back from the run's files
    assert report_rows_built_outside_result(pathlib.Path(ltlab.__file__).parent) == []


def test_the_report_row_scan_reads_calls(tmp_path):
    (tmp_path / "harness.py").write_text(
        '"""ReportRow(...) is named here."""\n\n\n'
        "def _result(cells):\n    return ReportRow(*cells)\n\n\n"
        "def _report_row(rec):\n    # ReportRow(rec)\n    return ReportRow(rec.overall)\n",
        encoding="utf-8")
    (tmp_path / "m.py").write_text(
        "from . import harness\n\n\ndef _result(r):\n    return harness.ReportRow(r)\n",
        encoding="utf-8")
    assert report_rows_built_outside_result(tmp_path) == [("harness", 10), ("m", 5)]


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
