"""Every definition in the package has a caller outside the tests.

The package's own modules (``src/``) and the benchmark's programs
(``perfbench/*.py``) are parsed with ``ast``.  A top-level function or class,
or a method of a top-level class, counts as used when its name appears there
as a name, as an attribute, or as a part of a dotted string such as the
tracer's ``"InducedOperator.check_hermitian"``.  Dunders, the names that
``sofic_spectra/__init__.py`` exports and the allowlist below count as used
too.  A method shares its name with every other method of that name, so a
dead method whose name some live method also bears is not seen here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sofic_spectra"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# name -> why it stays although only tests call it
ALLOWED = {
    "from_entries": "the constructor of an explicit operator from its "
                    "(row, col) -> value entries, which tests build with",
}


def _definitions():
    """(qualified name, name) of the package's top-level functions and
    classes and of the methods of its top-level classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _referenced() -> set:
    names = set()
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def _exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_has_a_caller_outside_the_tests():
    used = _referenced() | _exported() | set(ALLOWED)
    unused = [qualified for qualified, name in _definitions()
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def test_allowlisted_names_are_defined_and_otherwise_unused():
    defined = {name for _, name in _definitions()}
    used = _referenced() | _exported()
    for name in ALLOWED:
        assert name in defined and name not in used
