"""Every definition in the package has a caller outside the tests, and every
parameter with a default is passed by some call.

The package's own modules (``src/``) and the benchmark's programs
(``perfbench/*.py``) are parsed with ``ast``.  A top-level function or class,
or a method of a top-level class, counts as used when its name appears there
as a name, as an attribute, or as a part of a dotted string such as the
tracer's ``"InducedOperator.check_hermitian"``.  Being exported from
``sofic_spectra/__init__.py`` is no use of its own: an exported name needs a
caller there too, or a reason in the allowlist below.  Dunders count as
used.  A method shares its name with every other method of that name, so a
dead method whose name some live method also bears is not seen here.

A parameter with a default, of a top-level function or of a method of a
top-level class, counts as passed when some call in ``src/`` or
``perfbench/*.py`` to a name or attribute of that function's name gives it
by keyword, or gives it by position before any ``*`` argument.  Names are
matched as above, and ``**`` arguments pass nothing.  A call in the tests is
no use of its own: an option only tests set needs a reason in its allowlist.

The README names only what exists: every identifier in one of its inline
code spans that contains ``_`` or starts with a capital (Python keywords
aside) is a def, class, name, attribute or argument in those programs, or a
word of one of their string constants (a config key, a file name).
"""

import ast
import keyword
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sofic_spectra"
PROGRAMS = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# name -> why it stays although only tests call it
ALLOWED = {
    "from_entries": "the constructor of an explicit operator from its "
                    "(row, col) -> value entries, which tests build with",
    "binary_alphabet": "the README example's alphabet",
}

# defaulted parameter -> why it stays although only tests pass it
ALLOWED_DEFAULTS = {
    "measures.le_diagnostic(finite_model)": "a finite law other than the "
                                            "target",
    "spectral.ids_curve(tie_tol)": "a float width that tests check at other "
                                   "values until atom counts are certified",
    "spectral.punctured_mass(cluster_tol)": "a float width that tests check "
                                            "at other values until atom "
                                            "counts are certified",
    "spectral.reference_ids(quadrature_points)": "its error bound is tested "
                                                 "at a coarser rule",
    "groups.ball(capacity)": "a guard that tests shrink to reach the refusal",
    "sofic.good_vertices(budget)": "a guard that tests shrink to reach the "
                                   "refusal",
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
    for path in PROGRAMS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    used = _referenced() | set(ALLOWED)
    unused = [qualified for qualified, name in _definitions()
              if name not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def test_allowlisted_names_are_defined_and_otherwise_unused():
    defined = {name for _, name in _definitions()}
    used = _referenced()
    for name in ALLOWED:
        assert name in defined and name not in used


def _defaulted_parameters():
    """(qualified name, function name, parameter, position) of each parameter
    with a default; position counts the arguments a call passes before it,
    and is None for a keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                functions, prefix = [(node, False)], path.stem
            elif isinstance(node, ast.ClassDef):
                prefix = f"{path.stem}.{node.name}"
                functions = [(item, not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list))
                    for item in node.body if isinstance(item, FUNCTIONS)]
            else:
                continue
            for function, bound in functions:
                args = function.args
                # a bound method's first parameter is given by the call's
                # receiver, not by its arguments
                positional = [a.arg for a in args.posonlyargs + args.args]
                positional = positional[1:] if bound else positional
                with_default = positional[len(positional) - len(args.defaults):]
                for position, name in enumerate(positional):
                    if name in with_default:
                        yield (f"{prefix}.{function.name}", function.name,
                               name, position)
                for a, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield (f"{prefix}.{function.name}", function.name,
                               a.arg, None)


def _passed() -> tuple[set, dict]:
    """({(function name, keyword)}, {function name: most positional
    arguments before any * argument}) over every call."""
    keywords, positional = set(), {}
    for path in PROGRAMS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            count = next((i for i, a in enumerate(node.args)
                          if isinstance(a, ast.Starred)), len(node.args))
            positional[name] = max(positional.get(name, 0), count)
            keywords |= {(name, k.arg) for k in node.keywords if k.arg}
    return keywords, positional


def test_every_defaulted_parameter_is_passed_somewhere():
    keywords, positional = _passed()
    unpassed = [f"{qualified}({name})"
                for qualified, function, name, position
                in _defaulted_parameters()
                if (function, name) not in keywords
                and (position is None
                     or positional.get(function, 0) <= position)]
    # an allowlisted parameter must exist and still be passed by no caller
    assert sorted(unpassed) == sorted(ALLOWED_DEFAULTS)


def _program_words() -> set:
    words = set()
    for path in PROGRAMS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                words.add(node.name)
            elif isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                words.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(re.findall(r"\w+", node.value))
    return words


def test_readme_names_only_what_the_programs_define():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                  flags=re.S)
    named = {word for span in re.findall(r"`([^`]+)`", text)
             for word in re.findall(r"[A-Za-z_]\w*", span)
             if ("_" in word or word[0].isupper())
             and not keyword.iskeyword(word)}
    assert sorted(named - _program_words()) == []
