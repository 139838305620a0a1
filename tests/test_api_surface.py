"""Every definition in the package has a caller outside the tests, every
parameter with a default is passed by some call, and every record field is
read.

The package's own modules (``src/``) and the benchmark's programs
(``perfbench/*.py``) are parsed with ``ast``.  A top-level function or class,
or a method of a top-level class, counts as used when its name appears there
as a name, as an attribute, or as a part of a dotted string such as the
tracer's ``"InducedOperator.check_hermitian"``.  Being exported from
``sofic_spectra/__init__.py`` is no use of its own: an exported name needs a
caller there too, or a reason in the allowlist below.  Dunders count as
used.  A method shares its name with every other method of that name, so a
dead method whose name some live method also bears is not seen here.

A parameter with a default, of a top-level function, of a method of a
top-level class or of a top-level dataclass's constructor (its init fields
in order, under the class's name; a ``field(init=False)`` is none), counts
as passed when some call in ``src/`` or ``perfbench/*.py`` to a name or
attribute of that function's name gives it by keyword, or gives it by
position before any ``*`` argument.  Names are matched as above, and ``**``
arguments pass nothing.  A call inside the body of a function of the same
name (a recursion) passes nothing either, so a parameter that only its own
function forwards counts as unpassed.  A call in
the tests is no use of its own: an option only tests set needs a reason in
its allowlist.  Conversely, each such parameter must be left at its default
by some call of those programs, matched and with recursions skipped in the
same way, that gives it neither by keyword nor by position and has no * or
** argument: a default that every program call overrides is an option only
tests leave out, and needs a reason in its own allowlist.  Matching by name
lets a call to another function of the same name count, but an attribute of
a module bound by ``import X``, X not the package (``subprocess.run``, say),
is no callee.

A field of a top-level dataclass counts as read when some program reads an
attribute of its name (matched by name, as above; a string such as a CSV
header reads nothing).  A field only tests read needs a reason in its
allowlist.  A field shares its name with every field of that name in another
class, so a dead field counts as read when a live field of its name is read:
a window law's ``radius`` (beside ``CayleyBall.radius``) and
``CayleyBall.group`` (beside ``SoficApproximation.group``) once hid this way.

The README names only what exists: every identifier in one of its inline
code spans that contains ``_`` or starts with a capital (Python keywords
aside) is a def, class, name, attribute or argument in those programs, or a
word of one of their string constants (a config key, a file name).  A
quoted config key in an inline code span (a quoted word that starts with a
letter, followed by ``:``), and a span that is one quoted word, name a
property or an enum or const value of ``cli.CONFIG_SCHEMA``, and its
table of defaults states each default of that schema once, with the
pipelines that read it.  The code block of its library tour runs as written.

``cli`` states no config default outside ``CONFIG_SCHEMA``: it makes no
two-argument ``.get`` call but on a schema, and each default of the schema
passes the schema of its key.
"""

import ast
import json
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
}

_NON_STRICT = ("the non-strict certificate is asked for by no program, only "
               "by acceptance criteria 1-2, whose boundary certificates "
               "criterion 8 re-checks")

# defaulted parameter -> why its default stays although every program call
# gives the parameter
ALLOWED_EXPLICIT = {
    "monotone.gershgorin_psd(strict)": _NON_STRICT,
    "exact.sum_abs_le(strict)": _NON_STRICT,
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _init_fields(node: ast.ClassDef):
    """(name, has a default) of each field of a dataclass that its
    constructor takes, in order: a field(init=False) is not taken."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "field"):
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            yield item.target.id, bool({"default", "default_factory"}
                                       & set(options))
        else:
            yield item.target.id, value is not None


def _defaulted_parameters():
    """(qualified name, function name, parameter, position) of each parameter
    with a default; position counts the arguments a call passes before it,
    and is None for a keyword-only parameter.  A dataclass's constructor
    takes its init fields, in order, under the class's name."""
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
                if _is_dataclass(node):
                    for position, (name, default) in enumerate(
                            _init_fields(node)):
                        if default:
                            yield prefix, node.name, name, position
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


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls():
    """(callee name, call) of every call in the programs to a name or an
    attribute that is not inside a function of the callee's name.  An
    attribute of a module bound by ``import X``, X not the package (such as
    ``subprocess.run``), is no callee."""
    for path in PROGRAMS:
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name.split(".")[0]
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names
                   if alias.name.split(".")[0] != "sofic_spectra"}
        recursions = {id(node) for function in ast.walk(tree)
                      if isinstance(function, FUNCTIONS)
                      for node in ast.walk(function)
                      if isinstance(node, ast.Call)
                      and _callee(node) == function.name}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in recursions
                    and not (isinstance(node.func, ast.Attribute)
                             and isinstance(node.func.value, ast.Name)
                             and node.func.value.id in modules)):
                name = _callee(node)
                if name is not None:
                    yield name, node


def _positional(call: ast.Call) -> int:
    """The positional arguments a call gives before any * argument."""
    return next((i for i, a in enumerate(call.args)
                 if isinstance(a, ast.Starred)), len(call.args))


def _passed() -> tuple[set, dict]:
    """({(function name, keyword)}, {function name: most positional
    arguments before any * argument}) over the calls of _calls."""
    keywords, positional = set(), {}
    for name, node in _calls():
        positional[name] = max(positional.get(name, 0), _positional(node))
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


def _leaves_default(call: ast.Call, name: str, position) -> bool:
    """The call gives the parameter neither by keyword nor by position, and
    has no * or ** argument that could give it."""
    return (_positional(call) == len(call.args)
            and all(k.arg is not None and k.arg != name
                    for k in call.keywords)
            and (position is None or len(call.args) <= position))


def test_every_defaulted_parameter_is_left_at_its_default_somewhere():
    calls = list(_calls())
    always_passed = [f"{qualified}({name})"
                     for qualified, function, name, position
                     in _defaulted_parameters()
                     if not any(callee == function
                                and _leaves_default(call, name, position)
                                for callee, call in calls)]
    # an allowlisted parameter must exist and still be given by every call
    assert sorted(always_passed) == sorted(ALLOWED_EXPLICIT)


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


def _schema_words(schema) -> set:
    """Property names and enum and const values anywhere in a schema."""
    words = set()
    if isinstance(schema, dict):
        words |= set(schema.get("properties", ()))
        words |= set(schema.get("enum", ()))
        if "const" in schema:
            words.add(schema["const"])
        schema = list(schema.values())
    for sub in schema if isinstance(schema, list) else ():
        words |= _schema_words(sub)
    return words


def _schema_defaults(schema: dict, path=(), pipelines=None):
    """(dotted path, default, pipelines that read it) of each default in a
    schema; an item's path is its array's, and a default under no if on the
    pipeline is read by every pipeline."""
    from sofic_spectra.cli import PIPELINES
    pipelines = pipelines or PIPELINES
    for key, sub in schema.get("properties", {}).items():
        if "default" in sub:
            yield ".".join(path + (key,)), sub["default"], pipelines
        yield from _schema_defaults(sub, path + (key,), pipelines)
    if "items" in schema:
        yield from _schema_defaults(schema["items"], path, pipelines)
    for sub in schema.get("allOf", ()):
        yield from _schema_defaults(sub, path, pipelines)
    if "if" in schema:
        test = schema["if"]["properties"].get("pipeline")
        yield from _schema_defaults(
            schema["then"], path, pipelines if test is None else
            tuple(test.get("enum", [test.get("const")])))


def _key_schema(schema: dict, path: str) -> dict:
    """The schema of the key at a dotted path, an array standing for its
    items."""
    for key in path.split("."):
        schema = schema.get("items", schema)["properties"][key]
    return schema


def _by_value(defaults) -> dict:
    """{(path, default as JSON): the pipelines that read it at that value}"""
    table = {}
    for path, default, pipelines in defaults:
        key = path, json.dumps(default, sort_keys=True)
        table[key] = table.get(key, frozenset()) | frozenset(pipelines)
    return table


def test_each_schema_default_passes_the_schema_of_its_key():
    from sofic_spectra.cli import CONFIG_SCHEMA, _violations
    defaults = list(_schema_defaults(CONFIG_SCHEMA))
    assert defaults
    for path, default, _ in defaults:
        assert list(_violations(default, _key_schema(CONFIG_SCHEMA, path),
                                path)) == []


def test_cli_states_no_config_default_outside_the_schema():
    # a two-argument .get on a config object is a default the schema does
    # not state; the schema walkers' reads of their schemas are no config
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    gets = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) + len(node.keywords) >= 2
            and not (isinstance(node.func.value, ast.Name)
                     and node.func.value.id == "schema")]
    assert gets == []


def test_readme_config_words_are_in_the_schema():
    from sofic_spectra.cli import CONFIG_SCHEMA, PIPELINES
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                  flags=re.S)
    # the table of defaults: key paths, the default as JSON, the pipelines
    # that read it (none named: every pipeline)
    table = re.search(r"^\| key \| default \| read by \|\n(?:\|.*\n)+",
                      text, flags=re.M)
    stated = [(path, json.loads(default),
               tuple(p for p in PIPELINES if p in read_by) or PIPELINES)
              for keys, default, read_by in re.findall(
                  r"^\|([^|]*)\| `([^`]*)` \|([^|]*)\|$", table.group(0),
                  flags=re.M)
              for path in re.findall(r"`([^`]+)`", keys)]
    assert len(_by_value(stated)) == len(stated)   # each stated once
    # an object's {} default only opens it to its keys' defaults
    assert _by_value(stated) == _by_value(
        d for d in _schema_defaults(CONFIG_SCHEMA) if d[1] != {})
    # the defaults' JSON is read against the schema's, not as config words
    text = text.replace(table.group(0), "")
    spans = re.findall(r"`([^`]+)`", text)
    named = {word for span in spans
             for word in re.findall(r'"([A-Za-z]\w*)"\s*:', span)}
    named |= {m.group(1) for span in spans
              if (m := re.fullmatch(r'"([A-Za-z]\w*)"', span))}
    assert named  # the config keys section is read
    assert sorted(named - _schema_words(CONFIG_SCHEMA)) == []


def test_readme_library_tour_runs():
    tour = re.search(r"## Library tour\s*```python\n(.*?)```",
                     (ROOT / "README.md").read_text(), flags=re.S)
    exec(compile(tour.group(1), "README.md", "exec"), {})


# record field -> why it stays although only tests read it
ALLOWED_FIELDS = {
    "monotone.MonotoneIDSReport.step_min_eigenvalues": "the least "
        "eigenvalue of each step's difference; its solves are pinned by the "
        "benchmark's trace counts until the benchmark is re-pinned",
    "spectral.Spectrum.residual": "the trace-identity defect of a float "
        "solve, which the run manifest is to record",
}


def _record_fields():
    """(qualified name, name) of each field of the package's top-level
    dataclasses."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        name = item.target.id
                        yield f"{path.stem}.{node.name}.{name}", name


def _attributes_read() -> set:
    """Names read as attributes in the programs: a string such as a CSV
    header or a config key reads no field."""
    return {node.attr for path in PROGRAMS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_record_field_is_read_outside_the_tests():
    read = _attributes_read()
    unread = [qualified for qualified, name in _record_fields()
              if name not in read]
    # an allowlisted field must exist and still be read by no program
    assert sorted(unread) == sorted(ALLOWED_FIELDS)
