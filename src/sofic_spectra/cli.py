"""Config-driven experiment pipelines with reproducible outputs.

Four pipelines: sofic-diagnostics (goodness/defect/le statistics),
weak-convergence (trace moments against the enumeration oracle plus IDS
distances), luck-atoms (atom masses and the integer punctured-interval law)
and monotone (rational schedule convergence).  Every sampled pipeline draws
sample j of size i from `sample_rng(seed, i, j)` through `sample_ensemble`.
`_ensemble` assembles each sample on the sofic graph for graph_schrodinger,
else by `assemble_induced`, which alone picks the goodness radius (the
pipelines pass it no report).  CONFIG_SCHEMA states each default once, and
the pipelines read the config that `validate_config` returns, filled with
the defaults that apply.  A run emits CSV/JSON files with fixed
17-significant-digit float rendering plus a gnuplot script, and a manifest
that pins the config and its hash, the filled config and the outputs;
re-running a manifest reproduces the data files byte for byte.  `run`
checks a config and builds its objects before it makes the output
directory, so a config fault writes nothing.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .exact import ComplexRational
from .groups import BallCapacityError, GroupSpec, free_group, lattice_group
from .measures import (
    DEFAULT_ENUM_BUDGET,
    Alphabet,
    EnumerationBudgetError,
    IIDProduct,
    MeasureModel,
    Mixture,
    check_fits,
    lattice_periodic,
    le_diagnostic,
    model_alphabet,
    sample_ensemble,
)
from .monotone import build_schedule, monotone_ids_report, value_sets_of
from .operators import (
    LocalRule,
    adjacency_rule,
    assemble_graph_schrodinger,
    assemble_induced,
    diagonal_rule,
    expected_moment,
    laplacian_rule,
    schrodinger_rule,
    table_rule,
    trace_moments,
    validate_local_rule,
)
from .sofic import (
    SoficApproximation,
    good_vertices,
    lattice_quotient,
    product_with_quotient,
    random_permutation_approximation,
    sofic_defect,
    torus_approximation,
)
from .spectral import (
    DEFAULT_DENSE_BUDGET,
    PUNCTURED_CLUSTER_TOL,
    atom_mass,
    eigen_spectrum,
    ids_curve,
    kolmogorov_distance,
    punctured_mass,
    punctured_mass_bound,
    reference_ids,
)

PIPELINES = ("sofic-diagnostics", "weak-convergence", "luck-atoms", "monotone")


def _kind(*kinds: str) -> dict:
    return {"properties": {"kind": {"enum": list(kinds)}}, "required": ["kind"]}


def _if(condition: dict, then: dict) -> dict:
    """An object with condition's keys, each matching there, matches then."""
    return {"if": {"properties": condition, "required": list(condition)},
            "then": then}


def _fact(description: str, condition: dict, **then: dict) -> dict:
    """A config matching condition has the properties then; a config that
    breaks the fact is told its description."""
    return _if(condition, {"properties": then, "description": description})


def _members(**defaults) -> dict:
    """An object that reads each key of defaults it omits at its value."""
    return {"properties": {key: {"default": value}
                           for key, value in defaults.items()}}


def _defaults(condition: dict, **defaults) -> dict:
    return _if(condition, _members(**defaults))


def _needs(what: str, key: str) -> dict:
    return {"required": [key], "description": f"{what} config needs {key!r}"}


def _kinds(noun: str, properties: dict, *branches: dict, **needs) -> dict:
    """A config object of a kind among needs' keys, needing the keys listed
    for its kind, with the given properties only, and branches."""
    return {"type": "object", "required": ["kind"],
            "additionalProperties": False,
            "properties": {"kind": {"enum": list(needs)}, **properties},
            "allOf": [*branches, *(
                _if({"kind": {"const": kind}}, _needs(f"{kind} {noun}", key))
                for kind, keys in needs.items() for key in keys)]}


def _at_least(minimum: int) -> dict:
    return {"type": "integer", "minimum": minimum}


_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_STRINGS = {"type": "array", "items": {"type": "string"}}
_NUMBER = {"type": "number"}
_MEASURE = {"alphabet": _STRINGS, "period": _INTEGERS, "pattern": _INTEGERS,
            "weights": {"type": "array", "items": {**_NUMBER, "minimum": 0}}}
_MEASURE_NEEDS = {"iid": ["weights"], "periodic": ["period", "pattern"]}
# a mixture's alphabet is its components', so it takes no default
_ALPHABET = _defaults({"kind": {"enum": ["iid", "periodic"]}},
                      alphabet=["0", "1"])
_BETA_GRID = {"min": -5.0, "max": 1.0, "points": 241}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["pipeline", "group", "sofic", "seed"],
    "additionalProperties": False,
    "properties": {
        "pipeline": {"enum": list(PIPELINES)},
        "group": _kinds("group", {"d": _at_least(1), "rank": _at_least(1)},
                        lattice=["d"], free=["rank"]),
        "sofic": _kinds("sofic", {"sizes": {**_INTEGERS, "minItems": 1},
                                  "seed": _at_least(0), "moduli": _INTEGERS},
                        _defaults({"kind": {"const": "random_perm"}}, seed=0),
                        torus=["sizes"], random_perm=["sizes"],
                        product=["sizes", "moduli"]),
        "measure": _kinds("measure", {**_MEASURE, "components": {
            "type": "array", "items": _kinds("measure", _MEASURE, _ALPHABET,
                                             **_MEASURE_NEEDS)}},
            _ALPHABET, **_MEASURE_NEEDS, mixture=["components", "weights"]),
        "operator": _kinds("operator", {
            "M": _at_least(0),
            "potential": {"type": "object"}, "values": {"type": "object"},
            "entries": {"type": "array", "items": {
                "type": "object", "additionalProperties": False,
                "properties": {"g": _INTEGERS, "window": _INTEGERS,
                               "re": {"type": "string", "default": "0"},
                               "im": {"type": "string", "default": "0"}},
                "allOf": [_needs("table entry", "g"),
                          _needs("table entry", "window")]}}},
            laplacian=[], adjacency=[], schrodinger=["potential"],
            graph_schrodinger=["potential"], diagonal=["values"],
            table=["M", "entries"]),
        "radii": {"type": "object", "additionalProperties": False,
                  "properties": {"cylinder": _at_least(0),
                                 "goodness": _at_least(0),
                                 "defect": _at_least(1)}},
        "beta_grid": {"type": "object", "additionalProperties": False,
                      "required": ["min", "max", "points"],
                      "properties": {"min": _NUMBER, "max": _NUMBER,
                                     "points": _at_least(2)}},
        "samples": _at_least(1),
        "k_max": _at_least(1),
        "eps": {**_NUMBER, "exclusiveMinimum": 0},
        "alpha_values": _STRINGS,
        "punctured_eps": {"type": "array", "items": {
            **_NUMBER, "exclusiveMinimum": PUNCTURED_CLUSTER_TOL}},
        "monotone": {"type": "object", "additionalProperties": False,
                     "properties": {"m_max": _at_least(1)}},
        "reference": {"enum": ["lattice_laplacian"]},
        "seed": _at_least(0),
        "out_dir": {"type": "string", "default": "results"},
    },
    # facts across objects, checked once each object passes on its own
    "allOf": [
        _if({"pipeline": {"enum": list(PIPELINES[1:])}},
            {"required": ["measure", "operator"]}),
        _fact("torus and product models need a lattice group",
              {"sofic": _kind("torus", "product")}, group=_kind("lattice")),
        _fact("random_perm models need a free group",
              {"sofic": _kind("random_perm")}, group=_kind("free")),
        _fact("periodic measures need a lattice group", {"group": _kind("free")},
              measure={"properties": {"kind": {"enum": ["iid", "mixture"]},
                                      "components": {"items": _kind("iid")}}}),
        _fact("reference lattice_laplacian needs Z or Z^2", {"reference": {}},
              group={"properties": {"kind": {"const": "lattice"},
                                    "d": {"maximum": 2}}}),
        _fact("the monotone pipeline uses the strict induced assembly",
              {"pipeline": {"const": "monotone"}}, operator=_kind(
                  "laplacian", "adjacency", "schrodinger", "diagonal",
                  "table")),
        # what a pipeline reads where the config omits it
        _if({"pipeline": {"const": "sofic-diagnostics"}}, {"properties": {
            "radii": {"default": {}, **_members(cylinder=1, goodness=2,
                                                defect=2)}}}),
        _defaults({"pipeline": {"const": "sofic-diagnostics"}, "measure": {}},
                  eps=0.05, samples=200),
        _defaults({"pipeline": {"const": "weak-convergence"}}, samples=10,
                  k_max=4, beta_grid=_BETA_GRID),
        _defaults({"pipeline": {"const": "luck-atoms"}}, samples=20,
                  punctured_eps=[0.01], alpha_values=["0", "1"]),
        _if({"pipeline": {"const": "monotone"}}, {"properties": {
            "beta_grid": {"default": _BETA_GRID},
            "monotone": {"default": {}, **_members(m_max=6)}}}),
    ],
}


class ConfigError(ValueError):
    pass


_TYPE_TESTS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # stricter than JSON Schema, which takes 2.0 as an integer and NaN or
    # infinity as a number
    "integer": lambda x: type(x) is int,
    "number": lambda x: type(x) is int or (type(x) is float
                                            and math.isfinite(x)),
}


def _violations(x, schema: dict, path: str):
    """Each way x breaks a schema of CONFIG_SCHEMA's keywords, lazily, as
    "<path> <reason>"; a schema with a description is broken at most once,
    as "<path>: <description>".

    Only the type tests are stricter than JSON Schema; every other keyword
    passes a value of a type it does not apply to, as in JSON Schema, so an
    ``if`` that tests no type is decided as JSON Schema decides it, and a
    ``default`` is no test.  A keyword the check does not handle raises
    ValueError.
    """
    if "description" in schema:
        rest = {k: v for k, v in schema.items() if k != "description"}
        if next(_violations(x, rest, path), None) is not None:
            yield f"{path}: {schema['description']}"
        return
    is_number = _TYPE_TESTS["number"](x)
    for key, want in schema.items():
        if key == "type":
            if want not in _TYPE_TESTS:
                raise ValueError(f"config check does not handle type {want!r}")
            if not _TYPE_TESTS[want](x):
                yield f"{path} fails type {want!r}"
        elif key in ("enum", "const"):
            options = want if key == "enum" else [want]
            if not all(isinstance(o, str) for o in options):
                raise ValueError(f"config check handles string {key} only")
            if x not in options:
                yield f"{path} is {x!r}, not one of {options}"
        elif key in ("if", "then", "default"):  # "then" goes with its "if"
            if key == "if" and next(_violations(x, want, path), None) is None:
                yield from _violations(x, schema.get("then", {}), path)
        elif key == "allOf":
            for sub in want:
                yield from _violations(x, sub, path)
        elif key == "properties":
            for k, sub in want.items():
                if isinstance(x, dict) and k in x:
                    yield from _violations(x[k], sub, f"{path}.{k}")
        elif key == "items":
            for i, y in enumerate(x if isinstance(x, list) else ()):
                yield from _violations(y, want, f"{path}[{i}]")
        elif key == "required":
            for k in want if isinstance(x, dict) else ():
                if k not in x:
                    yield f"{path} needs {k!r}"
        elif key == "additionalProperties":
            if want is not False:
                raise ValueError("config check handles additionalProperties "
                                 "false only")
            for k in x if isinstance(x, dict) else ():
                if k not in schema.get("properties", ()):
                    yield f"{path} has unexpected key {k!r}"
        elif key == "minItems":
            if isinstance(x, list) and len(x) < want:
                yield f"{path} has fewer than {want} items"
        elif key == "minimum":
            if is_number and x < want:
                yield f"{path} is less than the minimum {want}"
        elif key == "maximum":
            if is_number and x > want:
                yield f"{path} is greater than the maximum {want}"
        elif key == "exclusiveMinimum":
            if is_number and x <= want:
                yield f"{path} is less than or equal to the exclusive " \
                      f"minimum {want}"
        else:
            raise ValueError(f"config check does not handle {key!r}")


def _fill(x, schema: dict):
    """x, with each default of schema that applies to it filled in place.
    Branches fill before properties, so that an object a branch gave gets
    its members' defaults."""
    for sub in schema.get("allOf", ()):
        _fill(x, sub)
    if "if" in schema and next(_violations(x, schema["if"], ""), None) is None:
        _fill(x, schema.get("then", {}))
    if isinstance(x, dict):
        for k, sub in schema.get("properties", {}).items():
            if k not in x and "default" in sub:
                x[k] = copy.deepcopy(sub["default"])
            if k in x:
                _fill(x[k], sub)
    for y in x if isinstance(x, list) and "items" in schema else ():
        _fill(y, schema["items"])
    return x


def validate_config(config: dict) -> dict:
    """Check a config against CONFIG_SCHEMA and the size schedule, and
    return a copy with every default that applies to it filled in.  The
    first violation of the schema is a ConfigError naming its path."""
    reason = next(_violations(config, CONFIG_SCHEMA, "config"), None)
    if reason is not None:
        raise ConfigError(reason)
    sizes = config["sofic"]["sizes"]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("config.sofic.sizes must be strictly increasing")
    return _fill(copy.deepcopy(config), CONFIG_SCHEMA)


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigObjects:
    """What a config names, each built once by build_objects.  The measure,
    the rule with its graph potential (None for the induced assembly), the
    alpha values and the weak-convergence moment oracle {k: expected_moment}
    are left at their defaults where no pipeline reads them."""

    group: GroupSpec
    sigmas: list
    model: Optional[MeasureModel] = None
    rule: Optional[LocalRule] = None
    potential: Optional[list] = None
    alphas: tuple = ()
    oracle: dict = field(default_factory=dict)


def build_objects(config: dict) -> ConfigObjects:
    """The objects of a config that validate_config returned.  A constructor's
    refusal is a ConfigError naming the object, and so is a size the dense
    eigensolver would refuse (a rule with a nonzero off-identity
    coefficient keeps its operators off the exact diagonal path) and a
    k_max whose exact moment oracle would enumerate too many windows."""
    g = config["group"]
    group = lattice_group(g["d"]) if g["kind"] == "lattice" else \
        free_group(g["rank"])
    path = "config.sofic"
    try:
        sigmas = sofic_family(config, group)
        if "measure" not in config:
            return ConfigObjects(group, sigmas)
        path = "config.measure"
        model = measure_from_config(config["measure"], group, path)
        alphabet = model_alphabet(model)
        for sigma in sigmas:
            check_fits(model, sigma)
        if config["pipeline"] == "sofic-diagnostics":
            return ConfigObjects(group, sigmas, model)
        path = "config.operator"
        rule, potential = operator_from_config(config["operator"], group,
                                               alphabet)
        path = "config"
        alphas = () if "alpha_values" not in config else tuple(
            _parse_rational(a, "alpha_values")
            for a in config["alpha_values"])
    except ConfigError:         # the period check names its own path
        raise
    except (ValueError, BallCapacityError) as err:
        raise ConfigError(f"{path}: {err}") from err
    for i, sigma in enumerate(sigmas if rule.realized_value_sets()[1] else ()):
        if sigma.n_vertices > DEFAULT_DENSE_BUDGET:
            raise ConfigError(
                f"config.sofic.sizes[{i}]: {sigma.n_vertices} vertices exceed "
                f"the dense eigensolver budget {DEFAULT_DENSE_BUDGET}")
    oracle = {}
    if config["pipeline"] == "weak-convergence":
        k_max = config["k_max"]
        try:
            # the highest order reads the most sites, so it meets the
            # budget before any lower order is enumerated
            oracle = {k: expected_moment(rule, model, k)
                      for k in range(k_max, 0, -1)}
        except EnumerationBudgetError:
            raise ConfigError(
                f"config.k_max: the exact moment of order {k_max} needs more "
                f"window assignments than the budget {DEFAULT_ENUM_BUDGET}"
            ) from None
    return ConfigObjects(group, sigmas, model, rule, potential, alphas, oracle)


def sofic_family(config: dict, group: GroupSpec) -> list[SoficApproximation]:
    scfg = config["sofic"]
    sigmas = []
    for size_index, n in enumerate(scfg["sizes"]):
        if scfg["kind"] == "random_perm":
            seed = int(np.random.SeedSequence(
                entropy=scfg["seed"],
                spawn_key=(size_index,)).generate_state(1)[0])
            sigmas.append(random_permutation_approximation(group.rank, n, seed))
            continue
        sigma = torus_approximation(group.d, n)
        if scfg["kind"] == "product":
            sigma = product_with_quotient(
                sigma, lattice_quotient(group.d, scfg["moduli"]))
        sigmas.append(sigma)
    return sigmas


def measure_from_config(cfg: dict, group: GroupSpec,
                        path: str) -> MeasureModel:
    """The measure at path; a period that is not one length per coordinate
    of the lattice is a ConfigError naming it."""
    if cfg["kind"] == "mixture":
        return Mixture(components=tuple(
            measure_from_config(c, group, f"{path}.components[{i}]")
            for i, c in enumerate(cfg["components"])),
            weights=tuple(cfg["weights"]))
    alpha = Alphabet(symbols=tuple(cfg["alphabet"]))
    if cfg["kind"] == "iid":
        return IIDProduct(alphabet=alpha, weights=tuple(cfg["weights"]))
    if len(cfg["period"]) != group.d:
        raise ConfigError(f"{path}.period needs one length per coordinate "
                          f"of Z^{group.d}, not {len(cfg['period'])}")
    return lattice_periodic(alpha, cfg["period"], cfg["pattern"])


def _parse_rational(text, key: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key!r} value {text!r} is not a rational") from None


def operator_from_config(cfg: dict, group: GroupSpec, alphabet: Alphabet
                         ) -> tuple[LocalRule, Optional[list]]:
    """Returns (rule, potential): the Schrodinger potential F of a
    graph_schrodinger operator, which is assembled on the sofic graph, and
    None for the induced assembly of every other kind.  Only a table rule is
    validated: the other kinds are self-adjoint by construction."""
    kind = cfg["kind"]
    potential = None
    if kind == "laplacian":
        rule = laplacian_rule(group, alphabet)
    elif kind == "adjacency":
        rule = adjacency_rule(group, alphabet)
    elif kind in ("schrodinger", "graph_schrodinger"):
        potential = _per_symbol(cfg, "potential", alphabet)
        rule = schrodinger_rule(group, alphabet, potential)
    elif kind == "diagonal":
        rule = diagonal_rule(group, alphabet, _per_symbol(cfg, "values", alphabet))
    else:
        rule = table_rule(group, alphabet, cfg["M"], [
            (tuple(item["g"]), tuple(item["window"]),
             ComplexRational(_parse_rational(item["re"], "re"),
                             _parse_rational(item["im"], "im")))
            for item in cfg["entries"]])
        try:
            witnesses = validate_local_rule(rule)
        except EnumerationBudgetError:
            witnesses = []  # too many windows: assembly's Hermitian check decides
        if witnesses:
            raise ValueError("table operator is not self-adjoint: element "
                             "{}, window {}".format(*witnesses[0]))
    return rule, potential if kind == "graph_schrodinger" else None


def _per_symbol(cfg: dict, key: str, alphabet: Alphabet) -> list[Fraction]:
    """The operator's map cfg[key], read once per symbol of the alphabet."""
    table = cfg[key]
    for s in alphabet.symbols:
        if s not in table:
            raise ValueError(f"{key!r} gives no value for symbol {s!r}")
    return [_parse_rational(table[s], key) for s in alphabet.symbols]


def _ensemble(config: dict, objects: ConfigObjects, n_samples: int):
    """Per size, sigma and a generator assembling each of its n_samples
    sample_ensemble configurations: on the sofic graph given a potential,
    else by assemble_induced, which picks the goodness radius and scans it
    once per model."""
    def operators(sigma, samples):
        for rho in samples:
            if objects.potential is None:
                yield assemble_induced(objects.rule, sigma, rho)
            else:
                yield assemble_graph_schrodinger(
                    sigma, rho, objects.rule.alphabet, objects.potential)
    return ((sigma, operators(sigma, samples)) for sigma, samples in
            sample_ensemble(objects.model, objects.sigmas, config["seed"],
                            n_samples))


# ---------------------------------------------------------------------------
# Deterministic output helpers
# ---------------------------------------------------------------------------


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1,
                               separators=(",", ": ")) + "\n")


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def shared_hash(config: dict) -> str:
    shared = ("group", "measure", "operator")
    return config_hash({k: config.get(k) for k in shared})


def _check_fraction(x: float, what: str) -> float:
    if not -1e-12 <= x <= 1 + 1e-12:
        raise RuntimeError(f"{what} = {x} escapes [0, 1]")
    return min(max(x, 0.0), 1.0)


GNUPLOT_TEMPLATE = """\
# gnuplot script generated alongside the run outputs
set datafile separator ','
set key autotitle columnhead
set grid
{plots}
"""


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _pipeline_sofic_diagnostics(config, objects, out):
    radii = config["radii"]
    r_good, r_defect = radii["goodness"], radii["defect"]
    rows = []
    for sigma in objects.sigmas:
        rep = good_vertices(sigma, r_good)
        defects = sofic_defect(sigma, r_defect)
        rows.append([sigma.n_vertices, r_good,
                     _check_fraction(rep.fraction, "good fraction"),
                     defects.max_hom_defect, defects.max_fix_defect])
    write_csv(out / "goodness.csv",
              ["n", "radius", "good_fraction", "max_hom_defect",
               "max_fix_defect"], rows)
    outputs = ["goodness.csv"]
    if objects.model is not None:
        le_rows = le_diagnostic(objects.model, objects.sigmas,
                                radii["cylinder"], eps=config["eps"],
                                sample_count=config["samples"],
                                seed=config["seed"])
        write_csv(out / "le.csv",
                  ["n", "R", "eps", "lw_fraction", "le_fraction",
                   "le_halfwidth"],
                  [[sigma.n_vertices, radii["cylinder"], config["eps"],
                    _check_fraction(r.lw_fraction, "lw fraction"),
                    _check_fraction(r.le_fraction, "le fraction"),
                    r.le_halfwidth]
                   for sigma, r in zip(objects.sigmas, le_rows)])
        outputs.append("le.csv")
    return outputs


def _beta_grid(config) -> np.ndarray:
    g = config["beta_grid"]
    return np.linspace(g["min"], g["max"], g["points"])


def _pipeline_weak_convergence(config, objects, out):
    k_max = len(objects.oracle)
    grid = _beta_grid(config)
    moment_rows = []
    dist_rows = []
    curves = {}
    for sigma, operators in _ensemble(config, objects, config["samples"]):
        # sample 0's IDS is written and follows eigh's rounding of degenerate
        # eigenvalues, so eigh solves it (eigenvectors unused), after samples
        # 1..n-1 so that their solves do not run on the heap it fragments;
        # its operator is the one held
        first = next(operators)
        moments = [trace_moments(first, k_max)]
        for op in operators:
            eigen_spectrum(op)
            moments.append(trace_moments(op, k_max))
        spec = eigen_spectrum(first, vectors=True)
        for k, emp in enumerate(np.array(moments, dtype=float).T, start=1):
            se = float(emp.std(ddof=1) / np.sqrt(len(emp))) if len(emp) > 1 else 0.0
            # the oracle is exact, so its standard error is 0
            moment_rows.append([sigma.n_vertices, k, float(emp.mean()), se,
                                objects.oracle[k].value, 0])
        curve = ids_curve(spec, grid)
        curves[sigma.n_vertices] = curve
        write_csv(out / f"ids_{sigma.n_vertices}.csv", ["beta", "value"],
                  [[b, _check_fraction(v, "IDS value")]
                   for b, v in zip(curve.xs, curve.ys)])
        write_json(out / f"ids_{sigma.n_vertices}.json",
                   {"beta": [fmt(b) for b in curve.xs],
                    "value": [fmt(v) for v in curve.ys]})
    write_csv(out / "moments.csv",
              ["n", "k", "empirical_mean", "empirical_se", "oracle",
               "oracle_se"], moment_rows)
    biggest = max(curves)
    for n, curve in sorted(curves.items()):
        if "reference" in config:
            # evaluate the analytic curve on the merged grid so the distance
            # is not floored by interpolation error at the band edges
            target = reference_ids(config["reference"], objects.group.d,
                                   curve.xs)
        else:
            target = curves[biggest]
        dist_rows.append([n, kolmogorov_distance(curve, target)])
    write_csv(out / "distances.csv", ["n", "kolmogorov"], dist_rows)
    outputs = ["moments.csv", "distances.csv"]
    for n in sorted(curves):
        outputs += [f"ids_{n}.csv", f"ids_{n}.json"]
    return outputs


def _pipeline_luck_atoms(config, objects, out):
    eps_list = config["punctured_eps"]
    n_samples = config["samples"]
    atom_rows = []
    punct_rows = []
    for sigma, operators in _ensemble(config, objects, n_samples):
        results = [(eigen_spectrum(op), op.row_sum_bound(), op.denominator())
                   for op in operators]
        for alpha in objects.alphas:
            masses = np.array([atom_mass(spec, alpha) for spec, _, _ in results])
            atom_rows.append([sigma.n_vertices, str(alpha),
                              float(masses.mean()),
                              float(masses.std(ddof=1)) if len(masses) > 1 else 0.0,
                              n_samples])
        # D*H has Gaussian-integer entries for every sample's H
        den = math.lcm(*(den for _, _, den in results))
        for eps in eps_list:
            punct = [punctured_mass(spec, 0.0, eps) for spec, _, _ in results]
            if den * eps >= 1:
                bound = ok = "na"
            else:
                bounds = [punctured_mass_bound(max(1.0, den * rb), eps, den)
                          for _, rb, _ in results]
                bound = max(bounds)
                ok = all(m <= b for m, b in zip(punct, bounds))
            punct_rows.append([sigma.n_vertices, eps, max(punct), bound, ok])
    write_csv(out / "atoms.csv",
              ["n", "alpha", "mean_mass", "sd", "samples"], atom_rows)
    write_csv(out / "punctured.csv",
              ["n", "eps", "max_punctured", "bound", "ok"], punct_rows)
    violated = [row[:2] for row in punct_rows if row[4] is False]
    if violated:
        raise RuntimeError(f"punctured-interval bound violated at (n, eps) "
                           f"= {violated}; see punctured.csv")
    return ["atoms.csv", "punctured.csv"]


def _pipeline_monotone(config, objects, out):
    sched = build_schedule(value_sets_of(objects.rule),
                           config["monotone"]["m_max"])
    grid = _beta_grid(config)
    outputs = []
    summary_rows = []
    for sigma, (rho,) in sample_ensemble(objects.model, objects.sigmas,
                                         config["seed"], 1):
        report = monotone_ids_report(objects.rule, sched, sigma, rho, grid)
        n = sigma.n_vertices
        # monotone_ids_report raises on any step it cannot certify
        rows = [[m, b, count / n, target / n, True]
                for m, counts in enumerate(report.counts.tolist(), 1)
                for b, count, target in zip(grid, counts,
                                            report.target_counts.tolist())]
        name = f"monotone_{n}.csv"
        write_csv(out / name, ["m", "beta", "N_m", "N_target",
                               "psd_certified"], rows)
        outputs.append(name)
        max_gaps = (report.counts - report.target_counts).max(axis=1) / n
        summary_rows += [[n, m, *gaps] for m, gaps in enumerate(
            zip(max_gaps, report.norm_gaps, report.norm_bounds), 1)]
    write_csv(out / "monotone_summary.csv",
              ["n", "m", "max_gap", "norm_gap", "norm_bound"], summary_rows)
    outputs.append("monotone_summary.csv")
    return outputs


def _write_gnuplot(out: Path, pipeline: str, outputs: list[str]) -> None:
    plots = []
    if pipeline == "weak-convergence":
        ids = [o for o in outputs if o.startswith("ids_")]
        if ids:
            series = ", ".join(f"'{name}' using 1:2 with steps" for name in ids)
            plots.append(f"set title 'integrated density of states'\nplot {series}")
        plots.append("set title 'Kolmogorov distance'\n"
                     "plot 'distances.csv' using 1:2 with linespoints")
    elif pipeline == "luck-atoms":
        plots.append("set title 'atom masses'\n"
                     "plot 'atoms.csv' using 1:3 with linespoints")
    elif pipeline == "monotone":
        plots.append("set title 'monotone IDS gap'\n"
                     "plot 'monotone_summary.csv' using 2:3 with linespoints")
    else:
        plots.append("set title 'good fraction'\n"
                     "plot 'goodness.csv' using 1:3 with linespoints")
    (out / "plots.gp").write_text(GNUPLOT_TEMPLATE.format(plots="\n".join(plots)))


def run(config: dict, out_dir) -> dict:
    """Execute a pipeline config into out_dir (None: the config's
    ``out_dir``); returns the manifest dict.  Every config fault is a
    ConfigError raised before the output directory is made.  A run that
    fails in its pipeline writes the same manifest, with no outputs and the
    error, before it re-raises."""
    effective = validate_config(config)
    objects = build_objects(effective)
    out = Path(out_dir if out_dir is not None else effective["out_dir"])
    effective["out_dir"] = str(out)
    out.mkdir(parents=True, exist_ok=True)
    pipeline = config["pipeline"]
    stages = {
        "sofic-diagnostics": _pipeline_sofic_diagnostics,
        "weak-convergence": _pipeline_weak_convergence,
        "luck-atoms": _pipeline_luck_atoms,
        "monotone": _pipeline_monotone,
    }
    manifest = {
        "code_version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "effective_config": effective,
        "shared_hash": shared_hash(effective),
        "outputs": [],
    }
    t0 = time.monotonic()
    try:
        outputs = stages[pipeline](effective, objects, out)
        _write_gnuplot(out, pipeline, outputs)
        manifest["outputs"] = outputs + ["plots.gp"]
    except BaseException as err:
        manifest["error"] = f"{type(err).__name__}: {err}"
        raise
    finally:
        manifest["wall_clock_seconds"] = time.monotonic() - t0
        write_json(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(manifest_paths: list) -> dict:
    """Cross-run table for runs whose filled group/measure/operator agree."""
    manifests = []
    for p in manifest_paths:
        manifest = json.loads(Path(p).read_text())
        if "error" in manifest:
            raise ConfigError(f"{p} is the manifest of a failed run: "
                              f"{manifest['error']}")
        manifests.append((Path(p).parent, manifest))
    hashes = {m["shared_hash"] for _, m in manifests}
    if len(hashes) > 1:
        raise ConfigError("manifests do not share group/measure/operator")
    table = {"distances": [], "atoms": [], "le": [], "monotone_flags": []}
    for base, manifest in manifests:
        for name in manifest["outputs"]:
            if name in ("distances.csv", "atoms.csv", "le.csv") and \
                    (base / name).exists():
                table[name.removesuffix(".csv")] += _read_csv_rows(base / name)
    dist = sorted((float(r["n"]), float(r["kolmogorov"]))
                  for r in table["distances"])
    decreasing = all(b[1] <= a[1] for a, b in zip(dist, dist[1:]))
    table["monotone_flags"] = [{"distances_decreasing": decreasing}] if dist else []
    return table


def _read_csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sofic-spectra",
        description="finite-volume spectral statistics over sofic groups")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a pipeline config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None)
    p_cmp = sub.add_parser("compare", help="cross-run convergence table")
    p_cmp.add_argument("manifests", nargs="+", type=Path)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = json.loads(args.config.read_text())
            manifest = run(config, out_dir=args.out)
            print(json.dumps({"config_hash": manifest["config_hash"],
                              "outputs": manifest["outputs"]}, indent=1))
        else:
            table = compare(args.manifests)
            print(json.dumps(table, indent=1, sort_keys=True))
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
