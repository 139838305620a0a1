"""Config-driven experiment pipelines with reproducible outputs.

Four pipelines: sofic-diagnostics (goodness/defect/le statistics),
weak-convergence (trace moments against the enumeration oracle plus IDS
distances), luck-atoms (atom masses and the integer punctured-interval law)
and monotone (rational schedule convergence).  The two sampled operator
pipelines share one ensemble (`_ensemble`), which draws sample j of size i
from `sample_rng(seed, i, j)`; monotone draws its one sample (j = 0) from the
same stream.  Only `assemble_induced` picks the goodness radius of an
induced operator; the pipelines pass it no report.  A run emits CSV/JSON
files with fixed 17-significant-digit float rendering plus a gnuplot script,
and a manifest that pins config hash, seeds and outputs; re-running a
manifest reproduces the data files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .exact import ComplexRational
from .groups import GroupSpec, finite_group, free_group, lattice_group
from .measures import (
    Alphabet,
    IIDProduct,
    MeasureModel,
    Mixture,
    lattice_periodic,
    le_diagnostic,
    model_alphabet,
    sample_configuration,
    sample_rng,
)
from .monotone import build_schedule, monotone_ids_report, value_sets_of
from .operators import (
    InducedOperator,
    LocalRule,
    adjacency_rule,
    assemble_graph_schrodinger,
    assemble_induced,
    diagonal_rule,
    expected_moment,
    laplacian_rule,
    schrodinger_rule,
    table_rule,
)
from .sofic import (
    SoficApproximation,
    good_vertices,
    random_permutation_approximation,
    sofic_defect,
    torus_approximation,
)
from .spectral import (
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

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["pipeline", "group", "sofic", "seed"],
    "additionalProperties": False,
    "if": {"properties": {"pipeline": {"enum": list(PIPELINES[1:])}},
           "required": ["pipeline"]},
    "then": {"required": ["measure", "operator"]},
    "properties": {
        "pipeline": {"enum": list(PIPELINES)},
        "group": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["lattice", "free", "finite"]},
                "d": {"type": "integer", "minimum": 1},
                "rank": {"type": "integer", "minimum": 1},
                "table": {"type": "array"},
                "generators": {"type": "array"},
            },
        },
        "sofic": {
            "type": "object",
            "required": ["kind", "sizes"],
            "properties": {
                "kind": {"enum": ["torus", "random_perm", "product"]},
                "sizes": {"type": "array", "items": {"type": "integer"},
                          "minItems": 1},
                "seed": {"type": "integer"},
                "moduli": {"type": "array", "items": {"type": "integer"}},
            },
            "if": {"properties": {"kind": {"const": "product"}},
                   "required": ["kind"]},
            "then": {"required": ["moduli"]},
        },
        "measure": {"type": "object"},
        "operator": {"type": "object"},
        "radii": {
            "type": "object",
            "properties": {
                "cylinder": {"type": "integer", "minimum": 0},
                "goodness": {"type": "integer", "minimum": 0},
                "defect": {"type": "integer", "minimum": 1},
            },
        },
        "beta_grid": {
            "type": "object",
            "required": ["min", "max", "points"],
            "properties": {
                "min": {"type": "number"},
                "max": {"type": "number"},
                "points": {"type": "integer", "minimum": 2},
            },
        },
        "samples": {"type": "integer", "minimum": 1},
        "k_max": {"type": "integer", "minimum": 1},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "alpha_values": {"type": "array", "items": {"type": "string"}},
        "punctured_eps": {"type": "array", "items": {
            "type": "number", "exclusiveMinimum": PUNCTURED_CLUSTER_TOL}},
        "monotone": {
            "type": "object",
            "properties": {"m_max": {"type": "integer", "minimum": 1}},
        },
        "reference": {"enum": ["lattice_laplacian"]},
        "seed": {"type": "integer"},
        "out_dir": {"type": "string"},
    },
}


class ConfigError(ValueError):
    pass


@functools.cache
def _config_validator():
    """A validator for CONFIG_SCHEMA, built once: jsonschema.validate would
    check the schema against its metaschema on every call."""
    import jsonschema
    return jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


_TYPE_TESTS = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    # stricter than jsonschema, which also takes 2.0 as an integer
    "integer": lambda x: type(x) is int,
    "number": lambda x: type(x) in (int, float),
}
# the keywords an "if" may use: they are decided exactly, as jsonschema does
_EXACT_KEYWORDS = ("properties", "required", "enum", "const")


def _conforms(x, schema: dict, exact: bool = False) -> bool:
    """Structural check of x against a schema of CONFIG_SCHEMA's keywords.

    True only where jsonschema accepts x; it may say False where jsonschema
    accepts, except with ``exact`` (an ``if`` branch), where the answer is
    jsonschema's.  A keyword it does not handle raises ValueError.
    """
    for key, want in schema.items():
        if exact and key not in _EXACT_KEYWORDS:
            raise ValueError(f"'if' branch uses {key!r}, not decided exactly")
        if key == "type":
            if want not in _TYPE_TESTS:
                raise ValueError(f"config check does not handle type {want!r}")
            ok = _TYPE_TESTS[want](x)
        elif key in ("enum", "const"):
            options = want if key == "enum" else [want]
            if not all(isinstance(o, str) for o in options):
                raise ValueError(f"config check handles string {key} only")
            ok = isinstance(x, str) and x in options
        elif key in ("required", "properties", "additionalProperties"):
            if not isinstance(x, dict):
                continue          # as in jsonschema, these pass non-objects
            if key == "required":
                ok = all(k in x for k in want)
            elif key == "properties":
                ok = all(_conforms(x[k], sub, exact)
                         for k, sub in want.items() if k in x)
            elif want is False:
                ok = set(x) <= set(schema.get("properties", ()))
            else:
                raise ValueError("config check handles additionalProperties "
                                 "false only")
        elif key == "items":
            ok = isinstance(x, list) and all(_conforms(y, want) for y in x)
        elif key == "minItems":
            ok = isinstance(x, list) and len(x) >= want
        elif key == "minimum":
            ok = _TYPE_TESTS["number"](x) and x >= want
        elif key == "exclusiveMinimum":
            ok = _TYPE_TESTS["number"](x) and x > want
        elif key == "if":
            ok = not _conforms(x, want, exact=True) or \
                _conforms(x, schema.get("then", {}))
        elif key == "then":
            continue              # applied with its "if"
        else:
            raise ValueError(f"config check does not handle {key!r}")
        if not ok:
            return False
    return True


def validate_config(config: dict) -> None:
    """Check a config against CONFIG_SCHEMA and the size schedule.

    A structural check (`_conforms`) runs first.  It may be stricter than
    jsonschema, never looser: every config it accepts jsonschema accepts.
    Only when it rejects a config is jsonschema imported; jsonschema then
    decides, its `best_match` words the error, and a config it finds no
    error in is accepted.
    """
    if not _conforms(config, CONFIG_SCHEMA):
        from jsonschema.exceptions import best_match
        err = best_match(_config_validator().iter_errors(config))
        if err is not None:
            raise ConfigError(f"invalid config: {err.message}") from err
    sizes = config["sofic"]["sizes"]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("size schedule must be strictly increasing")


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def _need(cfg: dict, key: str, what: str):
    """cfg[key]; a missing key is a ConfigError that names it."""
    if key not in cfg:
        raise ConfigError(f"{what} config needs {key!r}")
    return cfg[key]


def group_from_config(cfg: dict) -> GroupSpec:
    kind = cfg["kind"]
    if kind == "lattice":
        return lattice_group(_need(cfg, "d", "lattice group"))
    if kind == "free":
        return free_group(_need(cfg, "rank", "free group"))
    return finite_group(_need(cfg, "table", "finite group"),
                        _need(cfg, "generators", "finite group"))


def sofic_family(config: dict, group: GroupSpec) -> list[SoficApproximation]:
    scfg = config["sofic"]
    sigmas = []
    for size_index, n in enumerate(scfg["sizes"]):
        if scfg["kind"] == "torus":
            if group.kind != "lattice":
                raise ConfigError("torus models require a lattice group")
            sigmas.append(torus_approximation(group.d, n))
        elif scfg["kind"] == "product":
            if group.kind != "lattice":
                raise ConfigError("product models ship for lattice groups")
            from .sofic import lattice_quotient, product_with_quotient
            base = torus_approximation(group.d, n)
            quot = lattice_quotient(group.d, scfg["moduli"])
            sigmas.append(product_with_quotient(base, quot))
        else:
            if group.kind != "free":
                raise ConfigError("random_perm models require a free group")
            seed = int(np.random.SeedSequence(
                entropy=scfg.get("seed", 0),
                spawn_key=(size_index,)).generate_state(1)[0])
            sigmas.append(random_permutation_approximation(group.rank, n, seed))
    return sigmas


def alphabet_from_config(cfg: dict) -> Alphabet:
    return Alphabet(symbols=tuple(cfg.get("alphabet", ["0", "1"])))


def measure_from_config(cfg: dict, group: GroupSpec) -> MeasureModel:
    kind = _need(cfg, "kind", "measure")
    if kind == "iid":
        alpha = alphabet_from_config(cfg)
        return IIDProduct(alphabet=alpha,
                          weights=tuple(_need(cfg, "weights", "iid measure")))
    if kind == "periodic":
        alpha = alphabet_from_config(cfg)
        if group.kind != "lattice":
            raise ConfigError("periodic measures ship for lattice groups only")
        return lattice_periodic(alpha, _need(cfg, "period", "periodic measure"),
                                _need(cfg, "pattern", "periodic measure"))
    if kind == "mixture":
        comps = tuple(measure_from_config(c, group)
                      for c in _need(cfg, "components", "mixture measure"))
        return Mixture(components=comps,
                       weights=tuple(_need(cfg, "weights", "mixture measure")))
    raise ConfigError(f"unknown measure kind {kind!r}")


def _model_and_rule(config: dict, group: GroupSpec):
    """The measure, and the operator over the measure's alphabet (for a
    mixture, the alphabet its components share)."""
    try:
        model = measure_from_config(config["measure"], group)
        alphabet = model_alphabet(model)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rule, potential = operator_from_config(config["operator"], group, alphabet)
    return model, rule, potential


def _parse_rational(text, key: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{key!r} value {text!r} is not a rational") from err


def operator_from_config(cfg: dict, group: GroupSpec, alphabet: Alphabet
                         ) -> tuple[LocalRule, Optional[list]]:
    """Returns (rule, potential): the Schrodinger potential F when the
    operator is assembled on the sofic graph, None for the induced
    assembly."""
    kind = _need(cfg, "kind", "operator")
    potential = None
    if kind == "laplacian":
        rule = laplacian_rule(group, alphabet)
        potential = [Fraction(0)] * alphabet.size
    elif kind == "adjacency":
        rule = adjacency_rule(group, alphabet)
        potential = [Fraction(group.n_generators)] * alphabet.size
    elif kind in ("schrodinger", "graph_schrodinger"):
        potential = _per_symbol(cfg, "potential", alphabet)
        rule = schrodinger_rule(group, alphabet, potential)
    elif kind == "diagonal":
        rule = diagonal_rule(group, alphabet, _per_symbol(cfg, "values", alphabet))
    elif kind == "table":
        entries = []
        for item in _need(cfg, "entries", "table operator"):
            g = _parse_element(group, item["g"])
            value = ComplexRational(_parse_rational(item.get("re", "0"), "re"),
                                    _parse_rational(item.get("im", "0"), "im"))
            entries.append((g, tuple(item["window"]), value))
        rule = table_rule(group, alphabet, _need(cfg, "M", "table operator"),
                          entries)
    else:
        raise ConfigError(f"unknown operator kind {kind!r}")
    if kind != "graph_schrodinger" and cfg.get("mode", "induced") != "graph":
        return rule, None
    if potential is None:
        raise ConfigError("graph assembly takes a laplacian, adjacency or "
                          "Schrodinger operator")
    return rule, potential


def _per_symbol(cfg: dict, key: str, alphabet: Alphabet) -> list[Fraction]:
    """The operator's map cfg[key], read once per symbol of the alphabet."""
    table = cfg.get(key, {})
    for s in alphabet.symbols:
        if s not in table:
            raise ConfigError(f"operator {key!r} gives no value for symbol {s!r}")
    return [_parse_rational(table[s], key) for s in alphabet.symbols]


def _parse_element(group: GroupSpec, data):
    if group.kind == "finite":
        return int(data)
    return tuple(int(x) for x in data)


def _ensemble(config: dict, model: MeasureModel, rule: LocalRule,
              potential: Optional[list], sigmas: list, n_samples: int):
    """Per size i, sigma and a generator assembling sample j = 0..n_samples-1
    on sample_configuration(model, sigma, sample_rng(seed, i, j)): on the
    sofic graph given a potential, else by assemble_induced, which picks the
    goodness radius and scans it once per model."""
    def operators(size_index, sigma):
        for j in range(n_samples):
            rho = sample_configuration(model, sigma,
                                       sample_rng(config["seed"], size_index, j))
            if potential is None:
                yield assemble_induced(rule, sigma, rho)
            else:
                yield assemble_graph_schrodinger(sigma, rho, rule.alphabet,
                                                 potential)
    return ((sigma, operators(i, sigma)) for i, sigma in enumerate(sigmas))


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


def _pipeline_sofic_diagnostics(config, group, sigmas, out):
    radii = config.get("radii", {})
    r_good = radii.get("goodness", 2)
    r_defect = radii.get("defect", 2)
    rows = []
    for sigma in sigmas:
        rep = good_vertices(sigma, r_good)
        defects = sofic_defect(sigma, r_defect)
        rows.append([sigma.n_vertices, r_good,
                     _check_fraction(rep.fraction, "good fraction"),
                     defects.max_hom_defect, defects.max_fix_defect])
    write_csv(out / "goodness.csv",
              ["n", "radius", "good_fraction", "max_hom_defect",
               "max_fix_defect"], rows)
    outputs = ["goodness.csv"]
    if "measure" in config:
        model = measure_from_config(config["measure"], group)
        r_cyl = radii.get("cylinder", 1)
        le_rows = le_diagnostic(model, sigmas, r_cyl,
                                eps=config.get("eps", 0.05),
                                sample_count=config.get("samples", 200),
                                seed=config["seed"])
        write_csv(out / "le.csv",
                  ["n", "R", "eps", "lw_fraction", "le_fraction",
                   "le_halfwidth"],
                  [[r.n, r.radius, r.eps,
                    _check_fraction(r.lw_fraction, "lw fraction"),
                    _check_fraction(r.le_fraction, "le fraction"),
                    r.le_halfwidth] for r in le_rows])
        outputs.append("le.csv")
    return outputs


def _beta_grid(config) -> np.ndarray:
    g = config.get("beta_grid", {"min": -5.0, "max": 1.0, "points": 241})
    return np.linspace(g["min"], g["max"], g["points"])


def _trace_moments(op: InducedOperator, k_max: int) -> list[float]:
    """tr(H^k) / n for k = 1..k_max, from sparse powers."""
    A = power = op.to_sparse()
    moments = [A.diagonal().sum().real / op.n]
    for _ in range(k_max - 1):
        power = power @ A
        moments.append(power.diagonal().sum().real / op.n)
    return moments


def _pipeline_weak_convergence(config, group, sigmas, out):
    model, rule, potential = _model_and_rule(config, group)
    use_reference = config.get("reference") == "lattice_laplacian"
    if use_reference and (group.kind != "lattice" or group.d not in (1, 2)):
        raise ConfigError("reference lattice_laplacian needs Z or Z^2")
    k_max = config.get("k_max", 4)
    grid = _beta_grid(config)
    oracle = {k: expected_moment(rule, model, k) for k in range(1, k_max + 1)}
    moment_rows = []
    dist_rows = []
    curves = {}
    for sigma, operators in _ensemble(config, model, rule, potential, sigmas,
                                      config.get("samples", 10)):
        # sample 0's spectrum is written (as its IDS): it keeps eigh, whose
        # rounding of degenerate eigenvalues the written breakpoints follow,
        # and is solved after samples 1..n-1, so that their values-only solves
        # do not run on the heap it fragments; its operator is the one held
        first = next(operators)
        moments = [_trace_moments(first, k_max)]
        for op in operators:
            eigen_spectrum(op)
            moments.append(_trace_moments(op, k_max))
        spec = eigen_spectrum(first, vectors=True)
        for k, emp in enumerate(np.array(moments).T, start=1):
            se = float(emp.std(ddof=1) / np.sqrt(len(emp))) if len(emp) > 1 else 0.0
            moment_rows.append([sigma.n_vertices, k, float(emp.mean()), se,
                                oracle[k].value, oracle[k].standard_error])
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
        if use_reference:
            # evaluate the analytic curve on the merged grid so the distance
            # is not floored by interpolation error at the band edges
            target = reference_ids("lattice_laplacian", group.d, curve.xs)
        else:
            target = curves[biggest]
        dist_rows.append([n, kolmogorov_distance(curve, target)])
    write_csv(out / "distances.csv", ["n", "kolmogorov"], dist_rows)
    outputs = ["moments.csv", "distances.csv"]
    for n in sorted(curves):
        outputs += [f"ids_{n}.csv", f"ids_{n}.json"]
    return outputs


def _pipeline_luck_atoms(config, group, sigmas, out):
    model, rule, potential = _model_and_rule(config, group)
    alphas = [_parse_rational(a, "alpha_values")
              for a in config.get("alpha_values", ["0", "1"])]
    eps_list = config.get("punctured_eps", [1e-2])
    n_samples = config.get("samples", 20)
    atom_rows = []
    punct_rows = []
    for sigma, operators in _ensemble(config, model, rule, potential, sigmas,
                                      n_samples):
        results = [(eigen_spectrum(op), op.row_sum_bound(), op.denominator())
                   for op in operators]
        for alpha in alphas:
            masses = np.array([atom_mass(spec, alpha) for spec, _, _ in results])
            atom_rows.append([sigma.n_vertices, str(alpha),
                              float(masses.mean()),
                              float(masses.std(ddof=1)) if len(masses) > 1 else 0.0,
                              n_samples])
        # D*H has Gaussian-integer entries for every sample's H; float
        # operators have no such D and get no bound
        dens = [den for _, _, den in results]
        den = None if None in dens else math.lcm(*dens)
        for eps in eps_list:
            punct = [punctured_mass(spec, 0.0, eps) for spec, _, _ in results]
            if den is None or den * eps >= 1:
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


def _pipeline_monotone(config, group, sigmas, out):
    model, rule, potential = _model_and_rule(config, group)
    if potential is not None:
        raise ConfigError("monotone pipeline uses the strict induced assembly")
    m_max = config.get("monotone", {}).get("m_max", 6)
    sched = build_schedule(value_sets_of(rule), m_max)
    grid = _beta_grid(config)
    outputs = []
    summary_rows = []
    for size_index, sigma in enumerate(sigmas):
        rho = sample_configuration(model, sigma,
                                   sample_rng(config["seed"], size_index, 0))
        report = monotone_ids_report(rule, sched, sigma, rho, grid, m_max)
        rows = [[r.m, r.beta, r.count_m / report.n, r.count_target / report.n,
                 r.psd_certified] for r in report.rows]
        name = f"monotone_{sigma.n_vertices}.csv"
        write_csv(out / name, ["m", "beta", "N_m", "N_target",
                               "psd_certified"], rows)
        outputs.append(name)
        for m in sorted(report.max_gap_per_m):
            summary_rows.append([sigma.n_vertices, m, report.max_gap_per_m[m],
                                 report.norm_gap_per_m[m],
                                 report.norm_bound_per_m[m]])
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


def run(config: dict, out_dir=None) -> dict:
    """Execute a pipeline config; returns the manifest dict."""
    validate_config(config)
    out = Path(out_dir if out_dir is not None else config.get("out_dir", "results"))
    out.mkdir(parents=True, exist_ok=True)
    group = group_from_config(config["group"])
    sigmas = sofic_family(config, group)
    pipeline = config["pipeline"]
    stages = {
        "sofic-diagnostics": _pipeline_sofic_diagnostics,
        "weak-convergence": _pipeline_weak_convergence,
        "luck-atoms": _pipeline_luck_atoms,
        "monotone": _pipeline_monotone,
    }
    t0 = time.monotonic()
    try:
        outputs = stages[pipeline](config, group, sigmas, out)
    except Exception as err:
        partial = {
            "config_hash": config_hash(config), "pipeline": pipeline,
            "error": f"{type(err).__name__}: {err}", "outputs": [],
        }
        write_json(out / "manifest.json", partial)
        raise
    elapsed = time.monotonic() - t0
    _write_gnuplot(out, pipeline, outputs)
    outputs = outputs + ["plots.gp"]
    manifest = {
        "code_version": __version__,
        "config": config,
        "config_hash": config_hash(config),
        "shared_hash": shared_hash(config),
        "pipeline": pipeline,
        "sizes": config["sofic"]["sizes"],
        "per_size_seeds": [
            [int(sample_rng(config["seed"], i, 0).bit_generator.seed_seq
                 .generate_state(1)[0])]
            for i in range(len(config["sofic"]["sizes"]))],
        "outputs": outputs,
        "wall_clock_seconds": elapsed,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(manifest_paths: list) -> dict:
    """Cross-run convergence table for runs sharing group/measure/operator."""
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
