import copy
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofic_spectra.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    compare,
    config_hash,
    fmt,
    main,
    run,
    validate_config,
)


def base_config(**overrides):
    config = {
        "pipeline": "weak-convergence",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "torus", "sizes": [16, 32]},
        "measure": {"kind": "iid", "weights": [0.7, 0.3],
                    "alphabet": ["0", "1"]},
        "operator": {"kind": "schrodinger",
                     "potential": {"0": "0", "1": "5/3"}},
        "beta_grid": {"min": -5, "max": 1, "points": 61},
        "samples": 3,
        "k_max": 3,
        "seed": 99,
    }
    config.update(overrides)
    return config


MANIFEST_KEYS = {"code_version", "config", "config_hash", "effective_config",
                 "shared_hash", "outputs", "wall_clock_seconds"}


def test_validate_config_errors():
    with pytest.raises(ConfigError):
        validate_config(base_config(pipeline="nope"))
    with pytest.raises(ConfigError):
        validate_config(base_config(sofic={"kind": "torus", "sizes": []}))
    with pytest.raises(ConfigError):
        validate_config(base_config(sofic={"kind": "torus",
                                           "sizes": [32, 16]}))
    validate_config(base_config())


def test_config_schema_is_a_valid_schema():
    import jsonschema
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
        CONFIG_SCHEMA)
    # the first violation, in schema order, is reported with its path
    for bad, message in (
            (base_config(pipeline="nope", seed="x"),
             "config.pipeline is 'nope', not one of ['sofic-diagnostics', "
             "'weak-convergence', 'luck-atoms', 'monotone']"),
            (base_config(sofic={"kind": "torus", "sizes": []}, measure=3),
             "config.sofic.sizes has fewer than 1 items"),
            (base_config(extra=1), "config has unexpected key 'extra'"),
            (base_config(eps=0), "config.eps is less than or equal to the "
                                 "exclusive minimum 0"),
            (base_config(samples=0), "config.samples is less than the "
                                     "minimum 1")):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            validate_config(bad)
        assert str(got.value) == message
    # keys a pipeline or a sofic kind needs are required by the schema, so a
    # missing one is reported by name instead of raising a bare KeyError
    missing = []
    for pipeline in ("weak-convergence", "luck-atoms", "monotone"):
        for key in ("measure", "operator"):
            config = base_config(pipeline=pipeline)
            del config[key]
            missing.append((config, key))
    missing.append((base_config(pipeline="sofic-diagnostics",
                                sofic={"kind": "product", "sizes": [8]}),
                    "moduli"))
    for bad, key in missing:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, CONFIG_SCHEMA)
        with pytest.raises(ConfigError) as got:
            run(bad)
        want = "config.sofic: product sofic config needs 'moduli'" \
            if key == "moduli" else f"config needs '{key}'"
        assert str(got.value) == want
    diagnostics = base_config(pipeline="sofic-diagnostics")
    del diagnostics["measure"], diagnostics["operator"]
    validate_config(diagnostics)


def test_fmt_rendering():
    assert fmt("1/2") == "1/2"
    assert fmt(True) == "1"
    assert fmt(3) == "3"
    assert fmt(0.1) == "0.10000000000000001"


def test_run_weak_convergence_deterministic(tmp_path):
    config = base_config()
    m1 = run(config, out_dir=tmp_path / "a")
    m2 = run(config, out_dir=tmp_path / "b")
    assert m1["config_hash"] == m2["config_hash"] == config_hash(config)
    for name in m1["outputs"]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    moments = (tmp_path / "a" / "moments.csv").read_text().splitlines()
    assert moments[0] == "n,k,empirical_mean,empirical_se,oracle,oracle_se"
    assert len(moments) == 1 + 2 * 3


def test_run_reference_distances(tmp_path):
    config = base_config(
        measure={"kind": "iid", "weights": [1.0], "alphabet": ["0"]},
        operator={"kind": "laplacian"},
        sofic={"kind": "torus", "sizes": [64, 128]},
        reference="lattice_laplacian",
        samples=1, k_max=2)
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "distances.csv").read_text().splitlines()[1:]
    dists = [float(r.split(",")[1]) for r in rows]
    assert dists[1] < dists[0] < 0.05


def test_run_sofic_diagnostics(tmp_path):
    config = {
        "pipeline": "sofic-diagnostics",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "torus", "sizes": [8, 16]},
        "measure": {"kind": "periodic", "period": [2], "pattern": [0, 1],
                    "alphabet": ["0", "1"]},
        "radii": {"goodness": 2, "defect": 2, "cylinder": 1},
        "eps": 0.05,
        "samples": 10,
        "seed": 5,
    }
    manifest = run(config, out_dir=tmp_path)
    good = (tmp_path / "goodness.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "1" for row in good)
    le = (tmp_path / "le.csv").read_text().splitlines()[1:]
    assert all(row.split(",")[3] == "1" for row in le)
    assert "le.csv" in manifest["outputs"]


def test_run_luck_atoms(tmp_path):
    config = {
        "pipeline": "luck-atoms",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "torus", "sizes": [50]},
        "measure": {"kind": "iid", "weights": [0.7, 0.3],
                    "alphabet": ["0", "1"]},
        "operator": {"kind": "diagonal", "values": {"0": "0", "1": "1"}},
        "alpha_values": ["1", "1/2"],
        "punctured_eps": [0.01],
        "samples": 8,
        "seed": 13,
    }
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "atoms.csv").read_text().splitlines()[1:]
    table = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert abs(table["1"] - 0.3) < 0.15
    assert table["1/2"] == 0.0
    punct = (tmp_path / "punctured.csv").read_text().splitlines()[1:]
    assert all(r.split(",")[4] == "1" for r in punct)


def test_run_monotone(tmp_path):
    config = {
        "pipeline": "monotone",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "torus", "sizes": [16]},
        "measure": {"kind": "iid", "weights": [1.0], "alphabet": ["a"]},
        "operator": {"kind": "schrodinger", "potential": {"a": "3/2"}},
        "beta_grid": {"min": -4, "max": 3, "points": 41},
        "monotone": {"m_max": 3},
        "seed": 2,
    }
    run(config, out_dir=tmp_path)
    summary = (tmp_path / "monotone_summary.csv").read_text().splitlines()[1:]
    gaps = [float(r.split(",")[2]) for r in summary]
    assert gaps == sorted(gaps, reverse=True)


def test_free_group_random_perm_pipeline(tmp_path):
    config = {
        "pipeline": "weak-convergence",
        "group": {"kind": "free", "rank": 2},
        "sofic": {"kind": "random_perm", "sizes": [200, 400], "seed": 4},
        "measure": {"kind": "iid", "weights": [1.0], "alphabet": ["0"]},
        "operator": {"kind": "graph_schrodinger", "potential": {"0": "4"}},
        "beta_grid": {"min": -6, "max": 6, "points": 61},
        "samples": 2,
        "k_max": 2,
        "seed": 21,
    }
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "moments.csv").read_text().splitlines()[1:]
    k2 = [float(r.split(",")[2]) for r in rows if r.split(",")[1] == "2"]
    assert all(abs(x - 4.0) < 0.25 for x in k2)


def test_table_operator_kind(tmp_path):
    # hopping-0 table rule equivalent to a diagonal Bernoulli operator
    config = {
        "pipeline": "luck-atoms",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "torus", "sizes": [40]},
        "measure": {"kind": "iid", "weights": [0.7, 0.3],
                    "alphabet": ["0", "1"]},
        "operator": {"kind": "table", "M": 0,
                     "entries": [{"g": [0], "window": [0], "re": "0"},
                                 {"g": [0], "window": [1], "re": "1"}]},
        "alpha_values": ["1"],
        "samples": 5,
        "seed": 17,
    }
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "atoms.csv").read_text().splitlines()[1:]
    assert abs(float(rows[0].split(",")[2]) - 0.3) < 0.2


def test_product_sofic_pipeline(tmp_path):
    config = {
        "pipeline": "sofic-diagnostics",
        "group": {"kind": "lattice", "d": 1},
        "sofic": {"kind": "product", "sizes": [8, 16], "moduli": [2]},
        "radii": {"goodness": 2, "defect": 2},
        "seed": 3,
    }
    run(config, out_dir=tmp_path)
    rows = (tmp_path / "goodness.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["16", "32"]
    assert all(r.split(",")[2] == "1" for r in rows)   # exact quotient


def test_product_takes_a_period_that_divides_its_moduli(tmp_path):
    from sofic_spectra.cli import build_objects
    from sofic_spectra.measures import (
        sample_configuration,
        sample_rng,
        target_marginal_on,
    )
    from window_references import pushforward_window_distribution
    config = _diagnostics_config(
        sofic={"kind": "product", "sizes": [4, 8], "moduli": [4]},
        measure={"kind": "periodic", "period": [2], "pattern": [0, 1]},
        samples=20)
    run(config, out_dir=tmp_path)
    rows = [r.split(",") for r in
            (tmp_path / "le.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[3], r[4]) for r in rows] == [("16", "1", "1"),
                                                 ("32", "1", "1")]
    objects = build_objects(validate_config(config))
    target = target_marginal_on(objects.model, objects.group, 1)
    for i, sigma in enumerate(objects.sigmas):
        n = sigma.n_vertices
        seen = {tuple(sample_configuration(objects.model, sigma,
                                           sample_rng(1, i, j)).values)
                for j in range(20)}
        assert seen == {(0, 1) * (n // 2), (1, 0) * (n // 2)}
        for v in range(n):
            push = pushforward_window_distribution(objects.model, sigma, v, 1)
            assert push.tv(target) == 0.0


def test_ids_json_emitted(tmp_path):
    config = base_config(samples=1, k_max=1,
                         sofic={"kind": "torus", "sizes": [16]})
    run(config, out_dir=tmp_path)
    data = json.loads((tmp_path / "ids_16.json").read_text())
    assert set(data) == {"beta", "value"}
    assert len(data["beta"]) == len(data["value"])


def test_compare(tmp_path):
    config = base_config(reference="lattice_laplacian",
                         measure={"kind": "iid", "weights": [1.0],
                                  "alphabet": ["0"]},
                         operator={"kind": "laplacian"},
                         sofic={"kind": "torus", "sizes": [32, 64]},
                         samples=1, k_max=2)
    run(config, out_dir=tmp_path / "r1")
    table = compare([tmp_path / "r1" / "manifest.json"])
    assert table["monotone_flags"] == [{"distances_decreasing": True}]
    other = base_config(operator={"kind": "schrodinger",
                                  "potential": {"0": "0", "1": "1"}})
    run(other, out_dir=tmp_path / "r2")
    with pytest.raises(ConfigError):
        compare([tmp_path / "r1" / "manifest.json",
                 tmp_path / "r2" / "manifest.json"])


def test_compare_refuses_a_failed_run(tmp_path, monkeypatch):
    # a check that fails inside a pipeline, after run has created the
    # output directory, leaves the manifest of a failed run
    from sofic_spectra import cli
    monkeypatch.setattr(cli, "punctured_mass", lambda *args: 0.5)
    config = _luck_atoms({"0": "0", "1": "1"}, [0.01])
    with pytest.raises(RuntimeError, match="punctured-interval bound"):
        run(config, out_dir=tmp_path)
    path = tmp_path / "manifest.json"
    failed = json.loads(path.read_text())
    error = failed.pop("error")
    assert error.startswith("RuntimeError: ")
    # the record of a successful run, with no outputs
    assert set(failed) == MANIFEST_KEYS
    assert failed["config"] == config
    assert failed["effective_config"] == dict(
        validate_config(config), out_dir=str(tmp_path))
    assert failed["config_hash"] == config_hash(config)
    assert failed["outputs"] == []
    with pytest.raises(ConfigError) as err:
        compare([path])
    assert str(path) in str(err.value) and error in str(err.value)
    assert main(["compare", str(path)]) == 1


def test_graph_schrodinger_gives_laplacian_and_adjacency(tmp_path):
    # every vertex of these tori is 2-good, so the graph assembly with
    # potential 0 (or |S| = 2 on Z) equals the strict assembly of the
    # laplacian (or adjacency) rule: same data files
    for kind, value in (("laplacian", "0"), ("adjacency", "2")):
        induced = run(base_config(operator={"kind": kind}, samples=1, k_max=2),
                      out_dir=tmp_path / kind / "induced")
        run(base_config(operator={"kind": "graph_schrodinger",
                                  "potential": {"0": value, "1": value}},
                        samples=1, k_max=2),
            out_dir=tmp_path / kind / "graph")
        for name in induced["outputs"]:
            assert (tmp_path / kind / "induced" / name).read_bytes() == \
                (tmp_path / kind / "graph" / name).read_bytes(), name


def test_operator_mode_key_is_refused_before_any_output(tmp_path):
    for mode in ("induced", "graph"):
        config = base_config(operator={"kind": "laplacian", "mode": mode})
        with pytest.raises(ConfigError) as got:
            run(config, out_dir=tmp_path / mode)
        assert str(got.value) == "config.operator has unexpected key 'mode'"
        assert not (tmp_path / mode).exists()


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base_config(samples=1, k_max=1)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(pipeline="nope")))
    assert main(["run", str(bad), "--out", str(tmp_path / "out2")]) == 1


def test_appending_sizes_preserves_earlier_samples(tmp_path):
    short = base_config(sofic={"kind": "torus", "sizes": [16, 32]})
    longer = base_config(sofic={"kind": "torus", "sizes": [16, 32, 64]})
    run(short, out_dir=tmp_path / "short")
    run(longer, out_dir=tmp_path / "long")
    for name in ("ids_16.csv", "ids_32.csv"):
        assert (tmp_path / "short" / name).read_bytes() == \
            (tmp_path / "long" / name).read_bytes()
    short_rows = (tmp_path / "short" / "moments.csv").read_text().splitlines()
    long_rows = (tmp_path / "long" / "moments.csv").read_text().splitlines()
    assert long_rows[:len(short_rows)] == short_rows


def test_manifest_contents(tmp_path):
    config = base_config(samples=1, k_max=1)
    manifest = run(config, out_dir=tmp_path)
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert set(stored) == MANIFEST_KEYS
    assert stored["config_hash"] == manifest["config_hash"]
    assert stored["effective_config"]["out_dir"] == str(tmp_path)
    assert set(stored["outputs"]) == set(manifest["outputs"])


def test_manifest_names_the_directory_it_was_written_to(tmp_path,
                                                        monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(base_config(samples=1, k_max=1)))
    out = tmp_path / "elsewhere"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    stored = json.loads((out / "manifest.json").read_text())
    assert stored["effective_config"]["out_dir"] == str(out)
    # without --out, the directory the config names, here its default
    monkeypatch.chdir(tmp_path)
    assert main(["run", str(cfg)]) == 0
    stored = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert stored["effective_config"]["out_dir"] == "results"


def _three_symbol_mixture(**component_alphabets):
    return {"kind": "mixture", "weights": [0.5, 0.5],
            # the top-level alphabet key is not a mixture's alphabet
            "alphabet": ["0", "1"],
            "components": [
                {"kind": "iid", "weights": [0.2, 0.3, 0.5],
                 "alphabet": component_alphabets.get("first", ["0", "1", "2"])},
                {"kind": "periodic", "period": [2], "pattern": [0, 2],
                 "alphabet": ["0", "1", "2"]}]}


@pytest.mark.parametrize("pipeline,operator", [
    ("luck-atoms", {"kind": "diagonal",
                    "values": {"0": "0", "1": "1", "2": "2"}}),
    ("luck-atoms", {"kind": "schrodinger",
                    "potential": {"0": "0", "1": "1", "2": "2"}}),
    ("weak-convergence", {"kind": "schrodinger",
                          "potential": {"0": "0", "1": "1", "2": "2"}}),
])
def test_mixture_alphabet_comes_from_its_components(tmp_path, pipeline,
                                                    operator):
    config = base_config(pipeline=pipeline, measure=_three_symbol_mixture(),
                         operator=operator, samples=2, k_max=2,
                         alpha_values=["2"],
                         sofic={"kind": "torus", "sizes": [8]})
    run(config, out_dir=tmp_path)
    if operator["kind"] == "diagonal":
        # the periodic component puts symbol 2 on every other vertex
        rows = (tmp_path / "atoms.csv").read_text().splitlines()[1:]
        assert rows and all(float(r.split(",")[2]) > 0 for r in rows)
    disagree = _three_symbol_mixture(first=["a", "b", "c"])
    with pytest.raises(ConfigError, match="disagree on the alphabet"):
        run(dict(config, measure=disagree), out_dir=tmp_path / "bad")


@pytest.mark.parametrize("top", [True, False], ids=["alphabet", "none"])
def test_a_mixture_takes_no_alphabet_default(tmp_path, top):
    # a mixture's alphabet is its components', so none is filled beside them
    mixture = _three_symbol_mixture()
    if not top:
        del mixture["alphabet"]
    config = base_config(pipeline="luck-atoms", measure=mixture,
                         operator={"kind": "diagonal",
                                   "values": {"0": "0", "1": "1", "2": "2"}},
                         samples=2, alpha_values=["2"],
                         sofic={"kind": "torus", "sizes": [8]})
    manifest = run(config, out_dir=tmp_path)
    assert manifest["effective_config"]["measure"] == mixture


def test_compare_takes_runs_that_differ_in_a_spelled_out_default(tmp_path):
    spelled = base_config(samples=2, k_max=2)
    omitted = copy.deepcopy(spelled)
    del omitted["measure"]["alphabet"]
    run(spelled, out_dir=tmp_path / "spelled")
    run(omitted, out_dir=tmp_path / "omitted")
    assert (tmp_path / "spelled" / "moments.csv").read_bytes() == \
        (tmp_path / "omitted" / "moments.csv").read_bytes()
    table = compare([tmp_path / "spelled" / "manifest.json",
                     tmp_path / "omitted" / "manifest.json"])
    assert len(table["distances"]) == 4


# ---------------------------------------------------------------------------
# defaults: stated in CONFIG_SCHEMA, filled by validate_config
# ---------------------------------------------------------------------------

def _omitting(config, *keys):
    return {k: v for k, v in config.items() if k not in keys}


# per pipeline, a config that omits every key the schema defaults for it,
# and the same config with those defaults spelled out
_UNREAD = ("beta_grid", "samples", "k_max")
DEFAULTED = {
    "sofic-diagnostics": (
        {"pipeline": "sofic-diagnostics",
         "group": {"kind": "free", "rank": 2},
         "sofic": {"kind": "random_perm", "sizes": [8, 16]},
         "measure": {"kind": "iid", "weights": [0.5, 0.5]},
         "seed": 3},
        {"pipeline": "sofic-diagnostics",
         "group": {"kind": "free", "rank": 2},
         "sofic": {"kind": "random_perm", "sizes": [8, 16], "seed": 0},
         "measure": {"kind": "iid", "weights": [0.5, 0.5],
                     "alphabet": ["0", "1"]},
         "radii": {"cylinder": 1, "goodness": 2, "defect": 2},
         "eps": 0.05, "samples": 200, "seed": 3, "out_dir": "results"}),
    "weak-convergence": (
        _omitting(base_config(
            measure={"kind": "iid", "weights": [0.7, 0.3]},
            operator={"kind": "table", "M": 0, "entries": [
                {"g": [0], "window": [0]},
                {"g": [0], "window": [1], "re": "3/2"}]},
            sofic={"kind": "torus", "sizes": [8, 16]}), *_UNREAD),
        base_config(
            measure={"kind": "iid", "weights": [0.7, 0.3],
                     "alphabet": ["0", "1"]},
            operator={"kind": "table", "M": 0, "entries": [
                {"g": [0], "window": [0], "re": "0", "im": "0"},
                {"g": [0], "window": [1], "re": "3/2", "im": "0"}]},
            sofic={"kind": "torus", "sizes": [8, 16]},
            beta_grid={"min": -5.0, "max": 1.0, "points": 241},
            samples=10, k_max=4, out_dir="results")),
    "luck-atoms": (
        _omitting(base_config(
            pipeline="luck-atoms",
            measure={"kind": "mixture", "weights": [0.5, 0.5],
                     "components": [
                         {"kind": "iid", "weights": [0.5, 0.5]},
                         {"kind": "periodic", "period": [2],
                          "pattern": [0, 1]}]},
            operator={"kind": "diagonal", "values": {"0": "0", "1": "1"}},
            sofic={"kind": "torus", "sizes": [8, 16]}), *_UNREAD),
        _omitting(base_config(
            pipeline="luck-atoms",
            measure={"kind": "mixture", "weights": [0.5, 0.5],
                     "components": [
                         {"kind": "iid", "weights": [0.5, 0.5],
                          "alphabet": ["0", "1"]},
                         {"kind": "periodic", "period": [2],
                          "pattern": [0, 1], "alphabet": ["0", "1"]}]},
            operator={"kind": "diagonal", "values": {"0": "0", "1": "1"}},
            sofic={"kind": "torus", "sizes": [8, 16]}, samples=20,
            punctured_eps=[0.01], alpha_values=["0", "1"],
            out_dir="results"), "beta_grid", "k_max")),
    "monotone": (
        _omitting(base_config(
            pipeline="monotone",
            measure={"kind": "iid", "weights": [0.6, 0.4]},
            sofic={"kind": "torus", "sizes": [8, 16]}), *_UNREAD),
        _omitting(base_config(
            pipeline="monotone",
            measure={"kind": "iid", "weights": [0.6, 0.4],
                     "alphabet": ["0", "1"]},
            sofic={"kind": "torus", "sizes": [8, 16]},
            beta_grid={"min": -5.0, "max": 1.0, "points": 241},
            monotone={"m_max": 6}, out_dir="results"), "samples", "k_max")),
}


@pytest.mark.parametrize("pipeline", list(DEFAULTED))
def test_omitted_defaults_run_as_if_spelled_out(tmp_path, pipeline):
    omitted, spelled = copy.deepcopy(DEFAULTED[pipeline])
    assert validate_config(spelled) == spelled
    manifest = run(omitted, out_dir=tmp_path / "omitted")
    assert omitted == DEFAULTED[pipeline][0]         # the caller's dict
    assert manifest["config"] == omitted
    ran = dict(spelled, out_dir=str(tmp_path / "omitted"))
    assert manifest["effective_config"] == ran
    stored = json.loads((tmp_path / "omitted" / "manifest.json").read_text())
    assert stored["effective_config"] == ran
    assert run(spelled, out_dir=tmp_path / "spelled")["outputs"] == \
        manifest["outputs"]
    for name in manifest["outputs"]:
        assert (tmp_path / "omitted" / name).read_bytes() == \
            (tmp_path / "spelled" / name).read_bytes(), name


def test_filling_defaults_is_idempotent():
    for config in [*SHIPPED, *(c for pair in DEFAULTED.values() for c in pair),
                   base_config(measure=_three_symbol_mixture()),
                   _graph_config()]:
        given = copy.deepcopy(config)
        once = validate_config(config)
        assert config == given
        assert validate_config(once) == once


# ---------------------------------------------------------------------------
# the structural config check, against jsonschema as the reference
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent
SHIPPED = [json.loads(p.read_text())
           for p in sorted((REPO / "configs").glob("*.json"))]
REPLACEMENTS = [True, False, None, 0, 1, -1, 2, 0.0, 1.0, 2.0, -0.5, 1e-3,
                float("nan"), "", "x", "0", "product", "torus", "lattice",
                "sofic-diagnostics", "luck-atoms", [], [0], [3, 2], [1.5],
                ["0"], [True], {}, {"kind": "product"}]


def _paths(x, prefix=()):
    yield prefix, x
    items = x.items() if isinstance(x, dict) else \
        enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _first_violation(config):
    from sofic_spectra.cli import _violations
    return next(_violations(config, CONFIG_SCHEMA, "config"), None)


def _jsonschema_errors(config):
    import jsonschema
    validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    return list(validator(CONFIG_SCHEMA).iter_errors(config))


def _mutated(config, data):
    config = copy.deepcopy(config)
    for _ in range(data.draw(st.integers(1, 3))):
        path, _ = data.draw(st.sampled_from(list(_paths(config))))
        kind = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if not path:
            continue
        *head, last = path
        parent = config
        for k in head:
            parent = parent[k]
        if kind == "delete" and isinstance(parent, dict):
            del parent[last]
            continue
        new = copy.deepcopy(data.draw(st.sampled_from(REPLACEMENTS)))
        if kind == "add" and isinstance(parent, dict):
            key = data.draw(st.sampled_from(
                ["extra", "moduli", "measure", "operator", "radii", "eps",
                 "samples", "seed", "d", "rank"]))
            parent[key] = new
        else:
            parent[last] = new
    return config


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(SHIPPED))), st.data())
def test_structural_check_never_accepts_what_jsonschema_rejects(index, data):
    config = _mutated(SHIPPED[index], data)
    violation = _first_violation(config)
    if violation is None:
        assert not _jsonschema_errors(config)
    else:
        assert violation.startswith("config")
        with pytest.raises(ConfigError) as got:
            validate_config(config)
        assert str(got.value) == violation


def _small(config):
    """A shipped config at sizes and sample counts that run in milliseconds."""
    config = copy.deepcopy(config)
    config["sofic"]["sizes"] = [8, 16]
    if "samples" in config:
        config["samples"] = 2
    return config


SMALL_LATTICE = [_small(c) for c in SHIPPED if c["group"]["kind"] == "lattice"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(SMALL_LATTICE))), st.data())
def test_run_completes_or_refuses_before_any_output(index, data):
    # every config fault is a ConfigError naming a config path, raised
    # before the output directory is made; anything else runs to the end
    config = _mutated(SMALL_LATTICE[index], data)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            run(config, out_dir=out)
        except ConfigError as err:
            assert str(err).startswith("config")
            assert not out.exists()


def _single_mutations(config):
    """Every config one replacement, deletion or added key away."""
    for path, _ in _paths(config):
        if not path:
            continue
        for new in REPLACEMENTS + ["delete"]:
            mutated = copy.deepcopy(config)
            parent = mutated
            for k in path[:-1]:
                parent = parent[k]
            if new != "delete":
                parent[path[-1]] = copy.deepcopy(new)
            elif isinstance(parent, dict):
                del parent[path[-1]]
            yield mutated
    for path, value in _paths(config):
        if isinstance(value, dict):
            for key in ("extra", "moduli", "measure", "operator"):
                mutated = copy.deepcopy(config)
                parent = mutated
                for k in path:
                    parent = parent[k]
                parent.setdefault(key, 1)
                yield mutated


def test_structural_check_on_every_single_mutation():
    accepted = 0
    for config in SHIPPED:
        for mutated in _single_mutations(config):
            if _first_violation(mutated) is None:
                accepted += 1
                assert not _jsonschema_errors(mutated)
    assert accepted > 100


def test_shipped_configs_pass_the_structural_check():
    assert all(_first_violation(config) is None for config in SHIPPED)
    # stricter, never looser: a float size passes jsonschema, not the check
    config = _shipped("luck_atoms", sofic={"kind": "torus", "sizes": [16.0]})
    assert not _jsonschema_errors(config)
    with pytest.raises(ConfigError) as got:
        validate_config(config)
    assert str(got.value) == "config.sofic.sizes[0] fails type 'integer'"


def _diagnostics_config(**overrides):
    config = {"pipeline": "sofic-diagnostics",
              "group": {"kind": "lattice", "d": 1},
              "sofic": {"kind": "torus", "sizes": [8]},
              "measure": {"kind": "iid", "weights": [0.5, 0.5],
                          "alphabet": ["0", "1"]},
              "seed": 1}
    config.update(overrides)
    return config


@pytest.mark.parametrize("config, path", [
    (base_config(sofic={"kind": "torus", "sizes": [16.0]}),
     "config.sofic.sizes[0]"),
    (base_config(samples=2.0), "config.samples"),
    (base_config(k_max=2.0), "config.k_max"),
    (base_config(pipeline="monotone", monotone={"m_max": 2.0}),
     "config.monotone.m_max"),
    (base_config(beta_grid={"min": -5, "max": 1, "points": 61.0}),
     "config.beta_grid.points"),
    (_diagnostics_config(radii={"goodness": 2.0}), "config.radii.goodness"),
    (_diagnostics_config(eps=float("nan")), "config.eps"),
])
def test_whole_number_floats_and_nan_are_config_errors(tmp_path, config, path):
    # JSON Schema takes each of these; they used to crash a later stage or,
    # for radii and eps, run with wrong numbers
    assert not _jsonschema_errors(config)
    want = "number" if path == "config.eps" else "integer"
    with pytest.raises(ConfigError) as got:
        run(config, out_dir=tmp_path / "out")
    assert str(got.value) == f"{path} fails type '{want}'"
    assert not (tmp_path / "out").exists()


def _shipped(name, **overrides):
    config = json.loads((REPO / "configs" / f"{name}.json").read_text())
    config.update(overrides)
    return config


@pytest.mark.parametrize("config, path", [
    (_shipped("luck_atoms", seed=-1), "config.seed"),
    (_shipped("kesten_free_group", sofic={"kind": "random_perm",
                                          "sizes": [8], "seed": -1}),
     "config.sofic.seed"),
])
def test_negative_seeds_are_config_errors(tmp_path, config, path):
    # the seed reaches np.random.SeedSequence, which refuses it only after
    # the run has begun
    with pytest.raises(ConfigError) as got:
        run(config, out_dir=tmp_path / "out")
    assert str(got.value) == f"{path} is less than the minimum 0"
    assert not (tmp_path / "out").exists()


def test_structural_check_refuses_keywords_it_does_not_handle():
    from sofic_spectra.cli import _violations
    with pytest.raises(ValueError, match="does not handle 'maxItems'"):
        next(_violations([1], {"type": "array", "maxItems": 3},
                        "config"))
    with pytest.raises(ValueError, match="string enum"):
        next(_violations(1, {"enum": [1, 2]}, "config"))


def test_no_source_module_imports_jsonschema():
    import ast
    imported = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.name, a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add((path.name, node.module))
    assert imported
    assert not [(f, m) for f, m in imported
                if m.split(".")[0] == "jsonschema"]
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == \
        ["numpy", "scipy"]


def test_missing_symbol_is_a_config_error(tmp_path):
    config = base_config(
        pipeline="luck-atoms", sofic={"kind": "torus", "sizes": [8]},
        measure={"kind": "iid", "weights": [0.5, 0.3, 0.2],
                 "alphabet": ["0", "1", "2"]},
        operator={"kind": "diagonal", "values": {"0": "0", "1": "1"}})
    with pytest.raises(ConfigError) as got:
        run(config, out_dir=tmp_path / "out")
    assert str(got.value) == \
        "config.operator: 'values' gives no value for symbol '2'"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the punctured-interval bound of rational rules
# ---------------------------------------------------------------------------


def _luck_atoms(values, eps):
    return base_config(
        pipeline="luck-atoms", sofic={"kind": "torus", "sizes": [40]},
        operator={"kind": "diagonal", "values": values},
        alpha_values=["0"], punctured_eps=eps, samples=4)


def _punctured_rows(path):
    return [r.split(",") for r in
            (path / "punctured.csv").read_text().splitlines()[1:]]


def test_punctured_bound_takes_the_operator_denominator(tmp_path):
    # D = 1000: no bound at eps = 0.01, where the 1/1000 atoms sit inside
    # the punctured interval; log(max(1, D*R))/log(1/(D*eps)) = 0 at 1e-4
    run(_luck_atoms({"0": "0", "1": "1/1000"}, [0.01, 1e-4]), tmp_path)
    (n, eps, mass, bound, ok), (_, _, mass2, bound2, ok2) = \
        _punctured_rows(tmp_path)
    assert (eps, bound, ok) == ("0.01", "na", "na") and float(mass) > 0
    assert (mass2, bound2, ok2) == ("0", "0", "1")
    # D = 2 and R = 3/2: the bound is log 3 / log(1/(2 eps))
    run(_luck_atoms({"0": "-1/2", "1": "3/2"}, [0.01]), tmp_path / "b")
    [[_, _, mass, bound, ok]] = _punctured_rows(tmp_path / "b")
    assert float(bound) == pytest.approx(math.log(3) / math.log(50))
    assert (mass, ok) == ("0", "1")


def test_float_operators_get_no_punctured_bound(tmp_path, monkeypatch):
    # an operator built from floats takes them at their binary values: the
    # float 1/3 has denominator 2^54, so D * eps >= 1 and no bound is given
    # at eps = 0.01, where the exact 1/3 (D = 3) gets one
    from sofic_spectra import cli
    from sofic_spectra.operators import InducedOperator
    exact = cli.assemble_induced

    def float_assemble(*args):
        op = exact(*args)
        return InducedOperator.from_entries(
            op.n, {k: v.to_complex() for k, v in op.entries.items()})

    config = _luck_atoms({"0": "0", "1": "1/3"}, [0.01])
    run(config, tmp_path / "exact")
    [row] = _punctured_rows(tmp_path / "exact")
    assert row[3] != "na" and row[4] == "1"
    monkeypatch.setattr(cli, "assemble_induced", float_assemble)
    run(config, tmp_path / "float")
    assert [r[3:] for r in _punctured_rows(tmp_path / "float")] == [
        ["na", "na"]]


def test_violated_punctured_bound_fails_the_run(tmp_path, monkeypatch):
    from sofic_spectra import cli
    monkeypatch.setattr(cli, "punctured_mass", lambda *args: 0.5)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_luck_atoms({"0": "0", "1": "1"}, [0.01])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    [row] = _punctured_rows(tmp_path / "out")
    assert row[2:] == ["0.5", "0", "0"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "punctured-interval bound violated" in manifest["error"]


# ---------------------------------------------------------------------------
# config faults that only a solve used to reveal
# ---------------------------------------------------------------------------


def _free_group_reference():
    return base_config(group={"kind": "free", "rank": 2},
                       sofic={"kind": "random_perm", "sizes": [8]},
                       measure={"kind": "iid", "weights": [1.0],
                                "alphabet": ["0"]},
                       operator={"kind": "laplacian"},
                       reference="lattice_laplacian")


@pytest.mark.parametrize("config, match", [
    (_free_group_reference(), "lattice_laplacian needs Z or Z\\^2"),
    (base_config(group={"kind": "lattice", "d": 3},
                 sofic={"kind": "torus", "sizes": [6]},
                 operator={"kind": "laplacian"},
                 reference="lattice_laplacian"),
     "lattice_laplacian needs Z or Z\\^2"),
    (_luck_atoms({"0": "0", "1": "1"}, [0.01, 0]), "less than or equal"),
    (_luck_atoms({"0": "0", "1": "1"}, [-0.5]), "less than or equal"),
    (_luck_atoms({"0": "0", "1": "1"}, [1e-9]), "less than or equal"),
    (dict(_luck_atoms({"0": "0", "1": "1"}, [0.01]), alpha_values=["abc"]),
     "'alpha_values' value 'abc' is not a rational"),
    (_luck_atoms({"0": "abc", "1": "1"}, [0.01]),
     "'values' value 'abc' is not a rational"),
    (base_config(operator={"kind": "schrodinger",
                           "potential": {"0": "1/0", "1": "1"}}),
     "'potential' value '1/0' is not a rational"),
    (base_config(group={"kind": "lattice"}), "lattice group config needs 'd'"),
    (base_config(measure={"kind": "iid", "alphabet": ["0", "1"]}),
     "iid measure config needs 'weights'"),
    (base_config(measure={"kind": "periodic", "period": [2]}),
     "periodic measure config needs 'pattern'"),
    (base_config(operator={"kind": "table", "entries": []}),
     "table operator config needs 'M'"),
    (base_config(measure={"kind": "iid", "weights": [1.0],
                          "alphabet": ["0", "1"]}),
     "one weight per symbol required"),
    (base_config(operator={"kind": "table", "M": 1,
                           "entries": [{"g": [0], "re": "1"}]}),
     "table entry config needs 'window'"),
    (base_config(operator={"kind": "table", "M": 1,
                           "entries": [{"window": [0, 0, 0], "re": "1"}]}),
     "table entry config needs 'g'"),
    (base_config(sofic={"kind": "torus", "sizes": [1]}),
     "torus side must be >= 2"),
    (_diagnostics_config(sofic={"kind": "product", "sizes": [8],
                                "moduli": [2, 2]}),
     "one modulus >= 1 per coordinate"),
    (_diagnostics_config(sofic={"kind": "product", "sizes": [8],
                                "moduli": [0]}),
     "one modulus >= 1 per coordinate"),
    (_diagnostics_config(group={"kind": "free", "rank": 2},
                         sofic={"kind": "random_perm", "sizes": [0]}),
     "need at least one vertex"),
    (_diagnostics_config(group={"kind": "free", "rank": 2}),
     "models need a lattice group"),
    (_diagnostics_config(measure={"kind": "iid", "weights": [0.5, 0.2],
                                  "alphabet": ["0", "1"]}),
     "weights must sum to 1"),
    (_shipped("luck_atoms", sofic={"kind": "torus", "sizes": [16]},
              operator={"kind": "table", "M": 1, "entries": [
                  {"g": [1], "window": [0, 0, 0], "re": "1"}]}),
     re.escape("table operator is not self-adjoint: element (-1,), "
               "window (0, 0, 0, 0, 0)")),
    (_diagnostics_config(measure={"kind": "iid", "alphabet": ["0", "1"],
                                  "weights": [float("nan"), 0.3]}),
     "weights.0. fails type 'number'"),
    (_shipped("luck_atoms", sofic={"kind": "torus", "sizes": [16]},
              operator={"kind": "table", "M": 1, "entries": [
                  {"g": [2], "window": [0, 0, 0], "re": "1"}]}),
     re.escape("element (2,) outside the hopping ball")),
    (_shipped("luck_atoms", sofic={"kind": "torus", "sizes": [16]},
              operator={"kind": "table", "M": 1, "entries": [
                  {"g": [0], "window": [0, 0, 5], "re": "1"}]}),
     re.escape("window (0, 0, 5) has a symbol outside 0..1")),
    (base_config(operator={"kind": "laplacian", "mode": "grpah"}),
     re.escape("config.operator has unexpected key 'mode'")),
    (_shipped("sofic_diagnostics", group={"kind": "lattice", "d": 2}),
     re.escape("config.measure.period needs one length per coordinate of "
               "Z^2, not 1")),
    (_diagnostics_config(measure={"kind": "mixture", "weights": [1.0],
                                  "components": [{"kind": "periodic",
                                                  "period": [2, 2],
                                                  "pattern": [0, 1, 1, 0]}]}),
     re.escape("config.measure.components[0].period needs one length")),
    (_diagnostics_config(group={"kind": "free", "rank": 2},
                         sofic={"kind": "random_perm", "sizes": [8]},
                         measure={"kind": "periodic", "period": [2],
                                  "pattern": [0, 1]}),
     "config: periodic measures need a lattice group"),
    (_diagnostics_config(sofic={"kind": "random_perm", "sizes": [8]}),
     "config: random_perm models need a free group"),
    (_diagnostics_config(sofic={"kind": "torus", "sizes": [9]},
                         measure={"kind": "periodic", "period": [2],
                                  "pattern": [0, 1]}),
     re.escape("config.measure: torus side 9 is not a multiple of the "
               "periods (2,)")),
    (base_config(pipeline="monotone",
                 operator={"kind": "graph_schrodinger",
                           "potential": {"0": "0", "1": "1"}}),
     "config: the monotone pipeline uses the strict induced assembly"),
    (_shipped("monotone", group={"kind": "lattice", "d": 2}),
     re.escape("config.sofic.sizes[0]: 65536 vertices exceed the dense "
               "eigensolver budget 4096")),
    (base_config(sofic={"kind": "torus", "sizes": [16]}, samples=1, k_max=40),
     re.escape("config.k_max: the exact moment of order 40 needs more window "
               "assignments than the budget 1000000")),
    (_diagnostics_config(sofic={"kind": "product", "sizes": [8],
                                "moduli": [3]},
                         measure={"kind": "periodic", "period": [2],
                                  "pattern": [0, 1]}),
     re.escape("config.measure: torus side 3 is not a multiple of the "
               "periods (2,)")),
])
def test_config_faults_fail_before_any_solve(tmp_path, monkeypatch, config,
                                             match):
    from sofic_spectra import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("eigen_spectrum called")

    monkeypatch.setattr(cli, "eigen_spectrum", no_solve)
    with pytest.raises(ConfigError, match=match) as got:
        run(config, out_dir=tmp_path / "out")
    assert str(got.value).startswith("config")
    assert not (tmp_path / "out").exists()


def test_diagonal_operators_pass_the_dense_budget(tmp_path, monkeypatch):
    # a diagonal rule is solved exactly whatever its size, so 5000 vertices
    # are no budget fault; a hopping rule of that size is one
    from sofic_spectra.spectral import DEFAULT_DENSE_BUDGET
    config = _shipped("luck_atoms", sofic={"kind": "torus", "sizes": [5000]},
                      samples=2)
    assert 5000 > DEFAULT_DENSE_BUDGET
    run(config, out_dir=tmp_path / "diagonal")
    assert (tmp_path / "diagonal" / "atoms.csv").exists()
    hopping = dict(config, operator={"kind": "laplacian"})
    with pytest.raises(ConfigError, match="5000 vertices exceed"):
        run(hopping, out_dir=tmp_path / "hopping")
    assert not (tmp_path / "hopping").exists()


# ---------------------------------------------------------------------------
# the sample ensemble of the operator pipelines
# ---------------------------------------------------------------------------


def _graph_config():
    return base_config(group={"kind": "free", "rank": 2},
                       sofic={"kind": "random_perm", "sizes": [12, 20],
                              "seed": 5},
                       measure={"kind": "iid", "weights": [0.5, 0.5],
                                "alphabet": ["0", "1"]},
                       operator={"kind": "graph_schrodinger",
                                 "potential": {"0": "4", "1": "9/2"}})


def test_eigenvector_solve_is_the_last_of_each_size(tmp_path, monkeypatch):
    from sofic_spectra import cli
    solve = cli.eigen_spectrum
    calls = []

    def recorded(op, **kwargs):
        calls.append((op.n, kwargs.get("vectors", False)))
        return solve(op, **kwargs)

    monkeypatch.setattr(cli, "eigen_spectrum", recorded)
    run(base_config(samples=4), out_dir=tmp_path)
    assert calls == [(n, j == 3) for n in (16, 32) for j in range(4)]


def test_weak_convergence_builds_no_sparse_matrix(tmp_path, monkeypatch):
    # the moments of every sample come from the exact kernel and every
    # spectrum is certified by its trace identities, so no step of a run
    # needs the operator's sparse matrix
    from sofic_spectra.operators import InducedOperator
    to_sparse = InducedOperator.to_sparse
    sizes = []

    def recorded(op):
        sizes.append(op.n)
        return to_sparse(op)

    monkeypatch.setattr(InducedOperator, "to_sparse", recorded)
    run(base_config(samples=3), out_dir=tmp_path)
    assert sizes == []


@pytest.mark.parametrize("name", ["kesten_free_group", "weak_convergence"])
def test_exact_moments_round_to_the_sparse_power_floats(name):
    # the float of each exact moment is bit-equal to tr(A^k) / n from scipy
    # sparse powers, which moments.csv was first computed from
    from sofic_spectra import cli
    from sofic_spectra.operators import trace_moments
    config = validate_config(
        json.loads((REPO / "configs" / f"{name}.json").read_text()))
    objects = cli.build_objects(config)
    checked = 0
    for _, operators in cli._ensemble(config, objects, config["samples"]):
        for op in operators:
            a = power = op.to_sparse()
            want = []
            for k in range(1, config["k_max"] + 1):
                if k > 1:
                    power = power @ a
                want.append(float(power.diagonal().sum().real / op.n).hex())
            got = trace_moments(op, config["k_max"])
            assert [float(m).hex() for m in got] == want
            checked += 1
    assert checked == config["samples"] * len(config["sofic"]["sizes"])


@pytest.mark.parametrize("config", [base_config(), _graph_config()],
                         ids=["induced-torus", "graph-random-perm"])
def test_ensemble_operators_are_the_seeded_samples(config):
    from sofic_spectra import cli
    from sofic_spectra.measures import sample_configuration, sample_rng
    from sofic_spectra.operators import (
        assemble_graph_schrodinger,
        assemble_induced,
    )
    from sofic_spectra.sofic import good_vertices
    objects = cli.build_objects(validate_config(config))
    model, rule, potential = objects.model, objects.rule, objects.potential
    graph = config["operator"]["kind"] == "graph_schrodinger"
    assert (potential is None) != graph
    for i, (sigma, operators) in enumerate(cli._ensemble(config, objects, 3)):
        assert sigma is objects.sigmas[i]
        ops = list(operators)
        assert len(ops) == 3
        for j, op in enumerate(ops):
            rho = sample_configuration(
                model, sigma, sample_rng(config["seed"], i, j))
            if potential is None:
                want = assemble_induced(rule, sigma, rho,
                                        good_vertices(sigma, 2 * rule.hopping))
            else:
                want = assemble_graph_schrodinger(sigma, rho, rule.alphabet,
                                                  potential)
            assert op.n == want.n
            assert dict(op.entries) == dict(want.entries)


def test_graph_assembly_scans_no_goodness(tmp_path, monkeypatch):
    from sofic_spectra import cli, operators

    def no_scan(*args, **kwargs):
        raise AssertionError("good_vertices called")

    for module in (cli, operators):
        monkeypatch.setattr(module, "good_vertices", no_scan)
    run(_graph_config(), out_dir=tmp_path / "weak")
    run(dict(_graph_config(), pipeline="luck-atoms", punctured_eps=[1e-3]),
        out_dir=tmp_path / "luck")


def test_appending_sizes_preserves_earlier_luck_atoms_rows(tmp_path):
    short = _luck_atoms({"0": "0", "1": "1"}, [0.01, 1e-4])
    short.update(sofic={"kind": "torus", "sizes": [16, 32]},
                 alpha_values=["0", "1/2"])
    longer = dict(short, sofic={"kind": "torus", "sizes": [16, 32, 64]})
    run(short, out_dir=tmp_path / "short")
    run(longer, out_dir=tmp_path / "long")
    for name in ("atoms.csv", "punctured.csv"):
        short_rows = (tmp_path / "short" / name).read_text().splitlines()
        long_rows = (tmp_path / "long" / name).read_text().splitlines()
        assert len(long_rows) > len(short_rows)
        assert long_rows[:len(short_rows)] == short_rows


def test_cli_import_loads_neither_jsonschema_nor_scipy(tmp_path):
    # both load on first use only, so a run's start-up pays for neither;
    # and no pipeline uses scipy, so a run, one with a written eigh spectrum
    # and one on a random-permutation graph included, leaves it unloaded
    import os
    import subprocess
    import sys

    import sofic_spectra
    src = str(Path(sofic_spectra.__file__).resolve().parents[1])
    loaded = ("sorted({m.split('.')[0] for m in sys.modules} "
              "& {'jsonschema', 'scipy'})")
    code = (f"import json, sys, sofic_spectra.cli as cli; print({loaded}); "
            "cli.run(json.loads(sys.argv[1]), out_dir=sys.argv[3]); "
            "cli.run(json.loads(sys.argv[2]), out_dir=sys.argv[4]); "
            "print('scipy' in sys.modules)")
    weak = (REPO / "configs" / "weak_convergence.json").read_text()
    out = subprocess.run(
        [sys.executable, "-c", code, weak, json.dumps(_graph_config()),
         str(tmp_path / "weak"), str(tmp_path / "graph")], cwd=src,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "False"]
    assert (tmp_path / "weak" / "ids_1024.json").exists()
    assert (tmp_path / "graph" / "ids_20.json").exists()
