import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
import yaml

import renewalsim
from renewalsim import cli, config
from renewalsim.cli import main, run
from renewalsim.config import (EXPERIMENT_KINDS, ExperimentConfig, build_model,
                               validate_for_kind)
from renewalsim.errors import ConfigurationError
from renewalsim.first_passage import PerturbedWalkModel
from renewalsim.staggered import StaggeredExponentialModel

WALK_MODEL = {
    "kind": "perturbed_walk",
    "increment": {"family": "exponential", "params": {"rate": 1.0}},
    "vector": {"kind": "centered_x", "coeffs": [1.0]},
    "stationary": {"kind": "geometric_ma", "h": "identity", "beta": 0.5,
                   "centered": True},
    "quadratic": {"Q": [[0.5]]},
}

PLAIN_MODEL = {
    "kind": "perturbed_walk",
    "increment": {"family": "exponential", "params": {"rate": 1.0}},
}

STAGGERED_MODEL = {"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
                   "g": "fixed_width_ci"}

README = Path(__file__).resolve().parents[1] / "README.md"


def full_config(**over):
    d = {"kind": "simulate", "seed": 11, "reps": 50, "model": PLAIN_MODEL,
         "a_grid": [8.0]}
    d.update(over)
    return d


def test_config_round_trip():
    cfg = ExperimentConfig.from_dict(full_config(
        model=WALK_MODEL, a=3.0, b=0.5, y="median", q=0.4, eps=0.25,
        backward_reps=100, depth=64, h=0.2, c=1.96, horizon=40, level=0.1,
        predicate={"kind": "xi_leq", "c": 0.0}))
    again = ExperimentConfig.from_dict(yaml.safe_load(cfg.dumps()))
    assert again == cfg


def test_config_defaults():
    cfg = ExperimentConfig.from_dict(full_config())
    assert cfg.out == "results"
    assert cfg.workers == 1
    assert cfg.q == 0.4 and cfg.eps == 0.5 and cfg.level == 0.05
    assert cfg.a is None and cfg.predicate is None


@pytest.mark.parametrize("doc,field", [
    ({"seed": 1, "reps": 10, "model": PLAIN_MODEL}, "config.kind"),
    (full_config(kind="thm9"), "config.kind"),
    (full_config(seed=-1), "config.seed"),
    (full_config(seed=2 ** 70), "config.seed"),
    (full_config(reps=0), "config.reps"),
    (full_config(zzz=1), "config.zzz"),
    (full_config(q=0.3), "config.q"),
    (full_config(eps=0.0), "config.eps"),
    (full_config(level=1.0), "config.level"),
    (full_config(a_grid=[]), "config.a_grid"),
    (full_config(a_grid=[1.0, -2.0]), "config.a_grid"),
    (full_config(y="maybe"), "config.y"),
    (full_config(predicate={"kind": "sometimes"}), "config.predicate.kind"),
    (full_config(predicate={"kind": "xi_leq"}), "config.predicate.c"),
])
def test_config_rejections(doc, field):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_dict(doc)
    assert err.value.field == field


@pytest.mark.parametrize("model,field", [
    ({"kind": "lattice"}, "config.model.kind"),
    ({"kind": "perturbed_walk"}, "config.model.increment"),
    ({"kind": "perturbed_walk",
      "increment": {"family": "exponential", "params": {"rat": 1.0}}},
     "config.model.increment.params.rat"),
    ({"kind": "perturbed_walk",
      "increment": {"family": "exponential", "params": {"rate": -1.0}}},
     "config.model.increment.params"),
    ({"kind": "perturbed_walk",
      "increment": {"family": "exponential", "params": {"rate": 1.0}},
      "quadratic": {"Q": [[0.5]]}}, "config.model"),
    ({"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0, "g": "anova"},
     "config.model.g"),
])
def test_model_rejections(model, field):
    cfg = ExperimentConfig.from_dict(full_config(model=model))
    with pytest.raises(ConfigurationError) as err:
        build_model(cfg)
    assert field in str(err.value)


_EXP = {"family": "exponential", "params": {"rate": 1.0}}


@pytest.mark.parametrize("model,field", [
    ({"kind": "perturbed_walk", "increment": {
        "family": "quantile_table", "params": {"values": [-3, -1]}}},
     "config.model.increment.params"),
    ({"kind": "perturbed_walk", "increment": {
        "family": "exponential", "params": {"rate": -1}}},
     "config.model.increment.params.rate"),
    ({"kind": "perturbed_walk", "increment": _EXP,
      "vector": {"kind": "centered_x", "coeffs": [1.0]},
      "quadratic": {"Q": [[1.0, 0.0], [0.0, 1.0]]}}, "config.model.quadratic"),
    ({"kind": "perturbed_walk", "increment": _EXP,
      "quadratic": {"Q": [[0.5]]}}, "config.model"),
    ({"kind": "perturbed_walk", "increment": _EXP,
      "vector": {"kind": "gaussian", "cov": [[1.0, 2.0], [2.0, 1.0]]}},
     "config.model.vector.cov"),
    (dict(STAGGERED_MODEL, arrival_rate=-1), "config.model.arrival_rate"),
])
def test_library_errors_are_raised_at_config_paths(model, field):
    # the constructors' own fields (law.mean, model.vector_law, ...) give
    # way to the config path, and the message appears once
    cfg = ExperimentConfig.from_dict(full_config(model=model))
    with pytest.raises(ConfigurationError) as err:
        build_model(cfg)
    assert err.value.field == field
    assert str(err.value) == f"{field}: {err.value.message}"
    assert ":" not in err.value.message


def test_cross_field_validation():
    with pytest.raises(ConfigurationError) as err:
        validate_for_kind(ExperimentConfig.from_dict(
            full_config(kind="verify-thm1", a=None)))
    assert err.value.field == "config.a"
    with pytest.raises(ConfigurationError) as err:
        validate_for_kind(ExperimentConfig.from_dict(
            full_config(kind="verify-thm4", a_grid=None)))
    assert err.value.field == "config.a_grid"
    with pytest.raises(ConfigurationError) as err:
        validate_for_kind(ExperimentConfig.from_dict(full_config(
            kind="example-fwci", h=0.2, c=1.96)))
    assert err.value.field == "config.model.kind"
    # every kind of the table, each of its fields and the other model kind
    every_field = {"a": 20.0, "b": 0.5, "y": 0.0, "a_grid": [8.0],
                   "predicate": {"kind": "always_true"}, "h": 0.2,
                   "c": 1.96, "horizon": 40}
    for kind, (model_kind, fields) in EXPERIMENT_KINDS.items():
        model = STAGGERED_MODEL if model_kind == "staggered" else PLAIN_MODEL
        doc = full_config(kind=kind, model=model, **every_field)
        validate_for_kind(ExperimentConfig.from_dict(doc))
        for name in fields:
            with pytest.raises(ConfigurationError) as err:
                validate_for_kind(ExperimentConfig.from_dict(
                    dict(doc, **{name: None})))
            assert err.value.field == f"config.{name}"
            assert f"{kind} needs {name}" in str(err.value)
        if model_kind is not None:
            other = PLAIN_MODEL if model is STAGGERED_MODEL \
                else STAGGERED_MODEL
            with pytest.raises(ConfigurationError) as err:
                validate_for_kind(ExperimentConfig.from_dict(
                    dict(doc, model=other)))
            assert err.value.field == "config.model.kind"
            assert f"{kind} needs a {model_kind} model" in str(err.value)


# every key of every subtree: one walk model per increment family (each
# family has its own params keys) and the staggered model, under a top
# level that sets every field
FAMILY_PARAMS = {"exponential": {"rate": 1.0},
                 "gamma": {"shape": 2.0, "rate": 2.0},
                 "normal": {"mean": 1.0, "sd": 0.5},
                 "uniform": {"lo": 0.5, "hi": 1.5},
                 "deterministic": {"value": 1.0},
                 "quantile_table": {"values": [0.5, 1.0, 2.0]}}
EVERY_KEY_WALK = {
    "kind": "perturbed_walk",
    "increment": {"family": "gamma", "params": FAMILY_PARAMS["gamma"]},
    "vector": {"kind": "gaussian", "coeffs": [1.0, 2.0],
               "cov": [[1.0, 0.3], [0.3, 0.5]]},
    "stationary": {"kind": "geometric_ma", "h": "square", "beta": 0.5,
                   "centered": True, "truncation_depth": 20},
    "quadratic": {"Q": [[0.5, 0.0], [0.0, 0.25]]},
    "residual": {"kind": "constant", "value": 0.1},
    "n0": 2, "horizon_factor": 5.0}
EVERY_KEY_STAGGERED = {"kind": "staggered", "arrival_rate": 1.0,
                       "theta": 1.0, "g": "repeated_lrt", "n0": 2,
                       "xi_truncation": 100}


def _every_key_docs():
    top = full_config(kind="constants", out="o", workers=1, a=20.0, b=0.5,
                      y="median", q=0.4, eps=0.5, backward_reps=100,
                      depth=30, predicate={"kind": "xi_leq", "c": 0.0},
                      h=0.2, c=1.96, horizon=40, level=0.05,
                      calibration_reps=100)
    assert set(top) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    docs = [dict(top, model=EVERY_KEY_STAGGERED)]
    for family, params in FAMILY_PARAMS.items():
        model = dict(EVERY_KEY_WALK,
                     increment={"family": family, "params": params})
        docs.append(dict(top, model=model))
    return docs


def _mappings(doc, path="config"):
    """(dotted path, mapping) of ``doc`` and of every mapping inside it."""
    yield path, doc
    for k, v in doc.items():
        if isinstance(v, dict):
            yield from _mappings(v, f"{path}.{k}")


def _with(doc, path, edit):
    """A deep copy of ``doc`` with ``edit`` applied to the mapping at the
    dotted ``path``."""
    doc = copy.deepcopy(doc)
    target = doc
    for k in path.split(".")[1:]:
        target = target[k]
    edit(target)
    return doc


def _validate(doc):
    validate_for_kind(ExperimentConfig.from_dict(doc))


def test_every_key_validates_and_each_unknown_key_is_rejected_at_its_path():
    assert set(config._LAW_PARAMS) == set(FAMILY_PARAMS)
    assert all(tuple(p) == config._LAW_PARAMS[f]
               for f, p in FAMILY_PARAMS.items())
    for doc in _every_key_docs():
        _validate(doc)
        for path, mapping in _mappings(doc):
            with pytest.raises(ConfigurationError) as err:
                _validate(_with(doc, path, lambda m: m.update(zzz=1)))
            assert err.value.field == f"{path}.zzz"
            for key in mapping:
                def rename(m, key=key):
                    m[key + "_x"] = m.pop(key)
                with pytest.raises(ConfigurationError) as err:
                    _validate(_with(doc, path, rename))
                # a renamed required key may read as missing instead
                assert err.value.field in (f"{path}.{key}_x",
                                           f"{path}.{key}"), (path, key)


def test_field_table_names_the_config_fields():
    assert set(config._FIELDS) == {
        f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("centered", [False, True])
def test_unknown_stationary_map_is_rejected_at_validation(centered):
    # uncentred, an unknown map used to pass validation and fail inside
    # the kernel's first xi evaluation
    model = dict(PLAIN_MODEL, stationary={"kind": "instantaneous",
                                          "h": "sqaure",
                                          "centered": centered})
    with pytest.raises(ConfigurationError) as err:
        _validate(full_config(model=model))
    assert err.value.field == "config.model.stationary.h"
    assert "square" in str(err.value)


@pytest.mark.parametrize("cov", ["abc", [[1.0, 0.5]], [[1, 2], [2, 1]]])
def test_bad_gaussian_cov_is_rejected_at_validation(cov, tmp_path,
                                                    config_file):
    model = dict(PLAIN_MODEL, vector={"kind": "gaussian", "cov": cov})
    doc = full_config(model=model, reps=20, out=str(tmp_path / "o"))
    with pytest.raises(ConfigurationError) as err:
        _validate(doc)
    assert err.value.field == "config.model.vector.cov"
    assert main(["--config", config_file(doc)]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("a", [None, 3.0])
def test_horizon_below_n0_is_rejected_at_validation(a, tmp_path,
                                                    config_file):
    # calibrated (no a) and fixed-boundary example-rst runs alike
    model = dict(STAGGERED_MODEL, g="repeated_lrt", n0=50)
    doc = full_config(kind="example-rst", model=model, horizon=40, a=a,
                      out=str(tmp_path / "o"))
    with pytest.raises(ConfigurationError) as err:
        _validate(doc)
    assert err.value.field == "config.horizon"
    assert main(["--config", config_file(doc)]) == 2
    assert not (tmp_path / "o").exists()
    _validate(dict(doc, horizon=50))


def test_cli_out_naming_a_file_fails_before_the_runner(tmp_path, config_file,
                                                       monkeypatch, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    calls = []
    monkeypatch.setitem(cli._RUNNERS, "simulate",
                        lambda *args: calls.append(args))
    assert main(["--config", config_file(full_config(out=str(afile)))]) == 2
    assert calls == []
    assert "File exists" in capsys.readouterr().err


def test_cli_run_builds_the_model_once(tmp_path, monkeypatch):
    built = []
    for name in ("_build_walk_model", "_build_staggered_model"):
        def counted(m, build=getattr(config, name)):
            built.append(m["kind"])
            return build(m)
        monkeypatch.setattr(config, name, counted)
    run(ExperimentConfig.from_dict(full_config(out=str(tmp_path / "w"))))
    run(ExperimentConfig.from_dict(full_config(
        kind="constants", model=STAGGERED_MODEL, out=str(tmp_path / "s"))))
    assert built == ["perturbed_walk", "staggered"]


def _readme_kinds() -> dict:
    """{kind: "needs" cell} of README's experiment-kinds table."""
    lines = README.read_text(encoding="utf-8").split(
        "### Experiment kinds", 1)[1].strip().splitlines()
    rows = {}
    for line in lines[2:]:  # past the header and the rule
        if not line.startswith("|"):
            break
        kind, needs = [c.strip() for c in line.strip("|").split("|")][:2]
        rows[kind.strip("`")] = needs
    return rows


def test_readme_kinds_table_matches_config_and_runners():
    table = _readme_kinds()
    assert list(table) == list(EXPERIMENT_KINDS)
    for kind, needs in table.items():
        model_kind, fields = EXPERIMENT_KINDS[kind]
        assert re.findall(r"`([^`]+)`", needs) == list(fields), kind
        assert ("staggered model" in needs) == (model_kind == "staggered"), \
            kind
    assert set(cli._RUNNERS) == set(EXPERIMENT_KINDS)


def test_built_models_have_expected_types():
    walk = build_model(ExperimentConfig.from_dict(full_config(
        model=WALK_MODEL)))
    assert isinstance(walk, PerturbedWalkModel)
    assert walk.mixture() is not None
    stag = build_model(ExperimentConfig.from_dict(full_config(
        kind="constants",
        model={"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
               "g": "fixed_width_ci"})))
    assert isinstance(stag, StaggeredExponentialModel)


def test_sha256_ignores_out_and_workers():
    base = ExperimentConfig.from_dict(full_config())
    moved = ExperimentConfig.from_dict(full_config(out="elsewhere",
                                                   workers=8))
    reseeded = ExperimentConfig.from_dict(full_config(seed=12))
    assert base.sha256() == moved.sha256()
    assert base.sha256() != reseeded.sha256()


@pytest.fixture
def config_file(tmp_path):
    def write(doc, name="cfg.yaml"):
        p = tmp_path / name
        p.write_text(yaml.safe_dump(doc))
        return str(p)
    return write


def read_results(out_dir, kind):
    with open(out_dir / f"{kind}.csv", newline="") as f:
        table = list(csv.reader(f))
    with open(out_dir / "manifest.json") as f:
        manifest = json.load(f)
    return table, manifest


MANIFEST_KEYS = {"kind", "config_sha256", "seed", "replications",
                 "toolkit_version", "wall_time_seconds", "non_crossing_rate",
                 "passed", "flags", "warnings", "table"}


def test_cli_simulate_outputs(tmp_path, config_file):
    out = tmp_path / "out"
    path = config_file(full_config(reps=200, out=str(out)))
    assert main(["--config", path]) == 0
    table, manifest = read_results(out, "simulate")
    assert table[0] == ["a", "reps", "mean_t", "se_t", "mean_R", "se_R",
                        "mean_xi", "mean_zeta", "non_crossing_fraction"]
    assert len(table) == 2
    assert float(table[1][2]) == pytest.approx(9.0, abs=1.0)
    assert MANIFEST_KEYS <= set(manifest)
    assert manifest["kind"] == "simulate"
    assert manifest["seed"] == 11
    assert manifest["replications"] == 200
    assert manifest["passed"] is None
    assert manifest["flags"] == []
    assert manifest["table"] == "simulate.csv"
    cfg = ExperimentConfig.load(path)
    assert manifest["config_sha256"] == cfg.sha256()


def test_cli_worker_count_does_not_change_bytes(tmp_path, config_file):
    doc = full_config(reps=1500, a_grid=[6.0])
    path = config_file(doc)
    outs = []
    for i, w in enumerate((1, 2)):
        out = tmp_path / f"run{i}"
        assert main(["--config", path, "--out", str(out),
                     "--workers", str(w)]) == 0
        outs.append((out / "simulate.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_flag_overrides(tmp_path, config_file):
    path = config_file(full_config())
    out = tmp_path / "o"
    assert main(["--config", path, "--seed", "999", "--reps", "120",
                 "--out", str(out)]) == 0
    _, manifest = read_results(out, "simulate")
    assert manifest["seed"] == 999
    assert manifest["replications"] == 120


def test_cli_sha_tracks_overrides(tmp_path, config_file):
    path = config_file(full_config(reps=150))
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", path, "--out", str(a)]) == 0
    assert main(["--config", path, "--out", str(b), "--workers", "2"]) == 0
    _, ma = read_results(a, "simulate")
    _, mb = read_results(b, "simulate")
    assert ma["config_sha256"] == mb["config_sha256"]
    c = tmp_path / "c"
    assert main(["--config", path, "--out", str(c), "--seed", "1"]) == 0
    _, mc = read_results(c, "simulate")
    assert mc["config_sha256"] != ma["config_sha256"]


def test_cli_bad_config_exits_2(tmp_path, config_file):
    path = config_file(full_config(kind="verify-thm1"))
    assert main(["--config", path]) == 2
    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    broken = tmp_path / "broken.yaml"
    broken.write_text("kind: [unclosed\n")
    assert main(["--config", str(broken)]) == 2
    assert not (tmp_path / "results").exists()


def test_cli_config_directory_exits_2(tmp_path, capsys):
    # an OS error is a bad invocation (exit 2), not a failed gate (exit 1)
    assert main(["--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_flags_non_crossing_and_exits_1(tmp_path, config_file):
    model = dict(PLAIN_MODEL, horizon_factor=0.36)
    out = tmp_path / "nc"
    path = config_file(full_config(model=model, reps=300, a_grid=[50.0],
                                   out=str(out)))
    with pytest.warns(RuntimeWarning, match="non-crossing"):
        assert main(["--config", path]) == 1
    table, manifest = read_results(out, "simulate")
    assert manifest["flags"]
    assert manifest["non_crossing_rate"] > 0.01
    assert float(table[1][8]) == manifest["non_crossing_rate"]


def test_cli_manifest_lists_worker_warnings(tmp_path, config_file):
    listed = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        doc = {"kind": "constants", "seed": 5, "reps": 1500, "depth": 5,
               "out": str(out), "workers": w, "model": WALK_MODEL}
        with pytest.warns(RuntimeWarning, match="below recommended"):
            main(["--config", config_file(doc, f"w{w}.yaml")])
        _, manifest = read_results(out, "constants")
        listed.append(manifest["warnings"])
    below = [x for x in listed[0] if "below recommended" in x["message"]]
    assert len(below) == 1 and below[0]["count"] == 2  # one per chunk
    assert listed[0] == listed[1]


def test_cli_manifest_leaves_out_deprecation_warnings(tmp_path, monkeypatch):
    simulate = cli._RUNNERS["simulate"]

    def noisy(cfg, model, stream):
        warnings.warn("interpreter notice", DeprecationWarning)
        warnings.warn("run notice", UserWarning)
        return simulate(cfg, model, stream)

    monkeypatch.setitem(cli._RUNNERS, "simulate", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(ExperimentConfig.from_dict(full_config(out=str(tmp_path))))
    # both reach the caller; only the run's own is listed
    assert [str(w.message) for w in caught] == ["interpreter notice",
                                                "run notice"]
    _, manifest = read_results(tmp_path, "simulate")
    assert manifest["warnings"] == [
        {"category": "UserWarning", "message": "run notice", "count": 1}]


def test_cli_constants_staggered(tmp_path, config_file):
    out = tmp_path / "k"
    doc = {"kind": "constants", "seed": 5, "reps": 600, "out": str(out),
           "model": {"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
                     "g": "fixed_width_ci"}}
    assert main(["--config", config_file(doc)]) == 0
    table, manifest = read_results(out, "constants")
    assert table[0][:4] == ["mu", "sigma2", "rho", "se_rho"]
    assert float(table[1][0]) == pytest.approx(1.0)
    assert float(table[1][1]) == pytest.approx(4.0)
    assert manifest["mu"] == pytest.approx(1.0)
    assert manifest["lam"] == pytest.approx(1.0)


def test_run_thm1_table(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "verify-thm1", "seed": 7, "reps": 1200,
        "out": str(tmp_path / "t1"), "model": WALK_MODEL,
        "a": 60.0, "b": 0.5, "y": "median",
        "predicate": {"kind": "xi_leq", "c": 0.0}})
    code = run(cfg)
    table, manifest = read_results(tmp_path / "t1", "verify-thm1")
    assert table[0] == ["label", "estimate", "theory", "std_error", "reps",
                        "passed"]
    assert manifest["passed"] == (code == 0)


_LIST_LOADED = """
import sys
roots = sys.argv[1].split(',')
from renewalsim import cli
def report():
    print('loaded:', sorted(m for m in sys.modules if any(
        m == r or m.startswith(r + '.') for r in roots)))
report()
for path in sys.argv[2:]:
    cli.main(['--config', path])
    report()
"""

STAGGERED_FWCI = {"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
                  "g": "fixed_width_ci"}


def _loaded_by_runs(tmp_path, config_file, roots, docs):
    """One 'loaded:' line per state of a fresh process: after importing
    the CLI, then after each run; each lists the modules under ``roots``."""
    paths = [config_file(dict(doc, out=str(tmp_path / str(i))),
                         name=f"cfg{i}.yaml") for i, doc in enumerate(docs)]
    src = os.path.dirname(os.path.dirname(renewalsim.__file__))
    out = subprocess.run([sys.executable, "-c", _LIST_LOADED,
                          ",".join(roots), *paths],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    for i, doc in enumerate(docs):
        assert (tmp_path / str(i) / f"{doc['kind']}.csv").exists()
    return [line for line in out.stdout.splitlines()
            if line.startswith("loaded:")]


def test_cli_import_and_runs_load_no_scipy(tmp_path, config_file):
    # the README model's verify-thm3 and verify-thm4, the plain walk's
    # simulate and example-fwci all run on numpy alone; scipy.stats,
    # scipy.optimize, scipy.linalg, scipy.sparse, scipy.spatial and
    # scipy.fft stay out of the import with the rest of scipy
    docs = [full_config(kind="verify-thm3", model=WALK_MODEL, a=30.0),
            full_config(kind="verify-thm4", model=WALK_MODEL,
                        a_grid=[10.0, 20.0]),
            full_config(),
            full_config(kind="example-fwci", model=STAGGERED_FWCI, h=0.5,
                        c=1.96)]
    loaded = _loaded_by_runs(tmp_path, config_file, ["scipy"], docs)
    assert loaded == ["loaded: []"] * (len(docs) + 1)


_BLOCK_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == 'scipy' or name.startswith('scipy.'):
            raise ImportError(f'{name} is blocked')
if sys.argv[1] == 'block':
    sys.meta_path.insert(0, NoScipy())
from renewalsim import cli
print('exits:', [cli.main(['--config', path]) for path in sys.argv[2:]])
"""


def test_every_kind_runs_with_scipy_blocked(tmp_path, config_file):
    # scipy is a test dependency only: with every scipy import raising
    # ImportError, a small run of each kind and centred abs, sin and cos
    # maps exit as they do with scipy importable, and write the same CSV
    lrt = dict(STAGGERED_FWCI, g="repeated_lrt")
    fields = {"simulate": {}, "constants": {},
              "verify-thm1": {"a": 20.0, "b": 0.5, "y": 0.0,
                              "predicate": {"kind": "always_true"}},
              "verify-thm3": {"a": 30.0}, "verify-thm4": {"a_grid": [10.0]},
              "diag-lemma1": {}, "diag-lemma3": {},
              "example-fwci": {"h": 0.5, "c": 1.96},
              "example-rst": {"horizon": 30, "calibration_reps": 200}}
    assert set(fields) == set(EXPERIMENT_KINDS)
    docs = [full_config(kind=kind, model={"example-fwci": STAGGERED_FWCI,
                                          "example-rst": lrt}.get(
                                              kind, WALK_MODEL), **over)
            for kind, over in fields.items()]
    for h in ("abs", "sin", "cos"):
        docs.append(full_config(kind="verify-thm4", a_grid=[10.0], model=dict(
            WALK_MODEL, increment={"family": "normal",
                                   "params": {"mean": 1.0, "sd": 0.8}},
            stationary={"kind": "geometric_ma", "h": h, "centered": True})))
    paths = [config_file(dict(doc, out=str(tmp_path / str(i))),
                         name=f"cfg{i}.yaml") for i, doc in enumerate(docs)]
    src = os.path.dirname(os.path.dirname(renewalsim.__file__))
    runs = []
    for mode in ("allow", "block"):
        out = subprocess.run([sys.executable, "-c", _BLOCK_SCIPY, mode,
                              *paths], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-2000:]
        runs.append((out.stdout.splitlines()[-1], [
            (tmp_path / str(i) / f"{doc['kind']}.csv").read_bytes()
            for i, doc in enumerate(docs)]))
    assert runs[0] == runs[1]


def test_cli_import_and_one_worker_runs_load_no_pool_or_numpy_ma(
        tmp_path, config_file):
    # a process pool loads multiprocessing only when one starts, and the
    # sample statistics sort instead of calling np.median or np.quantile,
    # which import numpy.ma
    lrt = {"kind": "staggered", "arrival_rate": 1.0, "theta": 2.0,
           "g": "repeated_lrt"}
    docs = [full_config(kind="verify-thm4", model=WALK_MODEL,
                        a_grid=[10.0, 20.0]),
            full_config(kind="verify-thm3", model=WALK_MODEL, a=30.0),
            full_config(),
            full_config(kind="example-fwci", model=STAGGERED_FWCI, h=0.5,
                        c=1.96),
            full_config(kind="example-rst", model=lrt, horizon=30,
                        calibration_reps=200)]
    loaded = _loaded_by_runs(tmp_path, config_file,
                             ["multiprocessing", "numpy.ma"], docs)
    assert loaded == ["loaded: []"] * (len(docs) + 1)


def test_cli_run_starts_one_pool(tmp_path, config_file, monkeypatch):
    # two levels of two chunks each, 2 workers: one pool for the whole run,
    # and the same CSV and manifest as at 1 worker
    import concurrent.futures

    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    path = config_file(full_config(reps=2100, a_grid=[4.0, 9.0]))
    results = []
    for w in (1, 2):
        out = tmp_path / f"w{w}"
        assert main(["--config", path, "--out", str(out),
                     "--workers", str(w)]) == 0
        table, manifest = read_results(out, "simulate")
        manifest.pop("wall_time_seconds")
        results.append((table, manifest))
        assert started == [2] * (w - 1)
    assert results[0] == results[1]
