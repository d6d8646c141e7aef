"""Run configuration: one nested key/value file describing an experiment.

A config names the model, the experiment kind, and the sampling budget.
Everything is validated with a dotted field path before any sampling
starts, and a parsed config serializes back to an equivalent document.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
import yaml

from .errors import ConfigurationError
from .laws import IncrementLaw, VectorLaw
from .first_passage import PerturbedWalkModel
from .perturbation import QuadraticSpec, ResidualSpec, StationarySpec
from .staggered import GStatistic, StaggeredExponentialModel

# kind -> (model kind it runs on, None for either; fields it needs, in order)
EXPERIMENT_KINDS = {
    "simulate": ("perturbed_walk", ("a_grid",)),
    "constants": (None, ()),
    "verify-thm1": ("perturbed_walk", ("a", "b", "y", "predicate")),
    "verify-thm3": ("perturbed_walk", ("a",)),
    "verify-thm4": ("perturbed_walk", ("a_grid",)),
    "diag-lemma1": ("perturbed_walk", ("a_grid",)),
    "diag-lemma3": ("perturbed_walk", ("a_grid",)),
    "example-fwci": ("staggered", ("h", "c")),
    "example-rst": ("staggered", ("horizon",)),
}

_LAW_PARAMS = {
    "exponential": ("rate",),
    "gamma": ("shape", "rate"),
    "normal": ("mean", "sd"),
    "uniform": ("lo", "hi"),
    "deterministic": ("value",),
}

_TOP_KEYS = {
    "kind", "seed", "reps", "out", "workers", "model", "a", "b", "y",
    "a_grid", "q", "eps", "backward_reps", "depth", "predicate", "h", "c",
    "horizon", "level", "calibration_reps",
}


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigurationError("missing required key", f"{path}.{key}")
    return d[key]


def _as_int(v, path: str, lo: Optional[int] = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"expected an integer, got {v!r}", path)
    if lo is not None and v < lo:
        raise ConfigurationError(f"must be >= {lo}, got {v}", path)
    return int(v)


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"expected a number, got {v!r}", path)
    return float(v)


def _as_str(v, path: str, allowed=None) -> str:
    if not isinstance(v, str):
        raise ConfigurationError(f"expected a string, got {v!r}", path)
    if allowed is not None and v not in allowed:
        raise ConfigurationError(
            f"got {v!r}; allowed: {', '.join(sorted(allowed))}", path)
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: model, kind, budget, outputs.

    ``model`` stays a plain mapping (the exact document subtree) so a
    parsed config serializes back without loss; ``build_model`` turns it
    into a live object, validating every leaf with a dotted path.
    """

    kind: str
    seed: int
    reps: int
    model: dict
    out: str = "results"
    workers: int = 1
    a: Optional[float] = None
    b: Optional[float] = None
    y: Optional[Union[float, str]] = None
    a_grid: Optional[Tuple[float, ...]] = None
    q: float = 0.4
    eps: float = 0.5
    backward_reps: Optional[int] = None
    depth: Optional[int] = None
    predicate: Optional[dict] = None
    h: Optional[float] = None
    c: Optional[float] = None
    horizon: Optional[int] = None
    level: float = 0.05
    calibration_reps: int = 4000

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigurationError("config document must be a mapping",
                                     "config")
        for k in d:
            if k not in _TOP_KEYS:
                raise ConfigurationError(f"unknown key {k!r}", f"config.{k}")
        kind = _as_str(_need(d, "kind", "config"), "config.kind",
                       EXPERIMENT_KINDS)
        seed = _as_int(_need(d, "seed", "config"), "config.seed", lo=0)
        if seed > 2 ** 64 - 1:
            raise ConfigurationError("seed must fit in 64 bits", "config.seed")
        reps = _as_int(_need(d, "reps", "config"), "config.reps", lo=1)
        model = _need(d, "model", "config")
        if not isinstance(model, dict):
            raise ConfigurationError("model must be a mapping", "config.model")
        kw = {}
        if "out" in d:
            kw["out"] = _as_str(d["out"], "config.out")
        if "workers" in d:
            kw["workers"] = _as_int(d["workers"], "config.workers", lo=1)
        for name in ("a", "b", "h", "c"):
            if d.get(name) is not None:
                kw[name] = _as_float(d[name], f"config.{name}")
        if d.get("y") is not None:
            y = d["y"]
            if isinstance(y, str):
                if y not in ("median", "inf"):
                    raise ConfigurationError(
                        "y must be a number, 'median', or 'inf'", "config.y")
                kw["y"] = y
            else:
                kw["y"] = _as_float(y, "config.y")
        if d.get("a_grid") is not None:
            grid = d["a_grid"]
            if not isinstance(grid, list) or not grid:
                raise ConfigurationError("a_grid must be a non-empty list",
                                         "config.a_grid")
            vals = tuple(_as_float(v, f"config.a_grid[{i}]")
                         for i, v in enumerate(grid))
            if any(v <= 0 for v in vals):
                raise ConfigurationError("levels must be > 0", "config.a_grid")
            kw["a_grid"] = vals
        if "q" in d:
            kw["q"] = _as_float(d["q"], "config.q")
            if not 1.0 / 3.0 < kw["q"] < 0.5:
                raise ConfigurationError("q must lie in (1/3, 1/2)", "config.q")
        if "eps" in d:
            kw["eps"] = _as_float(d["eps"], "config.eps")
            if kw["eps"] <= 0:
                raise ConfigurationError("eps must be > 0", "config.eps")
        for name in ("backward_reps", "depth", "horizon"):
            if d.get(name) is not None:
                kw[name] = _as_int(d[name], f"config.{name}", lo=1)
        if "level" in d:
            kw["level"] = _as_float(d["level"], "config.level")
            if not 0.0 < kw["level"] < 1.0:
                raise ConfigurationError("level must be in (0, 1)",
                                         "config.level")
        if "calibration_reps" in d:
            kw["calibration_reps"] = _as_int(d["calibration_reps"],
                                             "config.calibration_reps", lo=2)
        if d.get("predicate") is not None:
            p = d["predicate"]
            if not isinstance(p, dict):
                raise ConfigurationError("predicate must be a mapping",
                                         "config.predicate")
            pk = _as_str(_need(p, "kind", "config.predicate"),
                         "config.predicate.kind", ("always_true", "xi_leq"))
            if pk == "xi_leq":
                _as_float(_need(p, "c", "config.predicate"),
                          "config.predicate.c")
            for k in p:
                if k not in ("kind", "c"):
                    raise ConfigurationError(f"unknown key {k!r}",
                                             f"config.predicate.{k}")
            kw["predicate"] = dict(p)
        return ExperimentConfig(kind=kind, seed=seed, reps=reps, model=model,
                                **kw)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "reps": self.reps,
               "out": self.out, "workers": self.workers,
               "q": self.q, "eps": self.eps, "level": self.level,
               "calibration_reps": self.calibration_reps}
        for name in ("a", "b", "y", "h", "c", "backward_reps", "depth",
                     "horizon"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.a_grid is not None:
            out["a_grid"] = list(self.a_grid)
        if self.predicate is not None:
            out["predicate"] = dict(self.predicate)
        out["model"] = self.model
        return out

    @staticmethod
    def loads(text: str) -> "ExperimentConfig":
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config is not valid YAML: {exc}",
                                     "config")
        return ExperimentConfig.from_dict(doc)

    @staticmethod
    def load(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as f:
            return ExperimentConfig.loads(f.read())

    def dumps(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False,
                              default_flow_style=False)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.dumps())

    def sha256(self) -> str:
        """Hash of the result-determining fields (canonical key order).

        ``out`` and ``workers`` change where results go and how fast
        they arrive, never what they are, so they stay out of the hash.
        """
        d = self.to_dict()
        d.pop("out", None)
        d.pop("workers", None)
        canon = yaml.safe_dump(d, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    # -- model construction ----------------------------------------------

    def model_kind(self) -> str:
        return _as_str(_need(self.model, "kind", "config.model"),
                       "config.model.kind", ("perturbed_walk", "staggered"))


def _build_increment(d: dict, path: str) -> IncrementLaw:
    if not isinstance(d, dict):
        raise ConfigurationError("increment must be a mapping", path)
    fams = tuple(_LAW_PARAMS) + ("quantile_table",)
    fam = _as_str(_need(d, "family", path), f"{path}.family", fams)
    params = _need(d, "params", path)
    if not isinstance(params, dict):
        raise ConfigurationError("params must be a mapping", f"{path}.params")
    if fam == "quantile_table":
        vals = _need(params, "values", f"{path}.params")
        if not isinstance(vals, list) or len(vals) < 2:
            raise ConfigurationError("values must list at least 2 numbers",
                                     f"{path}.params.values")
        return IncrementLaw.quantile_table(
            [_as_float(v, f"{path}.params.values[{i}]")
             for i, v in enumerate(vals)])
    names = _LAW_PARAMS[fam]
    for k in params:
        if k not in names:
            raise ConfigurationError(f"unknown parameter {k!r} for {fam}",
                                     f"{path}.params.{k}")
    args = [_as_float(_need(params, n, f"{path}.params"), f"{path}.params.{n}")
            for n in names]
    try:
        return getattr(IncrementLaw, fam)(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(str(exc), f"{path}.params")


def _build_stationary(d: Optional[dict], law: IncrementLaw,
                      path: str) -> StationarySpec:
    if d is None:
        return StationarySpec.zero()
    if not isinstance(d, dict):
        raise ConfigurationError("stationary must be a mapping", path)
    kind = _as_str(_need(d, "kind", path), f"{path}.kind",
                   ("zero", "instantaneous", "geometric_ma"))
    if kind == "zero":
        return StationarySpec.zero()
    h = d.get("h", "identity")
    _as_str(h, f"{path}.h")
    centered = d.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigurationError("centered must be true or false",
                                 f"{path}.centered")
    if kind == "instantaneous":
        spec = StationarySpec.instantaneous(h)
    else:
        beta = _as_float(d.get("beta", 0.5), f"{path}.beta")
        if not 0.0 < beta < 1.0:
            raise ConfigurationError("beta must lie in (0, 1)", f"{path}.beta")
        td = d.get("truncation_depth")
        if td is not None:
            td = _as_int(td, f"{path}.truncation_depth", lo=1)
        spec = StationarySpec.geometric_ma(h, beta, truncation_depth=td)
    return spec.centered(law) if centered else spec


def _build_walk_model(m: dict) -> PerturbedWalkModel:
    allowed = {"kind", "increment", "vector", "stationary", "quadratic",
               "residual", "n0", "horizon_factor"}
    for k in m:
        if k not in allowed:
            raise ConfigurationError(f"unknown key {k!r}", f"config.model.{k}")
    law = _build_increment(_need(m, "increment", "config.model"),
                           "config.model.increment")
    vector = None
    if m.get("vector") is not None:
        v = m["vector"]
        if not isinstance(v, dict):
            raise ConfigurationError("vector must be a mapping",
                                     "config.model.vector")
        vkind = _as_str(v.get("kind", "centered_x"), "config.model.vector.kind",
                        ("centered_x", "gaussian"))
        if vkind == "centered_x":
            coeffs = _need(v, "coeffs", "config.model.vector")
            if not isinstance(coeffs, list) or not coeffs:
                raise ConfigurationError("coeffs must be a non-empty list",
                                         "config.model.vector.coeffs")
            vector = VectorLaw.centered_x(
                [_as_float(c, f"config.model.vector.coeffs[{i}]")
                 for i, c in enumerate(coeffs)])
        else:
            cov = _need(v, "cov", "config.model.vector")
            vector = VectorLaw.gaussian(np.asarray(cov, dtype=float))
    stationary = _build_stationary(m.get("stationary"), law,
                                   "config.model.stationary")
    quadratic = None
    if m.get("quadratic") is not None:
        qd = m["quadratic"]
        if not isinstance(qd, dict) or "Q" not in qd:
            raise ConfigurationError("quadratic needs a Q matrix",
                                     "config.model.quadratic.Q")
        try:
            quadratic = QuadraticSpec(np.asarray(qd["Q"], dtype=float))
        except (TypeError, ValueError):
            raise ConfigurationError("Q must be a numeric matrix",
                                     "config.model.quadratic.Q")
    residual = ResidualSpec.zero()
    if m.get("residual") is not None:
        rd = m["residual"]
        if not isinstance(rd, dict):
            raise ConfigurationError("residual must be a mapping",
                                     "config.model.residual")
        rkind = _as_str(_need(rd, "kind", "config.model.residual"),
                        "config.model.residual.kind", ("zero", "constant"))
        if rkind == "constant":
            residual = ResidualSpec.constant(
                _as_float(_need(rd, "value", "config.model.residual"),
                          "config.model.residual.value"))
    n0 = _as_int(m.get("n0", 1), "config.model.n0", lo=1)
    kw = {}
    if m.get("horizon_factor") is not None:
        kw["horizon_factor"] = _as_float(m["horizon_factor"],
                                         "config.model.horizon_factor")
    return PerturbedWalkModel(increment_law=law, vector_law=vector,
                              stationary=stationary, quadratic=quadratic,
                              residual=residual, n0=n0, **kw)


def _build_staggered_model(m: dict) -> StaggeredExponentialModel:
    allowed = {"kind", "arrival_rate", "theta", "g", "n0", "xi_truncation"}
    for k in m:
        if k not in allowed:
            raise ConfigurationError(f"unknown key {k!r}", f"config.model.{k}")
    rate = _as_float(_need(m, "arrival_rate", "config.model"),
                     "config.model.arrival_rate")
    theta = _as_float(_need(m, "theta", "config.model"), "config.model.theta")
    gname = _as_str(_need(m, "g", "config.model"), "config.model.g",
                    ("fixed_width_ci", "repeated_lrt"))
    g = GStatistic.fixed_width_ci() if gname == "fixed_width_ci" \
        else GStatistic.repeated_lrt()
    n0 = _as_int(m.get("n0", 1), "config.model.n0", lo=1)
    trunc = _as_int(m.get("xi_truncation", 200), "config.model.xi_truncation",
                    lo=1)
    return StaggeredExponentialModel(arrival_rate=rate, theta=theta, g=g,
                                     n0=n0, xi_truncation=trunc)


def build_model(cfg: ExperimentConfig):
    """Construct the live model object the config describes."""
    if cfg.model_kind() == "perturbed_walk":
        return _build_walk_model(cfg.model)
    return _build_staggered_model(cfg.model)


def validate_for_kind(cfg: ExperimentConfig) -> None:
    """Cross-field checks: the kind must be runnable with what the
    config provides.  Raises before any sampling happens."""
    mkind = cfg.model_kind()
    needed_kind, fields = EXPERIMENT_KINDS[cfg.kind]
    if needed_kind not in (None, mkind):
        raise ConfigurationError(f"{cfg.kind} needs a {needed_kind} model",
                                 "config.model.kind")
    for name in fields:
        if getattr(cfg, name) is None:
            raise ConfigurationError(f"{cfg.kind} needs {name}",
                                     f"config.{name}")
    build_model(cfg)
