"""Run configuration: one nested key/value file describing an experiment.

A config names the model, the experiment kind, and the sampling budget.
Every mapping in it passes one check, ``_mapping``: the top level,
``predicate``, ``model`` and its subtrees ``increment``, ``params``,
``stationary``, ``vector``, ``quadratic`` and ``residual``.  A value that
is not a mapping, or a key the mapping does not allow, raises
``ConfigurationError`` at its dotted path (``config.model.stationary.betta``).
The top-level fields are parsed by one table, ``_FIELDS``, in its order;
the model subtree is parsed by ``build_model``.  Everything is validated
before any sampling starts, and a parsed config serializes back to an
equivalent document.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Optional, Tuple, Union

import yaml

from .errors import ConfigurationError
from .laws import IncrementLaw, VectorLaw
from .first_passage import PerturbedWalkModel
from .perturbation import (_NAMED_MAPS, QuadraticSpec, ResidualSpec,
                           StationarySpec)
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

# increment family -> the keys of its params, in constructor order
_LAW_PARAMS = {
    "exponential": ("rate",),
    "gamma": ("shape", "rate"),
    "normal": ("mean", "sd"),
    "uniform": ("lo", "hi"),
    "deterministic": ("value",),
    "quantile_table": ("values",),
}


def _mapping(v, path: str, keys=None) -> dict:
    """``v`` if it is a mapping whose keys all lie in ``keys`` (any key
    when ``keys`` is None); else an error at ``path`` or the key's path."""
    if not isinstance(v, dict):
        raise ConfigurationError(
            f"{path.rsplit('.', 1)[-1]} must be a mapping", path)
    for k in v:
        if keys is not None and k not in keys:
            raise ConfigurationError(f"unknown key {k!r}", f"{path}.{k}")
    return v


def _built(make, path: str, keys=()):
    """``make()``, a library ConfigurationError raised again with its
    message at ``path``, or at ``path.k`` when its field ends in a key k
    of ``keys`` (the library's ``law.rate`` at ``...params.rate``)."""
    try:
        return make()
    except ConfigurationError as exc:
        k = (exc.field or "").rsplit(".", 1)[-1]
        raise ConfigurationError(exc.message,
                                 f"{path}.{k}" if k in keys else path) from None


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


def _floats(v, path: str, message: str, least: int = 1) -> tuple:
    """A list of at least ``least`` numbers, as a tuple of floats."""
    if not isinstance(v, list) or len(v) < least:
        raise ConfigurationError(message, path)
    return tuple(_as_float(x, f"{path}[{i}]") for i, x in enumerate(v))


def _checked(parse, ok, message: str):
    """``parse``, then an error with ``message`` unless ``ok(value)``."""
    def run(v, path: str):
        value = parse(v, path)
        if not ok(value):
            raise ConfigurationError(message, path)
        return value
    return run


def _y(v, path: str) -> Union[float, str]:
    if isinstance(v, str):
        if v not in ("median", "inf"):
            raise ConfigurationError(
                "y must be a number, 'median', or 'inf'", path)
        return v
    return _as_float(v, path)


def _predicate(v, path: str) -> dict:
    p = _mapping(v, path, ("kind", "c"))
    kind = _as_str(_need(p, "kind", path), f"{path}.kind",
                   ("always_true", "xi_leq"))
    if kind == "xi_leq":
        _as_float(_need(p, "c", path), f"{path}.c")
    return dict(p)


# field -> parser(value, dotted path), in check order.  A field without a
# default is required; null stands for absent where the default is None.
_FIELDS = {
    "kind": partial(_as_str, allowed=EXPERIMENT_KINDS),
    "seed": _checked(partial(_as_int, lo=0), lambda s: s <= 2 ** 64 - 1,
                     "seed must fit in 64 bits"),
    "reps": partial(_as_int, lo=1),
    "model": _mapping,  # its keys depend on its kind; see build_model
    "out": _as_str,
    "workers": partial(_as_int, lo=1),
    "a": _as_float,
    "b": _as_float,
    "h": _as_float,
    "c": _as_float,
    "y": _y,
    "a_grid": _checked(
        partial(_floats, message="a_grid must be a non-empty list"),
        lambda g: all(v > 0 for v in g), "levels must be > 0"),
    "q": _checked(_as_float, lambda q: 1.0 / 3.0 < q < 0.5,
                  "q must lie in (1/3, 1/2)"),
    "eps": _checked(_as_float, lambda e: e > 0, "eps must be > 0"),
    "backward_reps": partial(_as_int, lo=1),
    "depth": partial(_as_int, lo=1),
    "horizon": partial(_as_int, lo=1),
    "level": _checked(_as_float, lambda x: 0.0 < x < 1.0,
                      "level must be in (0, 1)"),
    "calibration_reps": partial(_as_int, lo=2),
    "predicate": _predicate,
}


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
        d = _mapping(d, "config", _FIELDS)
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        kw = {}
        for name, parse in _FIELDS.items():
            if defaults[name] is MISSING:
                _need(d, name, "config")
            if name in d and (d[name] is not None
                              or defaults[name] is not None):
                kw[name] = parse(d[name], f"config.{name}")
        return ExperimentConfig(**kw)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = list(v) if isinstance(v, tuple) else v
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


def _build_increment(d, path: str) -> IncrementLaw:
    d = _mapping(d, path, ("family", "params"))
    fam = _as_str(_need(d, "family", path), f"{path}.family", _LAW_PARAMS)
    names = _LAW_PARAMS[fam]
    params = _mapping(_need(d, "params", path), f"{path}.params", names)
    parse = partial(_floats, message="values must list at least 2 numbers",
                    least=2) if fam == "quantile_table" else _as_float
    args = [parse(_need(params, n, f"{path}.params"), f"{path}.params.{n}")
            for n in names]
    return _built(partial(getattr(IncrementLaw, fam), *args),
                  f"{path}.params", params)


def _build_stationary(d, law: IncrementLaw, path: str) -> StationarySpec:
    if d is None:
        return StationarySpec.zero()
    d = _mapping(d, path, ("kind", "h", "beta", "centered",
                           "truncation_depth"))
    kind = _as_str(_need(d, "kind", path), f"{path}.kind",
                   ("zero", "instantaneous", "geometric_ma"))
    if kind == "zero":
        return StationarySpec.zero()
    h = _as_str(d.get("h", "identity"), f"{path}.h", _NAMED_MAPS)
    centered = d.get("centered", False)
    if not isinstance(centered, bool):
        raise ConfigurationError("centered must be true or false",
                                 f"{path}.centered")
    if kind == "instantaneous":
        spec = StationarySpec.instantaneous(h)
    else:
        beta = _as_float(d.get("beta", 0.5), f"{path}.beta")
        td = d.get("truncation_depth")
        if td is not None:
            td = _as_int(td, f"{path}.truncation_depth", lo=1)
        spec = _built(partial(StationarySpec.geometric_ma, h, beta, td),
                      path, d)
    return spec.centered(law) if centered else spec


def _build_walk_model(m: dict) -> PerturbedWalkModel:
    path = "config.model"
    _mapping(m, path, ("kind", "increment", "vector", "stationary",
                       "quadratic", "residual", "n0", "horizon_factor"))
    law = _build_increment(_need(m, "increment", path), f"{path}.increment")
    vector = None
    if m.get("vector") is not None:
        v = _mapping(m["vector"], f"{path}.vector", ("kind", "coeffs", "cov"))
        vkind = _as_str(v.get("kind", "centered_x"), f"{path}.vector.kind",
                        ("centered_x", "gaussian"))
        if vkind == "centered_x":
            vector = VectorLaw.centered_x(_floats(
                _need(v, "coeffs", f"{path}.vector"),
                f"{path}.vector.coeffs", "coeffs must be a non-empty list"))
        else:
            vector = _built(partial(VectorLaw.gaussian,
                                    _need(v, "cov", f"{path}.vector")),
                            f"{path}.vector.cov")
    stationary = _build_stationary(m.get("stationary"), law,
                                   f"{path}.stationary")
    quadratic = None
    if m.get("quadratic") is not None:
        qd = _mapping(m["quadratic"], f"{path}.quadratic", ("Q",))
        quadratic = _built(partial(QuadraticSpec,
                                   _need(qd, "Q", f"{path}.quadratic")),
                           f"{path}.quadratic.Q")
    residual = ResidualSpec.zero()
    if m.get("residual") is not None:
        rd = _mapping(m["residual"], f"{path}.residual", ("kind", "value"))
        rkind = _as_str(_need(rd, "kind", f"{path}.residual"),
                        f"{path}.residual.kind", ("zero", "constant"))
        if rkind == "constant":
            residual = ResidualSpec.constant(
                _as_float(_need(rd, "value", f"{path}.residual"),
                          f"{path}.residual.value"))
    n0 = _as_int(m.get("n0", 1), f"{path}.n0", lo=1)
    kw = {}
    if m.get("horizon_factor") is not None:
        kw["horizon_factor"] = _as_float(m["horizon_factor"],
                                         f"{path}.horizon_factor")
    return _built(partial(PerturbedWalkModel, law, vector, stationary,
                          quadratic, residual, n0, **kw), path, m)


def _build_staggered_model(m: dict) -> StaggeredExponentialModel:
    path = "config.model"
    _mapping(m, path, ("kind", "arrival_rate", "theta", "g", "n0",
                       "xi_truncation"))
    rate = _as_float(_need(m, "arrival_rate", path), f"{path}.arrival_rate")
    theta = _as_float(_need(m, "theta", path), f"{path}.theta")
    g = getattr(GStatistic, _as_str(_need(m, "g", path), f"{path}.g",
                                    ("fixed_width_ci", "repeated_lrt")))()
    n0 = _as_int(m.get("n0", 1), f"{path}.n0", lo=1)
    trunc = _as_int(m.get("xi_truncation", 200), f"{path}.xi_truncation",
                    lo=1)
    return _built(partial(StaggeredExponentialModel, rate, theta, g, n0,
                          trunc), path, m)


def build_model(cfg: ExperimentConfig):
    """Construct the live model object the config describes."""
    if cfg.model_kind() == "perturbed_walk":
        return _build_walk_model(cfg.model)
    return _build_staggered_model(cfg.model)


def validate_for_kind(cfg: ExperimentConfig):
    """Cross-field checks: the kind must be runnable with what the
    config provides.  Raises before any sampling happens; returns the
    model, built once."""
    mkind = cfg.model_kind()
    needed_kind, fields_needed = EXPERIMENT_KINDS[cfg.kind]
    if needed_kind not in (None, mkind):
        raise ConfigurationError(f"{cfg.kind} needs a {needed_kind} model",
                                 "config.model.kind")
    for name in fields_needed:
        if getattr(cfg, name) is None:
            raise ConfigurationError(f"{cfg.kind} needs {name}",
                                     f"config.{name}")
    model = build_model(cfg)
    if "horizon" in fields_needed and cfg.horizon < model.n0:
        raise ConfigurationError(
            f"horizon {cfg.horizon} below the model's n0 = {model.n0}",
            "config.horizon")
    return model
