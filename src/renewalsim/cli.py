"""Command-line runner: one config in, one CSV table and a manifest out.

Each kind builds the model, makes one library call and formats its rows.
The library runs replications in fixed chunks keyed by their global
replication number (see ``parallel``), so the result of a run depends
only on (config, seed): the worker count changes wall time, never output
bytes or the warnings the manifest lists.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .config import ExperimentConfig, build_model, validate_for_kind
from .errors import RenewalSimError
from .first_passage import estimate_rho_nu, summarize_levels
from .mixture import mixture_quantile
from .parallel import raise_again, shared_pool
from .rng import RngStream
from .staggered import (calibrate_lrt_boundary, example1_run, example2_run,
                        staggered_constants)
from .verification import (EventPredicate, lemma1_diagnostic,
                           lemma3_diagnostic, theorem1_experiment,
                           theorem3_experiment, theorem4_experiment)


def _predicate(spec: Optional[dict]) -> EventPredicate:
    if spec is None or spec["kind"] == "always_true":
        return EventPredicate.always_true()
    return EventPredicate.xi_leq(float(spec["c"]))


def _resolve_y(model, y):
    """Turn the config's y into a number ('median' and 'inf' included)."""
    if isinstance(y, str):
        if y == "inf":
            return math.inf
        mix = model.mixture()
        if mix is None:
            return model.residual.value
        return mixture_quantile(mix, 0.5)
    return float(y)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _report_rows(reports) -> List[list]:
    return [[r.label, r.estimate, r.theory_value, r.std_error, r.n_reps,
             r.passed] for r in reports]


_REPORT_HEADER = ("label", "estimate", "theory", "std_error", "reps",
                  "passed")


@dataclass
class RunOutput:
    """Everything one run produced, before it is written to disk."""

    header: Sequence[str]
    rows: List[list]
    passed: Optional[bool]        # None when the kind has no pass gate
    flags: List[str]
    non_crossing_rate: Optional[float]
    extra: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if (self.passed is False or self.flags) else 0


def _constants_extra(c) -> dict:
    return {"mu": c.mu, "sigma2": c.sigma2, "rho": c.rho, "se_rho": c.se_rho,
            "nu": c.nu, "se_nu": c.se_nu, "lam": c.lam,
            "flags": list(c.flags)}


def _run_simulate(cfg, model, stream) -> RunOutput:
    summaries = summarize_levels(model, cfg.a_grid, cfg.reps, stream)
    flags = [f"non-crossing fraction {s.non_crossing_fraction} at a={s.a} "
             f"exceeds 1%" for s in summaries if not s.usable]
    rows = [[s.a, s.reps, s.mean_t, s.se_t, s.mean_R, s.se_R, s.mean_xi,
             s.mean_zeta, s.non_crossing_fraction] for s in summaries]
    header = ("a", "reps", "mean_t", "se_t", "mean_R", "se_R", "mean_xi",
              "mean_zeta", "non_crossing_fraction")
    worst = max(s.non_crossing_fraction for s in summaries)
    return RunOutput(header, rows, None, flags, worst)


def _run_constants(cfg, model, stream) -> RunOutput:
    if cfg.model_kind() == "staggered":
        c = staggered_constants(model, cfg.reps, stream, cfg.depth)
    else:
        c = estimate_rho_nu(model, cfg.depth, cfg.reps, stream)
    header = ("mu", "sigma2", "rho", "se_rho", "nu", "se_nu", "lam", "reps",
              "flags")
    rows = [[c.mu, c.sigma2, c.rho, c.se_rho, c.nu, c.se_nu, c.lam, c.reps,
             ";".join(c.flags)]]
    return RunOutput(header, rows, None, list(c.flags), None,
                     _constants_extra(c))


def _run_thm1(cfg, model, stream) -> RunOutput:
    report = theorem1_experiment(model, _predicate(cfg.predicate),
                                 _resolve_y(model, cfg.y), cfg.a, cfg.b,
                                 cfg.reps, stream)
    return RunOutput(_REPORT_HEADER, _report_rows([report]), report.passed,
                     [], None)


def _run_thm3(cfg, model, stream) -> RunOutput:
    res = theorem3_experiment(model, float(cfg.a), cfg.reps, stream,
                              cfg.backward_reps, cfg.depth)
    return RunOutput(_REPORT_HEADER, _report_rows(res.reports), res.passed,
                     [], res.non_crossing_fraction)


def _run_thm4(cfg, model, stream) -> RunOutput:
    res = theorem4_experiment(model, cfg.a_grid, cfg.reps, stream, cfg.depth,
                              cfg.backward_reps)
    header = ("a", "mean_t", "se_t", "theory", "diff", "combined_se",
              "passed")
    rows = [[r.a, r.mean_t, r.se_t, r.theory, r.diff, r.combined_se, r.passed]
            for r in res.rows]
    c = res.constants
    flags = [] if c.consistent else list(c.flags)
    return RunOutput(header, rows, res.passed, flags,
                     res.non_crossing_fraction, _constants_extra(c))


def _run_lemma1(cfg, model, stream) -> RunOutput:
    rows = lemma1_diagnostic(model, cfg.q, cfg.a_grid, cfg.reps, stream)
    header = ("a", "m", "M", "delta0", "se0", "delta1", "se1", "tail",
              "se_tail")
    table = [[r.a, r.m, r.M, r.delta0, r.se0, r.delta1, r.se1, r.tail,
              r.se_tail] for r in rows]
    return RunOutput(header, table, None, [], None)


def _run_lemma3(cfg, model, stream) -> RunOutput:
    rows = lemma3_diagnostic(model, cfg.q, cfg.eps, cfg.a_grid, cfg.reps,
                             stream)
    header = ("a", "m", "M", "count", "se")
    table = [[r.a, r.m, r.M, r.count, r.se] for r in rows]
    return RunOutput(header, table, None, [], None)


def _run_example_fwci(cfg, model, stream) -> RunOutput:
    res = example1_run(model, cfg.h, cfg.c, cfg.reps, stream,
                       cfg.backward_reps, cfg.depth)
    header = ("a", "half_width", "confidence", "reps", "mean_t", "se_t",
              "coverage", "se_coverage", "nominal_coverage", "theory_Et",
              "combined_se", "expansion_passed", "non_crossing_fraction")
    rows = [[res.a, res.half_width, cfg.c, res.reps, res.mean_t, res.se_t,
             res.coverage, res.se_coverage, res.nominal_coverage,
             res.expansion.theory_value, res.expansion.std_error,
             res.expansion.passed,
             res.non_crossing_fraction]]
    flags = list(res.constants.flags)
    if res.non_crossing_fraction > 0.01:
        flags.append(f"non-crossing fraction {res.non_crossing_fraction} "
                     f"exceeds 1%")
    return RunOutput(header, rows, None, flags, res.non_crossing_fraction,
                     _constants_extra(res.constants))


def _run_example_rst(cfg, model, stream) -> RunOutput:
    calibrated = cfg.a is None
    if calibrated:
        a = calibrate_lrt_boundary(model.arrival_rate, cfg.horizon,
                                   cfg.calibration_reps, stream, cfg.level,
                                   model.n0)
    else:
        a = float(cfg.a)
    res = example2_run(model, a, cfg.reps, cfg.horizon, stream)
    header = ("a", "calibrated", "horizon", "reps", "theta", "rejection_rate",
              "se_rejection", "mean_t_rejected", "se_t_rejected")
    rows = [[res.a, calibrated, res.horizon, res.reps, res.theta,
             res.rejection_rate, res.se_rejection, res.mean_t_rejected,
             res.se_t_rejected]]
    return RunOutput(header, rows, None, [], None)


_RUNNERS = {
    "simulate": _run_simulate,
    "constants": _run_constants,
    "verify-thm1": _run_thm1,
    "verify-thm3": _run_thm3,
    "verify-thm4": _run_thm4,
    "diag-lemma1": _run_lemma1,
    "diag-lemma3": _run_lemma3,
    "example-fwci": _run_example_fwci,
    "example-rst": _run_example_rst,
}


def _warning_counts(caught) -> List[dict]:
    """Each distinct warning with its count, in order of first appearance.

    Deprecation warnings speak of the interpreter and the libraries, not of
    the run (os.fork raises one when a pool starts in a multi-threaded
    process), so they reach the caller but stay out of the list.
    """
    counts = Counter((w.category.__name__, str(w.message)) for w in caught
                     if not issubclass(w.category, (DeprecationWarning,
                                                    PendingDeprecationWarning)))
    return [{"category": cat, "message": msg, "count": n}
            for (cat, msg), n in counts.items()]


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; write `<kind>.csv` and `manifest.json`
    under cfg.out.  Returns the process exit code."""
    validate_for_kind(cfg)
    started = time.monotonic()
    with warnings.catch_warnings(record=True) as caught, \
            shared_pool(cfg.workers):
        warnings.simplefilter("always")
        out = _RUNNERS[cfg.kind](cfg, build_model(cfg), RngStream(cfg.seed))
    raise_again(caught)
    wall = time.monotonic() - started
    os.makedirs(cfg.out, exist_ok=True)
    table = os.path.join(cfg.out, f"{cfg.kind}.csv")
    _write_csv(table, out.header, out.rows)
    manifest = {
        "kind": cfg.kind,
        "config_sha256": cfg.sha256(),
        "seed": cfg.seed,
        "replications": cfg.reps,
        "toolkit_version": __version__,
        "wall_time_seconds": wall,
        "non_crossing_rate": out.non_crossing_rate,
        "passed": out.passed,
        "flags": out.flags,
        "warnings": _warning_counts(caught),
        "table": os.path.basename(table),
    }
    manifest.update(out.extra)
    with open(os.path.join(cfg.out, "manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    status = "ok" if out.exit_code == 0 else "FAILED"
    print(f"{cfg.kind}: {len(out.rows)} row(s) -> {table} [{status}]")
    return out.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="renewalsim",
        description="Run a perturbed-walk experiment described by a config "
                    "file; flags override the matching config fields.")
    parser.add_argument("--config", required=True, help="path to YAML config")
    parser.add_argument("--seed", type=int, default=None,
                        help="64-bit experiment seed")
    parser.add_argument("--reps", type=int, default=None,
                        help="Monte Carlo replications")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (does not affect results)")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        d = cfg.to_dict()
        for name in ("seed", "reps", "out", "workers"):
            v = getattr(args, name)
            if v is not None:
                d[name] = v
        cfg = ExperimentConfig.from_dict(d)
        return run(cfg)
    except (RenewalSimError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
