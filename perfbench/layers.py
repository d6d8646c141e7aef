"""Micro-timings of the inner layers' public functions on fixed inputs.

Every figure is the median of five repeats.  Inputs come from fixed seeds,
not from the benchmark seed, so the figures of two runs differ only by the
machine.  The models are built from the workloads' own config subtrees.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

import workloads

REPEATS = 5
SEED = 20260816
TM1_LEVELS = (25, 50, 100)
PLAIN_LEVELS = (1000, 4000)
PASSAGE_REPS = {25: 400, 50: 300, 100: 200, 1000: 40, 4000: 12}
FWCI_A = 1.96 ** 2 / 0.1 ** 2


def _median_seconds(fn, calls: int) -> float:
    """Median over REPEATS of the time per call of ``fn`` (called
    ``calls`` times per repeat)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _model(subtree: dict):
    from renewalsim.config import ExperimentConfig, build_model
    return build_model(ExperimentConfig.from_dict(
        {"kind": "constants", "seed": 0, "reps": 1, "model": subtree}))


def measure(config_path: str) -> dict:
    """All micro-timed per-layer metrics, as name -> (value, unit)."""
    import renewalsim as rs
    from renewalsim.config import (ExperimentConfig, build_model,
                                   validate_for_kind)
    from renewalsim.staggered import staggered_backward_batch
    out = {}

    def load():
        cfg = ExperimentConfig.load(config_path)
        validate_for_kind(cfg)
        build_model(cfg)
    out["config.load_ms"] = (1e3 * _median_seconds(load, 20), "ms")

    r = iter(range(10 ** 9))
    out["rng.generator_us"] = (1e6 * _median_seconds(
        lambda: rs.RngStream(SEED, next(r)).generator(), 2000), "us")

    tm1, plain, stag = (_model(workloads.TM1), _model(workloads.PLAIN),
                        _model(workloads.STAG))
    law = tm1.increment_law
    gen = rs.RngStream(SEED).generator()
    out["laws.draw_ns"] = (1e9 / 256 * _median_seconds(
        lambda: law.sample(gen, 256), 2000), "ns")

    spec = tm1.stationary
    D = spec.depth
    w_ext = law.sample(gen, 256 + D)
    out["perturbation.xi_path_us"] = (1e6 * _median_seconds(
        lambda: spec.xi_path(w_ext, 256), 1000), "us")
    sums = np.cumsum(tm1.vector_law.materialize(w_ext[D:], gen), axis=0)
    out["perturbation.zeta_path_us"] = (1e6 * _median_seconds(
        lambda: rs.zeta_quadratic_path(sums, tm1.quadratic), 1000), "us")
    back = w_ext[: 192 + D]
    out["perturbation.xi_backward_us"] = (1e6 * _median_seconds(
        lambda: spec.xi_backward(back), 1000), "us")
    # the fwci backward functional's xi: residual lifetimes over the last
    # d arrivals, d where P[a lag survives] = q^d falls below 1e-14
    g = stag.g.values_at(stag.theta)
    q = stag.arrival_rate / (stag.arrival_rate + stag.theta)
    d_stag = max(20, math.ceil(math.log(1e-14) / math.log(q)))
    stag_spec = rs.StationarySpec.staggered_residual(g.g10, g.g01, d_stag)
    rows = gen.exponential(1.0, (192 + d_stag, 2))
    out["perturbation.xi_backward_staggered_us"] = (1e6 * _median_seconds(
        lambda: stag_spec.xi_backward(rows), 500), "us")

    for model, levels in ((tm1, TM1_LEVELS), (plain, PLAIN_LEVELS)):
        for a in levels:
            reps = PASSAGE_REPS[a]
            samples = rs.collect_passage(model, float(a), reps,
                                         rs.RngStream(SEED))
            per_rep = _median_seconds(lambda: rs.collect_passage(
                model, float(a), reps, rs.RngStream(SEED)), 1) / reps
            steps = float(np.mean(samples.t))
            out[f"first_passage.passage_us.a{a}"] = (1e6 * per_rep, "us")
            out[f"first_passage.steps_per_rep.a{a}"] = (steps, "count")
            out[f"first_passage.step_ns.a{a}"] = (1e9 * per_rep / steps, "ns")
    out["first_passage.backward_us"] = (1e6 / 300 * _median_seconds(
        lambda: rs.backward_min_functional(tm1, None, 300,
                                           rs.RngStream(SEED, 0, 3)), 1), "us")

    zeta = rs.collect_passage(tm1, 100.0, 16, rs.RngStream(SEED)).zeta
    mix = tm1.mixture()
    out["mixture.cdf_us"] = (1e6 / len(zeta) * _median_seconds(
        lambda: rs.mixture_cdf(mix, zeta), 1), "us")

    trials = 24
    times, patients, faults = [], [], []
    for _ in range(REPEATS):
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        n_sim = [rs.trial_first_passage(stag, FWCI_A,
                                        rs.RngStream(SEED, k)).n_simulated
                 for k in range(trials)]
        times.append((time.perf_counter() - start) / trials)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                       - flt) / trials)
        patients.append(float(np.mean(n_sim)))
    out["staggered.trial_us"] = (1e6 * statistics.median(times), "us")
    out["staggered.patients_per_trial"] = (statistics.median(patients),
                                           "count")
    out["staggered.minor_faults_per_trial"] = (statistics.median(faults),
                                               "count")
    out["staggered.backward_us"] = (1e6 / 100 * _median_seconds(
        lambda: staggered_backward_batch(stag, 100, rs.RngStream(SEED, 0, 3)),
        1), "us")
    for n in (384, 1536):
        state = rs.simulate_trial(stag, n, rs.RngStream(SEED))
        out[f"staggered.trajectory_ms.n{n}"] = (1e3 * _median_seconds(
            lambda: rs.statistic_trajectory(state, stag.g), 1), "ms")
    return out
