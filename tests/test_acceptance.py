"""End-to-end acceptance checks.

Every test prints one line

    [acceptance] <name>: <figures> -> PASS|FAIL

before asserting, so a full run leaves a scannable record.  The
reference configuration throughout is the exponential(1) walk with the
centered geometric moving-average perturbation (beta 0.5, identity map)
and quadratic weight 1/2, so mu = 1, sigma^2 = 1, lambda = 1/2.

Three checks are asserted at face value and fail honestly at the
scales stated here: the late-lag mass and windowed coupling count
trends (both decay too slowly to have turned around below a ~ 10^5)
and the fixed-width interval coverage (true value 0.929 at half-width
0.2, a finite-width deficit that shrinks to 0.947 by half-width 0.1;
confirmed against a brute-force oracle).  The README discusses all
three.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from renewalsim import (
    ChiSquareMixture, EventPredicate, GStatistic, RngStream,
    StaggeredExponentialModel, backward_min_functional, collect_passage,
    decompose, example1_run, lemma1_diagnostic, lemma3_diagnostic,
    mixture_cdf, mixture_quantile, mixture_sample, simulate_trial,
    statistic_Z, summarize_passage, theorem1_experiment, theorem4_experiment,
    xi_staggered_residual,
)
from renewalsim.cli import run as cli_run
from renewalsim.config import ExperimentConfig
from renewalsim.verification import trend_reports

SEED = 74021


def _line(name, ok, detail):
    print(f"[acceptance] {name}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _trend_ok(rows, vals, ses, reps):
    """No rise of more than 3 SE from one level of ``rows`` to the next,
    a step's SE being hypot(se_i, se_{i+1})."""
    steps = [math.hypot(lo, hi) for lo, hi in zip(ses, ses[1:])]
    return all(rep.passed for rep in trend_reports(
        "trend", [r.a for r in rows], vals, steps, reps))


def test_classical_passage_oracle(plain_exp_model):
    t0 = time.monotonic()
    checks, detail = [], []
    samples_100 = None
    for a in (50.0, 100.0):
        samples = collect_passage(plain_exp_model, a, 100_000,
                                  RngStream(SEED + 1))
        summ = summarize_passage(samples)
        checks.append(abs(summ.mean_t - (a + 1.0)) <= 3.0 * summ.se_t)
        detail.append(f"Et({a:g})={summ.mean_t:.3f}+-{summ.se_t:.3f}")
        if a == 100.0:
            samples_100 = samples
    ks = stats.kstest(samples_100.R, "expon")
    checks.append(ks.pvalue > 0.01)
    elapsed = time.monotonic() - t0
    checks.append(elapsed < 60.0)
    detail.append(f"overshoot KS p={ks.pvalue:.3f}")
    detail.append(f"{elapsed:.0f}s")
    ok = all(checks)
    _line("classical passage oracle", ok, ", ".join(detail))
    assert ok


def test_mixture_quadrature():
    mix = ChiSquareMixture((1.0, 1.0))
    z = np.linspace(0.0, 20.0, 2001)
    err = float(np.max(np.abs(mixture_cdf(mix, z) - (1.0 - np.exp(-z / 2)))))
    single = float(mixture_cdf(ChiSquareMixture((1.0,)), 3.841))
    draws = mixture_sample(mix, RngStream(SEED + 2), 1_000_000)
    x = np.sort(draws)
    F = 1.0 - np.exp(-x / 2)
    i = np.arange(1, len(x) + 1, dtype=float)
    ks = float(max(np.max(i / len(x) - F), np.max(F - (i - 1) / len(x))))
    ok = err <= 1e-6 and abs(single - 0.95) <= 1e-3 and ks < 0.005
    _line("mixture quadrature", ok,
          f"two-weight err={err:.2e}, cdf(3.841)={single:.4f}, "
          f"sample KS={ks:.4f}")
    assert ok


def test_backward_normalization(tm1_model):
    batch = backward_min_functional(tm1_model, None, 100_000,
                                    RngStream(SEED + 3))
    vpos = np.maximum(batch.inf_value, 0.0)
    est = float(np.mean(vpos))
    se = float(np.std(vpos, ddof=1)) / math.sqrt(len(vpos))
    ok = abs(est - tm1_model.mu) <= 3.0 * se
    _line("backward-minimum normalization", ok,
          f"E(inf)+ = {est:.4f}+-{se:.4f} vs mu={tm1_model.mu:g}")
    assert ok


def test_expansion_over_levels(tm1_model):
    t0 = time.monotonic()
    res = theorem4_experiment(tm1_model, (25.0, 50.0, 100.0), 100_000,
                              RngStream(SEED + 4), backward_reps=100_000)
    elapsed = time.monotonic() - t0
    detail = ", ".join(f"a={r.a:g}: diff={r.diff:+.3f}+-{r.combined_se:.3f}"
                       for r in res.rows)
    ok = all(r.passed for r in res.reports) \
        and res.non_crossing_fraction == 0.0 and elapsed < 600.0
    _line("expected-time expansion", ok, f"{detail}, {elapsed:.0f}s")
    assert ok


def test_window_count_product_form(tm1_model):
    y = mixture_quantile(tm1_model.mixture(), 0.5)
    report = theorem1_experiment(tm1_model, EventPredicate.xi_leq(0.0), y,
                                 100.0, 0.5, 100_000, RngStream(SEED + 5))
    _line("window-count product form", report.passed,
          f"count={report.estimate:.4f}+-{report.std_error:.4f} vs "
          f"theory={report.theory_value:.4f} (y={y:.4f})")
    assert report.passed


@pytest.fixture(scope="module")
def lemma_rows(tm1_model):
    grid = (50.0, 100.0, 200.0)
    rows1 = lemma1_diagnostic(tm1_model, 0.4, grid, 4000,
                              RngStream(SEED + 6))
    rows3 = lemma3_diagnostic(tm1_model, 0.4, 0.5, grid, 2000,
                              RngStream(SEED + 7))
    return rows1, rows3


def test_early_crossing_mass_trend(lemma_rows):
    rows1, _ = lemma_rows
    ok = _trend_ok(rows1, [r.delta0 for r in rows1], [r.se0 for r in rows1],
                   4000)
    _line("early-crossing mass trend", ok,
          ", ".join(f"a={r.a:g}: {r.delta0:.3f}+-{r.se0:.3f}" for r in rows1))
    assert ok


def test_late_lag_mass_trend(lemma_rows):
    rows1, _ = lemma_rows
    ok = _trend_ok(rows1, [r.delta1 for r in rows1], [r.se1 for r in rows1],
                   4000)
    _line("late-lag mass trend", ok,
          ", ".join(f"a={r.a:g}: {r.delta1:.3f}+-{r.se1:.3f}" for r in rows1))
    assert ok


def test_coupling_count_trend(lemma_rows):
    _, rows3 = lemma_rows
    ok = _trend_ok(rows3, [r.count for r in rows3], [r.se for r in rows3],
                   2000)
    _line("windowed coupling count trend", ok,
          ", ".join(f"a={r.a:g}: {r.count:.3f}+-{r.se:.3f}" for r in rows3))
    assert ok


def test_staggered_decomposition_identities():
    model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                      g=GStatistic.fixed_width_ci())
    sizes = RngStream(SEED + 8).generator().integers(2, 151, size=12_000)
    kept, exact, worst = 0, 0, 0.0
    for r, n in enumerate(sizes):
        state = simulate_trial(model, int(n), RngStream(SEED + 9, r))
        if state.K_n == 0:
            continue
        if state.T_star == float(np.sum(state.L)) \
                - xi_staggered_residual(state):
            exact += 1
        parts = decompose(state, model.g, theta=1.0)
        z = statistic_Z(state, model.g)
        worst = max(worst, abs(parts.total - z) / max(1.0, abs(z)))
        kept += 1
        if kept == 10_000:
            break
    ok = kept == 10_000 and worst <= 1e-9 and exact == kept
    _line("trial decomposition identities", ok,
          f"states={kept}, max rel residual={worst:.2e}, "
          f"exact interval identity {exact}/{kept}")
    assert ok


def test_interval_estimate_coverage():
    model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                      g=GStatistic.fixed_width_ci())
    res = example1_run(model, h=0.2, c=1.96, reps=10_000,
                       stream=RngStream(SEED + 10))
    ok = res.a == pytest.approx(96.04) and abs(res.coverage - 0.95) <= 0.02
    _line("fixed-width interval coverage", ok,
          f"a={res.a:g}, coverage={res.coverage:.4f}+-"
          f"{res.se_coverage:.4f} vs 0.95")
    assert ok


_EXP1 = {"family": "exponential", "params": {"rate": 1.0}}
_TM1 = {"kind": "perturbed_walk", "increment": _EXP1,
        "vector": {"kind": "centered_x", "coeffs": [1.0]},
        "stationary": {"kind": "geometric_ma", "h": "identity", "beta": 0.5,
                       "centered": True},
        "quadratic": {"Q": [[0.5]]}}
# no quadratic term, so verify-thm3 skips the per-sample mixture CDF
_GMA = {k: v for k, v in _TM1.items() if k != "quadratic"}
_FWCI = {"kind": "staggered", "arrival_rate": 1.0, "theta": 1.0,
         "g": "fixed_width_ci"}
_LRT = dict(_FWCI, g="repeated_lrt")

# one small config per CLI kind, each with more than one 1024-replication
# chunk so that two workers run it through the process pool; each run
# passes its checks (exit code 0)
_INVARIANCE_DOCS = {
    "simulate": {"seed": 31, "reps": 2500, "a_grid": [30.0], "model": _TM1},
    "example-fwci": {"seed": 32, "reps": 1500, "h": 0.5, "c": 1.96,
                     "model": _FWCI},
    "constants": {"seed": 33, "reps": 1500, "model": _TM1},
    "verify-thm1": {"seed": 34, "reps": 1500, "a": 20.0, "b": 0.5,
                    "y": "median", "predicate": {"kind": "xi_leq", "c": 0.0},
                    "model": _TM1},
    "verify-thm3": {"seed": 35, "reps": 1500, "a": 20.0, "model": _GMA},
    "verify-thm4": {"seed": 36, "reps": 1500, "a_grid": [10.0, 20.0],
                    "model": _TM1},
    "diag-lemma1": {"seed": 37, "reps": 1500, "a_grid": [30.0],
                    "model": _TM1},
    "diag-lemma3": {"seed": 38, "reps": 1500, "a_grid": [30.0],
                    "model": _TM1},
    "example-rst": {"seed": 39, "reps": 1100, "horizon": 40,
                    "calibration_reps": 1100, "model": _LRT},
}


# the kinds whose levels share one path per replication, on grids of
# three unsorted levels
_GRID_INVARIANCE_DOCS = {
    "simulate": {"seed": 41, "reps": 2500, "a_grid": [30.0, 15.0, 45.0],
                 "model": _TM1},
    "diag-lemma1": {"seed": 42, "reps": 1500, "a_grid": [60.0, 30.0, 90.0],
                    "model": _TM1},
    "diag-lemma3": {"seed": 43, "reps": 1500, "a_grid": [60.0, 30.0, 90.0],
                    "model": _TM1},
}


def _invariance_failures(tmp_path, docs):
    """The kinds of ``docs`` whose CSV bytes or exit codes differ between 1
    and 2 workers, or whose exit code is not 0."""
    wrong = []
    for kind, doc in docs.items():
        runs = []
        for w in (1, 2):
            out = tmp_path / f"{kind}-{w}"
            cfg = ExperimentConfig.from_dict(
                dict(doc, kind=kind, out=str(out), workers=w))
            code = cli_run(cfg)
            runs.append((code, (out / f"{kind}.csv").read_bytes()))
        if runs[0] != runs[1] or runs[0][0] != 0:
            wrong.append(f"{kind} (exit {runs[0][0]}/{runs[1][0]})")
    return wrong


def test_worker_count_invariance(tmp_path):
    t0 = time.monotonic()
    wrong = _invariance_failures(tmp_path, _INVARIANCE_DOCS)
    ok = not wrong
    _line("worker-count invariance", ok,
          f"{len(_INVARIANCE_DOCS)} kinds, 1 vs 2 workers, nonzero exit "
          f"or unequal CSV bytes for {wrong or 'none'}, "
          f"{time.monotonic() - t0:.0f}s")
    assert ok


def test_worker_count_invariance_on_level_grids(tmp_path):
    t0 = time.monotonic()
    wrong = _invariance_failures(tmp_path, _GRID_INVARIANCE_DOCS)
    ok = not wrong
    _line("worker-count invariance on level grids", ok,
          f"{len(_GRID_INVARIANCE_DOCS)} kinds, 3 levels, 1 vs 2 workers, "
          f"nonzero exit or unequal CSV bytes for {wrong or 'none'}, "
          f"{time.monotonic() - t0:.0f}s")
    assert ok
