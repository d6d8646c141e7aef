"""Self-tests: each correctness check passes on good output and fires on
corrupted output.

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

Table checks run on hand-made outputs that meet the check exactly; the
mixture grid and the trial oracle run on the program's own values.  Exit
code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def _rows(header: str, *lines: str) -> list:
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def _set(rows: list, i: int, key: str, value) -> list:
    bad = copy.deepcopy(rows)
    bad[i][key] = repr(value)
    return bad


PLAIN_ROWS = _rows("a,reps,mean_t,se_t,mean_R,se_R,mean_xi,mean_zeta,"
                   "non_crossing_fraction",
                   "1000.0,6144,1001.0,0.4,1.0,0.0128,0.0,0.0,0.0",
                   "4000.0,6144,4001.0,0.8,1.0,0.0128,0.0,0.0,0.0")
CONSTANTS = {"mu": 1.0, "sigma2": 1.0, "lam": 0.5, "rho": 2.0, "nu": 1.6,
             "se_rho": 0.05, "se_nu": 0.05, "non_crossing_rate": 0.0}
THM4_ROWS = _rows("a,mean_t,se_t", "25.0,24.9,0.07", "50.0,49.9,0.09",
                  "100.0,99.9,0.12")
THM3_ROWS = _rows("label,estimate,reps",
                  "zeta marginal sup-distance,0.03,1000",
                  "quadrant chi-square,1.0,1000")
FWCI_ROWS = _rows("half_width,confidence,mean_t,se_t",
                  "0.1,1.96,384.06,1.0")


def table_cases():
    """(name, check, rows, manifest, should_fire)"""
    m = CONSTANTS
    n = 6144
    yield "plain good", checks.check_plain, PLAIN_ROWS, m, False
    yield "plain mean R + 1", checks.check_plain, \
        _set(PLAIN_ROWS, 0, "mean_R", 2.0), m, True
    yield "plain mean t_a + 4.5 SE", checks.check_plain, \
        _set(PLAIN_ROWS, 1, "mean_t", 4001.0 + 4.5 * math.sqrt(4000 / n)), \
        m, True
    yield "plain mean xi 1e-12", checks.check_plain, \
        _set(PLAIN_ROWS, 0, "mean_xi", 1e-12), m, True
    yield "plain uncrossed", checks.check_plain, PLAIN_ROWS, \
        dict(m, non_crossing_rate=1.0 / n), True
    yield "thm4 good", checks.check_thm4, THM4_ROWS, m, False
    yield "thm4 lam off", checks.check_thm4, THM4_ROWS, \
        dict(m, lam=0.5000001), True
    yield "thm4 level step off", checks.check_thm4, \
        _set(THM4_ROWS, 1, "mean_t", 49.9 + 0.8), m, True
    yield "thm4 last level off", checks.check_thm4, \
        _set(THM4_ROWS, 2, "mean_t", 99.9 + 0.5), \
        dict(m, rho=2.0 - 0.4), True
    yield "thm3 good", checks.check_thm3, THM3_ROWS, m, False
    yield "thm3 zeta distance", checks.check_thm3, \
        _set(THM3_ROWS, 0, "estimate", 2.29 / math.sqrt(1000)), m, True
    yield "thm3 quadrant", checks.check_thm3, \
        _set(THM3_ROWS, 1, "estimate", 16.0), m, True
    yield "fwci good", checks.check_fwci, FWCI_ROWS, m, False
    yield "fwci mean t shifted", checks.check_fwci, \
        _set(FWCI_ROWS, 0, "mean_t", 384.06 + 4.2), m, True
    yield "fwci uncrossed", checks.check_fwci, FWCI_ROWS, \
        dict(m, non_crossing_rate=0.001), True


def pooled_case():
    """Two rounds each 3 SE off pass one by one and fail pooled."""
    row = _set(PLAIN_ROWS, 0, "mean_R", 1.0 + 3.0 / math.sqrt(6144))
    _, deviations = checks.check_plain(row, CONSTANTS)
    yield ("plain mean R 3 SE off in each of two rounds",
           not checks.pooled_errors(deviations)
           and bool(checks.pooled_errors(deviations * 2)))


def grid_cases():
    """The program's mixture CDF on the check grid, as is and with one
    passing point moved by 1e-5."""
    from renewalsim import ChiSquareMixture, mixture_cdf
    for weights, z, ref in checks.cdf_grid():
        values = mixture_cdf(ChiSquareMixture(weights), z)
        misses = checks.cdf_misses(values, ref)
        moved = values.copy()
        passing = np.nonzero(np.abs(values - ref) <= checks.CDF_TOL)[0]
        i = int(passing[np.argmin(np.abs(values[passing] - 0.5))])
        moved[i] += 1e-5
        yield (f"cdf {weights} point {i} moved by 1e-5",
               checks.cdf_misses(moved, ref) == misses + 1)


def trial_cases():
    """The program's trial statistics against the brute-force ones, as is
    and with K_j, T*_j or Z_j perturbed."""
    from renewalsim import (GStatistic, RngStream, StaggeredExponentialModel,
                            TrialState, simulate_trial, statistic_trajectory)
    model = StaggeredExponentialModel(1.0, 1.0, GStatistic.fixed_width_ci())
    state = simulate_trial(model, 384, RngStream(5))
    prefixes = [TrialState.from_data(state.tau[:j + 1], state.L[:j])
                for j in range(1, state.n + 1)]
    K = np.array([s.K_n for s in prefixes])
    T = np.array([s.T_star for s in prefixes])
    Z = statistic_trajectory(state, model.g)
    ref = checks.brute_trial_counts(state.tau, state.L)
    yield "trial good", not checks.compare_trial(K, T, Z, *ref)
    K_bad, T_bad, Z_bad = K.copy(), T.copy(), Z.copy()
    K_bad[200] += 1
    T_bad[100] *= 1.0 + 1e-6
    Z_bad[300] *= 1.0 + 1e-6
    yield "trial K_j perturbed", bool(checks.compare_trial(K_bad, T, Z, *ref))
    yield "trial T*_j perturbed", bool(checks.compare_trial(K, T_bad, Z, *ref))
    yield "trial Z_j perturbed", bool(checks.compare_trial(K, T, Z_bad, *ref))


def main() -> int:
    sys.path.insert(0, str(SRC))
    results = []
    for name, check, rows, manifest, fire in table_cases():
        errors, deviations = check(rows, manifest)
        fired = bool(errors or checks.pooled_errors(deviations))
        results.append((name, fired == fire))
    results += list(pooled_case()) + list(grid_cases()) + list(trial_cases())
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad} of {len(results)} self-tests behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
