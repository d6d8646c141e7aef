"""Correctness checks on each workload's outputs.

Every check compares the program's output with a value computed here,
apart from the program, or with a property the method must have.  Each
workload check returns (errors, deviations): failure messages of the exact
checks, and (name, estimate - target, SE) of the statistical ones.  The
rounds of a run are independent, so ``pooled_errors`` sums the deviations
of each name over the run and allows 4 standard errors, so that a change
which alters the draws rarely trips it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

Z_CHECK = 4.0  # standard errors allowed by a statistical check
CDF_TOL = 1e-6  # stated accuracy of mixture_cdf
# The two distance checks trip as rarely as a 4-SE check (p = 6.3e-5):
# P[sqrt(n) D_n > 2.28] = 6.1e-5 (Kolmogorov) and P[chi2_1 > 16] = P[|N| > 4].
# At the 0.1% points (1.95, 10.83) the ~130 thm3 rounds of a 22-run
# evaluation would trip one of them with probability ~23%.
ZETA_KS = 2.28
QUADRANT_CHI2 = 16.0


def read_outputs(out_dir: str, kind: str):
    """The CSV rows (dicts of strings) and the manifest of one CLI run."""
    with open(os.path.join(out_dir, f"{kind}.csv"), encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
        manifest = json.load(f)
    return rows, manifest


def pooled_errors(deviations: list) -> list:
    """One 4-SE check per name on the deviations summed over rounds."""
    sums = {}
    for name, diff, se in deviations:
        d, var = sums.get(name, (0.0, 0.0))
        sums[name] = (d + diff, var + se * se)
    return [f"{name}: summed deviation {d:.4g} exceeds {Z_CHECK:g} SE "
            f"({math.sqrt(var):.4g})"
            for name, (d, var) in sums.items()
            if not abs(d) <= Z_CHECK * math.sqrt(var)]


def _no_uncrossed(manifest: dict) -> list:
    rate = manifest["non_crossing_rate"]
    return [] if rate == 0.0 else [f"non-crossing rate {rate} is not 0"]


def _theory_se(manifest: dict, se_t: float) -> float:
    return math.hypot(se_t, math.hypot(manifest["se_rho"], manifest["se_nu"])
                      / manifest["mu"])


def check_thm4(rows: list, manifest: dict):
    """README model: mu = sigma2 = 1 and lam = 1/2 exactly; differences of
    mean t_a between adjacent levels from the second level on equal da/mu;
    the last level matches (a + rho - nu - lam)/mu.

    The first step (a = 25 to 50) still carries the o(1) remainder of the
    expansion: +0.12, 1.1 SE per 8000-replication round over 15 rounds,
    which the pooled check would find in a 12-round run."""
    errors = _no_uncrossed(manifest)
    for key, exact in (("mu", 1.0), ("sigma2", 1.0), ("lam", 0.5)):
        if manifest[key] != exact:
            errors.append(f"{key} = {manifest[key]!r}, expected {exact}")
    a = [float(r["a"]) for r in rows]
    t = [float(r["mean_t"]) for r in rows]
    se = [float(r["se_t"]) for r in rows]
    deviations = [(f"mean t_a({a[i + 1]:g}) - mean t_a({a[i]:g})",
                   t[i + 1] - t[i] - (a[i + 1] - a[i]),
                   math.hypot(se[i], se[i + 1]))
                  for i in range(1, len(rows) - 1)]
    m = manifest
    theory = (a[-1] + m["rho"] - m["nu"] - m["lam"]) / m["mu"]
    deviations.append((f"mean t_a({a[-1]:g}) vs expansion", t[-1] - theory,
                       _theory_se(m, se[-1])))
    return errors, deviations


def check_thm3(rows: list, manifest: dict):
    """zeta sup-distance at most 1.95/sqrt(n); quadrant chi-square below
    the 0.1% point of chi-square(1)."""
    by_label = {r["label"]: r for r in rows}
    errors = []
    z = by_label["zeta marginal sup-distance"]
    n = int(z["reps"])
    if not float(z["estimate"]) <= ZETA_KS / math.sqrt(n):
        errors.append(f"zeta sup-distance {z['estimate']} above "
                      f"{ZETA_KS}/sqrt({n})")
    chi2 = float(by_label["quadrant chi-square"]["estimate"])
    if not chi2 < QUADRANT_CHI2:
        errors.append(f"quadrant chi-square {chi2} not below {QUADRANT_CHI2}")
    return errors, []


def check_fwci(rows: list, manifest: dict):
    """No uncrossed trial; mean stopping index matches the expansion
    (a + rho - nu - lam)/mu with a = c^2/h^2."""
    r = rows[0]
    m = manifest
    c, h = float(r["confidence"]), float(r["half_width"])
    theory = (c * c / (h * h) + m["rho"] - m["nu"] - m["lam"]) / m["mu"]
    return _no_uncrossed(manifest), [
        ("mean stopping index vs expansion", float(r["mean_t"]) - theory,
         _theory_se(m, float(r["se_t"])))]


def check_plain(rows: list, manifest: dict):
    """Plain exp(1) walk: t_a - 1 is Poisson(a), so mean t_a = a + 1 with
    variance a; the excess is exp(1); xi and zeta are exactly 0."""
    errors, deviations = _no_uncrossed(manifest), []
    for r in rows:
        a, n = float(r["a"]), int(r["reps"])
        deviations += [(f"mean t_a({a:g})", float(r["mean_t"]) - (a + 1.0),
                        math.sqrt(a / n)),
                       (f"mean R({a:g})", float(r["mean_R"]) - 1.0,
                        1.0 / math.sqrt(n))]
        for key in ("mean_xi", "mean_zeta"):
            if float(r[key]) != 0.0:
                errors.append(f"{key}({a:g}) = {r[key]}, expected 0")
    return errors, deviations


# -- mixture CDF against closed forms ---------------------------------------

def cdf_grid():
    """(weights, z points, reference CDF) for the two closed-form cases:
    1/2 chi2_1, and chi2_2 = exp with mean 2.  z runs over a fixed log grid
    from 1e-10 to 1e3 times the mixture mean, 4 points per decade."""
    from scipy import stats
    grid = np.logspace(-10.0, 3.0, 53)
    z_half = 0.5 * grid
    z_two = 2.0 * grid
    return [((0.5,), z_half, stats.chi2.cdf(z_half / 0.5, 1)),
            ((1.0, 1.0), z_two, -np.expm1(-z_two / 2.0))]


def cdf_misses(values: np.ndarray, reference: np.ndarray) -> int:
    """Points more than CDF_TOL off the reference."""
    return int(np.count_nonzero(np.abs(values - reference) > CDF_TOL))


# -- trial statistics against a brute-force recomputation -------------------

def brute_trial_counts(tau: np.ndarray, L: np.ndarray):
    """K_j, T*_j and Z_j (fixed-width g = y^2/x^2) for j = 1..n, each from
    its definition: patient k arrived at tau_{k-1}, and at tau_j it is dead
    when L_k <= tau_j - tau_{k-1}."""
    n = len(L)
    K = np.empty(n, dtype=np.int64)
    T = np.empty(n)
    for j in range(1, n + 1):
        exposure = tau[j] - tau[:j]
        K[j - 1] = np.count_nonzero(L[:j] <= exposure)
        T[j - 1] = np.minimum(L[:j], exposure).sum()
    j = np.arange(1, n + 1, dtype=float)
    Z = np.full(n, -np.inf)
    dead = K > 0
    Z[dead] = j[dead] * (T[dead] / j[dead]) ** 2 / (K[dead] / j[dead]) ** 2
    return K, T, Z


def compare_trial(K, T, Z, K_ref, T_ref, Z_ref, rtol: float = 1e-9) -> list:
    """Program values of K_j, T*_j, Z_j against the brute-force ones."""
    errors = []
    if not np.array_equal(K, K_ref):
        errors.append(f"K_j differs at j = "
                      f"{int(np.nonzero(K != K_ref)[0][0]) + 1}")
    if not np.allclose(T, T_ref, rtol=rtol, atol=0.0):
        errors.append("T*_j differs from the brute-force recomputation")
    finite = np.isfinite(Z_ref)
    if not (np.array_equal(np.isfinite(Z), finite)
            and np.allclose(Z[finite], Z_ref[finite], rtol=rtol, atol=0.0)):
        errors.append("Z_j differs from the brute-force recomputation")
    return errors
