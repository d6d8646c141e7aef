"""Experiments confronting the limit statements with Monte Carlo runs.

Each experiment simulates paths of a perturbed-walk model, estimates the
left-hand side of one asymptotic statement, computes the predicted
right-hand side from independent ingredients (the mixture CDF, stationary
sampling, backward functional), and reports both with a 3-standard-error
pass flag.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, ContractViolationError
from .first_passage import (PassageSamples, PathBlock, PerturbedWalkModel,
                            RenewalConstants, block_length, collect_passage,
                            estimate_rho_nu, excess_cdf_from_backward,
                            experiment_backward, forward_kernel,
                            levels_stream, mean_se, passage_levels,
                            summarize_passage)
from .mixture import mixture_cdf
from .parallel import map_replications
from .perturbation import zeta_window_path
from .rng import RngStream

_KS_COEF_1PCT = 1.628  # Kolmogorov critical coefficient at the 1% level


@dataclass(frozen=True)
class WindowBounds:
    """The index window [m, M] around a/mu used by the diagnostics:
    m = floor((1 - a^-q)/mu * a), M = floor((1 + a^-q)/mu * a)."""

    q: float
    a: float
    m: int
    M: int

    @staticmethod
    def for_level(q: float, a: float, mu: float) -> "WindowBounds":
        if not (1.0 / 3.0 < q < 0.5):
            raise ConfigurationError("q must lie in (1/3, 1/2)", "window.q")
        if a <= 0 or mu <= 0:
            raise ConfigurationError("a and mu must be > 0", "window.a")
        m = math.floor((1.0 - a ** (-q)) / mu * a)
        M = math.floor((1.0 + a ** (-q)) / mu * a)
        if m < 1 or m >= M:
            raise ConfigurationError(
                f"a={a} too small for window bounds (m={m}, M={M})", "window.a")
        return WindowBounds(q, a, m, M)


def _all_paths(windows, xi):
    return np.ones(len(xi), dtype=bool)


def _xi_at_most(c, windows, xi):
    return xi <= c


@dataclass(frozen=True)
class EventPredicate:
    """Cylinder-set event over the recent driving window and derived xi_n.

    ``fn(windows, xi)`` receives the (k, window_depth) array of driving
    windows (oldest first; absent when window_depth=0) and the k values
    of xi_n, and returns a boolean array of length k.  The built-in
    predicates use module-level functions, so they pickle to workers.
    """

    description: str
    window_depth: int
    fn: Callable[[Optional[np.ndarray], np.ndarray], np.ndarray]

    @staticmethod
    def always_true() -> "EventPredicate":
        return EventPredicate("all paths", 0, _all_paths)

    @staticmethod
    def xi_leq(c: float) -> "EventPredicate":
        return EventPredicate(f"xi_n <= {c}", 0, partial(_xi_at_most, c))

    def evaluate(self, windows: Optional[np.ndarray],
                 xi: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(windows, xi), dtype=bool)
        if out.shape != xi.shape:
            raise ConfigurationError("predicate must return one bool per index",
                                     "predicate.fn")
        return out


@dataclass(frozen=True)
class TheoremReport:
    """One estimate/theory comparison and its verdict, the pass rule of
    every gate: with d = estimate - theory_value, |d| <= 3 * std_error,
    or d <= 3 * std_error when ``one_sided`` (a trend step, which fails
    only on a rise).  ``std_error`` combines the MC error of both sides;
    for distance statistics (KS, chi-square) it holds threshold/3.
    """

    label: str
    estimate: float
    theory_value: float
    std_error: float
    n_reps: int
    one_sided: bool = False

    @property
    def passed(self) -> bool:
        d = self.estimate - self.theory_value
        return (d if self.one_sided else abs(d)) <= 3.0 * self.std_error


def trend_reports(label: str, a_grid: Sequence[float],
                  values: Sequence[float], step_ses: Sequence[float],
                  n_reps: int) -> Tuple[TheoremReport, ...]:
    """One one-sided report per grid step i: the value at level i + 1
    against the value at level i, with the step's SE step_ses[i]."""
    return tuple(TheoremReport(
        f"{label} a={a_grid[i]:g}->{a_grid[i + 1]:g}", values[i + 1],
        values[i], step_ses[i], n_reps, True)
        for i in range(len(values) - 1))


def sup_distance(cdf_at_sorted: np.ndarray) -> float:
    """Two-sided Kolmogorov distance sup_x |F_n(x) - F(x)| between the
    empirical CDF F_n of a sample and a continuous F, given F at the
    sample sorted ascending: the larger of i/n - F(x_(i)) and
    F(x_(i)) - (i-1)/n over i = 1..n."""
    F = np.asarray(cdf_at_sorted, dtype=float)
    n = len(F)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))


def _median(x: np.ndarray) -> float:
    """np.median of a NaN-free 1-d sample, the same float: np.median's NaN
    check imports numpy.ma, ~15 ms in the run phase of a fresh process."""
    s = np.sort(x)
    n = len(s)
    return 0.5 * (s[(n - 1) // 2] + s[n // 2])


def _envelope_offset(model: PerturbedWalkModel) -> Optional[float]:
    """Constant c with Z_k >= S_n + c for all k >= n (when derivable).

    Requires nonnegative increments (so S is nondecreasing), a finite
    lower bound on xi and a PSD quadratic form.
    """
    if model.increment_law.support_min < 0:
        return None
    xi_lb = model.stationary.lower_bound_for(model.increment_law)
    if xi_lb is None:
        return None
    if model.quadratic is not None:
        if float(np.linalg.eigvalsh(model.quadratic.Q)[0]) < 0:
            return None
    return xi_lb + min(model.residual.value, 0.0)


def _stationary_xi_sample(model: PerturbedWalkModel, reps: int,
                          stream: RngStream,
                          window_depth: int = 0
                          ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """i.i.d. stationary draws of (recent driving window, xi).

    Row i holds the last max(depth, window_depth) driving values of an
    independent stationary configuration; xi is evaluated on the last
    ``depth`` of them, the returned window is the last ``window_depth``.
    """
    D = model.stationary.depth
    P = window_depth
    need = max(D, P, 1)
    gen = stream.generator()
    rows = model.increment_law.sample(gen, reps * need).reshape(reps, need)
    xi = model.stationary.xi(rows[:, need - D:])[:, 0]
    windows = rows[:, need - P:] if P > 0 else None
    return windows, xi


def _zeta_limit_cdf(model: PerturbedWalkModel, y: float) -> float:
    """CDF of the limiting slowly-changing term at y."""
    mix = model.mixture()
    if mix is None:
        return 1.0 if y >= model.residual.value else 0.0
    if math.isinf(y):
        return 1.0 if y > 0 else 0.0
    return float(mixture_cdf(mix, y))


def _window_count(model: PerturbedWalkModel, B: EventPredicate, y: float,
                  a: float, b: float, offset: Optional[float],
                  block: PathBlock, final: bool
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row count of indices with (window in B, zeta_n <= y,
    a < Z_n <= a+b); a row is done once its envelope passes a+b."""
    sel = (block.Z > a) & (block.Z <= a + b) & (block.zeta <= y) & \
        (block.n >= model.n0)
    P = B.window_depth
    wins = None
    if P:
        start = model.stationary.depth - P + 1  # window of n: W_{n-P+1..n}
        wins = sliding_window_view(block.W, P, axis=1)[
            :, start:start + sel.shape[1]].reshape(-1, P)
    ok = B.evaluate(wins, block.xi.ravel()).reshape(sel.shape)
    return final or offset is not None and block.S[:, -1] + offset > a + b, \
        np.count_nonzero(sel & ok, axis=1)[:, None]


def theorem1_counts(model: PerturbedWalkModel, B: EventPredicate, y: float,
                    a: float, b: float, reps: int, stream: RngStream,
                    rep_offset: int = 0) -> np.ndarray:
    """Per-path counts of indices with (window in B, zeta_n <= y,
    a < Z_n <= a+b); replication r uses index rep_offset + r."""
    if B.window_depth > model.stationary.depth + 1:
        raise ContractViolationError(
            "predicate window deeper than the xi burn-in can supply")
    offset = _envelope_offset(model)
    horizon = model.horizon(a)
    length = horizon if offset is None else block_length(model, a + b)
    return forward_kernel(
        model, stream, reps, rep_offset, length, horizon,
        partial(_window_count, model, B, y, a, b, offset), 1)[:, 0]


def theorem1_experiment(model: PerturbedWalkModel, B: EventPredicate, y: float,
                        a: float, b: float, reps: int,
                        stream: RngStream) -> TheoremReport:
    """Estimate the expected count of indices with (W_n in B, zeta_n <= y,
    a < Z_n <= a+b) and compare with (b/mu) * P[B] * L(y).

    The left side averages per-path counts; P[B] comes from an
    independent stationary sample on sub-stream stream_id + 7 and L from
    the mixture CDF.
    """
    if b > model.mu:
        warnings.warn(f"width b={b} exceeds mu={model.mu}; the product-form "
                      f"limit is proved for b <= mu", RuntimeWarning)
    counts = map_replications(
        partial(theorem1_counts, model, B, y, a, b, stream=stream), reps)
    est, se_est = mean_se(counts)
    wins_stat, xi_stat = _stationary_xi_sample(
        model, max(reps, 10_000),
        stream.with_stream(stream.stream_id + 7), B.window_depth)
    hit = B.evaluate(wins_stat, xi_stat)
    p_b = float(np.mean(hit))
    se_pb = float(np.std(hit, ddof=1) / math.sqrt(len(hit)))
    ly = _zeta_limit_cdf(model, y)
    theory = (b / model.mu) * p_b * ly
    se = math.sqrt(se_est ** 2 + ((b / model.mu) * ly * se_pb) ** 2)
    return TheoremReport(f"window count a={a}", est, theory, se, reps)


@dataclass(frozen=True)
class Theorem3Result:
    """Marginal and factorization checks of the joint stopped limit law."""

    a: float
    reps: int
    reports: Tuple[TheoremReport, ...]
    non_crossing_fraction: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def theorem3_experiment(model: PerturbedWalkModel, a: float, reps: int,
                        stream: RngStream,
                        backward_reps: Optional[int] = None,
                        depth: Optional[int] = None) -> Theorem3Result:
    """Compare the stopped triple (R_a, xi, zeta) with its product-form limit.

    Checks: (i) the R_a marginal against the backward-functional CDF,
    (ii) the zeta marginal against the mixture CDF, (iii)
    factorization via correlations and a median-split quadrant count.
    """
    samples = map_replications(
        partial(collect_passage, model, a, stream=stream), reps)
    ok = samples.crossed
    n = int(np.count_nonzero(ok))
    if n < reps:
        warnings.warn(f"{reps - n} uncrossed replications excluded",
                      RuntimeWarning)
    R = samples.R[ok]
    xi = samples.xi[ok]
    zeta = samples.zeta[ok]
    batch = experiment_backward(model, depth, backward_reps or reps, stream)
    m = len(batch.inf_value)
    # (i) excess marginal vs backward-induced CDF on the R grid
    excess_dist = sup_distance(excess_cdf_from_backward(batch, np.sort(R)))
    thr_excess = _KS_COEF_1PCT * math.sqrt((n + m) / (n * m))
    reports = [TheoremReport("excess marginal sup-distance", excess_dist, 0.0,
                             thr_excess / 3.0, n)]
    # (ii) zeta marginal vs the mixture CDF
    mix = model.mixture()
    if mix is not None:
        zeta_dist = sup_distance(mixture_cdf(mix, np.sort(zeta)))
        thr_zeta = _KS_COEF_1PCT / math.sqrt(n)
        reports.append(TheoremReport("zeta marginal sup-distance", zeta_dist,
                                     0.0, thr_zeta / 3.0, n))
    else:
        zeta_dist = float(np.max(np.abs(zeta)))
        reports.append(TheoremReport("zeta marginal degenerate", zeta_dist,
                                     0.0, 1e-12, n))
    # (iii) factorization: correlations and quadrant independence
    def corr(u, v):
        su, sv = np.std(u), np.std(v)
        if su == 0 or sv == 0:
            return 0.0
        return float(np.corrcoef(u, v)[0, 1])

    reports.append(TheoremReport("corr(zeta, R)", corr(zeta, R), 0.0,
                                 1.0 / math.sqrt(n), n))
    reports.append(TheoremReport("corr(zeta, xi)", corr(zeta, xi), 0.0,
                                 1.0 / math.sqrt(n), n))
    if np.std(zeta) > 0 and np.std(R) > 0:
        az = zeta > _median(zeta)
        ar = R > _median(R)
        table = np.array([[np.sum(az & ar), np.sum(az & ~ar)],
                          [np.sum(~az & ar), np.sum(~az & ~ar)]], dtype=float)
        exp = table.sum(1, keepdims=True) @ table.sum(0, keepdims=True) \
            / table.sum()
        chi2 = float(np.sum((table - exp) ** 2 / exp))
    else:
        chi2 = 0.0
    # 99th percentile of chi-square(1) = 6.635
    reports.append(TheoremReport("quadrant chi-square", chi2, 0.0,
                                 6.635 / 3.0, n))
    return Theorem3Result(a, reps, tuple(reports), 1.0 - n / reps)


@dataclass(frozen=True)
class Theorem4Row:
    a: float
    mean_t: float
    se_t: float
    theory: float
    diff: float
    combined_se: float
    reps: int

    @property
    def report(self) -> TheoremReport:
        return TheoremReport(f"E t_a at a={self.a:g}", self.mean_t,
                             self.theory, self.combined_se, self.reps)

    @property
    def passed(self) -> bool:
        return self.report.passed


@dataclass(frozen=True)
class Theorem4Result:
    """Expected stopping time against (a + rho - nu - lam)/mu on a grid;
    ``reports`` holds the last row's, then the trend of |diff|."""

    rows: Tuple[Theorem4Row, ...]
    reports: Tuple[TheoremReport, ...]
    constants: RenewalConstants
    non_crossing_fraction: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports) and \
            self.constants.consistent


def _paired_step_se(lo: PassageSamples, hi: PassageSamples) -> float:
    """SE of the mean of t at ``hi`` minus t at ``lo``, replication by
    replication, over the rows that crossed both levels."""
    both = lo.crossed & hi.crossed
    return mean_se((hi.t[both] - lo.t[both]).astype(float))[1]


def theorem4_experiment(model: PerturbedWalkModel, a_grid: Sequence[float],
                        reps: int, stream: RngStream,
                        depth: Optional[int] = None,
                        backward_reps: Optional[int] = None
                        ) -> Theorem4Result:
    """Tabulate E(t_a) against the first-order expansion over a grid
    (constants from estimate_rho_nu, levels from passage_levels).

    The levels share their paths, so a |diff| trend step takes its SE from
    the per-replication differences of t_a between the two levels, plus
    the constants' SE once for each of the two diffs."""
    if len(a_grid) == 0:
        raise ConfigurationError("a_grid must be non-empty", "theorem4.a_grid")
    constants = estimate_rho_nu(model, depth, backward_reps or reps, stream)
    samples = passage_levels(model, a_grid, reps, stream)
    summaries = [summarize_passage(s) for s in samples]
    mu = constants.mu
    corr = constants.rho - constants.nu - constants.lam
    se_corr = math.hypot(constants.se_rho, constants.se_nu)
    rows = []
    for a, summ in zip(a_grid, summaries):
        theory = (float(a) + corr) / mu
        rows.append(Theorem4Row(
            a=float(a), mean_t=summ.mean_t, se_t=summ.se_t, theory=theory,
            diff=summ.mean_t - theory,
            combined_se=math.hypot(summ.se_t, se_corr / mu), reps=reps))
    steps = [math.sqrt(_paired_step_se(lo, hi) ** 2
                       + 2.0 * (se_corr / mu) ** 2)
             for lo, hi in zip(samples, samples[1:])]
    reports = (rows[-1].report,) + trend_reports(
        "|diff|", a_grid, [abs(r.diff) for r in rows], steps, reps)
    return Theorem4Result(tuple(rows), reports, constants,
                          max(s.non_crossing_fraction for s in summaries))


@dataclass(frozen=True)
class Lemma1Row:
    a: float
    m: int
    M: int
    delta0: float
    se0: float
    delta1: float
    se1: float
    tail: float
    se_tail: float


def _late_width(wb: WindowBounds) -> float:
    """The width b = a^(1-q)/2 of the late-lag band (a, a + b]."""
    return 0.5 * wb.a ** (1.0 - wb.q)


def _lemma1_stats(model: PerturbedWalkModel, windows: Sequence[WindowBounds],
                  horizons: Sequence[int], offset: Optional[float],
                  block: PathBlock, final: bool
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """(early count, late count, stopping tail) per row at each level,
    over the indices up to the level's horizon.  A level is done at its
    horizon, or once the envelope passes its a+b, after which every index
    has Z > a+b (the block then covers n <= m, since it is longer than
    (a+b)/mu); a row is done once every level is."""
    L = block.S.shape[1]
    done = np.ones(len(block.S), dtype=bool)
    cols = []
    for wb, horizon in zip(windows, horizons):
        a, b, end = wb.a, _late_width(wb), min(L, horizon)
        Z = block.Z[:, :end]
        past = np.zeros(len(Z), dtype=bool) if offset is None else \
            block.S[:, end - 1] + offset > a + b
        hits = Z > a
        early = np.count_nonzero(hits[:, :wb.m], axis=1)
        late = np.count_nonzero(Z[:, wb.M:] <= a + b, axis=1)
        hits[:, :model.n0 - 1] = False
        crossed = hits.any(axis=1)
        # past the envelope without a crossing, only n0 > end was in the way
        t = np.where(crossed, hits.argmax(axis=1) + 1,
                     np.where(past, model.n0, horizon))
        done &= past | (L >= horizon)
        cols += [early, late, np.maximum(0, t - wb.M)]
    return done, np.column_stack(cols).astype(float)


def lemma1_collect(model: PerturbedWalkModel, q: float,
                   a_grid: Sequence[float], reps: int, stream: RngStream,
                   rep_offset: int = 0) -> np.ndarray:
    """Per-path (early count, late count, stopping tail) at every level of
    the grid, shape (reps, 3 * levels), columns 3i..3i+2 for a_grid[i];
    replication r uses index rep_offset + r.  One path per replication,
    drawn until the envelope passes the top level's a + b (or to the
    largest horizon), serves every level, and each level's columns equal
    those of the one-level grid [a_grid[i]]."""
    windows = [WindowBounds.for_level(q, float(a), model.mu) for a in a_grid]
    horizons = [max(model.horizon(wb.a), wb.M + 1) for wb in windows]
    offset = _envelope_offset(model)
    length = max(horizons) if offset is None else \
        block_length(model, max(wb.a + _late_width(wb) for wb in windows))
    return forward_kernel(
        model, stream, reps, rep_offset, length, max(horizons),
        partial(_lemma1_stats, model, windows, horizons, offset),
        3 * len(windows))


def lemma1_diagnostic(model: PerturbedWalkModel, q: float,
                      a_grid: Sequence[float], reps: int,
                      stream: RngStream) -> Tuple[Lemma1Row, ...]:
    """Estimate the early-crossing mass Delta_0, the late-lag mass
    Delta_1 (width a^(1-q)/2), and the stopping tail sum
    E(t_a - M)_+ on a grid of levels.

    Each is an expected count of path indices; all three vanish as a
    grows, which is what the acceptance trend checks assert.  Every level
    reads the same paths, drawn on ``levels_stream(stream)``.
    """
    vals = map_replications(partial(lemma1_collect, model, q, a_grid,
                                    stream=levels_stream(stream)), reps)
    rows = []
    for i, a in enumerate(a_grid):
        wb = WindowBounds.for_level(q, float(a), model.mu)
        stats = [mean_se(vals[:, 3 * i + k]) for k in range(3)]
        rows.append(Lemma1Row(wb.a, wb.m, wb.M, *stats[0], *stats[1],
                              *stats[2]))
    return tuple(rows)


@dataclass(frozen=True)
class Lemma3Row:
    a: float
    m: int
    M: int
    count: float
    se: float


def _coupling_count(model: PerturbedWalkModel,
                    windows: Sequence[WindowBounds], eps: float,
                    block: PathBlock, final: bool
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row count of n in (m, M] with |zeta_n - zeta~_{m,n}| >= eps, at
    each level's window."""
    return True, np.column_stack([np.count_nonzero(np.abs(
        block.zeta[:, wb.m:wb.M] - zeta_window_path(
            block.T, wb.m, wb.m + 1, wb.M, model.quadratic)) >= eps, axis=1)
        for wb in windows])


def lemma3_collect(model: PerturbedWalkModel, q: float, eps: float,
                   a_grid: Sequence[float], reps: int, stream: RngStream,
                   rep_offset: int = 0) -> np.ndarray:
    """Per-path coupling-failure counts at every level of the grid, shape
    (reps, levels), from one path per replication drawn to the largest
    window end M; replication r uses index rep_offset + r."""
    windows = [WindowBounds.for_level(q, float(a), model.mu) for a in a_grid]
    end = max(wb.M for wb in windows)
    return forward_kernel(model, stream, reps, rep_offset, end, end,
                          partial(_coupling_count, model, windows, eps),
                          len(windows))


def lemma3_diagnostic(model: PerturbedWalkModel, q: float, eps: float,
                      a_grid: Sequence[float], reps: int,
                      stream: RngStream) -> Tuple[Lemma3Row, ...]:
    """Expected count of indices n in (m, M] where the slowly-changing
    term and its windowed coupling differ by at least eps; every level
    reads the same paths, drawn on ``levels_stream(stream)``."""
    if eps <= 0:
        raise ConfigurationError("eps must be > 0", "lemma3.eps")
    if model.quadratic is None:
        return tuple(Lemma3Row(float(a), 0, 0, 0.0, 0.0) for a in a_grid)
    counts = map_replications(partial(lemma3_collect, model, q, eps, a_grid,
                                      stream=levels_stream(stream)), reps)
    rows = []
    for i, a in enumerate(a_grid):
        wb = WindowBounds.for_level(q, float(a), model.mu)
        rows.append(Lemma3Row(wb.a, wb.m, wb.M, *mean_se(counts[:, i])))
    return tuple(rows)
