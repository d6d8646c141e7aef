"""Staggered-entry exponential survival trial and its sequential statistics.

Patients arrive at Poisson times and carry i.i.d. exponential lifetimes;
at each arrival the trial computes the death count K_n and the total time
on test T*_n, and monitors a smooth statistic Z_n = n g(K_n/n, T*_n/n).
The decomposition into a drifted walk, a stationary residual-lifetime
correction, and quadratic/remainder terms puts the trial in the
perturbed-walk framework of the other modules.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (ConfigurationError, ContractViolationError,
                     StatisticUndefinedError)
from .first_passage import (BackwardBatch, RenewalConstants, _sub_batches,
                            backward_kernel, backward_stream,
                            constants_from_batch, mean_se)
from .parallel import map_replications
from .perturbation import StationarySpec
from .rng import ReplicationGenerators, RngStream
from .verification import TheoremReport

# trials are drawn in segments (``_segments``): a passage's of 256 patients
# after one sized by the level, gaps before lifetimes; the backward rows' of
# 192 after one longer by the xi depth, lifetimes before gaps
_TRIAL_BLOCK = 256
_BACK_SEGMENT = 192


def _segments(gen: np.random.Generator, n: int, first: int, size: int,
              scales: tuple, end: float = math.inf) -> np.ndarray:
    """The first ``n`` (<= ``end``) rows of ``first`` rows, then ``size``
    rows at a time, cut at row ``end``: each segment draws one exponential
    column per scale in turn, so the layout fixes every row."""
    parts, drawn, m = [], 0, first
    while drawn < n:
        m = min(m, end - drawn)
        parts.append(np.column_stack([gen.exponential(s, m) for s in scales]))
        drawn, m = drawn + m, size
    return np.concatenate(parts)[:n]


@dataclass(frozen=True)
class GDerivatives:
    """g and its partials evaluated at the centering point (1, 1/theta)."""

    value: float
    g10: float
    g01: float
    g20: float
    g11: float
    g02: float


@dataclass(frozen=True)
class GStatistic:
    """Smooth two-argument statistic g with its partial derivatives.

    The callables take (x, y) = (death fraction, time on test per
    patient) and accept numpy arrays.
    """

    kind: str
    g: Callable
    g10: Callable
    g01: Callable
    g20: Callable
    g11: Callable
    g02: Callable

    def __post_init__(self):
        if self.kind not in ("fixed_width_ci", "repeated_lrt"):
            raise ConfigurationError(f"unknown kind {self.kind!r}", "g.kind")

    def __reduce_ex__(self, protocol):
        # a statistic pickles (to workers) as its constructor
        return getattr(GStatistic, self.kind), ()

    @staticmethod
    def fixed_width_ci() -> "GStatistic":
        """g(x, y) = y^2/x^2, the inverse squared hazard estimate; crossing
        a = c^2/h^2 makes the +-h interval for the hazard have width 2h."""
        return GStatistic(
            "fixed_width_ci",
            g=lambda x, y: y ** 2 / x ** 2,
            g10=lambda x, y: -2.0 * y ** 2 / x ** 3,
            g01=lambda x, y: 2.0 * y / x ** 2,
            g20=lambda x, y: 6.0 * y ** 2 / x ** 4,
            g11=lambda x, y: -4.0 * y / x ** 3,
            g02=lambda x, y: 2.0 / x ** 2)

    @staticmethod
    def repeated_lrt() -> "GStatistic":
        """g(x, y) = x log(x/y) + (y - x), the log-likelihood ratio per
        patient for testing unit failure rate."""
        return GStatistic(
            "repeated_lrt",
            g=lambda x, y: x * np.log(x / y) + (y - x),
            g10=lambda x, y: np.log(x / y),
            g01=lambda x, y: 1.0 - x / y,
            g20=lambda x, y: 1.0 / x,
            g11=lambda x, y: -1.0 / y,
            g02=lambda x, y: x / y ** 2)

    def values_at(self, theta: float) -> GDerivatives:
        """Evaluate g and its partials at the centering point (1, 1/theta)."""
        if theta <= 0:
            raise ConfigurationError("theta must be > 0", "g.theta")
        x, y = 1.0, 1.0 / theta
        vals = GDerivatives(
            value=float(self.g(x, y)), g10=float(self.g10(x, y)),
            g01=float(self.g01(x, y)), g20=float(self.g20(x, y)),
            g11=float(self.g11(x, y)), g02=float(self.g02(x, y)))
        for name in ("value", "g10", "g01", "g20", "g11", "g02"):
            if not math.isfinite(getattr(vals, name)):
                raise ConfigurationError(
                    f"derivative {name} not finite at (1, 1/theta)", "g")
        return vals


@dataclass(frozen=True)
class StaggeredExponentialModel:
    """Poisson arrivals at ``arrival_rate``, exponential(theta) lifetimes,
    monitored through ``g``; analysis happens at arrival times."""

    arrival_rate: float
    theta: float
    g: GStatistic
    n0: int = 1
    xi_truncation: int = 200

    def __post_init__(self):
        if self.arrival_rate <= 0:
            raise ConfigurationError("arrival_rate must be > 0",
                                     "trial.arrival_rate")
        if self.theta <= 0:
            raise ConfigurationError("theta must be > 0", "trial.theta")
        if self.n0 < 1:
            raise ConfigurationError("n0 must be >= 1", "trial.n0")
        if self.xi_truncation < 1:
            raise ConfigurationError("xi_truncation must be >= 1",
                                     "trial.xi_truncation")

    @property
    def drift(self) -> float:
        """Mean statistic increase per patient, g(1, 1/theta)."""
        return self.g.values_at(self.theta).value


@dataclass(frozen=True)
class TrialState:
    """Snapshot of the trial when the (n+1)st patient arrives.

    ``tau`` holds the n+1 arrival times tau_0..tau_n (patient k arrives
    at tau_{k-1}; tau_n is the analysis time), ``L`` the n lifetimes.
    """

    n: int
    tau: np.ndarray
    L: np.ndarray
    K_n: int
    T_star: float

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        L = np.asarray(self.L, dtype=float)
        if self.n < 1 or tau.shape != (self.n + 1,) or L.shape != (self.n,):
            raise ConfigurationError(
                "need n >= 1, n+1 arrival times, n lifetimes", "trial.state")
        if np.any(np.diff(tau) < 0) or np.any(L < 0):
            raise ConfigurationError(
                "arrival times must be nondecreasing, lifetimes >= 0",
                "trial.state")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "L", L)

    @staticmethod
    def from_data(tau, L) -> "TrialState":
        """Build a state from raw arrays, computing K_n and T_star."""
        tau = np.asarray(tau, dtype=float)
        L = np.asarray(L, dtype=float)
        n = len(L)
        obs = tau[n] - tau[:n]
        K = int(np.count_nonzero(L <= obs))
        # via the residual-life identity, so T* = sum L - xi exactly
        resid = float(np.sum(np.maximum(L - obs, 0.0)))
        T = float(np.sum(L)) - resid
        return TrialState(n=n, tau=tau, L=L, K_n=K, T_star=T)

    @property
    def observed_times(self) -> np.ndarray:
        """tau_n - tau_{k-1}, the exposure of each patient at analysis."""
        return self.tau[self.n] - self.tau[: self.n]


def simulate_trial(model: StaggeredExponentialModel, n_patients: int,
                   stream: RngStream) -> TrialState:
    """Simulate arrivals and lifetimes up to the (n_patients+1)st arrival.

    Draw order (one segment): the n interarrival gaps, then the n lifetimes.
    """
    if n_patients < 1:
        raise ConfigurationError("n_patients must be >= 1",
                                 "simulate_trial.n_patients")
    drawn = _segments(stream.generator(), n_patients, n_patients, n_patients,
                      (1.0 / model.arrival_rate, 1.0 / model.theta))
    return TrialState.from_data(
        np.concatenate([[0.0], np.cumsum(drawn[:, 0])]), drawn[:, 1])


def statistic_Z(state: TrialState, g: GStatistic) -> float:
    """Z_n = n g(K_n/n, T*_n/n); undefined until the first death."""
    if state.K_n < 1:
        raise StatisticUndefinedError(
            "statistic undefined with zero observed deaths")
    n = state.n
    return float(n * g.g(state.K_n / n, state.T_star / n))


def _trajectory(tau: np.ndarray, L: np.ndarray, g: GStatistic
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_j, T*_j and Z_j = j g(K_j/j, T*_j/j) for j = 1..n (Z_j = -inf
    while K_j = 0), from the death times d_k = tau_{k-1} + L_k sorted once.

    Patient k is dead at tau_j when d_k <= tau_j.  A patient k > j arrives
    at tau_{k-1} >= tau_j, so it can only count there when it arrives at
    tau_j with a zero lifetime; those are taken out of K_j, and in T*_j
    they add L_k - tau_j + tau_j = 0.  With prefix sums in death order,
    T*_j = sum_dead L + (j - K_j) tau_j - (sum_{k<=j} tau_{k-1}
    - sum_dead tau_{k-1}).
    """
    n = len(L)
    arrive = tau[:n]
    at = tau[1:]
    d = arrive + L
    order = np.argsort(d, kind="stable")
    dead = np.searchsorted(d[order], at, side="right")
    sum_L = np.concatenate([[0.0], np.cumsum(L[order])])[dead]
    sum_tau = np.concatenate([[0.0], np.cumsum(arrive[order])])[dead]
    j = np.arange(1, n + 1)
    T = sum_L + (j - dead) * at - (np.cumsum(arrive) - sum_tau)
    # patients k > j in ``dead``: zero lifetimes arriving at tau_{k-1} = tau_j
    instant = np.concatenate([[0], np.cumsum(d == arrive)])
    K = dead - (instant[np.searchsorted(arrive, at, side="right")]
                - instant[j])
    z = np.full(n, -np.inf)
    pos = K > 0
    z[pos] = j[pos] * g.g(K[pos] / j[pos], T[pos] / j[pos])
    return K, T, z


def statistic_trajectory(state: TrialState, g: GStatistic) -> np.ndarray:
    """Z_j for j = 1..n along the trial path; -inf where K_j = 0."""
    return _trajectory(state.tau, state.L, g)[2]


@dataclass(frozen=True)
class TrialPassage:
    """First crossing of the monitored statistic over the boundary, found
    on ``n_simulated`` patients."""

    a: float
    t: float
    Z_t: float
    K_t: float
    T_star_t: float
    crossed: bool
    n_simulated: int

    @property
    def theta_hat(self) -> float:
        """Plug-in hazard estimate K_t / T*_t at the stopping time."""
        return self.K_t / self.T_star_t if self.crossed else math.nan


def _passage_layout(model: StaggeredExponentialModel, a: float,
                    horizon: Optional[int] = None) -> Tuple[int, int]:
    """(first segment, horizon) of passages over a: the mean crossing
    index plus 64 (256 without drift), and 10 (a / drift + 100)."""
    drift = model.drift
    if horizon is None:
        if drift <= 0:
            raise ConfigurationError(
                "horizon required when drift g(1, 1/theta) <= 0",
                "passage.horizon")
        horizon = int(math.ceil(10.0 * (a / drift + 100.0)))
    if horizon < model.n0:
        raise ConfigurationError("horizon below n0", "passage.horizon")
    first = min(horizon, max(model.n0,
                             int(math.ceil(a / drift)) + 64 if drift > 0
                             else _TRIAL_BLOCK))
    return first, horizon


def collect_trials(model: StaggeredExponentialModel, a: float, first: int,
                   horizon: int, stream: RngStream, reps: int,
                   rep_offset: int = 0) -> np.ndarray:
    """Rows (t, Z_t, K_t, T*_t, crossed, max Z over n0..t, patients) of
    replications rep_offset.. of ``stream``, t the first n >= n0 with
    Z_n > a.  A trial is drawn in segments (``first`` patients, then
    _TRIAL_BLOCK, cut at the horizon) and evaluated on first, 2 first, ...
    patients until it crosses; Z_j reads only patients k <= j, so no value
    depends on these lengths.  An uncrossed row has NaN t..T*_t and the
    maximum up to the horizon (a = inf gives the running maximum)."""
    keys = ReplicationGenerators(stream)
    scales = (1.0 / model.arrival_rate, 1.0 / model.theta)
    lo = model.n0 - 1

    def run(idx: np.ndarray, L: int) -> Tuple[np.ndarray, np.ndarray]:
        out = np.full((len(idx), 7), math.nan)
        for row, r in zip(out, rep_offset + idx):
            drawn = _segments(keys.generator(r), L, first, _TRIAL_BLOCK,
                              scales, horizon)
            K, T, z = _trajectory(
                np.concatenate([[0.0], np.cumsum(drawn[:, 0])]), drawn[:, 1],
                model.g)
            hits = np.flatnonzero(z[lo:] > a)
            stop = lo + int(hits[0]) if hits.size else L - 1
            row[4:] = hits.size > 0, np.max(z[lo:stop + 1]), L
            if hits.size:
                row[:4] = stop + 1, z[stop], K[stop], T[stop]
        return (out[:, 4] == 1.0) | (L >= horizon), out

    return _sub_batches(reps, first, horizon, 0, 7, run)


def trial_first_passage(model: StaggeredExponentialModel, a: float,
                        stream: RngStream,
                        horizon: Optional[int] = None) -> TrialPassage:
    """First n >= n0 with Z_n > a on the trial of ``stream``, one row of
    ``collect_trials``.  ``horizon`` caps the patient count; required when
    the statistic has no positive drift (the repeated-significance case
    under the null)."""
    row = collect_trials(model, a, *_passage_layout(model, a, horizon),
                         stream, 1, stream.replication_index)[0]
    return TrialPassage(a, *map(float, row[:4]), bool(row[4]), int(row[6]))


# -- decomposition --------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Z_n split into drifted walk, stationary correction, quadratic term,
    truncation complement, and exact remainder."""

    S_n: float
    xi_n: float
    zeta1_n: float
    zeta2_n: float
    zeta3_n: float

    @property
    def total(self) -> float:
        return self.S_n + self.xi_n + self.zeta1_n + self.zeta2_n \
            + self.zeta3_n


def xi_staggered_residual(state: TrialState) -> float:
    """Sum of unexpired residual lifetimes at the analysis time,
    sum_k (L_k - (tau_n - tau_{k-1}))_+; satisfies
    T*_n = sum L_k - xi^o_n."""
    return float(np.sum(np.maximum(state.L - state.observed_times, 0.0)))


def decompose(state: TrialState, g: GStatistic, theta: float,
              xi_truncation: int = 200) -> Decomposition:
    """Split Z_n by a second-order expansion of g at (1, 1/theta).

    The stationary part keeps the ``xi_truncation`` most recent patients;
    the complement over the remaining observed patients is the second
    term (it vanishes exponentially once no old lifetime outlives its
    waiting sum); the remainder is exact by construction.
    """
    vals = g.values_at(theta)
    n = state.n
    z = statistic_Z(state, g)
    S = n * vals.value + vals.g01 * float(np.sum(state.L) - n / theta)
    obs = state.observed_times
    alive = state.L > obs
    resid = np.maximum(state.L - obs, 0.0)
    D = min(xi_truncation, n)
    xi = -(vals.g10 * float(np.count_nonzero(alive[n - D:]))
           + vals.g01 * float(np.sum(resid[n - D:])))
    zeta2 = -(vals.g10 * float(np.count_nonzero(alive[: n - D]))
              + vals.g01 * float(np.sum(resid[: n - D])))
    u = state.K_n / n - 1.0
    v = state.T_star / n - 1.0 / theta
    zeta1 = 0.5 * n * (vals.g20 * u * u + 2.0 * vals.g11 * u * v
                       + vals.g02 * v * v)
    zeta3 = z - (S + xi + zeta1 + zeta2)
    return Decomposition(S, xi, zeta1, zeta2, zeta3)


# -- expansion constants ---------------------------------------------------

def _expansion_ingredients(model: StaggeredExponentialModel):
    """(derivatives, mu, sigma2, lam, effective xi depth, stationary spec)
    for the trial statistic's expansion around (1, 1/theta)."""
    vals = model.g.values_at(model.theta)
    mu = vals.value
    if mu <= 0:
        raise ConfigurationError(
            "expansion needs positive drift g(1, 1/theta)", "constants.drift")
    theta, rate = model.theta, model.arrival_rate
    var_L = 1.0 / theta ** 2
    sigma2 = vals.g01 ** 2 * var_L
    lam = 0.5 * vals.g02 * var_L
    q = rate / (rate + theta)
    d_eff = int(min(model.xi_truncation,
                    max(20, math.ceil(math.log(1e-14) / math.log(q)))))
    spec = StationarySpec.staggered_residual(vals.g10, vals.g01, d_eff)
    return vals, mu, sigma2, lam, d_eff, spec


def staggered_backward_batch(model: StaggeredExponentialModel, reps: int,
                             stream: RngStream, depth: Optional[int] = None,
                             rep_offset: int = 0) -> BackwardBatch:
    """Backward minimum-functional samples driven by
    (lifetime, interarrival) pairs; replication r uses index
    rep_offset + r."""
    vals, mu, sigma2, _, d_eff, spec = _expansion_ingredients(model)
    theta, scales = model.theta, (1.0 / model.theta, 1.0 / model.arrival_rate)
    slack_gen = stream.with_stream(stream.stream_id + 101).generator()
    wins = _segments(slack_gen, 4096 * d_eff, 4096 * d_eff, 1, scales)
    xi_probe = spec.xi(wins.reshape(4096, d_eff, 2))[:, 0]
    xi_slack = abs(float(np.mean(xi_probe))) + 10.0 * float(np.std(xi_probe))

    def draw(gens, out):
        for gen, row in zip(gens, out):
            row[...] = _segments(gen, len(row), _BACK_SEGMENT + d_eff,
                                 _BACK_SEGMENT, scales)
        return out

    # X = mu + g01 (L - 1/theta); an exponential's fourth central moment
    # is 9 / theta^4
    x_of = lambda rows: mu + vals.g01 * (rows[..., 0] - 1.0 / theta)
    return backward_kernel(draw, x_of, spec, mu, sigma2,
                           vals.g01 ** 4 * 9.0 / theta ** 4, xi_slack, depth,
                           stream, reps, rep_offset)


def staggered_constants(model: StaggeredExponentialModel, reps: int,
                        stream: RngStream,
                        depth: Optional[int] = None) -> RenewalConstants:
    """Expansion constants for the trial statistic via the backward
    minimum functional driven by (lifetime, interarrival) pairs, drawn
    on the backward sub-stream of ``stream``.

    The walk increment is g(1,1/theta) + g01 (L_k - 1/theta); xi is the
    stationary residual-lifetime functional truncated where the
    survival probability of a lag falls below 1e-14.
    """
    _, mu, sigma2, lam, _, _ = _expansion_ingredients(model)
    batch = map_replications(
        partial(staggered_backward_batch, model,
                stream=backward_stream(stream), depth=depth), reps)
    return constants_from_batch(batch, mu, sigma2, lam)


# -- worked examples --------------------------------------------------------

@dataclass(frozen=True)
class Example1Result:
    """Fixed-width interval trial: stopping summary, coverage, and the
    expected-stopping-time comparison."""

    a: float
    half_width: float
    reps: int
    mean_t: float
    se_t: float
    coverage: float
    se_coverage: float
    nominal_coverage: float
    expansion: TheoremReport
    constants: RenewalConstants
    non_crossing_fraction: float


def example1_collect(model: StaggeredExponentialModel, a: float, h: float,
                     reps: int, stream: RngStream,
                     rep_offset: int = 0) -> np.ndarray:
    """Per-trial (stopping index, covered, crossed) rows, shape (reps, 3),
    from ``collect_trials``; replication r uses index rep_offset + r."""
    rows = collect_trials(model, a, *_passage_layout(model, a), stream, reps,
                          rep_offset)
    crossed = rows[:, 4] == 1.0
    covered = crossed & (np.abs(rows[:, 2] / rows[:, 3] - model.theta) <= h)
    return np.column_stack([rows[:, 0], covered, crossed])


def example1_run(model: StaggeredExponentialModel, h: float, c: float,
                 reps: int, stream: RngStream,
                 backward_reps: Optional[int] = None,
                 depth: Optional[int] = None) -> Example1Result:
    """Stop when the +-h interval for the hazard reaches confidence c;
    report Ê(t_a), coverage of theta, and the expansion prediction.

    The boundary is a = c^2/h^2; at stopping, the interval is
    K_t/T*_t +- h.
    """
    if model.g.kind != "fixed_width_ci":
        raise ConfigurationError("example 1 needs the fixed_width_ci "
                                 "statistic", "example1.g")
    if h <= 0 or c <= 0:
        raise ConfigurationError("h and c must be > 0", "example1.h")
    a = c * c / (h * h)
    collected = map_replications(
        partial(example1_collect, model, a, h, stream=stream), reps)
    covered, ok = collected[:, 1] == 1.0, collected[:, 2] == 1.0
    n_ok = int(ok.sum())
    ncf = 1.0 - n_ok / reps
    if ncf > 0.01:
        warnings.warn(f"{ncf:.1%} of trials never crossed", RuntimeWarning)
    if n_ok == 0:
        raise ContractViolationError("no trial crossed the boundary")
    mean_t, se_t = mean_se(collected[ok, 0])
    cov = float(np.mean(covered[ok]))
    se_cov = math.sqrt(max(cov * (1.0 - cov), 1e-12) / n_ok)
    constants = staggered_constants(model, backward_reps or reps, stream,
                                    depth)
    theory = (a + constants.rho - constants.nu - constants.lam) / constants.mu
    combined = math.hypot(se_t, math.hypot(constants.se_rho, constants.se_nu)
                          / constants.mu)
    nominal = math.erf(c / math.sqrt(2.0))
    return Example1Result(
        a=a, half_width=h, reps=reps, mean_t=mean_t, se_t=se_t, coverage=cov,
        se_coverage=se_cov, nominal_coverage=nominal,
        expansion=TheoremReport(f"E t_a at a={a:g}", mean_t, theory,
                                combined, n_ok),
        constants=constants, non_crossing_fraction=ncf)


@dataclass(frozen=True)
class Example2Result:
    """Repeated significance test: rejection fraction within the horizon
    and the stopping-time summary among rejecting paths."""

    a: float
    horizon: int
    reps: int
    theta: float
    rejection_rate: float
    se_rejection: float
    mean_t_rejected: float
    se_t_rejected: float


def example2_run(model: StaggeredExponentialModel, a: float, reps: int,
                 horizon: int, stream: RngStream) -> Example2Result:
    """Run the repeated likelihood-ratio test to the horizon.

    Under theta = 1 the rejection rate is the type-I-error proxy; under
    an alternative it is a power proxy, with Ê(t_a) over rejecting paths.
    """
    if model.g.kind != "repeated_lrt":
        raise ConfigurationError("example 2 needs the repeated_lrt "
                                 "statistic", "example2.g")
    if a <= 0:
        raise ConfigurationError("a must be > 0", "example2.a")
    collected = map_replications(
        partial(collect_trials, model, a, *_passage_layout(model, a, horizon),
                stream=stream), reps)
    rejected = collected[:, 4] == 1.0
    rate = float(np.mean(rejected))
    se_rate = math.sqrt(max(rate * (1.0 - rate), 1e-12) / reps)
    mean_t, se_t = mean_se(collected[rejected, 0]) if rejected.sum() >= 2 \
        else (math.nan, math.nan)
    return Example2Result(a=a, horizon=horizon, reps=reps, theta=model.theta,
                          rejection_rate=rate, se_rejection=se_rate,
                          mean_t_rejected=mean_t, se_t_rejected=se_t)


def _quantile(x: np.ndarray, q: float) -> float:
    """np.quantile(x, q) of a NaN-free 1-d sample, the same float by
    numpy's default linear method, from a sort: np.quantile imports
    numpy.ma, ~15 ms in the run phase of a fresh process."""
    s = np.sort(x)
    v = (len(s) - 1) * q
    if v >= len(s) - 1:
        return float(s[-1])
    j = math.floor(v)
    t = v - j
    lo, hi = s[j], s[j + 1]
    d = hi - lo
    # numpy's lerp: from the upper neighbour once t >= 1/2
    return float(hi - d * (1 - t) if t >= 0.5 else lo + d * t)


def calibrate_lrt_boundary(arrival_rate: float, horizon: int, reps: int,
                           stream: RngStream, level: float = 0.05,
                           n0: int = 1) -> float:
    """Choose a so that the unit-rate trial crosses within the horizon
    with probability about ``level``: the MC quantile of the running
    maximum of Z over n0..horizon, ``collect_trials`` at a = inf with the
    trial drawn in one segment, on sub-stream stream_id + 5.

    The boundary is a calibration artifact, not a closed form.
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError("level must be in (0,1)", "calibrate.level")
    model = StaggeredExponentialModel(arrival_rate=arrival_rate, theta=1.0,
                                      g=GStatistic.repeated_lrt(), n0=n0)
    maxima = map_replications(
        partial(collect_trials, model, math.inf, horizon, horizon,
                stream=stream.with_stream(stream.stream_id + 5)), reps)
    return _quantile(maxima[:, 5], 1.0 - level)
