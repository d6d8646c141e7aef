"""Reference implementations the package is checked against.

* The classical renewal oracles for the unperturbed walk S_n = X_1 + ...
  + X_n: path sampling, window counts and plain overshoots.
* Pointwise values of the perturbation terms: xi_n from one window,
  zeta'_n and the windowed zeta~_{m,n} from one partial sum.
* The scalar per-replication path: each replication builds its own
  generator and steps its path 256 indices at a time, then reduces it
  the way one of the package's collectors does.  The batched kernels in
  ``renewalsim.first_passage`` must reproduce these values.
* The defining identities of a staggered trial state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from renewalsim import (IncrementLaw, PerturbedWalkModel, QuadraticSpec,
                        RngStream, StationarySpec, VectorLaw, WindowBounds,
                        recommended_backward_depth)
from renewalsim.errors import ConfigurationError, ContractViolationError
from renewalsim.perturbation import zeta_window_path
from renewalsim.staggered import _expansion_ingredients
from renewalsim.verification import _envelope_offset

# -- classical renewal oracles -----------------------------------------


@dataclass(frozen=True)
class WalkPath:
    """One sampled walk: increments, partial sums, optional vector part."""

    increments: np.ndarray
    partial_sums: np.ndarray
    vector_increments: Optional[np.ndarray] = None
    vector_sums: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.increments)

    def validate(self, atol: float = 1e-9) -> None:
        """Check the partial-sum recursion; raises AssertionError on failure."""
        assert len(self.increments) == len(self.partial_sums)
        if len(self) > 0:
            assert np.allclose(np.cumsum(self.increments), self.partial_sums,
                               atol=atol)
        if self.vector_increments is not None:
            assert self.vector_sums is not None
            assert len(self.vector_increments) == len(self)
            if len(self) > 0:
                assert np.allclose(np.cumsum(self.vector_increments, axis=0),
                                   self.vector_sums, atol=atol)


def sample_walk(law: IncrementLaw, vector_law: Optional[VectorLaw],
                n: int, stream: RngStream) -> WalkPath:
    """Sample S_1..S_n (and T_1..T_n when a vector law is given).

    Deterministic given ``stream``; identical triples give bit-identical
    paths.
    """
    if n < 0:
        raise ConfigurationError("n must be >= 0", "sample_walk.n")
    gen = stream.generator()
    x = law.sample(gen, n)
    s = np.cumsum(x)
    if vector_law is None:
        return WalkPath(x, s)
    vl = vector_law.bind(law)
    y = vl.materialize(x, gen)
    return WalkPath(x, s, y, np.cumsum(y, axis=0))


@dataclass(frozen=True)
class WindowCountEstimate:
    """MC estimate of the expected number of walk visits to (a, a+b]."""

    mean: float
    se: float
    reps: int
    horizon: int
    horizon_warning: bool = False


def renewal_window_count(law: IncrementLaw, a: float, b: float, horizon: int,
                         reps: int, stream: RngStream) -> WindowCountEstimate:
    """Estimate E #{n >= 1 : a < S_n <= a+b} by Monte Carlo.

    For a large the estimate approaches b / mean(X).  A warning flag is
    set when the horizon is too short to contain all crossings of the
    window with high probability.
    """
    if a <= 0 or b <= 0:
        raise ConfigurationError("a and b must be > 0", "renewal_window_count")
    mu = law.mean
    min_horizon = int(math.ceil(3.0 * (a + b) / mu))
    horizon_warning = horizon < min_horizon
    if horizon_warning:
        warnings.warn(
            f"horizon {horizon} < {min_horizon}; window counts may be censored",
            RuntimeWarning)
    nonneg = law.support_min >= 0.0
    counts = np.empty(reps)
    for r in range(reps):
        gen = stream.with_replication(r).generator()
        count = 0
        s_last = 0.0
        done = 0
        while done < horizon:
            block = min(4096, horizon - done)
            s = s_last + np.cumsum(law.sample(gen, block))
            count += int(np.count_nonzero((s > a) & (s <= a + b)))
            s_last = s[-1]
            done += block
            if nonneg and s_last > a + b:
                break
        counts[r] = count
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(reps)) if reps > 1 else math.inf
    return WindowCountEstimate(mean, se, reps, horizon, horizon_warning)


@dataclass(frozen=True)
class OvershootSample:
    """Empirical overshoot values S_t - a at the first strict crossing."""

    values: np.ndarray
    non_crossed: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def se(self) -> float:
        n = len(self.values)
        return float(np.std(self.values, ddof=1) / math.sqrt(n)) if n > 1 else math.inf


def plain_overshoot(law: IncrementLaw, a: float, reps: int,
                    stream: RngStream) -> OvershootSample:
    """Sample S_t - a at t = first n with S_n > a, for the plain walk."""
    if a <= 0:
        raise ConfigurationError("a must be > 0", "plain_overshoot.a")
    horizon = int(math.ceil(10.0 * (a / law.mean + 100.0)))
    values = np.empty(reps)
    non_crossed = 0
    for r in range(reps):
        gen = stream.with_replication(r).generator()
        s_last = 0.0
        done = 0
        hit = math.nan
        while done < horizon:
            block = min(max(256, int(a / law.mean) + 64), horizon - done)
            s = s_last + np.cumsum(law.sample(gen, block))
            over = np.nonzero(s > a)[0]
            if over.size:
                hit = s[over[0]] - a
                break
            s_last = s[-1]
            done += block
        if math.isnan(hit):
            non_crossed += 1
            values[r] = math.nan
        else:
            values[r] = hit
    vals = values[~np.isnan(values)]
    if non_crossed:
        warnings.warn(f"{non_crossed}/{reps} walks never crossed a={a} "
                      f"within horizon {horizon}", RuntimeWarning)
    return OvershootSample(vals, non_crossed)


# -- pointwise perturbation terms ---------------------------------------


_MAPS = {"identity": lambda w: w, "abs": abs, "square": lambda w: w * w,
         "sin": math.sin, "cos": math.cos}


def xi_value(spec: StationarySpec, n: int, history: np.ndarray) -> float:
    """xi_n from its definition, on a window of driving values ending at
    time n.

    ``history`` is ordered oldest first and must supply at least
    ``spec.depth`` entries (rows (lifetime, interarrival) for the
    staggered kind).  With c the centering and D the depth:

    * zero: 0;
    * instantaneous: h(W_n) - c;
    * geometric_ma: sum_{k<D} beta^k h(W_{n-k}) - c;
    * staggered_residual: -(g10 * #alive + g01 * total residual life) - c
      over the last D arrivals, the one k rows back having waited the
      interarrival gaps of rows n-k..n.
    """
    history = np.asarray(history)
    D = spec.depth
    if history.shape[0] < D:
        raise ContractViolationError(
            f"history supplies {history.shape[0]} values, depth {D} required")
    if spec.kind == "zero":
        return 0.0
    recent = history[::-1][:D]  # W_n, W_{n-1}, ..., W_{n-D+1}
    if spec.kind == "staggered_residual":
        alive, residual, waited = 0, 0.0, 0.0
        for life, gap in recent:
            waited += float(gap)
            if life > waited:
                alive += 1
                residual += float(life) - waited
        return -(spec.g10 * alive + spec.g01 * residual) - spec.centering
    h = spec.h if callable(spec.h) else _MAPS[spec.h]
    # instantaneous: D = 1, so only the k = 0 term, h(W_n)
    return sum(spec.beta ** k * float(h(float(w)))
               for k, w in enumerate(recent)) - spec.centering


def map_mean(law: IncrementLaw, h: str) -> float:
    """E h(W) by adaptive quadrature against the law's density.

    Exponential and gamma densities are integrated with the algebraic
    weight w^(shape-1) on [0, 1], so a shape below 1 is exact, then
    plainly on [1, inf); a normal density over mean +- 40 sd.  A uniform
    law or a quantile table is the mean of h over its equally likely
    segments, a flat segment (and a deterministic law) giving h at its
    value.  abs gets its kink at 0 as a break point."""
    from scipy import integrate
    f, (k, p) = _MAPS[h], (law.kind, law.params)
    quad = lambda g, lo, hi, **kw: integrate.quad(
        g, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400, **kw)[0]
    if k in ("exponential", "gamma"):
        shape, rate = (1.0, p[0]) if k == "exponential" else p
        c = rate ** shape / math.gamma(shape)
        g = lambda w: f(w) * c * math.exp(-rate * w)
        return (quad(g, 0.0, 1.0, weight="alg", wvar=(shape - 1.0, 0.0))
                + quad(lambda w: g(w) * w ** (shape - 1.0), 1.0, math.inf))
    if k == "normal":
        m, s = p
        return quad(lambda w: f(w) * math.exp(-0.5 * ((w - m) / s) ** 2)
                    / (s * math.sqrt(2.0 * math.pi)),
                    m - 40.0 * s, m + 40.0 * s, points=[0.0])
    v = p * 2 if k == "deterministic" else p
    return float(np.mean([
        f(a) if b <= a else quad(f, a, b, points=[0.0] if a < 0 < b else None)
        / (b - a) for a, b in zip(v[:-1], v[1:])]))


def zeta_quadratic(T_n: np.ndarray, n: int, spec: QuadraticSpec) -> float:
    """zeta'_n = T_n' Q T_n / n for one vector partial sum."""
    if n < 1:
        raise ConfigurationError("n must be >= 1", "zeta_quadratic.n")
    t = np.atleast_1d(np.asarray(T_n, dtype=float))
    if t.shape[0] != spec.d:
        raise ConfigurationError(
            f"T_n has dimension {t.shape[0]}, Q is {spec.d}x{spec.d}",
            "zeta_quadratic.T_n")
    return float(t @ spec.Q @ t) / n


def zeta_window(Y: np.ndarray, m: int, n: int, spec: QuadraticSpec) -> float:
    """Windowed coupling zeta~_{m,n} = T'_{m,n} Q T_{m,n} / m with
    T_{m,n} = Y_{n-m+1} + ... + Y_n.

    ``Y`` holds rows Y_1..Y_N; requires 1 <= m <= n <= N.
    """
    if m < 1 or n < m:
        raise ConfigurationError("need n >= m >= 1", "zeta_window")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] < n:
        raise ContractViolationError(
            f"Y supplies {Y.shape[0]} rows, index n={n} requested")
    t = Y[n - m:n].sum(axis=0)
    return float(t @ spec.Q @ t) / m


# -- the scalar per-replication path -----------------------------------

_CHUNK = 256
_BACK_BLOCK = 192


class PathEngine:
    """Chunked forward simulation of one replication's path."""

    def __init__(self, model: PerturbedWalkModel, gen: np.random.Generator):
        self.model = model
        self.gen = gen
        D = model.stationary.depth
        self.w_tail = model.increment_law.sample(gen, D) if D else \
            np.empty(0)
        self.s_last = 0.0
        self.t_last = None
        if model.vector_law is not None:
            self.t_last = np.zeros(model.vector_law.d)
        self.n_done = 0

    def extend(self, count: int = _CHUNK) -> dict:
        """Simulate the next ``count`` indices; returns the chunk arrays.

        A whole chunk of driving values is drawn, then its vector
        increments, and the first ``count`` of each are kept, so a path's
        values do not depend on where it ends."""
        m = self.model
        whole = m.increment_law.sample(self.gen, _CHUNK)
        w = whole[:count]
        s = self.s_last + np.cumsum(w)
        self.s_last = float(s[-1])
        xi = m.stationary.xi_path(np.concatenate([self.w_tail, w]), count)
        D = m.stationary.depth
        if D:
            self.w_tail = np.concatenate([self.w_tail, w])[-D:]
        n_idx = np.arange(self.n_done + 1, self.n_done + count + 1)
        zeta = np.zeros(count)
        t_rows = None
        if m.vector_law is not None:
            y = m.vector_law.materialize(whole, self.gen)[:count]
            t_rows = self.t_last + np.cumsum(y, axis=0)
            self.t_last = t_rows[-1].copy()
            if m.quadratic is not None:
                quad = np.einsum("ni,ij,nj->n", t_rows, m.quadratic.Q, t_rows)
                zeta = zeta + quad / n_idx
        if m.residual.kind != "zero":
            zeta = zeta + np.full(count, m.residual.value)
        z = s + xi + zeta
        self.n_done += count
        return {"n": n_idx, "W": w, "S": s, "T": t_rows, "xi": xi,
                "zeta": zeta, "Z": z}


def passage(model: PerturbedWalkModel, a: float, stream: RngStream) -> tuple:
    """(t_a, R_a, xi, zeta, crossed) of one replication."""
    horizon = model.horizon(a)
    engine = PathEngine(model, stream.generator())
    while engine.n_done < horizon:
        chunk = engine.extend(min(_CHUNK, horizon - engine.n_done))
        eligible = (chunk["Z"] > a) & (chunk["n"] >= model.n0)
        hits = np.nonzero(eligible)[0]
        if hits.size:
            i = int(hits[0])
            return (int(chunk["n"][i]), float(chunk["Z"][i] - a),
                    float(chunk["xi"][i]), float(chunk["zeta"][i]), True)
    return horizon, math.nan, math.nan, math.nan, False


def window_count(model: PerturbedWalkModel, B, y: float, a: float, b: float,
                 stream: RngStream) -> int:
    """Count of indices with (window in B, zeta_n <= y, a < Z_n <= a+b)."""
    horizon = model.horizon(a)
    offset = _envelope_offset(model)
    engine = PathEngine(model, stream.generator())
    pred_tail = engine.w_tail[len(engine.w_tail)
                              - min(B.window_depth, len(engine.w_tail)):] \
        if B.window_depth else None
    count = 0
    while engine.n_done < horizon:
        chunk = engine.extend(min(_CHUNK, horizon - engine.n_done))
        sel = (chunk["Z"] > a) & (chunk["Z"] <= a + b) & \
              (chunk["zeta"] <= y) & (chunk["n"] >= model.n0)
        if B.window_depth:
            joined = np.concatenate([pred_tail, chunk["W"]])
            wins = sliding_window_view(joined, B.window_depth)
            ok = B.evaluate(wins[-len(chunk["W"]):], chunk["xi"])
            pred_tail = joined[-(B.window_depth - 1):] \
                if B.window_depth > 1 else joined[:0]
        else:
            ok = B.evaluate(None, chunk["xi"])
        count += int(np.count_nonzero(sel & ok))
        if offset is not None and chunk["S"][-1] + offset > a + b:
            break
    return count


def lemma1_values(model: PerturbedWalkModel, q: float, a: float,
                  stream: RngStream) -> tuple:
    """(early count, late count, stopping tail) of one replication."""
    wb = WindowBounds.for_level(q, a, model.mu)
    b = 0.5 * a ** (1.0 - q)
    horizon = max(model.horizon(a), wb.M + 1)
    offset = _envelope_offset(model)
    engine = PathEngine(model, stream.generator())
    cnt0 = cnt1 = 0
    t_a = None
    while engine.n_done < horizon:
        chunk = engine.extend(min(_CHUNK, horizon - engine.n_done))
        n, z = chunk["n"], chunk["Z"]
        cnt0 += int(np.count_nonzero((n <= wb.m) & (z > a)))
        cnt1 += int(np.count_nonzero((n > wb.M) & (z <= a + b)))
        if t_a is None:
            hits = np.nonzero((z > a) & (n >= model.n0))[0]
            if hits.size:
                t_a = int(n[hits[0]])
        if offset is not None and chunk["S"][-1] + offset > a + b:
            # every later index has Z above a+b: counts are final
            last = int(n[-1])
            if last < wb.m:
                cnt0 += wb.m - last
            break
    return cnt0, cnt1, max(0, (t_a if t_a is not None else horizon) - wb.M)


def coupling_count(model: PerturbedWalkModel, q: float, eps: float, a: float,
                   stream: RngStream) -> int:
    """Count of n in (m, M] with |zeta_n - zeta~_{m,n}| >= eps."""
    wb = WindowBounds.for_level(q, a, model.mu)
    engine = PathEngine(model, stream.generator())
    t_rows, zeta = [], []
    while engine.n_done < wb.M:
        chunk = engine.extend(min(_CHUNK, wb.M - engine.n_done))
        t_rows.append(chunk["T"])
        zeta.append(chunk["zeta"])
    T = np.concatenate(t_rows)
    full_zeta = np.concatenate(zeta)[wb.m:wb.M]
    coupled = zeta_window_path(T, wb.m, wb.m + 1, wb.M, model.quadratic)
    return int(np.count_nonzero(np.abs(full_zeta - coupled) >= eps))


def backward(sample_rows, x_of, spec: StationarySpec, mu: float,
             sigma: float, xi_slack: float, cap: int,
             gen: np.random.Generator) -> tuple:
    """One replication of the backward functional, grown 192 indices at a
    time and explored to j = -cap at most: (inf, xi0, Z*_{-1}, attained
    index, truncated)."""
    D = max(spec.depth, 1)
    rows = sample_rows(gen, _BACK_BLOCK + D)
    while True:
        xi = spec.xi_backward(rows)
        x = x_of(rows)
        I = min(xi.shape[0] - 1, cap)
        c = np.cumsum(x[:I])            # c[i-1] = X_0 + ... + X_{-(i-1)}
        vals = c - xi[1:I + 1]          # Z*_{-i} - xi_0
        cummin = np.minimum.accumulate(vals)
        i_idx = np.arange(1, I + 1, dtype=float)
        exit_ok = (c - 10.0 * sigma * np.sqrt(i_idx) - xi_slack) > cummin
        hit = np.nonzero(exit_ok)[0]
        xi0 = float(xi[0])
        if hit.size or I >= cap:
            stop = int(hit[0]) if hit.size else I - 1
            prefix = vals[:stop + 1]
            arg = int(np.argmin(prefix))
            return (float(prefix[arg] + xi0), xi0, float(vals[0] + xi0),
                    -(arg + 1), not hit.size)
        rows = np.concatenate([rows, sample_rows(gen, _BACK_BLOCK)])


def backward_rows(model: PerturbedWalkModel, depth: Optional[int], reps: int,
                  stream: RngStream, rep_offset: int = 0) -> np.ndarray:
    """``backward`` for replications of a perturbed-walk model, one row
    per replication (as ``backward_min_functional`` sets it up)."""
    law, spec = model.increment_law, model.stationary
    xi_slack = model.xi_slack(stream)
    cap = recommended_backward_depth(law.mean, law.variance, xi_slack) \
        if depth is None else depth
    return np.array([backward(
        law.sample, lambda w: w, spec, law.mean, math.sqrt(law.variance),
        xi_slack, cap,
        stream.with_replication(rep_offset + r).generator())
        for r in range(reps)])


def staggered_backward_rows(model, reps: int, stream: RngStream,
                            depth: Optional[int] = None,
                            rep_offset: int = 0) -> np.ndarray:
    """``backward`` driven by (lifetime, interarrival) rows, drawn one
    192-row block at a time (as ``staggered_backward_batch`` sets it up)."""
    vals, mu, sigma2, _, d_eff, spec = _expansion_ingredients(model)
    theta, rate = model.theta, model.arrival_rate
    slack_gen = stream.with_stream(stream.stream_id + 101).generator()
    wins = np.stack([slack_gen.exponential(1.0 / theta, (4096, d_eff)),
                     slack_gen.exponential(1.0 / rate, (4096, d_eff))], axis=2)
    xi_probe = spec.xi(wins)[:, 0]
    xi_slack = abs(float(np.mean(xi_probe))) + 10.0 * float(np.std(xi_probe))
    cap = recommended_backward_depth(mu, sigma2, xi_slack) \
        if depth is None else depth

    def sample_rows(gen, k):
        return np.column_stack([gen.exponential(1.0 / theta, k),
                                gen.exponential(1.0 / rate, k)])

    x_of = lambda rows: mu + vals.g01 * (rows[:, 0] - 1.0 / theta)
    return np.array([backward(
        sample_rows, x_of, spec, mu, math.sqrt(sigma2), xi_slack, cap,
        stream.with_replication(rep_offset + r).generator())
        for r in range(reps)])


# -- staggered trial state ---------------------------------------------

def validate_trial_state(state) -> None:
    """Assert the defining identities for K_n and T_star of a
    ``TrialState``: K_n counts lifetimes within the observed times, and
    T_star sums the lifetimes censored at them."""
    obs = state.observed_times
    K = int(np.count_nonzero(state.L <= obs))
    T = float(np.sum(np.minimum(state.L, obs)))
    if K != state.K_n or not math.isclose(T, state.T_star, rel_tol=1e-12,
                                          abs_tol=1e-12):
        raise ContractViolationError(
            f"state inconsistent: K={K} vs {state.K_n}, "
            f"T*={T} vs {state.T_star}")
