"""Perturbed-walk assembly, first-passage sampling, and the backward
functional that generates the limiting excess law.

The walk is Z_n = S_n + xi_n + zeta_n with zeta_n = T_n'QT_n/n + zeta''_n,
stopped at t_a = inf{n >= n0 : Z_n > a} (strict).  The asymptotic
constants rho (mean limiting excess) and nu (mean limiting stationary
term at stopping) are estimated from the backward functional
Z*_j = X_{j+1} + ... + X_0 + xi_0 - xi_j, j <= -1, whose positive-part
infimum has E[(inf)_+] = mu (total-mass-one identity used as a runtime
consistency check).

Every collector runs on ``forward_kernel`` or ``backward_kernel``, which
compute sub-batches of replications as (rows, L) arrays.  Row r draws from
its own key (seed, r, stream_id), a pure sequence, so a row that needs a
longer block is drawn again with twice the length, and results do not
depend on the batching.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import (Callable, Iterable, Iterator, Optional, Sequence,
                    Tuple)

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .laws import CovarianceEstimate, IncrementLaw, VectorLaw
from .mixture import ChiSquareMixture, mixture_weights
from .perturbation import (QuadraticSpec, ResidualSpec, StationarySpec,
                           zeta_quadratic_path)
from .parallel import map_replications
from .rng import ReplicationGenerators, RngStream

_CHUNK = 256  # step chunk of the partial sums and the Gaussian normals
_BLOCK_ELEMENTS = 1 << 15  # sub-batch rows = this // row length


@dataclass(frozen=True)
class PerturbedWalkModel:
    """Full specification of the perturbed walk Z_n.

    The driving variables are scalar: W_k ~ increment_law, X_k = W_k,
    and Y_k = vector_law(W_k).  The staggered survival correction is not
    available here (its driver is two-dimensional); it lives in the
    staggered trial module.
    """

    increment_law: IncrementLaw
    vector_law: Optional[VectorLaw] = None
    stationary: StationarySpec = field(default_factory=StationarySpec.zero)
    quadratic: Optional[QuadraticSpec] = None
    residual: ResidualSpec = field(default_factory=ResidualSpec.zero)
    n0: int = 1
    horizon_factor: float = 10.0

    def __post_init__(self):
        if self.n0 < 1:
            raise ConfigurationError("n0 must be >= 1", "model.n0")
        if self.horizon_factor <= 0:
            raise ConfigurationError("horizon_factor must be > 0",
                                     "model.horizon_factor")
        if self.quadratic is not None and self.vector_law is None:
            raise ConfigurationError(
                "a quadratic term requires a vector law", "model.vector_law")
        if self.stationary.kind == "staggered_residual":
            raise ConfigurationError(
                "staggered_residual drives two-column rows; use the trial "
                "model instead", "model.stationary")
        if self.vector_law is not None:
            object.__setattr__(self, "vector_law",
                               self.vector_law.bind(self.increment_law))
        if self.quadratic is not None and \
                self.quadratic.d != self.vector_law.d:
            raise ConfigurationError("Q dimension != vector dimension",
                                     "model.quadratic")

    @property
    def mu(self) -> float:
        return self.increment_law.mean

    @property
    def sigma2(self) -> float:
        return self.increment_law.variance

    def horizon(self, a: float) -> int:
        return int(math.ceil(self.horizon_factor * (a / self.mu + 100.0)))

    def covariance(self) -> Optional[CovarianceEstimate]:
        if self.vector_law is None:
            return None
        return self.vector_law.cov(self.increment_law)

    def mixture(self) -> Optional[ChiSquareMixture]:
        """Limit law of the quadratic term; None when Q is absent."""
        if self.quadratic is None:
            return None
        return mixture_weights(self.quadratic, self.covariance())

    def mixture_mean_value(self) -> float:
        mix = self.mixture()
        return 0.0 if mix is None else mix.mean

    def xi_slack(self, stream: RngStream) -> float:
        """|mean| + 10 sd of the stationary term, for early-exit margins."""
        if self.stationary.kind == "zero":
            return 0.0
        sd = self.stationary.xi_sd_analytic(self.increment_law)
        if sd is not None and self.stationary.h == "identity":
            geom = 1.0 if self.stationary.kind == "instantaneous" else \
                (1.0 - self.stationary.beta ** self.stationary.truncation_depth) \
                / (1.0 - self.stationary.beta)
            mean = self.increment_law.mean * geom - self.stationary.centering
            return abs(mean) + 10.0 * sd
        gen = stream.with_stream(stream.stream_id + 101).generator()
        D = max(self.stationary.depth, 1)
        w = self.increment_law.sample(gen, 4096 + D)
        xi = self.stationary.xi(w)[1:]  # xi_1..xi_4096
        return abs(float(np.mean(xi))) + 10.0 * float(np.std(xi))


def _partial_sums(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Partial sums of ``x`` along axis 1, written into ``out`` (which may
    be ``x``): per 256-step chunk plus the carried total of the chunks
    before, a path's own order of additions at any row length."""
    rows, L = x.shape[:2]
    full = L - L % _CHUNK
    chunks = lambda y: y[:, :full].reshape((rows, -1, _CHUNK) + y.shape[2:])
    sums = chunks(out)
    np.cumsum(chunks(x), axis=2, out=sums)
    np.cumsum(x[:, full:], axis=1, out=out[:, full:])
    if full:
        carry = np.cumsum(sums[:, :, -1], axis=1)
        sums[:, 1:] += carry[:, :-1, None]
        out[:, full:] += carry[:, -1:]
    return out


def _sub_batches(reps: int, length: int, limit: int, extra: int, width: int,
                 run: Callable[[np.ndarray, int],
                               Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Values (reps, width) from ``run(rows, L)`` -> (done, values) on
    sub-batches of _BLOCK_ELEMENTS // (extra + L) rows; rows not done run
    again with twice L, from L = min(length, limit) up to limit."""
    out = np.empty((reps, width))
    todo = np.arange(reps)
    L = min(length, limit)
    while todo.size:
        per = max(1, _BLOCK_ELEMENTS // (extra + L))
        left = []
        for lo in range(0, todo.size, per):
            idx = todo[lo:lo + per]
            done, values = run(idx, L)
            done = np.broadcast_to(done, idx.shape)
            out[idx[done]] = values[done]
            left.append(idx[~done])
        todo = np.concatenate(left)
        L = min(2 * L, limit)
    return out


class _Workspace:
    """Arrays reused by the sub-batches of a kernel call, so that none
    faults in fresh pages: ``take(name, shape)`` is a view of the first
    elements of the buffer ``name``.  A buffer holds a sub-batch of
    _BLOCK_ELEMENTS entries over the first two axes, and grows only for a
    sub-batch of one longer row."""

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: Tuple[int, ...],
             dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            per_row = math.prod(shape[2:])
            buf = self._buffers[name] = np.empty(
                max(size, _BLOCK_ELEMENTS * per_row), dtype)
        return buf[:size].reshape(shape)


_IDLE: list = []  # workspaces that no kernel call is using


@contextmanager
def _workspace() -> Iterator[_Workspace]:
    """The workspace of one kernel call, taken from the process's idle
    ones and given back at the end, so that its pages stay mapped from
    call to call (a call made inside another gets a workspace of its own)."""
    ws = _IDLE.pop() if _IDLE else _Workspace()
    try:
        yield ws
    finally:
        _IDLE.append(ws)


@dataclass(frozen=True)
class PathBlock:
    """Paths up to index L: column j is index j + 1 (W: W_{1-D}..W_L).

    A term the model lacks (xi, zeta) is a read-only broadcast zero and
    is not added, so Z is S itself for the plain walk."""

    W: np.ndarray
    S: np.ndarray
    T: Optional[np.ndarray]
    xi: np.ndarray
    zeta: np.ndarray
    Z: np.ndarray

    @property
    def n(self) -> np.ndarray:
        return np.arange(1, self.S.shape[1] + 1)


def _simulate_block(model: PerturbedWalkModel, keys: ReplicationGenerators,
                    reps: np.ndarray, L: int, ws: _Workspace) -> PathBlock:
    """Paths of replications ``reps`` (stream indices) up to index L.

    W, S, T, Z and a shifted zeta are views of ``ws``; the next block
    overwrites them."""
    law, D, vl = model.increment_law, model.stationary.depth, model.vector_law
    rows = len(reps)
    if vl is not None and vl.kind == "gaussian":
        # whole chunks, each one's normals drawn after its W, so that every
        # value is the same at any L; then views of the first L
        whole = -(-L // _CHUNK) * _CHUNK
        W = ws.take("W", (rows, D + whole))
        Y = ws.take("Y", (rows, whole, vl.d))
        for i, r in enumerate(reps):
            gen = keys.generator(r)
            law.standard(gen, W[i, :D])
            for lo in range(0, whole, _CHUNK):
                w = W[i, D + lo:D + lo + _CHUNK]
                law.standard(gen, w)
                vl.materialize(w, gen, out=Y[i, lo:lo + _CHUNK])
        W, Y = W[:, :D + L], Y[:, :L]
        law.scale(W)
    else:
        W = ws.take("W", (rows, D + L))
        Y = None if vl is None else ws.take("Y", (rows, L, vl.d))
        law.sample_rows(map(keys.generator, reps), W)
        if vl is not None:
            vl.materialize(W[:, D:], None, out=Y)
    S = _partial_sums(W[:, D:], ws.take("S", (rows, L)))
    T = None if Y is None else _partial_sums(Y, Y)
    zero = np.broadcast_to(0.0, S.shape)
    # xi's scratch is Z's and zeta's buffers, written after it
    xi = zero if model.stationary.kind == "zero" else \
        model.stationary.xi_path(W, L, ws.take("xi", (rows, L + 1)),
                                 [ws.take("Z", W.shape),
                                  ws.take("zeta", W.shape)])
    zeta = zero if model.quadratic is None else \
        zeta_quadratic_path(T, model.quadratic, ws.take("zeta", S.shape))
    if model.residual.kind != "zero":
        zeta = np.add(zeta, model.residual.value,
                      out=ws.take("zeta", S.shape))
    Z = S
    for term in (xi, zeta):  # Z = (S + xi) + zeta, absent terms skipped
        if term is not zero:
            Z = np.add(Z, term, out=ws.take("Z", S.shape))
    return PathBlock(W, S, T, xi, zeta, Z)


def block_length(model: PerturbedWalkModel, level: float) -> int:
    """Forward block length for paths that must pass ``level``: the mean
    passage index plus 2 of its standard deviations, plus 8 (the few rows
    that pass it are drawn again at twice the length)."""
    steps = max(level, 0.0) / model.mu
    return int(steps + 2.0 * math.sqrt(model.sigma2 * steps) / model.mu) + 8


def forward_kernel(model: PerturbedWalkModel, stream: RngStream, reps: int,
                   rep_offset: int, length: int, horizon: int,
                   reduce: Callable[[PathBlock, bool],
                                    Tuple[np.ndarray, np.ndarray]],
                   width: int) -> np.ndarray:
    """Statistics (reps, width) of replications rep_offset.. of
    ``stream``: ``reduce(block, final)`` gives (done, values) per path of
    a sub-batch simulated to index ``length`` or more; at the horizon
    ``final`` is True and every row must be done.  The block's arrays are
    reused for the next sub-batch, so the values must not be views of
    them."""
    extra = model.stationary.depth
    if model.vector_law is not None and model.vector_law.kind == "gaussian":
        length = -(-length // _CHUNK) * _CHUNK  # use every normal drawn
        extra += _CHUNK - 1  # a block draws up to 255 steps past L
    keys = ReplicationGenerators(stream)
    with _workspace() as ws:
        return _sub_batches(
            reps, length, horizon, extra, width,
            lambda idx, L: reduce(_simulate_block(
                model, keys, rep_offset + idx, L, ws), L >= horizon))


def _passage_stats(model: PerturbedWalkModel, levels: Sequence[float],
                   horizons: Sequence[int], block: PathBlock,
                   final: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(t_a, R_a, xi, zeta) per row at each level a of ``levels``, with
    t_a = inf{n0 <= n <= horizon : Z_n > a} for the level's horizon.  A
    row is done once each level is crossed or its horizon reached; an
    uncrossed level has t_a the horizon and NaN values."""
    L = block.S.shape[1]
    rows = np.arange(len(block.S))
    done = np.ones(len(rows), dtype=bool)
    cols = []
    for a, horizon in zip(levels, horizons):
        eligible = block.Z[:, :horizon] > a
        eligible[:, :model.n0 - 1] = False
        j = eligible.argmax(axis=1)
        crossed = eligible[rows, j]
        done &= crossed | (L >= horizon)
        at = lambda x: np.where(crossed, x[rows, j], math.nan)
        cols += [np.where(crossed, j + 1, horizon), at(block.Z) - a,
                 at(block.xi), at(block.zeta)]
    return done, np.column_stack(cols)


@dataclass(frozen=True)
class PassageSamples:
    """Per-replication stopped values over a batch of replications; R, xi
    and zeta are NaN where the path did not cross by the horizon."""

    a: float
    t: np.ndarray
    R: np.ndarray
    xi: np.ndarray
    zeta: np.ndarray

    @property
    def crossed(self) -> np.ndarray:
        return ~np.isnan(self.R)

    @property
    def reps(self) -> int:
        return len(self.t)

    @property
    def non_crossing_fraction(self) -> float:
        return float(1.0 - np.mean(self.crossed))


def collect_levels(model: PerturbedWalkModel, a_grid: Sequence[float],
                   reps: int, stream: RngStream,
                   rep_offset: int = 0) -> Tuple[PassageSamples, ...]:
    """Stopped samples of replications rep_offset..rep_offset+reps-1 at
    each level of the grid.  One path per replication, drawn with the top
    level's block length up to the largest horizon, serves every level,
    and each level's samples equal those of the one-level grid
    [a_grid[i]].

    Replication r always uses the stream (seed, r, stream_id), so the
    result is independent of how the replication range is chunked.
    """
    levels = [float(a) for a in a_grid]
    horizons = [model.horizon(a) for a in levels]
    out = forward_kernel(model, stream, reps, rep_offset,
                         block_length(model, max(levels)), max(horizons),
                         partial(_passage_stats, model, levels, horizons),
                         4 * len(levels))
    return tuple(PassageSamples(a, out[:, 4 * i].astype(np.int64),
                                *out[:, 4 * i + 1:4 * i + 4].T)
                 for i, a in enumerate(levels))


def collect_passage(model: PerturbedWalkModel, a: float, reps: int,
                    stream: RngStream, rep_offset: int = 0) -> PassageSamples:
    """Stopped samples at level ``a`` for replications
    rep_offset..rep_offset+reps-1 (``collect_levels`` of the grid [a])."""
    return collect_levels(model, [a], reps, stream, rep_offset)[0]


@dataclass(frozen=True)
class PassageSummary:
    """Moments of the stopped quantities over the crossed replications."""

    a: float
    reps: int
    mean_t: float
    se_t: float
    mean_R: float
    se_R: float
    mean_xi: float
    mean_zeta: float
    non_crossing_fraction: float

    @property
    def usable(self) -> bool:
        """False when more than 1% of replications never crossed."""
        return self.non_crossing_fraction <= 0.01


def mean_se(values: np.ndarray) -> Tuple[float, float]:
    """Sample mean and its standard error (inf for one value)."""
    m = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) \
        if len(values) > 1 else math.inf
    return m, se


def summarize_passage(samples: PassageSamples) -> PassageSummary:
    ok = samples.crossed
    n = int(np.count_nonzero(ok))
    if n < 2:
        raise ConfigurationError("fewer than 2 crossed replications",
                                 "summarize_passage")
    ncf = samples.non_crossing_fraction
    if ncf > 0.01:
        warnings.warn(f"non-crossing fraction {ncf:.3f} exceeds 1%; "
                      f"summary flagged unusable", RuntimeWarning)
    mean_t, se_t = mean_se(samples.t[ok].astype(float))
    mean_R, se_R = mean_se(samples.R[ok])
    return PassageSummary(
        a=samples.a, reps=samples.reps, mean_t=mean_t, se_t=se_t,
        mean_R=mean_R, se_R=se_R,
        mean_xi=float(np.mean(samples.xi[ok])),
        mean_zeta=float(np.mean(samples.zeta[ok])),
        non_crossing_fraction=ncf)


def levels_stream(stream: RngStream) -> RngStream:
    """The sub-stream (stream_id + 10) an experiment seeded by ``stream``
    draws the paths of its level grid on."""
    return stream.with_stream(stream.stream_id + 10)


def passage_levels(model: PerturbedWalkModel, a_grid: Sequence[float],
                   reps: int, stream: RngStream
                   ) -> Tuple[PassageSamples, ...]:
    """Stopped samples at every level of the grid, from one path per
    replication on ``levels_stream(stream)`` (``collect_levels``)."""
    return map_replications(partial(collect_levels, model, a_grid,
                                    stream=levels_stream(stream)), reps)


def summarize_levels(model: PerturbedWalkModel, a_grid: Sequence[float],
                     reps: int, stream: RngStream
                     ) -> Tuple[PassageSummary, ...]:
    """One passage summary per level of the grid (``passage_levels``)."""
    return tuple(map(summarize_passage,
                     passage_levels(model, a_grid, reps, stream)))


# -- backward functional ------------------------------------------------

def recommended_backward_depth(mu: float, sigma2: float,
                               xi_slack: float) -> int:
    """Depth at which the early-exit rule is as good as certain to fire.

    The exit needs mu*i - 10*sigma*sqrt(i) - xi_slack to beat the running
    minimum (at most 0 at i=1 up to the slack); the returned depth doubles
    that fixpoint for safety.
    """
    sigma = math.sqrt(sigma2)
    hi = 4.0
    gap = lambda i: mu * i - 10.0 * sigma * math.sqrt(i) - 2.0 * xi_slack
    while gap(hi) <= 0 and hi < 1e12:
        hi *= 2.0
    return int(2 * math.ceil(hi))


def residual_dip_probability(depth: int, mu: float, sigma2: float,
                             kappa4: float, slack: float) -> float:
    """Fourth-moment bound on P[the walk ever dips to the running-min
    region beyond the given depth]; used for truncation warnings."""
    total = 0.0
    j = depth + 1
    while j < depth * 200 + 1000:
        gap = mu * j - slack
        if gap > 0:
            term = (3.0 * sigma2 ** 2 * j * j + kappa4 * j) / gap ** 4
            total += term
            if term < 1e-18 * max(total, 1e-30):
                break
        j += 1
    # integral comparison for the remaining tail, term ~ 3 sigma^4 / (mu^4 j^2)
    total += 3.0 * sigma2 ** 2 / (mu ** 4 * j)
    return min(total, 1.0)


@dataclass(frozen=True)
class BackwardBatch:
    """Vectorized backward samples: inf_{j<=-1} Z*_j and xi_0 per rep."""

    inf_value: np.ndarray
    xi0: np.ndarray
    first_value: np.ndarray
    attained_index: np.ndarray
    truncated: np.ndarray
    depth_cap: int

    @property
    def reps(self) -> int:
        return len(self.inf_value)


def _exit_depth(mu: float, sigma: float, xi_slack: float) -> int:
    """First backward exploration depth: the exit-rule fixpoint (least i
    with mu*i - 10 sigma sqrt(i) - xi_slack > 0) plus 4 walk SDs there."""
    root = (10.0 * sigma + math.sqrt(100.0 * sigma ** 2 + 4.0 * mu * xi_slack)) \
        / (2.0 * mu)
    return max(16, int(math.ceil(root * root + 4.0 * sigma * root / mu)))


def backward_kernel(draw: Callable[[Iterable[np.random.Generator],
                                    np.ndarray], np.ndarray],
                    x_of: Callable[[np.ndarray], np.ndarray],
                    spec: StationarySpec, mu: float, sigma2: float,
                    kappa4: float, xi_slack: float, depth: Optional[int],
                    stream: RngStream, reps: int,
                    rep_offset: int) -> BackwardBatch:
    """Backward functional of replications rep_offset..rep_offset+reps-1.

    ``draw(gens, out)`` fills row i of ``out`` (rows, k), or (rows, k, 2)
    for the staggered residual's (lifetime, interarrival) pairs, with the
    backward driving values W_0..W_{1-k} of the i-th generator's
    replication; ``x_of`` and ``spec.xi_backward`` map them to X and to
    xi_0, xi_{-1}, ....
    A row's infimum runs up to the first i where X_0 + ... + X_{-(i-1)}
    - 10 sigma sqrt(i) - xi_slack exceeds the running minimum of
    Z*_{-i} - xi_0; a row with no such i <= cap is truncated at j = -cap.
    The cap is ``depth``, or the recommended depth when it is None; a
    cap below the recommended one warns with the residual dip
    probability, from X's variance ``sigma2`` and fourth central moment
    ``kappa4``.
    """
    rec = recommended_backward_depth(mu, sigma2, xi_slack)
    cap = rec if depth is None else int(depth)
    if cap < 1:
        raise ConfigurationError("depth must be >= 1", "backward.depth")
    if cap < rec:
        resid = residual_dip_probability(cap, mu, sigma2, kappa4, xi_slack)
        warnings.warn(
            f"backward depth {cap} below recommended {rec}; residual dip "
            f"probability about {resid:.2e}", RuntimeWarning)
    sigma = math.sqrt(sigma2)
    D = max(spec.depth, 1)
    pair = (2,) if spec.kind == "staggered_residual" else ()
    keys = ReplicationGenerators(stream)

    def explore(idx: np.ndarray, I: int) -> Tuple[np.ndarray, np.ndarray]:
        n = len(idx)
        rows = draw(map(keys.generator, rep_offset + idx),
                    ws.take("W", (n, I + D) + pair))
        # xi's scratch is Z's and S's buffers, written after it
        xi = spec.xi_backward(rows, ws.take("xi", (n, I + 1)),
                              [ws.take("Z", (n, I + D)),
                               ws.take("S", (n, I + D))])
        # X_0 + ... + X_{-(i-1)}, then Z*_{-i} - xi_0 and its running minimum
        c = np.cumsum(x_of(rows)[:, :I], axis=1, out=ws.take("S", (n, I)))
        vals = np.subtract(c, xi[:, 1:I + 1], out=ws.take("Z", (n, I)))
        low = np.minimum.accumulate(vals, axis=1, out=ws.take("low", (n, I)))
        i = np.arange(1, I + 1)
        c -= 10.0 * sigma * np.sqrt(i)
        c -= xi_slack
        exit_ok = np.greater(c, low, out=ws.take("exit", (n, I), bool))
        exited = exit_ok.any(axis=1)
        stop = np.where(exited, exit_ok.argmax(axis=1), I - 1)
        xi0 = xi[:, 0]
        first = vals[:, 0] + xi0
        # the prefix up to the exit: vals with inf past it
        np.copyto(vals, np.inf,
                  where=np.greater(i, stop[:, None] + 1, out=exit_ok))
        return exited | (I >= cap), np.column_stack(
            [vals.min(axis=1) + xi0, xi0, first,
             -(vals.argmin(axis=1) + 1), ~exited])

    with _workspace() as ws:
        out = _sub_batches(reps, _exit_depth(mu, sigma, xi_slack), cap, D, 5,
                           explore)
    n_trunc = int(out[:, 4].sum())
    if n_trunc:
        warnings.warn(f"{n_trunc}/{reps} backward replications hit the "
                      f"depth cap {cap}", RuntimeWarning)
    return BackwardBatch(out[:, 0], out[:, 1], out[:, 2],
                         out[:, 3].astype(np.int64), out[:, 4].astype(bool),
                         cap)


def backward_min_functional(model: PerturbedWalkModel, depth: Optional[int],
                            reps: int, stream: RngStream,
                            rep_offset: int = 0) -> BackwardBatch:
    """Samples of (inf_{j<=-1} Z*_j, xi_0) with drift-based early exit.

    ``depth`` caps the explored past (j >= -depth); None selects the
    recommended value from the exit-rule fixpoint.  Replication r uses
    stream index rep_offset + r.  Replications that hit the cap are
    flagged and a residual dip probability is estimated for the warning.
    """
    law = model.increment_law
    return backward_kernel(law.sample_rows, lambda w: w, model.stationary,
                           law.mean, law.variance, law.central_moment4,
                           model.xi_slack(stream), depth, stream, reps,
                           rep_offset)


def excess_cdf_from_backward(batch: BackwardBatch,
                             r_grid: np.ndarray) -> np.ndarray:
    """Limiting excess CDF F(r) = E[min((inf)_+, r)] / E[(inf)_+] on a grid.

    The batch's own mean of (inf)_+ stands for mu (the two agree in the
    limit), so F reaches exactly 1 and the batch's Monte Carlo mass error
    stays out of the CDF; constants_from_batch checks that mass.
    """
    vplus = np.sort(np.maximum(batch.inf_value, 0.0))
    n = len(vplus)
    prefix = np.concatenate([[0.0], np.cumsum(vplus)])
    if prefix[-1] <= 0.0:
        raise ContractViolationError("backward batch has no positive mass")
    r = np.asarray(r_grid, dtype=float)
    k = np.searchsorted(vplus, r, side="left")  # values below each r
    return (prefix[k] + r * (n - k)) / prefix[-1]


@dataclass(frozen=True)
class RenewalConstants:
    """The constants of the expected-stopping-time expansion
    E(t_a) ~ (a + rho - nu - lam) / mu."""

    mu: float
    sigma2: float
    rho: float
    nu: float
    lam: float
    se_rho: float
    se_nu: float
    reps: int
    flags: Tuple[str, ...] = ()

    @property
    def consistent(self) -> bool:
        return "normalization_inconsistent" not in self.flags


def _batched_se(values: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the mean via contiguous replication batches."""
    n = len(values)
    b = max(2, min(n_batches, n))
    size = n // b
    if size == 0:
        return float(np.std(values, ddof=1) / math.sqrt(n))
    means = values[:b * size].reshape(b, size).mean(axis=1)
    return float(np.std(means, ddof=1) / math.sqrt(b))


def constants_from_batch(batch: BackwardBatch, mu: float, sigma2: float,
                         lam: float) -> RenewalConstants:
    """Build the expansion constants from a backward batch.

    rho = E[(inf)_+^2]/(2 mu) and nu = E[xi_0 (inf)_+]/mu follow from the
    displayed limit laws: integrating r against the excess density
    P[inf >= r]/mu gives the second-moment identity for rho, and the
    xi-marginal's mean is the (inf)_+-weighted mean of xi_0.  A
    normalization check |E(inf)_+/mu - 1| > 5 SE flags inconsistency.
    """
    vplus = np.maximum(batch.inf_value, 0.0)
    rho_terms = vplus ** 2 / (2.0 * mu)
    nu_terms = batch.xi0 * vplus / mu
    rho = float(np.mean(rho_terms))
    nu = float(np.mean(nu_terms))
    se_rho = _batched_se(rho_terms)
    se_nu = _batched_se(nu_terms)
    flags = []
    mass = float(np.mean(vplus)) / mu
    se_mass = _batched_se(vplus) / mu
    if abs(mass - 1.0) > 5.0 * se_mass:
        flags.append("normalization_inconsistent")
        warnings.warn(
            f"backward normalization E[(inf)_+]/mu = {mass:.4f} deviates by "
            f"more than 5 SE ({se_mass:.4f}) from 1", RuntimeWarning)
    if batch.truncated.any():
        flags.append("depth_truncated")
    return RenewalConstants(
        mu=mu, sigma2=sigma2, rho=rho, nu=nu, lam=lam,
        se_rho=se_rho, se_nu=se_nu, reps=batch.reps, flags=tuple(flags))


def backward_stream(stream: RngStream) -> RngStream:
    """The sub-stream (stream_id + 3) an experiment seeded by ``stream``
    draws its backward batch on, apart from its passage draws."""
    return stream.with_stream(stream.stream_id + 3)


def experiment_backward(model: PerturbedWalkModel, depth: Optional[int],
                        reps: int, stream: RngStream) -> BackwardBatch:
    """The backward batch of the experiment seeded by ``stream``."""
    return map_replications(partial(backward_min_functional, model, depth,
                                    stream=backward_stream(stream)), reps)


def estimate_rho_nu(model: PerturbedWalkModel, depth: Optional[int],
                    reps: int, stream: RngStream) -> RenewalConstants:
    """Estimate rho and nu for a perturbed-walk model via the backward
    minimum functional (see backward_stream for its sub-stream and
    constants_from_batch for the identities)."""
    batch = experiment_backward(model, depth, reps, stream)
    return constants_from_batch(batch, model.mu, model.sigma2,
                                model.mixture_mean_value())
