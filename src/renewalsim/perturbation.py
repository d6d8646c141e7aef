"""Perturbation terms layered on top of the plain walk.

Three ingredients make up the perturbed walk Z_n = S_n + xi_n + zeta_n:

* ``StationarySpec`` builds the stationary term xi_n, a fixed functional
  of the recent driving history (W_n, W_{n-1}, ...) truncated at a
  configurable depth.
* ``QuadraticSpec`` builds the slowly-changing quadratic term
  zeta'_n = T_n' Q T_n / n from the vector partial sums, plus its
  windowed variant restricted to the last m increments.
* ``ResidualSpec`` is an extra term zeta''_n: zero, or a constant shift
  for oracle tests.

The path evaluators take independent paths along leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .laws import IncrementLaw

_NAMED_MAPS = {
    "identity": lambda w: w,
    "abs": np.abs,
    "square": np.square,
    "sin": np.sin,
    "cos": np.cos,
}


def _resolve_map(h) -> Callable[[np.ndarray], np.ndarray]:
    if callable(h):
        return h
    try:
        return _NAMED_MAPS[h]
    except KeyError:
        raise ConfigurationError(f"unknown map {h!r}; named maps: "
                                 f"{sorted(_NAMED_MAPS)}", "stationary.h")


def _per_path(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
              width: int) -> np.ndarray:
    """``fn`` on each path (last axis) of ``x``, ``width`` values each."""
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty((len(flat), width))
    for i, path in enumerate(flat):
        out[i] = fn(path)
    return out.reshape(x.shape[:-1] + (width,))


@dataclass(frozen=True)
class StationarySpec:
    """Stationary perturbation xi_n = xi(W_n, W_{n-1}, ...).

    Kinds:
      * ``zero``: xi_n = 0.
      * ``instantaneous``: xi_n = h(W_n) - centering.
      * ``geometric_ma``: xi_n = sum_{k<D} beta^k h(W_{n-k}) - centering,
        the depth-D truncation of a geometric moving average; the
        discarded tail is bounded by beta^D * sup|h| over the support.
      * ``staggered_residual``: the survival-model correction
        -(g10 * #alive + g01 * total residual life) over the last D
        arrivals; expects 2-column driving rows (lifetime, interarrival).
    """

    kind: str
    h: object = "identity"
    beta: float = 0.5
    truncation_depth: int = 1
    centering: float = 0.0
    g10: float = 0.0
    g01: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "instantaneous", "geometric_ma",
                             "staggered_residual"):
            raise ConfigurationError(f"unknown kind {self.kind!r}",
                                     "stationary.kind")
        if self.kind == "geometric_ma":
            if not 0.0 < self.beta < 1.0:
                raise ConfigurationError("decay beta must lie in (0,1)",
                                         "stationary.beta")
            if self.truncation_depth < 1:
                raise ConfigurationError("truncation_depth must be >= 1",
                                         "stationary.depth")
        if self.kind == "staggered_residual" and self.truncation_depth < 1:
            raise ConfigurationError("truncation_depth must be >= 1",
                                     "stationary.depth")

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "StationarySpec":
        return StationarySpec("zero", truncation_depth=0)

    @staticmethod
    def instantaneous(h="identity", centering: float = 0.0) -> "StationarySpec":
        return StationarySpec("instantaneous", h=h, truncation_depth=1,
                              centering=centering)

    @staticmethod
    def geometric_ma(h="identity", beta: float = 0.5,
                     truncation_depth: Optional[int] = None,
                     centering: float = 0.0) -> "StationarySpec":
        if not 0.0 < beta < 1.0:
            raise ConfigurationError("decay beta must lie in (0,1)",
                                     "stationary.beta")
        if truncation_depth is None:
            # default depth: geometric tail beta^D below 1e-8
            truncation_depth = max(1, int(math.ceil(math.log(1e-8)
                                                    / math.log(beta))))
        return StationarySpec("geometric_ma", h=h, beta=beta,
                              truncation_depth=truncation_depth,
                              centering=centering)

    @staticmethod
    def staggered_residual(g10: float, g01: float,
                           truncation_depth: int) -> "StationarySpec":
        return StationarySpec("staggered_residual", g10=g10, g01=g01,
                              truncation_depth=truncation_depth)

    # -- structure ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of driving values each xi_n looks back on."""
        if self.kind == "zero":
            return 0
        if self.kind == "instantaneous":
            return 1
        return self.truncation_depth

    def centered(self, law: IncrementLaw, quad_points: int = 4096) -> "StationarySpec":
        """Return a copy whose centering equals the stationary mean of the
        truncated sum, so E xi_n = 0 (zero/staggered kinds are unchanged).

        E h(W) is the law's mean for ``identity`` and variance + mean^2
        for ``square``; any other map is averaged over ``quad_points``
        midpoint quantiles of the law."""
        if self.kind not in ("instantaneous", "geometric_ma"):
            return self
        if self.h == "identity":
            h_mean = law.mean
        elif self.h == "square":
            h_mean = law.variance + law.mean ** 2
        else:
            q = (np.arange(quad_points) + 0.5) / quad_points
            h_mean = float(np.mean(_resolve_map(self.h)(law.ppf(q))))
        if self.kind == "instantaneous":
            return replace(self, centering=h_mean)
        geom = (1.0 - self.beta ** self.truncation_depth) / (1.0 - self.beta)
        return replace(self, centering=h_mean * geom)

    # -- evaluation ------------------------------------------------------

    def xi_path(self, w_ext: np.ndarray, n: int) -> np.ndarray:
        """xi_1..xi_n from extended history w_ext = (W_{1-D}, ..., W_n).

        ``w_ext`` holds n + depth driving values along its last axis
        (leading axes are independent paths); the first ``depth`` are
        burn-in so xi_1 is already stationary.  The staggered kind's
        rows go backward only (``xi_backward``).
        """
        D = self.depth
        w_ext = np.asarray(w_ext)
        if self.kind == "staggered_residual" or w_ext.shape[-1] != n + D:
            raise ContractViolationError(
                f"need a scalar history of n + depth = {n + D} values")
        if self.kind == "zero":
            return np.zeros(w_ext.shape[:-1] + (n,))
        if self.kind == "instantaneous":
            return _resolve_map(self.h)(w_ext[..., D:D + n]) - self.centering
        kernel = self.beta ** np.arange(D)
        xi = _per_path(lambda hw: np.convolve(hw, kernel, "valid")[1:],
                       _resolve_map(self.h)(w_ext), n)
        xi -= self.centering
        return xi

    def xi_backward(self, w_back: np.ndarray) -> np.ndarray:
        """xi_0, xi_{-1}, ..., from backward-ordered rows W_0, W_{-1}, ...

        Returns xi at indices 0..-(len - depth); entry i is xi_{-i}.  Rows
        run along the last axis (staggered: the last but one, rows being
        (lifetime, interarrival)); leading axes are independent paths.
        """
        D = self.depth
        w_back = np.asarray(w_back)
        if self.kind == "zero":
            return np.zeros(w_back.shape)
        stag = self.kind == "staggered_residual"
        steps = w_back.shape[-2] if stag else w_back.shape[-1]
        if steps < D:
            raise ContractViolationError("backward history shorter than depth")
        if self.kind == "instantaneous":
            return _resolve_map(self.h)(w_back) - self.centering
        m = steps - D + 1
        if self.kind == "geometric_ma":
            kernel = self.beta ** np.arange(D)
            return _per_path(lambda hw: np.correlate(hw, kernel, "valid"),
                             _resolve_map(self.h)(w_back), m) - self.centering
        # lag k of xi_{-i} is the patient of row i + k, who waited the
        # interarrival gaps of rows i..i+k
        life, inter = w_back[..., 0], w_back[..., 1]
        waited, left, alive, residual = np.zeros((4,) + life.shape[:-1] + (m,))
        for k in range(D):
            waited += inter[..., k:k + m]
            np.maximum(np.subtract(life[..., k:k + m], waited, out=left), 0.0,
                       out=left)
            alive += left > 0.0
            residual += left
        return -(self.g10 * alive + self.g01 * residual) - self.centering

    def xi_of_windows(self, windows: np.ndarray) -> np.ndarray:
        """xi from independent stationary windows, one value per row.

        ``windows`` holds rows (W_{n-D+1}, ..., W_n) oldest first:
        shape (N, depth) for scalar driving kinds, (N, depth, 2) for
        staggered_residual.  Unlike xi_path, rows may be unrelated
        draws, so the N outputs are i.i.d.
        """
        wins = np.asarray(windows)
        if self.kind == "zero":
            return np.zeros(wins.shape[0])
        D = self.depth
        if wins.ndim < 2 or wins.shape[1] != D:
            raise ContractViolationError(
                f"windows must have {D} columns, got shape {wins.shape}")
        if self.kind == "instantaneous":
            return _resolve_map(self.h)(wins[:, -1]) - self.centering
        if self.kind == "geometric_ma":
            kernel = self.beta ** np.arange(D)
            return _resolve_map(self.h)(wins[:, ::-1]) @ kernel - self.centering
        if wins.ndim != 3 or wins.shape[2] != 2:
            raise ContractViolationError(
                "staggered_residual expects window rows (lifetime, interarrival)")
        rev = wins[:, ::-1, :]
        waited = np.cumsum(rev[:, :, 1], axis=1)
        life = rev[:, :, 0]
        alive = (life > waited).sum(axis=1)
        residual = np.maximum(life - waited, 0.0).sum(axis=1)
        return -(self.g10 * alive + self.g01 * residual) - self.centering

    def xi_sd_analytic(self, law: IncrementLaw) -> Optional[float]:
        """Stationary sd of xi_n when available in closed form."""
        if self.kind == "zero":
            return 0.0
        if self.h == "identity" and self.kind == "instantaneous":
            return math.sqrt(law.variance)
        if self.h == "identity" and self.kind == "geometric_ma":
            b2 = self.beta ** 2
            geom = (1.0 - b2 ** self.truncation_depth) / (1.0 - b2)
            return math.sqrt(law.variance * geom)
        return None

    def lower_bound(self) -> Optional[float]:
        """A deterministic lower bound for xi_n, when one exists."""
        if self.kind == "zero":
            return 0.0
        if self.kind in ("instantaneous", "geometric_ma") and \
                self.h in ("abs", "square"):
            return -self.centering
        if self.kind == "staggered_residual" and self.g10 <= 0 and self.g01 <= 0:
            return 0.0
        return None

    def lower_bound_for(self, law: IncrementLaw) -> Optional[float]:
        """Lower bound for xi_n given the driving law's support."""
        fixed = self.lower_bound()
        if fixed is not None:
            return fixed
        if self.h == "identity" and law.support_min >= 0.0 and \
                self.kind in ("instantaneous", "geometric_ma"):
            return -self.centering
        return None


@dataclass(frozen=True)
class QuadraticSpec:
    """Symmetric quadratic form Q driving zeta'_n = T_n' Q T_n / n."""

    Q: np.ndarray
    allow_zero: bool = False

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if q.shape[0] != q.shape[1]:
            raise ConfigurationError("Q must be square", "quadratic.Q")
        if not np.allclose(q, q.T, atol=1e-12 * (1.0 + np.abs(q).max())):
            raise ConfigurationError("Q must be symmetric", "quadratic.Q")
        if not self.allow_zero and not np.any(q):
            raise ConfigurationError(
                "Q is identically zero (set allow_zero for oracle tests)",
                "quadratic.Q")
        object.__setattr__(self, "Q", q)

    @property
    def d(self) -> int:
        return self.Q.shape[0]


def zeta_quadratic_path(vector_sums: np.ndarray, spec: QuadraticSpec,
                        n0: int = 1) -> np.ndarray:
    """Vectorized zeta'_n for n = n0..N from (..., N, d) partial sums."""
    T = np.atleast_2d(np.asarray(vector_sums, dtype=float))
    if T.shape[-1] != spec.d:
        raise ConfigurationError("vector dimension mismatch", "zeta.path")
    quad = np.einsum("...i,ij,...j->...", T, spec.Q, T)[..., n0 - 1:]
    quad /= np.arange(n0, T.shape[-2] + 1, dtype=float)
    return quad


def zeta_window_path(vector_sums: np.ndarray, m: int, n_lo: int, n_hi: int,
                     spec: QuadraticSpec) -> np.ndarray:
    """Vectorized zeta~_{m,n} for n = n_lo..n_hi via differences of the
    (..., N, d) partial sums."""
    if m < 1 or n_lo < m or n_hi < n_lo:
        raise ConfigurationError("need n_hi >= n_lo >= m >= 1", "zeta_window")
    T = np.atleast_2d(np.asarray(vector_sums, dtype=float))
    if T.shape[-2] < n_hi:
        raise ContractViolationError("vector sums shorter than n_hi")
    hi = T[..., n_lo - 1:n_hi, :]
    lo = np.zeros_like(hi)
    idx = np.arange(n_lo, n_hi + 1) - m  # index n-m, 0 means empty prefix
    pos = idx > 0
    lo[..., pos, :] = T[..., idx[pos] - 1, :]
    w = hi - lo
    return np.einsum("...i,ij,...j->...", w, spec.Q, w) / m


@dataclass(frozen=True)
class ResidualSpec:
    """Extra vanishing perturbation zeta''_n.

    ``zero`` by default; ``constant`` shifts every Z_n by ``value``
    (oracle tests).
    """

    kind: str = "zero"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant"):
            raise ConfigurationError(f"unknown kind {self.kind!r}",
                                     "residual.kind")

    @staticmethod
    def zero() -> "ResidualSpec":
        return ResidualSpec("zero")

    @staticmethod
    def constant(value: float) -> "ResidualSpec":
        return ResidualSpec("constant", value=float(value))
