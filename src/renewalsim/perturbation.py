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

``StationarySpec.xi`` is the one evaluator of xi_n: it reads a driving
history oldest first and gives xi at each full window; ``xi_path`` and
``xi_backward`` are that history read forward and backward.  The
evaluators take independent paths along leading axes.
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

    def centered(self, law: IncrementLaw) -> "StationarySpec":
        """Return a copy whose centering equals the stationary mean of the
        truncated sum, so E xi_n = 0 (zero/staggered kinds are unchanged).

        E h(W) is the law's mean for ``identity`` and variance + mean^2
        for ``square``; any other map is averaged over 4096 midpoint
        quantiles of the law."""
        if self.kind not in ("instantaneous", "geometric_ma"):
            return self
        if self.h == "identity":
            h_mean = law.mean
        elif self.h == "square":
            h_mean = law.variance + law.mean ** 2
        else:
            q = (np.arange(4096) + 0.5) / 4096
            h_mean = float(np.mean(_resolve_map(self.h)(law.ppf(q))))
        if self.kind == "instantaneous":
            return replace(self, centering=h_mean)
        geom = (1.0 - self.beta ** self.truncation_depth) / (1.0 - self.beta)
        return replace(self, centering=h_mean * geom)

    # -- evaluation ------------------------------------------------------

    def xi(self, w: np.ndarray, out: Optional[np.ndarray] = None,
           work: Optional[np.ndarray] = None) -> np.ndarray:
        """xi at every full window of the driving values ``w``.

        ``w`` runs oldest first along its step axis (the last axis; the
        last but one for staggered_residual, whose rows are (lifetime,
        interarrival)); leading axes are independent paths.  Entry i is
        xi at the window ending at step i + depth - 1, so N steps give
        N - depth + 1 values, and a row of exactly depth steps gives xi
        of that one window.  The values are written into ``out`` when it
        is given, and the geometric sum takes each lag's product in
        ``work``; both have the shape of the result.
        """
        w = np.asarray(w)
        D = self.depth
        stag = self.kind == "staggered_residual"
        m = (w.shape[-2] if stag else w.shape[-1]) - D + 1
        if m < 1:
            raise ContractViolationError(
                f"need at least depth = {D} driving values")
        shape = (w.shape[:-2] if stag else w.shape[:-1]) + (m,)
        if out is None:
            out = np.empty(shape)
        lags = [slice(D - 1 - k, D - 1 - k + m) for k in range(D)]  # W_{n-k}
        if self.kind == "zero":
            out.fill(0.0)
            return out
        if self.kind == "instantaneous":
            return np.subtract(_resolve_map(self.h)(w), self.centering,
                               out=out)
        if self.kind == "geometric_ma":
            hw = _resolve_map(self.h)(w)
            if work is None:
                work = np.empty(shape)
            out.fill(0.0)
            for k, lag in enumerate(lags):
                out += np.multiply(hw[..., lag], self.beta ** k, out=work)
            out -= self.centering
            return out
        # lag k is the patient who arrived k rows back and has waited the
        # interarrival gaps of rows n-k..n
        life, inter = w[..., 0], w[..., 1]
        waited, left, alive, residual = np.zeros((4,) + shape)
        for lag in lags:
            waited += inter[..., lag]
            np.maximum(np.subtract(life[..., lag], waited, out=left), 0.0,
                       out=left)
            alive += left > 0.0
            residual += left
        return np.subtract(-(self.g10 * alive + self.g01 * residual),
                           self.centering, out=out)

    def xi_path(self, w_ext: np.ndarray, n: int,
                out: Optional[np.ndarray] = None,
                work: Optional[np.ndarray] = None) -> np.ndarray:
        """xi_1..xi_n from extended history w_ext = (W_{1-D}, ..., W_n),
        n + depth driving values; the first depth are burn-in, so xi_1 is
        already stationary.  ``out`` and ``work`` are as in ``xi``, of
        n + 1 values a path."""
        xi = self.xi(w_ext, out, work)
        if xi.shape[-1] != n + 1:
            raise ContractViolationError(
                f"need a history of n + depth = {n + self.depth} values")
        return xi[..., 1:]

    def xi_backward(self, w_back: np.ndarray,
                    out: Optional[np.ndarray] = None,
                    work: Optional[np.ndarray] = None) -> np.ndarray:
        """xi_0, xi_{-1}, ... from backward-ordered rows W_0, W_{-1}, ...:
        ``xi`` of the history turned oldest first, turned back (``out``
        and ``work`` as in ``xi``)."""
        axis = -2 if self.kind == "staggered_residual" else -1
        return np.flip(self.xi(np.flip(w_back, axis), out, work), -1)

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

    def lower_bound_for(self, law: IncrementLaw) -> Optional[float]:
        """A deterministic lower bound for xi_n given the driving law's
        support, when one exists."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "staggered_residual":
            return 0.0 if self.g10 <= 0 and self.g01 <= 0 else None
        if self.h in ("abs", "square") or \
                self.h == "identity" and law.support_min >= 0.0:
            return -self.centering
        return None


@dataclass(frozen=True)
class QuadraticSpec:
    """Symmetric quadratic form Q, not identically zero, driving
    zeta'_n = T_n' Q T_n / n."""

    Q: np.ndarray

    def __post_init__(self):
        try:
            q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        except (TypeError, ValueError):
            raise ConfigurationError("Q must be a numeric matrix",
                                     "quadratic.Q") from None
        if q.shape[0] != q.shape[1]:
            raise ConfigurationError("Q must be square", "quadratic.Q")
        if not np.allclose(q, q.T, atol=1e-12 * (1.0 + np.abs(q).max())):
            raise ConfigurationError("Q must be symmetric", "quadratic.Q")
        if not np.any(q):
            raise ConfigurationError("Q is identically zero", "quadratic.Q")
        object.__setattr__(self, "Q", q)

    @property
    def d(self) -> int:
        return self.Q.shape[0]


def zeta_quadratic_path(vector_sums: np.ndarray, spec: QuadraticSpec,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized zeta'_n for n = 1..N from (..., N, d) partial sums,
    written into ``out`` when it is given."""
    T = np.atleast_2d(np.asarray(vector_sums, dtype=float))
    if T.shape[-1] != spec.d:
        raise ConfigurationError("vector dimension mismatch", "zeta.path")
    quad = np.einsum("...i,ij,...j->...", T, spec.Q, T, out=out)
    quad /= np.arange(1, T.shape[-2] + 1, dtype=float)
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
