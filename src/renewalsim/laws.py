"""Increment distributions for the driving sequence and vector increments.

The driving variables ``W_k`` are i.i.d. scalar draws from an
:class:`IncrementLaw`.  The walk increments are ``X_k = W_k`` and the
mean-zero vector increments ``Y_k`` come from a :class:`VectorLaw`:
``centered_x`` maps ``W_k`` itself, ``gaussian`` draws independent noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError

_FAMILIES = ("exponential", "gamma", "normal", "uniform", "deterministic",
             "quantile_table")


@dataclass(frozen=True)
class IncrementLaw:
    """A scalar increment distribution with finite positive mean.

    Supported families: ``exponential(rate)``, ``gamma(shape, rate)``,
    ``normal(mean, sd)``, ``uniform(lo, hi)``, ``deterministic(value)``
    and ``quantile_table(values)``.  The deterministic family is
    arithmetic (lattice); the tests use it for exact-value oracles.
    """

    kind: str
    params: Tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ConfigurationError(f"unknown family {self.kind!r}", "law.kind")
        p = self.params
        if any(not math.isfinite(float(v)) for v in p):
            raise ConfigurationError("parameters must be finite", "law.params")
        if self.kind == "exponential":
            if len(p) != 1 or p[0] <= 0:
                raise ConfigurationError("rate must be > 0", "law.rate")
        elif self.kind == "gamma":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ConfigurationError("shape and rate must be > 0", "law.params")
        elif self.kind == "normal":
            if len(p) != 2 or p[1] <= 0:
                raise ConfigurationError("sd must be > 0", "law.sd")
        elif self.kind == "uniform":
            if len(p) != 2 or p[1] <= p[0]:
                raise ConfigurationError("requires lo < hi", "law.params")
        elif self.kind == "deterministic":
            if len(p) != 1:
                raise ConfigurationError("deterministic takes one value", "law.params")
        if self.mean <= 0 or not math.isfinite(self.mean):
            raise ConfigurationError("mean must be finite and > 0", "law.mean")
        if not math.isfinite(self.variance):
            raise ConfigurationError("variance must be finite", "law.variance")

    # -- constructors -------------------------------------------------

    @staticmethod
    def exponential(rate: float) -> "IncrementLaw":
        return IncrementLaw("exponential", (float(rate),))

    @staticmethod
    def gamma(shape: float, rate: float) -> "IncrementLaw":
        return IncrementLaw("gamma", (float(shape), float(rate)))

    @staticmethod
    def normal(mean: float, sd: float) -> "IncrementLaw":
        return IncrementLaw("normal", (float(mean), float(sd)))

    @staticmethod
    def uniform(lo: float, hi: float) -> "IncrementLaw":
        return IncrementLaw("uniform", (float(lo), float(hi)))

    @staticmethod
    def deterministic(value: float) -> "IncrementLaw":
        return IncrementLaw("deterministic", (float(value),))

    @staticmethod
    def quantile_table(values) -> "IncrementLaw":
        """Law defined by equally likely quantile knots (inverse-CDF table)."""
        vals = tuple(float(v) for v in np.sort(np.asarray(values, dtype=float)))
        if len(vals) < 2:
            raise ConfigurationError("need at least 2 table values", "law.values")
        return IncrementLaw("quantile_table", vals)

    # -- moments ------------------------------------------------------

    @property
    def mean(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 1.0 / p[0]
        if k == "gamma":
            return p[0] / p[1]
        if k == "normal":
            return p[0]
        if k == "uniform":
            return 0.5 * (p[0] + p[1])
        if k == "deterministic":
            return p[0]
        # quantile_table samples uniformly within each knot segment
        a, b = self._segments()
        return float(np.mean(0.5 * (a + b)))

    @property
    def variance(self) -> float:
        k, p = self.kind, self.params
        if k == "exponential":
            return 1.0 / p[0] ** 2
        if k == "gamma":
            return p[0] / p[1] ** 2
        if k == "normal":
            return p[1] ** 2
        if k == "uniform":
            return (p[1] - p[0]) ** 2 / 12.0
        if k == "deterministic":
            return 0.0
        a, b = self._segments()
        ex2 = np.mean((a * a + a * b + b * b) / 3.0)
        return float(ex2 - self.mean ** 2)

    @property
    def central_moment4(self) -> float:
        """E(X - mu)^4, used by drift-based truncation bounds."""
        k, p = self.kind, self.params
        if k == "exponential":
            return 9.0 / p[0] ** 4
        if k == "gamma":
            a = p[0]
            return (3.0 * a * a + 6.0 * a) / p[1] ** 4
        if k == "normal":
            return 3.0 * p[1] ** 4
        if k == "uniform":
            return (p[1] - p[0]) ** 4 / 80.0
        if k == "deterministic":
            return 0.0
        a, b = self._segments()
        mu = self.mean
        width = b - a
        flat = width <= 0
        denom = np.where(flat, 1.0, 5.0 * width)
        m4 = np.where(flat, (a - mu) ** 4,
                      ((b - mu) ** 5 - (a - mu) ** 5) / denom)
        return float(np.mean(m4))

    def _segments(self) -> Tuple[np.ndarray, np.ndarray]:
        v = np.asarray(self.params)
        return v[:-1], v[1:]

    @property
    def support_min(self) -> float:
        k, p = self.kind, self.params
        if k in ("exponential", "gamma"):
            return 0.0
        if k == "normal":
            return -math.inf
        if k == "uniform":
            return p[0]
        if k == "deterministic":
            return p[0]
        return float(p[0])

    # -- sampling / quantiles -----------------------------------------

    def sample(self, gen: np.random.Generator, n: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """n draws, written into ``out`` (a contiguous float64 array of n
        values) when given.  Each family scales standard variates as
        ``gen.exponential``, ``gamma``, ``normal`` and ``uniform`` do, so
        both forms give the same bits and leave ``gen`` at the same state."""
        k, p = self.kind, self.params
        if n < 0:
            raise ConfigurationError("n must be >= 0", "sample.n")
        out = np.empty(n) if out is None else out
        if k == "exponential":
            gen.standard_exponential(out=out)
            out *= 1.0 / p[0]
        elif k == "gamma":
            gen.standard_gamma(p[0], out=out)
            out *= 1.0 / p[1]
        elif k == "normal":
            gen.standard_normal(out=out)
            out *= p[1]
            out += p[0]
        elif k == "uniform":
            gen.random(out=out)
            out *= p[1] - p[0]
            out += p[0]
        elif k == "deterministic":
            out[...] = p[0]
        else:
            out[...] = self.ppf(gen.random(n))
        return out

    def ppf(self, q) -> np.ndarray:
        k, p = self.kind, self.params
        q = np.asarray(q, dtype=float)
        if k in ("exponential", "gamma", "normal"):
            # imported here alone: the inverse CDFs of these three are the
            # package's only use of scipy, so a run that never asks for
            # them never loads it
            from scipy import special
        if k == "exponential":
            return -special.log1p(-q) * (1.0 / p[0])
        if k == "gamma":
            return special.gammaincinv(p[0], q) * (1.0 / p[1])
        if k == "normal":
            return special.ndtri(q) * p[1] + p[0]
        if k == "uniform":
            return q * (p[1] - p[0]) + p[0]
        if k == "deterministic":
            return np.full_like(q, p[0])
        knots = np.asarray(p)
        # piecewise-linear inverse CDF through equally spaced knots
        grid = np.linspace(0.0, 1.0, len(knots))
        return np.interp(q, grid, knots)


@dataclass(frozen=True)
class CovarianceEstimate:
    """Symmetric PSD covariance of the vector increments Y_1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ConfigurationError("covariance must be square", "cov.matrix")
        if not np.allclose(m, m.T, atol=1e-12 * (1.0 + np.abs(m).max())):
            raise ConfigurationError("covariance must be symmetric", "cov.matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class VectorLaw:
    """Mean-zero d-dimensional increments Y_k.

    ``centered_x``: Y_k = coeffs * (W_k - E W), a deterministic map of
    the driving variable; ``bind`` fills E W and Var W from the W law.
    ``gaussian``: Y_k ~ N(0, cov), drawn independently of W_k.
    Both covariances are analytic.
    """

    kind: str
    coeffs: Optional[Tuple[float, ...]] = None
    cov_matrix: Optional[np.ndarray] = None
    dim: int = 1
    center: Optional[float] = None
    w_variance: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("centered_x", "gaussian"):
            raise ConfigurationError(f"unknown kind {self.kind!r}",
                                     "vector.kind")

    @staticmethod
    def centered_x(coeffs=(1.0,)) -> "VectorLaw":
        c = tuple(float(v) for v in coeffs)
        return VectorLaw("centered_x", coeffs=c, dim=len(c))

    @staticmethod
    def gaussian(cov) -> "VectorLaw":
        m = np.atleast_2d(np.asarray(cov, dtype=float))
        return VectorLaw("gaussian", cov_matrix=m, dim=m.shape[0])

    @property
    def d(self) -> int:
        return self.dim

    def bind(self, law: IncrementLaw) -> "VectorLaw":
        """Fill centering/variance of a centered_x law from the W law."""
        if self.kind != "centered_x":
            return self
        return replace(self, center=law.mean, w_variance=law.variance)

    def materialize(self, w: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Vector increments for driving values ``w`` of any shape, shape
        (*w.shape, d); each row depends on its own W only, except that a
        Gaussian law draws its standard normals from ``gen``."""
        if self.kind == "centered_x":
            if self.center is None:
                raise ConfigurationError("centered_x law is unbound; call bind()",
                                         "vector.center")
            return (w - self.center)[..., None] * np.asarray(self.coeffs)
        chol = np.linalg.cholesky(
            self.cov_matrix + 1e-15 * np.eye(self.dim))
        return gen.standard_normal(np.shape(w) + (self.dim,)) @ chol.T

    def cov(self, law: Optional[IncrementLaw] = None) -> CovarianceEstimate:
        """Covariance of Y_1."""
        if self.kind == "centered_x":
            bound = self.bind(law) if law is not None else self
            if bound.w_variance is None:
                raise ConfigurationError("centered_x law is unbound; call bind()",
                                         "vector.w_variance")
            c = np.asarray(bound.coeffs)
            return CovarianceEstimate(bound.w_variance * np.outer(c, c))
        return CovarianceEstimate(self.cov_matrix)
