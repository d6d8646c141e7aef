"""Chi-square mixture limit law of the slowly-changing term.

The quadratic perturbation converges in law to sum_i lambda_i * V_i with
V_i independent chi-square(1).  This module identifies the weights from
(Q, Sigma), evaluates the mixture CDF to a fixed 1e-6
(``_CDF_TOLERANCE``), and exposes the mean sum_i lambda_i.

Which method evaluates the CDF depends on the signs of the nonzero
weights, never on the evaluation points:

* One sign (every model whose Q is semi-definite; zero weights are
  dropped): Ruben's (1962) series
  F(z) = sum_k c_k P(chi2_{d+2k} <= z / beta), beta = min lambda_i,
  whose coefficients are nonnegative and sum to 1.  Each term is at most
  c_k, so the error of a truncated sum is at most 1 - sum(kept c_k),
  which is computed before any point is evaluated.  The truncated sum
  is then evaluated over all points at once from the Poisson-type terms
  x^(a+j) e^-x / Gamma(a+j+1) of the incomplete gamma function, with
  ``math.erf``/``erfc`` or ``expm1``/``exp`` as the base (see
  ``_series_cdf``), to about 1e-12 relative.  The series is accurate at
  every z, including z -> 0, where the inversion below misses its
  tolerance.  Weights of one negative sign use the reflection
  F(z) = 1 - F_{-lambda}(-z).  Widely spread weights need many terms
  (about 13 * max/min at ``_CDF_TOLERANCE``); past ``_MAX_TERMS``,
  a spread of about 300, the series is left to the inversion.
* Mixed signs: the series has no nonnegative form and so no such error
  bound, so the CDF is found point by point by numerical inversion of
  the characteristic function prod_j (1 - 2 i lambda_j t)^{-1/2}
  (Imhof 1961).

The inversion integrates sin(theta(u)) / (u * rho(u)) over (0, inf),
where theta(u) = 0.5 * sum_i arctan(lambda_i u) - z u / 2 and
rho(u) = prod_i (1 + lambda_i^2 u^2)^{1/4}.  The head of the integral is
done with adaptive Gauss-Legendre panels; past the point where the
phase becomes strictly monotone the integral is summed lobe by lobe
(one sign-constant arch of the sine per term) and the alternating
series is accelerated by iterated averaging.  The panels use the
24-point Gauss-Legendre rule of ``numpy.polynomial.legendre.leggauss``,
and every root (the start of the monotone phase, each arch end, each
quantile) comes from ``_brentq``, a port of scipy's Brent solver; so the
module runs on numpy and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericError
from .laws import CovarianceEstimate
from .perturbation import QuadraticSpec
from .rng import RngStream

# Error bound of every value mixture_cdf returns.
_CDF_TOLERANCE = 1e-6
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
_MAX_LOBES = 200_000
# Series terms past which a one-signed mixture goes to the inversion: at
# the cap the coefficient recursion takes ~30 ms and a point ~10 us, where
# an inverted point takes ~3 ms.
_MAX_TERMS = 4096
# Relative size of the tail at which a point of the series stops, and the
# number of terms added between two stopping checks.
_SERIES_EPS = 2.0 ** -54
_SERIES_BLOCK = 8


@dataclass(frozen=True)
class ChiSquareMixture:
    """Mixture sum_i weights[i] * chi2_1 with independent components."""

    weights: Tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(v) for v in self.weights)
        if len(w) == 0 or all(v == 0.0 for v in w):
            raise ConfigurationError("weights must not be identically zero",
                                     "mixture.weights")
        if any(not math.isfinite(v) for v in w):
            raise ConfigurationError("weights must be finite", "mixture.weights")
        object.__setattr__(self, "weights", w)

    @property
    def mean(self) -> float:
        return float(sum(self.weights))


def mixture_weights(Q: QuadraticSpec,
                    sigma: CovarianceEstimate) -> ChiSquareMixture:
    """Identify the mixture weights as eigenvalues of S^{1/2} Q S^{1/2}.

    The vector partial sums satisfy T_n/sqrt(n) => N(0, Sigma), so the
    limit of T'QT/n is G'QG with G ~ N(0, Sigma), whose law is the
    chi-square mixture with these eigenvalue weights.  The weight sum is
    checked against trace(Q Sigma) to 1e-12 relative.
    """
    if Q.d != sigma.d:
        raise ConfigurationError(f"Q is {Q.d}-dim, covariance is {sigma.d}-dim",
                                 "mixture_weights")
    evals, evecs = np.linalg.eigh(sigma.matrix)
    scale = max(1.0, float(evals[-1]))
    if evals[0] < -1e-10 * scale:
        raise NumericError(f"covariance not PSD (min eigenvalue {evals[0]:.3e})")
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T
    w = np.linalg.eigvalsh(root @ Q.Q @ root)[::-1]
    tr = float(np.trace(Q.Q @ sigma.matrix))
    if abs(float(w.sum()) - tr) > 1e-12 * max(1.0, abs(tr)):
        raise NumericError(
            f"weight sum {w.sum():.16e} disagrees with trace {tr:.16e}")
    return ChiSquareMixture(tuple(float(v) for v in w))


# -- root finding ------------------------------------------------------

def _brentq(f, xa: float, xb: float, xtol: float = 2e-12,
            rtol: float = 4 * np.finfo(float).eps,
            maxiter: int = 100) -> float:
    """A root of f between xa and xb by Brent's (1973) method.

    A line-for-line port of scipy's ``brentq.c`` with its defaults, so it
    returns the bits ``scipy.optimize.brentq`` returns.  Raises ValueError
    when f(xa) and f(xb) have one sign or f gives NaN, and RuntimeError
    when maxiter iterations do not converge.
    """
    def fx(x):
        v = float(f(x))
        if math.isnan(v):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return v

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# -- characteristic-function inversion ---------------------------------

def _theta(u, lams, z):
    return 0.5 * np.sum(np.arctan(np.multiply.outer(lams, u)), axis=0) - 0.5 * z * u


def _integrand(u, lams, z):
    th = _theta(u, lams, z)
    rho = np.prod((1.0 + np.multiply.outer(lams ** 2, u ** 2)) ** 0.25, axis=0)
    safe = np.where(u > 0, u * rho, 1.0)
    return np.where(u > 0, np.sin(th) / safe, 0.5 * (np.sum(lams) - z))


def _gl_panel(a, b, lams, z):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(_GL_W * _integrand(mid + half * _GL_X, lams, z)))


def _panel_adaptive(a, b, lams, z, depth=0):
    # keep the per-panel phase swing small enough for 24-point GL
    if depth < 48 and abs(float(_theta(np.array(b), lams, z))
                          - float(_theta(np.array(a), lams, z))) > 2.5:
        m = 0.5 * (a + b)
        return (_panel_adaptive(a, m, lams, z, depth + 1)
                + _panel_adaptive(m, b, lams, z, depth + 1))
    return _gl_panel(a, b, lams, z)


def _slope_bound(u, lams):
    return 0.5 * float(np.sum(np.abs(lams) / (1.0 + lams ** 2 * u ** 2)))


def _invert(lams: np.ndarray, z: float, tol: float) -> Tuple[float, float]:
    """Integral of the inversion kernel over (0, inf) and an error estimate."""
    d = len(lams)
    if z > 0:
        if _slope_bound(0.0, lams) <= 0.25 * z:
            u0 = 1.0
        else:
            hi = 1.0
            while _slope_bound(hi, lams) > 0.25 * z:
                hi *= 2.0
            u0 = max(_brentq(lambda u: _slope_bound(u, lams) - 0.25 * z,
                             0.0, hi), 1.0)
    else:
        u0 = 64.0 / float(np.min(np.abs(lams)))

    total = 0.0
    a = 0.0
    b = min(1.0 / float(np.max(np.abs(lams))), u0)
    while a < u0:
        total += _panel_adaptive(a, b, lams, z)
        a, b = b, min(b * 2.0, u0)

    if z == 0:
        # two-term analytic tail of the asymptotic expansion at u -> inf
        P = float(np.prod(np.abs(lams))) ** 0.5
        th_inf = 0.25 * math.pi * float(np.sum(np.sign(lams)))
        c1 = 0.5 * float(np.sum(1.0 / lams))
        tail = (math.sin(th_inf) * (2.0 / d) * u0 ** (-d / 2.0)
                - math.cos(th_inf) * c1 * (2.0 / (d + 2.0))
                * u0 ** (-d / 2.0 - 1.0)) / P
        return total + tail, 4.0 * u0 ** (-d / 2.0 - 2.0) / P

    # past u0 the phase is strictly decreasing with slope <= -z/4; march
    # over the arches between consecutive multiples of pi
    th0 = float(_theta(np.array(u0), lams, z))
    m = int(math.ceil(-th0 / math.pi))
    while -m * math.pi > th0:
        m += 1
    prev = u0
    run = total
    psums = []
    est_prev = None
    hits = 0
    for k in range(_MAX_LOBES):
        target = -(m + k) * math.pi
        lo = prev
        width = (float(_theta(np.array(lo), lams, z)) - target) / (0.25 * z) + 1e-12
        hi = lo + width
        tries = 0
        while float(_theta(np.array(hi), lams, z)) > target and tries < 200:
            hi += width
            tries += 1
        root = _brentq(lambda u: float(_theta(np.array(u), lams, z)) - target,
                       lo, hi)
        run += _gl_panel(prev, root, lams, z)
        psums.append(run)
        prev = root
        if k >= 5:
            s = np.array(psums[-16:])
            while len(s) > 1:
                s = 0.5 * (s[:-1] + s[1:])
            est = float(s[0])
            if est_prev is not None:
                step = abs(est - est_prev)
                if step < 0.25 * tol:
                    hits += 1
                    if hits >= 2:
                        return est, step + 1e-16
                else:
                    hits = 0
            est_prev = est
    achieved = abs(psums[-1] - psums[-2]) if len(psums) > 1 else math.inf
    raise NumericError(
        f"lobe summation did not converge to {tol:.1e} at z={z}",
        achieved_tolerance=achieved)


def _cdf_scalar(weights: Sequence[float], z: float, tol: float) -> float:
    lams = np.array([w for w in weights if w != 0.0], dtype=float)
    if np.all(lams > 0) and z <= 0:
        return 0.0
    if np.all(lams < 0) and z >= 0:
        return 1.0
    if z < 0:
        return 1.0 - _cdf_scalar(tuple(-w for w in weights), -z, tol)
    # rescale so the largest |weight| is 1 (pure conditioning, same law)
    c = float(np.max(np.abs(lams)))
    integral, _ = _invert(lams / c, z / c, tol)
    return min(max(0.5 - integral / math.pi, 0.0), 1.0)


# -- Ruben's series for one-signed weights ------------------------------

def _series_coefficients(lams: np.ndarray,
                         tail: float) -> Optional[np.ndarray]:
    """Ruben's coefficients c_0..c_K for positive weights, with K the first
    index where 1 - sum c_k <= tail; None when that takes more than
    _MAX_TERMS terms.

    c_0 = prod (beta/lambda_i)^(1/2) and c_k = (1/k) sum_{r<k} g_{k-r} c_r
    with g_j = (1/2) sum_i (1 - beta/lambda_i)^j: the power-series
    coefficients of the generating function prod_i (p_i/(1-(1-p_i)s))^(1/2),
    p_i = beta/lambda_i, so all are nonnegative and they sum to 1.
    """
    p = float(np.min(lams)) / lams
    q = 1.0 - p
    qk = np.ones_like(q)
    g = np.empty(_MAX_TERMS)
    c = np.empty(_MAX_TERMS)
    c[0] = math.exp(0.5 * float(np.sum(np.log(p))))
    total = c[0]
    k = 1
    while 1.0 - total > tail:
        if k == _MAX_TERMS:
            return None
        qk *= q
        g[k - 1] = 0.5 * float(np.sum(qk))
        c[k] = float(np.dot(g[k - 1::-1], c[:k])) / k
        total += c[k]
        k += 1
    return c[:k]


def _series_cdf(lams: np.ndarray, c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k c_k P(a + k, x) at each point of the 1-d array z, where
    a = d/2, x = z/(2 beta) and P is the regularized lower incomplete gamma.

    With t_j = x^(a+j) e^-x / Gamma(a+j+1), P(a+k, x) = sum_{j>=k} t_j, so
    the sum is sum_j t_j C_j with C_j = c_0 + ... + c_min(j,K).  For any
    constant L it equals L P(a, x) + sum_j t_j (C_j - L); each point takes
    L = C_{k-1}, k the first index with a + k >= x (L = 0 when x <= a,
    except for d <= 2, where k >= 1).  The terms j < k - 1 are then the
    only negative ones, and they add up to at most
    L (P(a, x) - P(a+k-1, x)) while the result is at least
    L P(a+k-1, x) >= L / 2, so nothing cancels badly whatever the shape of
    c.  For d <= 2, P(a, x) is erf(sqrt x) or 1 - e^-x; otherwise it is
    1 - Q(a, x), from Q(1/2, x) = erfc(sqrt x) or Q(1, x) = e^-x and
    upward steps of t-terms, which only points with x > a use.  Each t_j
    is exp of its logarithm.  A point stops once the tail bound of its
    remaining terms, past their peak, is below 2^-54 of its running sum.
    Every step is elementwise, so each point's value does not depend on
    which other points share the call.
    """
    x = np.maximum(z, 0.0) / (2.0 * float(np.min(lams)))
    a = 0.5 * len(lams)
    a0 = 0.5 if len(lams) % 2 else 1.0
    K = len(c) - 1
    C = np.cumsum(c)
    total = float(C[-1])
    direct = a == a0  # d <= 2: P(a, x) is accurate from erf or expm1 alone
    k = np.minimum(np.maximum(np.ceil(x - a), float(direct)),
                   K + 1.0).astype(np.intp)
    L = np.concatenate([[0.0], C])[k]
    w_hi = total - L
    with np.errstate(divide="ignore"):
        lx = np.log(x)
    acc = np.zeros(len(x))
    up = k > 0
    xu, lxu = x[up], lx[up]
    if direct:
        p = np.array([math.erf(v) for v in np.sqrt(xu)]) if a0 == 0.5 \
            else -np.expm1(-xu)
    else:
        q = np.array([math.erfc(v) for v in np.sqrt(xu)]) if a0 == 0.5 \
            else np.exp(-xu)
        for i in range(int(a - a0)):
            q += np.exp((a0 + i) * lxu - xu - math.lgamma(a0 + i + 1.0))
        p = 1.0 - q
    acc[up] = L[up] * p
    out = np.empty(len(x))
    idx = np.arange(len(x))
    # a point whose weights C_j - L are all zero needs no terms
    done = (k <= 1) & (w_hi == 0.0)
    B = _SERIES_BLOCK
    for j0 in range(0, K + 64 + int(20.0 * math.sqrt(K + a + 1.0)), B):
        if done.any():
            out[idx[done]] = acc[done]
            keep = ~done
            idx, x, lx, k, L, w_hi, acc = (
                v[keep] for v in (idx, x, lx, k, L, w_hi, acc))
        if len(idx) == 0:
            return np.minimum(out, 1.0)
        j = np.arange(j0, j0 + B)
        lg = np.array([math.lgamma(a + i + 1.0) for i in range(j0, j0 + B)])
        t = np.exp(np.multiply.outer(lx, a + j) - x[:, None] - lg)
        tw = t * (C[np.minimum(j, K)] - L[:, None])
        for i in range(B):
            acc += tw[:, i]
        # stop once all negative terms are in and the tail is negligible
        r = x / (a + j0 + B)
        done = (j0 + B + 1 >= k) & ((w_hi == 0.0) | ((r < 1.0) & (
            t[:, -1] * w_hi * r <= _SERIES_EPS * (1.0 - r) * acc)))
    raise NumericError(f"Ruben series did not converge at z="
                       f"{float(2.0 * np.min(lams) * x[0])}")


def mixture_cdf(mix: ChiSquareMixture, z):
    """L(z) = P[sum_i weights[i] * chi2_1 <= z], to 1e-6 (_CDF_TOLERANCE).

    Accepts a scalar (returns a float) or an array of evaluation points.
    When the nonzero weights share one sign, every point comes from one
    truncated Ruben series whose truncation error is bounded by
    _CDF_TOLERANCE / 4 (see the module docstring); mixed-sign weights, and
    one-signed weights spread so widely that the series would need more
    than _MAX_TERMS terms, are inverted point by point.
    """
    tol = 0.25 * _CDF_TOLERANCE
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs)):
        raise ConfigurationError("z must be finite", "mixture_cdf.z")
    flat = zs.ravel()
    lams = np.array([w for w in mix.weights if w != 0.0], dtype=float)
    sign = 1.0 if np.all(lams > 0) else -1.0 if np.all(lams < 0) else 0.0
    c = _series_coefficients(sign * lams, tol) if sign else None
    if c is None:
        out = np.array([_cdf_scalar(mix.weights, float(v), tol) for v in flat])
    elif sign > 0:
        out = _series_cdf(lams, c, flat)
    else:
        out = 1.0 - _series_cdf(-lams, c, -flat)
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)


def mixture_quantile(mix: ChiSquareMixture, p: float) -> float:
    """Smallest z with L(z) = p (L is continuous and increasing)."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError("p must lie in (0,1)", "mixture_quantile.p")
    mean = mix.mean
    spread = math.sqrt(2.0 * sum(w * w for w in mix.weights))
    lo, hi = mean - 4.0 * spread, mean + 4.0 * spread
    if all(w > 0 for w in mix.weights):
        lo = 0.0
    for _ in range(200):
        if mixture_cdf(mix, lo) < p:
            break
        lo -= spread
    for _ in range(200):
        if mixture_cdf(mix, hi) > p:
            break
        hi += spread
    return _brentq(lambda v: mixture_cdf(mix, v) - p, lo, hi, xtol=1e-10)


def mixture_sample(mix: ChiSquareMixture, stream: RngStream, n: int) -> np.ndarray:
    """n Monte Carlo draws of the mixture (for empirical cross-checks)."""
    gen = stream.generator()
    w = np.asarray(mix.weights)
    return gen.chisquare(1, size=(n, len(w))) @ w
