import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, optimize, special, stats

from renewalsim import (
    ChiSquareMixture, IncrementLaw, QuadraticSpec, RngStream, VectorLaw,
    mixture_cdf, mixture_quantile, mixture_sample, mixture_weights,
)
from renewalsim.errors import ConfigurationError, NumericError
from renewalsim.laws import CovarianceEstimate
from renewalsim import mixture
from renewalsim.mixture import _CDF_TOLERANCE, _cdf_scalar

LOG_GRID = np.logspace(-10.0, 3.0, 53)  # z / lambda, 4 points a decade


def test_weights_are_eigenvalues_of_scaled_form():
    # Sigma = I: weights are just the eigenvalues of Q
    Q = QuadraticSpec(np.array([[2.0, 0.0], [0.0, 1.0]]))
    mix = mixture_weights(Q, CovarianceEstimate(np.eye(2)))
    assert sorted(mix.weights) == pytest.approx([1.0, 2.0])
    # scalar case: weight = Q * variance
    mix1 = mixture_weights(QuadraticSpec(np.array([[0.5]])),
                           CovarianceEstimate(np.array([[2.0]])))
    assert mix1.weights == pytest.approx((1.0,))


def test_weights_respect_covariance_rotation():
    Q = QuadraticSpec(np.eye(2))
    sigma = CovarianceEstimate(np.array([[2.0, 1.0], [1.0, 2.0]]))
    mix = mixture_weights(Q, sigma)
    # eigenvalues of Sigma^(1/2) Q Sigma^(1/2) = eigenvalues of Q Sigma here
    assert sorted(mix.weights) == pytest.approx([1.0, 3.0])
    assert mix.mean == pytest.approx(4.0)


def test_non_psd_covariance_rejected():
    Q = QuadraticSpec(np.eye(2))
    with pytest.raises((NumericError, ConfigurationError)):
        mixture_weights(Q, CovarianceEstimate(np.array([[1.0, 2.0],
                                                        [2.0, 1.0]])))


def test_single_weight_matches_chi2():
    mix = ChiSquareMixture((1.0,))
    z = np.linspace(0.05, 12.0, 40)
    assert np.allclose(mixture_cdf(mix, z), stats.chi2.cdf(z, df=1),
                       atol=2e-6)
    assert mixture_cdf(mix, 3.841458821) == pytest.approx(0.95, abs=1e-6)


def test_equal_weights_match_exponential():
    # chi2_1 + chi2_1 = chi2_2, an exponential with mean 2
    mix = ChiSquareMixture((1.0, 1.0))
    z = np.linspace(0.0, 20.0, 201)
    assert np.max(np.abs(mixture_cdf(mix, z) - (1.0 - np.exp(-z / 2.0)))) \
        <= 1e-6


def test_scaled_single_weight():
    mix = ChiSquareMixture((0.5,))
    z = np.linspace(0.05, 8.0, 30)
    assert np.allclose(mixture_cdf(mix, z), stats.chi2.cdf(z / 0.5, df=1),
                       atol=2e-6)


def test_signed_weights_symmetry():
    mix = ChiSquareMixture((1.0, -1.0))
    assert mixture_cdf(mix, 0.0) == pytest.approx(0.5, abs=1e-6)
    z = np.array([0.3, 1.0, 2.5])
    assert np.allclose(mixture_cdf(mix, z) + mixture_cdf(mix, -z), 1.0,
                       atol=3e-6)
    assert mix.mean == pytest.approx(0.0)


def test_cdf_monotone_and_bounded():
    mix = ChiSquareMixture((0.7, 0.2, 0.1))
    z = np.linspace(-1.0, 15.0, 120)
    c = mixture_cdf(mix, z)
    assert np.all(np.diff(c) >= -1e-9)
    assert np.all((c >= -1e-9) & (c <= 1.0 + 1e-9))
    assert mixture_cdf(mix, 0.0) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_equal_weights_match_chi2_down_to_tiny_z(d, lam):
    z = lam * LOG_GRID
    ref = stats.chi2.cdf(LOG_GRID, df=d)
    assert np.max(np.abs(mixture_cdf(ChiSquareMixture((lam,) * d), z) - ref)) \
        <= 1e-6


@pytest.mark.parametrize("weights", [(0.7, 0.2, 0.1), (0.5, 0.3), (1.0, 0.01)])
def test_unequal_weights_monotone_and_match_inversion(weights):
    mix = ChiSquareMixture(weights)
    # nondecreasing up to rounding of a sum of probabilities near 1
    assert np.all(np.diff(mixture_cdf(mix, mix.mean * LOG_GRID)) >= -1e-12)
    z = np.linspace(0.0, 4.0 * mix.mean, 25)
    inverted = [_cdf_scalar(weights, float(v), 0.25 * _CDF_TOLERANCE)
                for v in z]
    assert np.max(np.abs(mixture_cdf(mix, z) - inverted)) <= 1e-6


def test_negative_weights_are_the_reflection():
    # -lam * chi2_d <= z  iff  chi2_d >= -z/lam
    for d in (1, 2, 3):
        z = -0.5 * LOG_GRID
        assert np.max(np.abs(mixture_cdf(ChiSquareMixture((-0.5,) * d), z)
                             - stats.chi2.sf(LOG_GRID, df=d))) <= 1e-6
    pos = ChiSquareMixture((0.7, 0.2, 0.1))
    neg = ChiSquareMixture((-0.7, -0.2, -0.1))
    z = np.concatenate([-LOG_GRID[::-1], [0.0], LOG_GRID])
    assert np.allclose(mixture_cdf(neg, z), 1.0 - mixture_cdf(pos, -z),
                       rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("weights", [(0.5,), (0.7, 0.2, 0.1),
                                     (-0.7, -0.2, -0.1), (1.0, -0.5)])
def test_scalar_and_vector_calls_agree(weights):
    mix = ChiSquareMixture(weights)
    z = np.array([-2.0, -1e-6, 0.0, 1e-6, 0.3, 2.0])
    scalars = [mixture_cdf(mix, v) for v in z]
    assert all(isinstance(v, float) for v in scalars)
    assert np.array_equal(scalars, mixture_cdf(mix, z))
    assert np.array_equal(mixture_cdf(mix, z.reshape(2, 3)),
                          mixture_cdf(mix, z).reshape(2, 3))


def test_inversion_only_for_mixed_signs_or_past_the_term_cap(monkeypatch):
    inverted = []

    def spy(weights, z, tol):
        inverted.append(weights)
        return _cdf_scalar(weights, z, tol)

    monkeypatch.setattr(mixture, "_cdf_scalar", spy)
    z = np.array([0.5, 2.0])
    # (1, 0.004) needs ~3300 series terms, inside the cap
    for weights in [(0.5,), (0.7, 0.0, 0.2), (-1.0, -0.01), (1.0, 0.004)]:
        mixture_cdf(ChiSquareMixture(weights), z)
    assert inverted == []
    mixture_cdf(ChiSquareMixture((1.0, -0.5)), z)
    # (1, 0.001) would need ~13000 terms
    mixture_cdf(ChiSquareMixture((1.0, 0.001)), z)
    assert inverted == [(1.0, -0.5)] * 2 + [(1.0, 0.001)] * 2


SERIES_X = np.concatenate([[0.0], np.logspace(-12.0, math.log10(3e3), 4001)])


def _gammainc_series(d, coefs, x):
    """Rows sum_k c_k P(d/2 + k, x), one per coefficient row, summed term
    by term with scipy's regularized incomplete gamma."""
    out = np.zeros((len(coefs), len(x)))
    for k in range(coefs.shape[1]):
        out += np.outer(coefs[:, k], special.gammainc(0.5 * d + k, x))
    return out


@pytest.mark.parametrize("K", [1, 5, 50, 1300, 4096])
@pytest.mark.parametrize("d", range(1, 8))
def test_series_matches_gammainc(d, K):
    # random coefficients, geometric decay, and all but 1e-12 of the mass
    # in a bump at 0.8 K (as when most weights are far above the least)
    k = np.arange(K)
    coefs = np.array([np.random.default_rng(100 * d + K).random(K),
                      0.5 ** (k / max(1.0, K / 20.0)),
                      np.exp(-0.5 * ((k - 0.8 * K) / max(1.0, K / 30.0)) ** 2)
                      + 1e-12])
    coefs /= coefs.sum(axis=1, keepdims=True)
    refs = _gammainc_series(d, coefs, SERIES_X)
    for c, ref in zip(coefs, refs):
        # x = z / (2 beta) with beta = 1/2
        got = mixture._series_cdf(np.full(d, 0.5), c, SERIES_X)
        assert got[0] == ref[0] == 0.0
        assert np.max(np.abs(got[1:] - ref[1:]) / ref[1:]) <= 1e-11


def _signed_pair_cdf(lam, mu, z):
    """P[lam * X - mu * T^2 <= z] with X ~ chi2_1, T ~ N(0, 1), by quadrature
    over t >= 0 of 2 phi(t) P[X <= (z + mu t^2) / lam]."""
    def f(t):
        x = max(z + mu * t * t, 0.0) / lam
        return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * t * t) \
            * special.erf(math.sqrt(0.5 * x))
    kink = math.sqrt(abs(z) / mu)
    tail = integrate.quad(f, kink, np.inf, epsabs=1e-12, epsrel=1e-12,
                          limit=200)[0]
    if z <= 0:
        return tail
    return tail + integrate.quad(f, 0.0, kink, epsabs=1e-12, epsrel=1e-12,
                                 limit=200)[0]


@pytest.mark.parametrize("weights", [(1.0, -1.0), (1.0, -0.5)])
def test_mixed_sign_weights_match_convolution(weights):
    g = np.logspace(-8.0, 2.0, 41)
    z = np.concatenate([-g[::-1], g])
    ref = [_signed_pair_cdf(weights[0], -weights[1], float(v)) for v in z]
    assert np.max(np.abs(mixture_cdf(ChiSquareMixture(weights), z) - ref)) \
        <= 1e-6


def test_cdf_input_validation():
    mix = ChiSquareMixture((1.0,))
    with pytest.raises(ConfigurationError):
        mixture_cdf(mix, np.array([1.0, np.nan]))
    with pytest.raises(ConfigurationError):
        mixture_cdf(mix, math.inf)


def test_quantile_inverts_cdf():
    mix = ChiSquareMixture((0.5, 0.3))
    for p in (0.05, 0.5, 0.9, 0.99):
        z = mixture_quantile(mix, p)
        assert mixture_cdf(mix, z) == pytest.approx(p, abs=1e-6)
    with pytest.raises(ConfigurationError):
        mixture_quantile(mix, 0.0)
    with pytest.raises(ConfigurationError):
        mixture_quantile(mix, 1.0)


def test_quantile_with_signed_weights():
    mix = ChiSquareMixture((1.0, -0.5))
    z = mixture_quantile(mix, 0.25)
    assert mixture_cdf(mix, z) == pytest.approx(0.25, abs=1e-6)


def test_sample_agrees_with_quadrature():
    mix = ChiSquareMixture((0.5, 0.3))
    draws = mixture_sample(mix, RngStream(101, stream_id=4), 100_000)
    grid = np.quantile(draws, np.linspace(0.02, 0.98, 49))
    emp = np.searchsorted(np.sort(draws), grid, side="right") / len(draws)
    assert np.max(np.abs(emp - mixture_cdf(mix, grid))) < 0.006
    assert draws.mean() == pytest.approx(mix.mean, rel=0.02)


def test_mixture_validation():
    with pytest.raises(ConfigurationError):
        ChiSquareMixture(())
    with pytest.raises(ConfigurationError):
        ChiSquareMixture((1.0, math.nan))


def test_cli_import_leaves_out_scipy_optimize_and_linalg():
    src = os.path.dirname(os.path.dirname(mixture.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, renewalsim.cli; print([m for m in "
         "('scipy.optimize', 'scipy.linalg', 'scipy.sparse', 'scipy.spatial', "
         "'scipy.fft') if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_gauss_legendre_nodes_match_scipy():
    x, w = special.roots_legendre(24)
    assert np.max(np.abs(mixture._GL_X - x)) <= 1e-15
    assert np.max(np.abs(mixture._GL_W - w)) <= 1e-15


def _random_brackets(rng, n):
    """n functions with a sign change between lo and hi: three smooth
    families, and a ramp clipped to -1 and 1 at both ends of a dyadic
    bracket, so |f(lo)| = |f(hi)| exactly."""
    for i in range(n):
        r, s = rng.uniform(-5.0, 5.0), rng.lognormal(0.0, 1.0)
        c = rng.uniform(-0.9, 0.9)
        lo, hi = r - rng.lognormal(0.0, 1.0), r + rng.lognormal(0.0, 1.0)
        if i % 4 == 3:
            r, h = rng.integers(-320, 320) / 64.0, rng.integers(1, 64) / 16.0
            lo, hi = r - h, r + h
        f = [lambda x: math.atan(s * (x - r)) + abs(c) * (x - r) ** 3,
             lambda x: math.expm1(s * (x - r) / 3.0) - c * (x - r) / 50.0,
             lambda x: (x - r) * (x - hi - abs(c) - 0.1) * (x - lo + s + 0.1),
             lambda x: max(-1.0, min(1.0, 20.0 * (x - r - c * h) / h)),
             ][i % 4]
        yield f, lo, hi


@pytest.mark.parametrize("xtol", [2e-12, 1e-10])
def test_brentq_equals_scipy_on_random_brackets(xtol):
    for f, lo, hi in _random_brackets(np.random.default_rng(909), 600):
        assert mixture._brentq(f, lo, hi, xtol=xtol).hex() \
            == optimize.brentq(f, lo, hi, xtol=xtol).hex()


@pytest.fixture
def both_solvers(monkeypatch):
    """Solve every root of the module with _brentq and scipy's brentq;
    the list holds each root after asserting that the two are one float."""
    roots = []
    own = mixture._brentq

    def both(f, a, b, **kw):
        root = own(f, a, b, **kw)
        assert root.hex() == optimize.brentq(f, a, b, **kw).hex()
        roots.append(root)
        return root

    monkeypatch.setattr(mixture, "_brentq", both)
    return roots


@pytest.mark.parametrize("weights", [(0.7, 0.2, 0.1), (-0.5, -0.3),
                                     (1.0, -0.5)])
def test_brentq_equals_scipy_in_quantiles(both_solvers, weights):
    for p in (0.05, 0.5, 0.95):
        mixture_quantile(ChiSquareMixture(weights), p)
    assert len(both_solvers) >= 3


def test_brentq_equals_scipy_in_mixed_sign_inversion(both_solvers):
    # small z reaches the slope-bound root; every z sums lobes
    for z in (-2.0, -0.01, 1e-3, 0.3, 4.0):
        _cdf_scalar((1.0, -0.5, 0.3), z, 2.5e-7)
    assert len(both_solvers) > 50


@pytest.mark.parametrize("f, a, b, kw, err", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}, ValueError),
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {},
     ValueError),
    (lambda x: x ** 3 - 2.0, 0.0, 2.0, {"maxiter": 3}, RuntimeError),
], ids=["same-sign", "nan", "maxiter"])
def test_brentq_raises_like_scipy(f, a, b, kw, err):
    messages = []
    for solver in (mixture._brentq, optimize.brentq):
        with pytest.raises(err) as info:
            solver(f, a, b, **kw)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
