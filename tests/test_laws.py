import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

import renewalsim
from renewalsim import IncrementLaw, RngStream, VectorLaw
from renewalsim.errors import ConfigurationError
from renewalsim.laws import CovarianceEstimate

LAWS = [
    IncrementLaw.exponential(2.0),
    IncrementLaw.gamma(3.0, 2.0),
    IncrementLaw.normal(1.5, 0.7),
    IncrementLaw.uniform(0.2, 2.0),
    IncrementLaw.deterministic(0.8),
    IncrementLaw.quantile_table([0.5, 1.0, 1.5, 3.0]),
]


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
def test_sample_moments_match_analytic(law):
    n = 200_000
    x = law.sample(RngStream(314, stream_id=1).generator(), n)
    sd = math.sqrt(law.variance)
    assert abs(x.mean() - law.mean) <= 4.0 * sd / math.sqrt(n) + 1e-12
    if law.variance > 0:
        assert np.var(x, ddof=1) == pytest.approx(law.variance, rel=0.05)
        m4 = np.mean((x - law.mean) ** 4)
        assert m4 == pytest.approx(law.central_moment4, rel=0.15)
    else:
        assert np.all(x == law.mean)


def _numpy_draws(law, gen, n):
    """The draws of numpy's own samplers for the law's family."""
    p = law.params
    return {"exponential": lambda: gen.exponential(1.0 / p[0], n),
            "gamma": lambda: gen.gamma(p[0], 1.0 / p[1], n),
            "normal": lambda: gen.normal(p[0], p[1], n),
            "uniform": lambda: gen.uniform(p[0], p[1], n),
            "deterministic": lambda: np.full(n, p[0]),
            "quantile_table": lambda: law.ppf(gen.random(n)),
            }[law.kind]()


@pytest.mark.parametrize("law", LAWS + [IncrementLaw.gamma(0.4, 3.0)],
                         ids=lambda l: f"{l.kind}{l.params[0]}")
def test_sample_into_buffer_is_numpys_draws(law):
    # the same bits fresh or written into a row of a larger buffer, and
    # the generator ends at the same state either way
    stream = RngStream(316, 4, 2)
    gen = stream.generator()
    ref, ref_next = _numpy_draws(law, gen, 999), gen.random()
    gen = stream.generator()
    fresh, fresh_next = law.sample(gen, 999), gen.random()
    buf = np.full((3, 1001), np.nan)
    gen = stream.generator()
    law.sample(gen, 999, out=buf[1, 2:])
    assert np.array_equal(fresh.view(np.int64), ref.view(np.int64))
    assert np.array_equal(buf[1, 2:].view(np.int64), ref.view(np.int64))
    assert fresh_next == ref_next == gen.random()
    assert np.isnan(buf[1, :2]).all() and np.isnan(buf[[0, 2]]).all()


@pytest.mark.parametrize("law", LAWS, ids=lambda l: l.kind)
def test_ppf_monotone_and_supported(law):
    q = np.linspace(0.01, 0.99, 25)
    v = law.ppf(q)
    assert np.all(np.diff(v) >= 0)
    assert v.min() >= law.support_min - 1e-12


@pytest.mark.parametrize("law", LAWS[:4], ids=lambda l: l.kind)
def test_ppf_equals_scipy_stats(law):
    # the 4096 midpoints StationarySpec.centered integrates over, and
    # uniform draws
    q = np.concatenate([(np.arange(4096) + 0.5) / 4096,
                        RngStream(315).generator().random(100_000)])
    p = law.params
    ref = {"exponential": lambda: stats.expon.ppf(q, scale=1.0 / p[0]),
           "gamma": lambda: stats.gamma.ppf(q, p[0], scale=1.0 / p[1]),
           "normal": lambda: stats.norm.ppf(q, loc=p[0], scale=p[1]),
           "uniform": lambda: stats.uniform.ppf(q, loc=p[0],
                                                scale=p[1] - p[0]),
           }[law.kind]()
    assert np.array_equal(law.ppf(q), ref)


def test_cli_import_leaves_out_scipy_stats():
    src = os.path.dirname(os.path.dirname(renewalsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, renewalsim.cli; "
         "print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_exponential_quantities():
    law = IncrementLaw.exponential(2.0)
    assert law.mean == 0.5
    assert law.variance == 0.25
    assert law.central_moment4 == pytest.approx(9.0 / 16.0)
    assert law.ppf(0.5) == pytest.approx(math.log(2.0) / 2.0)
    assert law.support_min == 0.0


def test_uniform_central_moment4():
    law = IncrementLaw.uniform(0.0, 2.0)
    # E(X-1)^4 over U(0,2) = integral u^4/2 over [-1,1] = 1/5
    assert law.central_moment4 == pytest.approx(0.2)


def test_deterministic_law():
    law = IncrementLaw.deterministic(0.8)
    assert law.variance == 0.0
    assert np.all(law.sample(RngStream(1).generator(), 10) == 0.8)


def test_quantile_table_properties():
    law = IncrementLaw.quantile_table([3.0, 1.0, 2.0])
    assert law.params == (1.0, 2.0, 3.0)
    assert law.mean == pytest.approx(2.0)
    assert law.ppf(0.0) == 1.0 and law.ppf(1.0) == 3.0
    x = law.sample(RngStream(5).generator(), 1000)
    assert x.min() >= 1.0 and x.max() <= 3.0
    with pytest.raises(ConfigurationError):
        IncrementLaw.quantile_table([1.0])


@pytest.mark.parametrize("build", [
    lambda: IncrementLaw.exponential(-1.0),
    lambda: IncrementLaw.gamma(0.0, 1.0),
    lambda: IncrementLaw.normal(1.0, -0.5),
    lambda: IncrementLaw.normal(-1.0, 1.0),   # mean must be positive
    lambda: IncrementLaw.uniform(2.0, 1.0),
    lambda: IncrementLaw.uniform(-3.0, -1.0),
    lambda: IncrementLaw.deterministic(math.inf),
    lambda: IncrementLaw("weibull", (1.0,)),
])
def test_law_validation_rejects(build):
    with pytest.raises(ConfigurationError):
        build()


def test_sample_rejects_negative_n():
    with pytest.raises(ConfigurationError):
        IncrementLaw.exponential(1.0).sample(RngStream(1).generator(), -1)


def test_covariance_estimate_validation():
    c = CovarianceEstimate(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert c.d == 2
    assert np.linalg.eigvalsh(c.matrix)[0] == pytest.approx(
        1.5 - math.sqrt(0.5), rel=1e-9)
    with pytest.raises(ConfigurationError):
        CovarianceEstimate(np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        CovarianceEstimate(np.array([[1.0, 0.2], [0.4, 1.0]]))


def test_centered_x_bind_and_materialize():
    law = IncrementLaw.exponential(2.0)
    vl = VectorLaw.centered_x((1.0, -2.0)).bind(law)
    assert vl.center == law.mean and vl.w_variance == law.variance
    w = np.array([0.1, 0.5, 2.0])
    y = vl.materialize(w, RngStream(1).generator())
    assert y.shape == (3, 2)
    assert np.allclose(y, np.outer(w - 0.5, [1.0, -2.0]))
    cov = vl.cov()
    assert np.allclose(cov.matrix,
                       0.25 * np.outer([1.0, -2.0], [1.0, -2.0]))


def test_centered_x_unbound_raises():
    vl = VectorLaw.centered_x()
    with pytest.raises(ConfigurationError):
        vl.materialize(np.ones(4), RngStream(1).generator())
    with pytest.raises(ConfigurationError):
        vl.cov()


def test_vector_law_rejects_unknown_kind():
    # a misspelt kind used to build, and covariance() then failed with an
    # unrelated symmetry error
    with pytest.raises(ConfigurationError) as err:
        VectorLaw("centred_x", coeffs=(1.0,))
    assert err.value.field == "vector.kind"


def test_gaussian_vector_law_covariance():
    target = np.array([[1.0, 0.3], [0.3, 0.5]])
    vl = VectorLaw.gaussian(target)
    y = vl.materialize(np.zeros(60_000), RngStream(21).generator())
    assert np.allclose(np.cov(y.T), target, atol=0.03)
    assert np.array_equal(vl.cov().matrix, target)

