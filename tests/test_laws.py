import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
import renewalsim
from renewalsim import IncrementLaw, RngStream, VectorLaw
from renewalsim.errors import ConfigurationError
from renewalsim.laws import CovarianceEstimate
from renewalsim.perturbation import _NAMED_MAPS

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
            "quantile_table": lambda: np.interp(
                gen.random(n), np.linspace(0.0, 1.0, len(p)), p),
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


def test_quantile_table_scale_monotone_and_supported():
    law = LAWS[-1]
    v = law.scale(np.linspace(0.0, 1.0, 25))
    assert np.all(np.diff(v) >= 0)
    assert v[0] == law.support_min == 0.5 and v[-1] == 3.0


# every family, with a gamma shape below 1, a normal mean below its sd, a
# uniform law across 0 and a table with negative knots and a flat segment
MAP_LAWS = LAWS + [
    IncrementLaw.gamma(0.4, 3.0),
    IncrementLaw.normal(0.3, 0.9),
    IncrementLaw.uniform(-0.7, 2.0),
    IncrementLaw.quantile_table([-1.0, -0.25, 0.5, 0.5, 2.0, 3.5]),
]


@pytest.mark.parametrize("h", sorted(_NAMED_MAPS))
@pytest.mark.parametrize("law", MAP_LAWS,
                         ids=lambda l: f"{l.kind}{l.params[:2]}")
def test_map_mean_equals_quadrature(law, h):
    assert abs(law.map_mean(h) - oracles.map_mean(law, h)) <= 1e-10


@pytest.mark.parametrize("h", ["cube", np.abs, None])
def test_map_mean_rejects_other_maps(h):
    with pytest.raises(ConfigurationError):
        LAWS[0].map_mean(h)


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
    assert np.array_equal(law.scale(np.array([0.0, 0.5, 1.0])),
                          [1.0, 2.0, 3.0])
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
    for not_numbers in ("abc", [[1.0, None]], [[1.0, 2.0], [3.0]]):
        with pytest.raises(ConfigurationError):
            CovarianceEstimate(not_numbers)


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


def test_gaussian_vector_law_rejects_an_indefinite_covariance():
    # it used to build, and the first draw failed in the Cholesky factor
    with pytest.raises(ConfigurationError) as err:
        VectorLaw.gaussian([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    assert err.value.field == "vector.cov"
    # a PSD matrix whose least eigenvalue rounds below zero still builds
    VectorLaw.gaussian([[1.0, 1.0], [1.0, 1.0]])
