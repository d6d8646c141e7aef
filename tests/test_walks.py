import math

import numpy as np
import pytest
from scipy import stats

from oracles import plain_overshoot, renewal_window_count, sample_walk
from renewalsim import IncrementLaw, RngStream, VectorLaw
from renewalsim.errors import ConfigurationError


def test_deterministic_partial_sums():
    law = IncrementLaw.deterministic(2.0)
    path = sample_walk(law, None, 3, RngStream(1))
    assert np.array_equal(path.partial_sums, [2.0, 4.0, 6.0])
    path.validate()


def test_sample_walk_with_vector_part():
    law = IncrementLaw.exponential(1.0)
    path = sample_walk(law, VectorLaw.centered_x(), 50, RngStream(8))
    assert path.vector_increments.shape == (50, 1)
    assert np.allclose(path.vector_increments[:, 0], path.increments - 1.0)
    path.validate()
    assert len(path) == 50
    with pytest.raises(ConfigurationError):
        sample_walk(law, None, -1, RngStream(8))


def test_sample_walk_deterministic_in_stream():
    law = IncrementLaw.gamma(2.0, 1.0)
    a = sample_walk(law, None, 20, RngStream(3, 7))
    b = sample_walk(law, None, 20, RngStream(3, 7))
    assert np.array_equal(a.partial_sums, b.partial_sums)


def test_walk_clt():
    law = IncrementLaw.uniform(0.5, 1.5)
    n, reps = 2000, 400
    ends = np.array([
        sample_walk(law, None, n, RngStream(42, r)).partial_sums[-1]
        for r in range(reps)
    ])
    z = (ends - n * law.mean) / math.sqrt(n * law.variance)
    d = stats.kstest(z, "norm").statistic
    assert d < 1.628 / math.sqrt(reps)  # 1% KS level


def test_window_count_poisson_oracle():
    # exponential increments: expected visits to (a, a+b] is exactly b/mu
    law = IncrementLaw.exponential(1.0)
    est = renewal_window_count(law, a=40.0, b=2.0, horizon=300, reps=3000,
                               stream=RngStream(17))
    assert not est.horizon_warning
    assert abs(est.mean - 2.0) <= 3.0 * est.se
    assert est.reps == 3000


def test_window_count_warns_on_short_horizon():
    law = IncrementLaw.exponential(1.0)
    with pytest.warns(RuntimeWarning):
        est = renewal_window_count(law, a=40.0, b=2.0, horizon=50, reps=10,
                                   stream=RngStream(17))
    assert est.horizon_warning
    with pytest.raises(ConfigurationError):
        renewal_window_count(law, a=-1.0, b=2.0, horizon=50, reps=10,
                             stream=RngStream(17))


def test_overshoot_deterministic_oracle():
    law = IncrementLaw.deterministic(1.0)
    out = plain_overshoot(law, a=2.5, reps=5, stream=RngStream(1))
    assert np.all(out.values == 0.5)
    assert out.non_crossed == 0


def test_overshoot_exponential_memoryless():
    # overshoot of an exponential walk is Exp(rate) at every level
    law = IncrementLaw.exponential(2.0)
    out = plain_overshoot(law, a=30.0, reps=4000, stream=RngStream(23))
    assert abs(out.mean - 0.5) <= 3.0 * out.se
    d = stats.kstest(out.values, "expon", args=(0, 0.5)).statistic
    assert d < 1.628 / math.sqrt(len(out.values))


def test_overshoot_uniform_asymptotic_mean():
    # stationary overshoot mean E X^2 / (2 E X) = (4/3)/2 = 2/3
    law = IncrementLaw.uniform(0.0, 2.0)
    out = plain_overshoot(law, a=200.0, reps=4000, stream=RngStream(29))
    assert abs(out.mean - 2.0 / 3.0) <= 3.0 * out.se
