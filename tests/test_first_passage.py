import math
import warnings

import numpy as np
import pytest
from scipy import stats

from renewalsim import (
    BackwardBatch, IncrementLaw, PerturbedWalkModel, QuadraticSpec,
    RngStream, StationarySpec, VectorLaw, backward_min_functional,
    collect_passage, constants_from_batch, estimate_rho_nu,
    excess_cdf_from_backward, recommended_backward_depth,
    residual_dip_probability, summarize_passage,
)
from renewalsim.errors import ConfigurationError
from renewalsim.parallel import join_chunks
from renewalsim.perturbation import ResidualSpec
from renewalsim.staggered import staggered_backward_batch


def make_batch(inf_value, xi0, truncated=None):
    inf_value = np.asarray(inf_value, dtype=float)
    if truncated is None:
        truncated = np.zeros(len(inf_value), dtype=bool)
    return BackwardBatch(inf_value, np.asarray(xi0, dtype=float),
                         inf_value.copy(),
                         np.ones(len(inf_value), dtype=np.int64),
                         np.asarray(truncated), 10)


def test_model_validation():
    law = IncrementLaw.exponential(1.0)
    with pytest.raises(ConfigurationError):
        PerturbedWalkModel(increment_law=law, n0=0)
    with pytest.raises(ConfigurationError):
        PerturbedWalkModel(increment_law=law, horizon_factor=0.0)
    with pytest.raises(ConfigurationError):
        PerturbedWalkModel(increment_law=law,
                           quadratic=QuadraticSpec(np.array([[0.5]])))
    with pytest.raises(ConfigurationError):
        PerturbedWalkModel(increment_law=law,
                           stationary=StationarySpec.staggered_residual(
                               1.0, 1.0, 5))
    with pytest.raises(ConfigurationError):
        PerturbedWalkModel(increment_law=law,
                           vector_law=VectorLaw.centered_x((1.0, 0.5)),
                           quadratic=QuadraticSpec(np.array([[0.5]])))


def test_model_binds_vector_law(tm1_model):
    assert tm1_model.vector_law.center == 1.0
    assert tm1_model.mu == 1.0 and tm1_model.sigma2 == 1.0
    assert tm1_model.mixture().weights == pytest.approx((0.5,))
    assert tm1_model.mixture_mean_value() == pytest.approx(0.5)
    assert tm1_model.horizon(100.0) == 2000


def test_simulate_passage_strict_crossing():
    law = IncrementLaw.deterministic(1.0)
    model = PerturbedWalkModel(increment_law=law)
    out = collect_passage(model, 3.0, 1, RngStream(1))
    assert out.crossed[0] and out.t[0] == 4 and out.R[0] == pytest.approx(1.0)
    late = PerturbedWalkModel(increment_law=law, n0=6)
    out = collect_passage(late, 3.0, 1, RngStream(1))
    assert out.t[0] == 6 and out.R[0] == pytest.approx(3.0)


def test_classical_passage_oracle(plain_exp_model):
    samples = collect_passage(plain_exp_model, 30.0, 4000, RngStream(77))
    assert samples.non_crossing_fraction == 0.0
    summary = summarize_passage(samples)
    assert abs(summary.mean_t - 31.0) <= 3.0 * summary.se_t
    assert abs(summary.mean_R - 1.0) <= 3.0 * summary.se_R
    d = stats.kstest(samples.R, "expon").statistic
    assert d < 1.628 / math.sqrt(len(samples.R))


def test_constant_residual_shifts_the_level():
    law = IncrementLaw.exponential(1.0)
    shifted = PerturbedWalkModel(increment_law=law,
                                 residual=ResidualSpec.constant(0.4))
    summary = summarize_passage(
        collect_passage(shifted, 30.0, 4000, RngStream(78)))
    # crossing a with Z = S + 0.4 is crossing a - 0.4 with S
    assert abs(summary.mean_t - 30.6) <= 3.0 * summary.se_t


def test_collect_passage_chunk_equivalence(tm1_model):
    whole = collect_passage(tm1_model, 12.0, 30, RngStream(5))
    parts = join_chunks([
        collect_passage(tm1_model, 12.0, 10, RngStream(5)),
        collect_passage(tm1_model, 12.0, 20, RngStream(5), rep_offset=10),
    ], 30)
    assert np.array_equal(whole.t, parts.t)
    assert np.array_equal(whole.R, parts.R, equal_nan=True)
    assert np.array_equal(whole.xi, parts.xi)
    assert np.array_equal(whole.zeta, parts.zeta)
    assert np.array_equal(whole.crossed, parts.crossed)


def test_summarize_collected_passage():
    model = PerturbedWalkModel(increment_law=IncrementLaw.exponential(1.0))
    summary = summarize_passage(collect_passage(model, 20.0, 400,
                                                RngStream(2)))
    assert summary.reps == 400
    assert summary.usable


def test_non_crossing_is_reported_not_dropped():
    # negative-drift-ish walk via tiny horizon: uniform(0.9, 1.1) to a=1e3
    law = IncrementLaw.uniform(0.9, 1.1)
    model = PerturbedWalkModel(increment_law=law, horizon_factor=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        samples = collect_passage(model, 1000.0, 20, RngStream(3))
    assert samples.non_crossing_fraction == 1.0
    assert np.all(np.isnan(samples.R[~samples.crossed]))
    with pytest.raises(ConfigurationError):
        summarize_passage(samples)


def test_backward_functional_zero_perturbation():
    # without xi the backward walk rises, so the infimum is the first step
    law = IncrementLaw.exponential(1.0)
    model = PerturbedWalkModel(increment_law=law)
    batch = backward_min_functional(model, None, 4000, RngStream(11))
    assert np.all(batch.xi0 == 0.0)
    assert np.all(batch.inf_value == batch.first_value)
    assert np.all(batch.attained_index == -1)
    se = batch.inf_value.std(ddof=1) / math.sqrt(len(batch.inf_value))
    assert abs(batch.inf_value.mean() - 1.0) <= 3.0 * se


def test_backward_deterministic_constants():
    law = IncrementLaw.deterministic(1.0)
    model = PerturbedWalkModel(increment_law=law)
    consts = estimate_rho_nu(model, None, 50, RngStream(1))
    assert consts.rho == pytest.approx(0.5)
    assert consts.nu == 0.0
    assert consts.consistent


def test_constants_from_batch_arithmetic():
    batch = make_batch([2.0, 0.0, 1.0, 3.0], [0.5, -0.5, 0.0, 1.0])
    consts = constants_from_batch(batch, mu=2.0, sigma2=1.0, lam=0.25)
    assert consts.rho == pytest.approx(0.875)
    assert consts.nu == pytest.approx(0.5)
    assert consts.lam == 0.25
    assert consts.reps == 4
    assert consts.consistent
    flagged = constants_from_batch(
        make_batch([2.0, 0.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0],
                   truncated=[False, True, False, False]),
        mu=2.0, sigma2=1.0, lam=0.25)
    assert "depth_truncated" in flagged.flags


def test_normalization_flag_fires_on_bad_mu():
    gen = RngStream(13).generator()
    batch = make_batch(gen.exponential(size=2000), np.zeros(2000))
    with pytest.warns(RuntimeWarning):
        consts = constants_from_batch(batch, mu=2.0, sigma2=1.0, lam=0.0)
    assert not consts.consistent


def test_excess_cdf_hand_values():
    batch = make_batch([2.0, 0.0, 1.0, 3.0], np.zeros(4))
    grid = np.array([0.0, 0.5, 1.0, 2.0, 100.0])
    out = excess_cdf_from_backward(batch, grid)
    assert np.allclose(out, [0.0, 0.25, 0.5, 5.0 / 6.0, 1.0])


def test_excess_cdf_reaches_one_whatever_the_batch_mass():
    # E(inf)_+ over this batch is 2.25, not the increment mean; the CDF
    # is normalised by the batch's own mass, so it ends at exactly 1
    batch = make_batch([0.5, 3.0, -1.0, 5.5], np.zeros(4))
    out = excess_cdf_from_backward(batch, np.array([5.5, 6.0, 1e3]))
    assert np.all(out == 1.0)


def test_excess_cdf_matches_exponential():
    law = IncrementLaw.exponential(1.0)
    model = PerturbedWalkModel(increment_law=law)
    batch = backward_min_functional(model, None, 20_000, RngStream(14))
    grid = np.linspace(0.0, 5.0, 26)
    out = excess_cdf_from_backward(batch, grid)
    assert np.max(np.abs(out - (1.0 - np.exp(-grid)))) < 0.02


def test_backward_chunk_equivalence(tm1_model):
    whole = backward_min_functional(tm1_model, None, 25, RngStream(15))
    parts = join_chunks([
        backward_min_functional(tm1_model, None, 10, RngStream(15)),
        backward_min_functional(tm1_model, None, 15, RngStream(15),
                                rep_offset=10),
    ], 25)
    assert np.array_equal(whole.inf_value, parts.inf_value)
    assert np.array_equal(whole.xi0, parts.xi0)
    assert np.array_equal(whole.attained_index, parts.attained_index)


def test_tm1_constants_sane(tm1_model):
    consts = estimate_rho_nu(tm1_model, None, 3000, RngStream(16))
    assert consts.consistent
    assert consts.mu == 1.0 and consts.sigma2 == 1.0
    assert consts.lam == pytest.approx(0.5)
    assert 0.5 < consts.rho < 3.5
    assert consts.nu > 0.0
    assert consts.se_rho < 0.2 and consts.se_nu < 0.2


def test_depth_budget_helpers():
    d1 = recommended_backward_depth(1.0, 1.0, 0.0)
    d2 = recommended_backward_depth(1.0, 1.0, 50.0)
    assert d2 > d1 >= 2
    p1 = residual_dip_probability(50, 1.0, 1.0, 9.0, 0.0)
    p2 = residual_dip_probability(200, 1.0, 1.0, 9.0, 0.0)
    assert 0.0 <= p2 < p1 < 1.0


def test_short_depth_warns(tm1_model, fwci_model):
    with pytest.warns(RuntimeWarning):
        batch = backward_min_functional(tm1_model, 3, 50, RngStream(17))
    assert batch.depth_cap == 3
    with pytest.raises(ConfigurationError):
        backward_min_functional(tm1_model, 0, 10, RngStream(17))
    with pytest.raises(ConfigurationError):
        staggered_backward_batch(fwci_model, 10, RngStream(17), depth=0)


def test_backward_depth_cap_is_hard(tm1_model):
    # the infimum is taken over j = -1..-5 only, and every replication
    # without an exit by j = -5 is flagged (the exit rule cannot fire
    # that early on this model, so all of them are)
    with pytest.warns(RuntimeWarning):
        batch = backward_min_functional(tm1_model, 5, 2000, RngStream(3))
    assert np.all((batch.attained_index >= -5) & (batch.attained_index <= -1))
    assert batch.truncated.all()
