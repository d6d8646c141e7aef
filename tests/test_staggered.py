import math
import pickle

import numpy as np
import pytest

from oracles import validate_trial_state
from renewalsim import (
    GStatistic, RngStream, StaggeredExponentialModel, TrialState,
    calibrate_lrt_boundary, decompose, example1_run, example2_run,
    simulate_trial, staggered_constants, statistic_Z, statistic_trajectory,
    trial_first_passage, xi_staggered_residual,
)
from renewalsim.errors import (
    ConfigurationError, ContractViolationError, StatisticUndefinedError,
)
from renewalsim.staggered import (
    _TRIAL_BLOCK, _passage_layout, _quantile, _segments, _trajectory,
    collect_trials, example1_collect, staggered_backward_batch,
)


@pytest.fixture
def hand_state():
    # two patients at tau = 0, 1; analysis at tau_2 = 2
    return TrialState.from_data([0.0, 1.0, 2.0], [0.5, 3.0])


def test_hand_state_quantities(hand_state):
    assert hand_state.K_n == 1
    assert hand_state.T_star == pytest.approx(1.5)
    assert np.array_equal(hand_state.observed_times, [2.0, 1.0])
    assert xi_staggered_residual(hand_state) == pytest.approx(2.0)
    validate_trial_state(hand_state)


def test_hand_state_statistics(hand_state):
    assert statistic_Z(hand_state, GStatistic.fixed_width_ci()) \
        == pytest.approx(4.5)
    assert statistic_Z(hand_state, GStatistic.repeated_lrt()) \
        == pytest.approx(2.0 * (0.5 * math.log(2.0 / 3.0) + 0.25), rel=1e-12)


def test_state_validation():
    with pytest.raises(ConfigurationError):
        TrialState.from_data([0.0, 1.0], [])
    with pytest.raises(ConfigurationError):
        TrialState.from_data([0.0, 2.0, 1.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        TrialState.from_data([0.0, 1.0, 2.0], [1.0, -0.5])
    bad = TrialState(n=2, tau=np.array([0.0, 1.0, 2.0]),
                     L=np.array([0.5, 3.0]), K_n=2, T_star=1.5)
    with pytest.raises(ContractViolationError):
        validate_trial_state(bad)


def test_t_star_identity_is_exact():
    model = StaggeredExponentialModel(arrival_rate=1.3, theta=0.8,
                                      g=GStatistic.fixed_width_ci())
    for r in range(300):
        state = simulate_trial(model, 1 + (r % 80), RngStream(710, r))
        assert state.T_star == float(np.sum(state.L)) \
            - xi_staggered_residual(state)


def test_g_derivative_values():
    fw = GStatistic.fixed_width_ci().values_at(2.0)
    assert (fw.value, fw.g10, fw.g01) == pytest.approx((0.25, -0.5, 1.0))
    assert (fw.g20, fw.g11, fw.g02) == pytest.approx((1.5, -2.0, 2.0))
    lr = GStatistic.repeated_lrt().values_at(1.0)
    assert (lr.value, lr.g10, lr.g01) == pytest.approx((0.0, 0.0, 0.0))
    assert (lr.g20, lr.g11, lr.g02) == pytest.approx((1.0, -1.0, 1.0))
    with pytest.raises(ConfigurationError):
        GStatistic.fixed_width_ci().values_at(0.0)
    with pytest.raises(ConfigurationError):
        GStatistic("splines", *([lambda x, y: x] * 6))


@pytest.mark.parametrize("g", [GStatistic.fixed_width_ci(),
                               GStatistic.repeated_lrt()],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("theta", [0.7, 1.0, 2.3])
def test_derivatives_match_finite_differences(g, theta):
    x0, y0 = 1.0, 1.0 / theta
    e = 1e-5
    vals = g.values_at(theta)
    fd10 = (g.g(x0 + e, y0) - g.g(x0 - e, y0)) / (2 * e)
    fd01 = (g.g(x0, y0 + e) - g.g(x0, y0 - e)) / (2 * e)
    fd20 = (g.g(x0 + e, y0) - 2 * g.g(x0, y0) + g.g(x0 - e, y0)) / e ** 2
    fd02 = (g.g(x0, y0 + e) - 2 * g.g(x0, y0) + g.g(x0, y0 - e)) / e ** 2
    fd11 = (g.g(x0 + e, y0 + e) - g.g(x0 + e, y0 - e)
            - g.g(x0 - e, y0 + e) + g.g(x0 - e, y0 - e)) / (4 * e ** 2)
    assert vals.g10 == pytest.approx(fd10, rel=1e-4, abs=1e-6)
    assert vals.g01 == pytest.approx(fd01, rel=1e-4, abs=1e-6)
    assert vals.g20 == pytest.approx(fd20, rel=1e-4, abs=1e-3)
    assert vals.g11 == pytest.approx(fd11, rel=1e-4, abs=1e-3)
    assert vals.g02 == pytest.approx(fd02, rel=1e-4, abs=1e-3)


def test_builtin_statistics_pickle_by_kind():
    for g in (GStatistic.fixed_width_ci(), GStatistic.repeated_lrt()):
        again = pickle.loads(pickle.dumps(g))
        assert again.kind == g.kind
        assert again.values_at(2.0) == g.values_at(2.0)


def test_statistic_undefined_before_first_death():
    state = TrialState.from_data([0.0, 0.5, 1.0], [5.0, 5.0])
    assert state.K_n == 0
    with pytest.raises(StatisticUndefinedError):
        statistic_Z(state, GStatistic.fixed_width_ci())


def test_trajectory_matches_per_state_recompute(fwci_model):
    for n, seed, prefixes in ((60, 31, (1, 7, 23, 60)),
                              (1537, 46, (1, 2, 3, 50, 384, 385, 1000,
                                          1536, 1537))):
        state = simulate_trial(fwci_model, n, RngStream(seed))
        z = statistic_trajectory(state, fwci_model.g)
        for j in prefixes:
            sub = TrialState.from_data(state.tau[: j + 1], state.L[:j])
            if sub.K_n == 0:
                assert z[j - 1] == -math.inf
            else:
                assert z[j - 1] == pytest.approx(
                    statistic_Z(sub, fwci_model.g), rel=1e-10)


def test_trajectory_counts_ties_like_per_state():
    # patients 2 and 4 arrive at tau_1 = 1 and tau_3 = 2 with zero
    # lifetimes: each is dead at its own arrival, but not counted at an
    # earlier analysis time with the same clock value
    state = TrialState.from_data([0.0, 1.0, 1.0, 2.0, 3.0],
                                 [1.0, 0.0, 0.5, 0.0])
    K, T, _ = _trajectory(state.tau, state.L, GStatistic.fixed_width_ci())
    assert list(K) == [1, 2, 3, 4]
    for j in range(1, state.n + 1):
        ref = TrialState.from_data(state.tau[: j + 1], state.L[:j])
        assert K[j - 1] == ref.K_n
        assert abs(T[j - 1] - ref.T_star) <= 1e-12


def test_trajectory_minus_inf_before_first_death():
    tau = np.arange(0.0, 6.0)
    L = np.full(5, 50.0)
    state = TrialState.from_data(tau, L)
    z = statistic_trajectory(state, GStatistic.repeated_lrt())
    assert np.all(z == -math.inf)


@pytest.mark.parametrize("g", [GStatistic.fixed_width_ci(),
                               GStatistic.repeated_lrt()],
                         ids=lambda g: g.kind)
def test_decomposition_identity(g):
    model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0, g=g)
    for r in range(200):
        n = 2 + (r % 120)
        state = simulate_trial(model, n, RngStream(808, r))
        if state.K_n == 0:
            continue
        parts = decompose(state, g, theta=1.0)
        z = statistic_Z(state, g)
        assert abs(parts.total - z) <= 1e-9 * max(1.0, abs(z))


def test_decomposition_xi_matches_stationary_functional(fwci_model):
    from oracles import xi_value
    from renewalsim import StationarySpec

    g = fwci_model.g
    vals = g.values_at(1.0)
    state = simulate_trial(fwci_model, 40, RngStream(32))
    parts = decompose(state, g, theta=1.0, xi_truncation=40)
    spec = StationarySpec.staggered_residual(vals.g10, vals.g01, 40)
    gaps = np.diff(state.tau[: state.n + 1])
    rows = np.column_stack([state.L, gaps])
    assert parts.xi_n == pytest.approx(xi_value(spec, 40, rows), rel=1e-10)
    assert parts.zeta2_n == 0.0


def test_decomposition_truncation_complement(fwci_model):
    g = fwci_model.g
    state = simulate_trial(fwci_model, 80, RngStream(33))
    full = decompose(state, g, theta=1.0, xi_truncation=200)
    cut = decompose(state, g, theta=1.0, xi_truncation=10)
    assert cut.xi_n + cut.zeta2_n == pytest.approx(
        full.xi_n + full.zeta2_n, rel=1e-12)
    assert cut.total == pytest.approx(full.total, rel=1e-12)


def test_remainder_is_cubic_on_the_nice_event(fwci_model):
    # fit the cubic constant at small n, check it at larger n
    g = fwci_model.g

    def ratios(n, seed):
        out = []
        for r in range(300):
            state = simulate_trial(fwci_model, n, RngStream(seed, r))
            u = state.K_n / n - 1.0
            v = state.T_star / n - 1.0
            if state.K_n < n / 2 or abs(v) > 0.5:
                continue
            parts = decompose(state, g, theta=1.0)
            out.append(abs(parts.zeta3_n)
                       / (n * (abs(u) ** 3 + abs(v) ** 3) + 1e-300))
        return np.array(out)

    c_fit = np.max(ratios(40, 900))
    later = ratios(160, 901)
    assert np.all(later <= 2.0 * c_fit)


def test_stopping_index_scale_invariance(fwci_model):
    # rescaling time by c and the width by 1/c leaves the crossing index
    # unchanged for the interval statistic
    c = 2.5
    state = simulate_trial(fwci_model, 120, RngStream(34))
    scaled = TrialState.from_data(state.tau * c, state.L * c)
    a = 30.0
    z = statistic_trajectory(state, fwci_model.g)
    z_scaled = statistic_trajectory(scaled, fwci_model.g)
    hit = np.nonzero(z > a)[0]
    hit_scaled = np.nonzero(z_scaled > a * c * c)[0]
    assert hit.size and hit_scaled.size
    assert hit[0] == hit_scaled[0]


def test_death_fraction_grows_with_n(fwci_model):
    means = []
    for n in (20, 80, 320):
        vals = [simulate_trial(fwci_model, n, RngStream(35, r)).K_n / n
                for r in range(200)]
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2] < 1.0


def test_trial_first_passage_contracts(fwci_model, lrt_model):
    # horizon below the adaptive first block forces a single batch, so the
    # same stream replayed through simulate_trial yields identical data
    p = trial_first_passage(fwci_model, 25.0, RngStream(36), horizon=60)
    assert p.crossed and p.Z_t > 25.0
    state = simulate_trial(fwci_model, 60, RngStream(36))
    traj = statistic_trajectory(state, fwci_model.g)
    hits = np.nonzero(traj > 25.0)[0]
    assert hits[0] + 1 == p.t
    assert traj[hits[0]] == pytest.approx(p.Z_t, rel=1e-12)
    assert np.all(traj[: hits[0]] <= 25.0)
    assert p.Z_t == pytest.approx(
        p.t * fwci_model.g.g(p.K_t / p.t, p.T_star_t / p.t), rel=1e-12)
    # null-drift statistic requires an explicit horizon
    null_model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                           g=GStatistic.repeated_lrt())
    with pytest.raises(ConfigurationError):
        trial_first_passage(null_model, 4.0, RngStream(36))
    p2 = trial_first_passage(null_model, 1e6, RngStream(36), horizon=40)
    assert not p2.crossed and math.isnan(p2.theta_hat)
    assert p2.n_simulated == 40


def test_trial_passage_respects_n0():
    model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                      g=GStatistic.fixed_width_ci(), n0=9)
    p = trial_first_passage(model, 0.1, RngStream(37))
    assert p.t >= 9


def test_staggered_constants_values(fwci_model):
    consts = staggered_constants(fwci_model, 1500, RngStream(38))
    assert consts.mu == pytest.approx(1.0)
    assert consts.sigma2 == pytest.approx(4.0)
    assert consts.lam == pytest.approx(1.0)
    assert consts.consistent
    assert math.isfinite(consts.rho) and math.isfinite(consts.nu)
    assert consts.rho > 0


def test_constants_need_positive_drift():
    null_model = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                           g=GStatistic.repeated_lrt())
    with pytest.raises(ConfigurationError):
        staggered_constants(null_model, 100, RngStream(39))


def test_backward_batch_chunk_equivalence(fwci_model):
    whole = staggered_backward_batch(fwci_model, 30, RngStream(40))
    part = staggered_backward_batch(fwci_model, 12, RngStream(40),
                                    rep_offset=18)
    assert np.array_equal(whole.inf_value[18:], part.inf_value)
    assert np.array_equal(whole.xi0[18:], part.xi0)


def test_backward_batch_warns_below_recommended_depth(fwci_model):
    with pytest.warns(RuntimeWarning, match="below recommended"):
        batch = staggered_backward_batch(fwci_model, 20, RngStream(40),
                                         depth=5)
    assert batch.depth_cap == 5


def test_example1_smoke(fwci_model):
    result = example1_run(fwci_model, h=0.35, c=1.96, reps=400,
                          stream=RngStream(41), backward_reps=2000)
    assert result.a == pytest.approx(1.96 ** 2 / 0.35 ** 2)
    assert result.nominal_coverage == pytest.approx(0.9500042097035591)
    assert 0.8 <= result.coverage <= 1.0
    assert result.non_crossing_fraction == 0.0
    assert result.mean_t > result.a / 2
    with pytest.raises(ConfigurationError):
        example1_run(fwci_model, h=0.0, c=1.96, reps=10, stream=RngStream(1))


def test_example1_rejects_wrong_statistic(lrt_model):
    with pytest.raises(ConfigurationError):
        example1_run(lrt_model, h=0.2, c=1.96, reps=10, stream=RngStream(1))


def test_example1_chunked_collection_matches(fwci_model):
    a = 1.96 ** 2 / 0.35 ** 2
    whole = example1_collect(fwci_model, a, 0.35, 30, RngStream(42))
    parts = np.concatenate([
        example1_collect(fwci_model, a, 0.35, 11, RngStream(42)),
        example1_collect(fwci_model, a, 0.35, 19, RngStream(42),
                         rep_offset=11),
    ])
    assert np.array_equal(whole, parts, equal_nan=True)


def test_example2_smoke(lrt_model):
    result = example2_run(lrt_model, a=3.0, reps=300, horizon=250,
                          stream=RngStream(43))
    assert 0.0 <= result.rejection_rate <= 1.0
    assert result.theta == 2.0
    # theta = 2 is a strong alternative: rejection should dominate
    assert result.rejection_rate > 0.8
    assert result.mean_t_rejected > 0
    with pytest.raises(ConfigurationError):
        example2_run(lrt_model, a=-1.0, reps=10, horizon=50,
                     stream=RngStream(1))


def test_example2_rejects_wrong_statistic(fwci_model):
    with pytest.raises(ConfigurationError):
        example2_run(fwci_model, a=3.0, reps=10, horizon=50,
                     stream=RngStream(1))


def test_quantile_is_numpy_quantile():
    # numpy's linear method, including its lerp from the upper neighbour
    # at a fractional index of 1/2 or more, on random and edge levels
    gen = RngStream(46).generator()
    levels = np.concatenate([gen.random(40), [0.0, 0.5, 0.95, 1.0 - 1e-12,
                                              1.0]])
    for n in (1, 2, 3, 4, 999, 1000):
        x = gen.standard_normal(n) * gen.lognormal(0.0, 3.0, n)
        for q in levels:
            assert _quantile(x, q) == np.quantile(x, q)


def test_lrt_calibration_quantile():
    # the boundary is a quantile of the running maxima over the horizon,
    # drawn in one segment on sub-stream stream_id + 5
    null = StaggeredExponentialModel(arrival_rate=1.0, theta=1.0,
                                     g=GStatistic.repeated_lrt())
    maxima = collect_trials(null, math.inf, 120, 120,
                            RngStream(45, stream_id=5), 400)[:, 5]
    for r in (0, 199):
        z = statistic_trajectory(
            simulate_trial(null, 120, RngStream(45, r, 5)), null.g)
        assert maxima[r] == np.max(z)
    a = calibrate_lrt_boundary(1.0, 120, 400, RngStream(45), level=0.05)
    assert a == pytest.approx(float(np.quantile(maxima, 0.95)))
    assert a > 0
    with pytest.raises(ConfigurationError):
        calibrate_lrt_boundary(1.0, 120, 10, RngStream(45), level=1.5)


# (model, a, first, horizon): fixed-width passages with a short first
# segment, rejection-test passages that may never cross, and the
# calibration's running maxima (a = inf, one segment)
_COLLECTOR_CASES = {
    "fwci": (StaggeredExponentialModel(1.0, 1.0, GStatistic.fixed_width_ci(),
                                       n0=3), 60.0, 8, 500),
    "rst": (StaggeredExponentialModel(1.0, 2.0, GStatistic.repeated_lrt()),
            6.0, 20, 60),
    "calibration": (StaggeredExponentialModel(
        1.3, 1.0, GStatistic.repeated_lrt(), n0=2), math.inf, 300, 300),
}


@pytest.mark.parametrize("case", _COLLECTOR_CASES)
def test_collector_rows_match_one_evaluation_to_the_horizon(case):
    # the rows found on first, 2 first, ... patients equal those of one
    # trajectory of the same segmented draw taken to the horizon
    model, a, first, horizon = _COLLECTOR_CASES[case]
    rows = collect_trials(model, a, first, horizon, RngStream(47), 60)
    lo = model.n0 - 1
    for r, row in enumerate(rows):
        drawn = _segments(RngStream(47, r).generator(), horizon, first,
                          _TRIAL_BLOCK, (1.0 / model.arrival_rate,
                                         1.0 / model.theta), horizon)
        K, T, z = _trajectory(np.concatenate([[0.0], np.cumsum(drawn[:, 0])]),
                              drawn[:, 1], model.g)
        hits = np.flatnonzero(z[lo:] > a)
        if hits.size:
            i = lo + hits[0]
            want = [i + 1, z[i], K[i], T[i], 1.0, np.max(z[lo:i + 1])]
        else:
            want = [math.nan] * 4 + [0.0, np.max(z[lo:])]
        assert np.array_equal(row[:6], want, equal_nan=True)
        # the evaluation that found the row: first, 2 first, ... patients
        n = first
        while n < horizon and not (hits.size and n > lo + hits[0]):
            n = min(2 * n, horizon)
        assert row[6] == n
    if case != "calibration":
        assert np.any(rows[:, 6] > first)  # rows passed their first segment
    if case == "rst":
        assert not rows[:, 4].all()  # and some never crossed


@pytest.mark.parametrize("case", _COLLECTOR_CASES)
def test_collector_chunked_collection_matches(case):
    model, a, first, horizon = _COLLECTOR_CASES[case]
    whole = collect_trials(model, a, first, horizon, RngStream(48), 30)
    parts = np.concatenate([
        collect_trials(model, a, first, horizon, RngStream(48), 11),
        collect_trials(model, a, first, horizon, RngStream(48), 19,
                       rep_offset=11),
    ])
    assert np.array_equal(whole, parts, equal_nan=True)


def test_passage_layout():
    fwci = StaggeredExponentialModel(1.0, 1.0, GStatistic.fixed_width_ci())
    assert _passage_layout(fwci, 100.0) == (164, 2000)
    assert _passage_layout(fwci, 100.0, horizon=120) == (120, 120)
    null = StaggeredExponentialModel(1.0, 1.0, GStatistic.repeated_lrt(),
                                     n0=5)
    assert _passage_layout(null, 3.0, horizon=700) == (_TRIAL_BLOCK, 700)
    with pytest.raises(ConfigurationError):
        _passage_layout(null, 3.0)
    with pytest.raises(ConfigurationError):
        _passage_layout(null, 3.0, horizon=4)


def test_segments_fix_each_row_by_the_layout():
    # rows do not depend on how many are asked for; the last segment is
    # cut at ``end``
    scales = (1.0, 0.5)
    full = _segments(RngStream(49).generator(), 50, 20, 8, scales, 50)
    for n in (1, 20, 21, 37, 50):
        assert np.array_equal(
            _segments(RngStream(49).generator(), n, 20, 8, scales, 50),
            full[:n])
    gen = RngStream(49).generator()
    head = [gen.exponential(s, 20) for s in scales]
    assert np.array_equal(full[:20], np.column_stack(head))
    tail = gen.exponential(1.0, 8)
    assert np.array_equal(full[20:28, 0], tail)
    cut = _segments(RngStream(49).generator(), 46, 20, 8, scales, 46)
    assert np.array_equal(cut[:44], full[:44])
    assert not np.array_equal(cut[44:46], full[44:46])


def test_model_validation():
    g = GStatistic.fixed_width_ci()
    with pytest.raises(ConfigurationError):
        StaggeredExponentialModel(arrival_rate=0.0, theta=1.0, g=g)
    with pytest.raises(ConfigurationError):
        StaggeredExponentialModel(arrival_rate=1.0, theta=-1.0, g=g)
    with pytest.raises(ConfigurationError):
        StaggeredExponentialModel(arrival_rate=1.0, theta=1.0, g=g, n0=0)
    with pytest.raises(ConfigurationError):
        StaggeredExponentialModel(arrival_rate=1.0, theta=1.0, g=g,
                                  xi_truncation=0)
    model = StaggeredExponentialModel(arrival_rate=2.0, theta=1.0, g=g)
    assert model.drift == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        simulate_trial(model, 0, RngStream(1))
