import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import xi_value, zeta_quadratic, zeta_window
from renewalsim import (
    IncrementLaw, QuadraticSpec, RngStream, StationarySpec, VectorLaw,
    mixture_weights, zeta_quadratic_path, zeta_window_path,
)
from renewalsim.errors import ConfigurationError, ContractViolationError
from renewalsim.perturbation import _NAMED_MAPS, ResidualSpec


def geometric_spec(beta=0.5, depth=None):
    return StationarySpec.geometric_ma("identity", beta,
                                       truncation_depth=depth)


def test_depth_defaults():
    assert StationarySpec.zero().depth == 0
    assert StationarySpec.instantaneous().depth == 1
    assert geometric_spec(0.5).depth == 27  # beta^27 < 1e-8


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        StationarySpec.geometric_ma(beta=0.0)
    with pytest.raises(ConfigurationError):
        StationarySpec.geometric_ma(beta=1.0)
    with pytest.raises(ConfigurationError):
        StationarySpec("sinusoid")
    with pytest.raises(ConfigurationError):
        StationarySpec.geometric_ma(truncation_depth=0)
    spec = StationarySpec.instantaneous(h="such_map")
    with pytest.raises(ConfigurationError):
        spec.xi_path(np.ones(5), 4)


def test_centered_removes_the_mean():
    law = IncrementLaw.exponential(1.0)
    spec = geometric_spec(0.5).centered(law)
    geom = (1.0 - 0.5 ** 27) / 0.5
    assert spec.centering == pytest.approx(geom, rel=1e-3)
    n = 200_000
    w = law.sample(RngStream(61).generator(), n + spec.depth)
    xi = spec.xi_path(w, n)
    sd = spec.xi_sd_analytic(law)
    # xi is a moving average: correlation inflates the SE by (1+b)/(1-b)
    assert abs(xi.mean()) <= 4.0 * sd * math.sqrt(3.0 / n)


CENTERING_LAWS = [
    IncrementLaw.exponential(2.0),
    IncrementLaw.gamma(0.4, 3.0),
    IncrementLaw.normal(0.3, 0.9),
    IncrementLaw.uniform(-0.7, 2.0),
    IncrementLaw.deterministic(0.8),
    IncrementLaw.quantile_table([-1.0, -0.25, 0.5, 0.5, 2.0, 3.5]),
]


def _centered_exactly(law, h):
    # E xi = E h(W) * sum_{k<D} beta^k - centering, E h(W) by quadrature
    ref = oracles.map_mean(law, h)
    inst = StationarySpec.instantaneous(h).centered(law)
    geo = StationarySpec.geometric_ma(h, 0.5, truncation_depth=5) \
        .centered(law)
    assert abs(ref - inst.centering) <= 1e-10
    assert abs(ref * (1.0 - 0.5 ** 5) / 0.5 - geo.centering) <= 1e-10


@pytest.mark.parametrize("law", CENTERING_LAWS, ids=lambda l: l.kind)
@pytest.mark.parametrize("h", ["identity", "square"])
def test_centered_is_exact_for_identity_and_square(law, h):
    _centered_exactly(law, h)


@pytest.mark.parametrize("law", CENTERING_LAWS, ids=lambda l: l.kind)
@pytest.mark.parametrize("h", sorted(set(_NAMED_MAPS) - {"identity",
                                                         "square"}))
def test_centered_is_exact_for_the_other_named_maps(law, h):
    _centered_exactly(law, h)


def test_centered_rejects_a_callable_map():
    law = IncrementLaw.exponential(1.0)
    for spec in (StationarySpec.instantaneous(np.tanh),
                 StationarySpec.geometric_ma(np.tanh, 0.5)):
        with pytest.raises(ConfigurationError):
            spec.centered(law)


# one spec of each kind; the staggered kind drives (lifetime,
# interarrival) rows
XI_SPECS = {
    "zero": lambda depth: StationarySpec.zero(),
    "instantaneous": lambda depth: StationarySpec.instantaneous(
        "abs", centering=0.8),
    "geometric_ma": lambda depth: geometric_spec(0.6, depth).centered(
        IncrementLaw.exponential(1.0)),
    "staggered_residual": lambda depth: StationarySpec.staggered_residual(
        0.7, -1.3, depth),
}


def driving(spec, seed, steps):
    """``steps`` driving values: normal ones, so that ``abs`` bites, or
    exponential (lifetime, interarrival) rows for the staggered kind."""
    gen = RngStream(seed).generator()
    if spec.kind == "staggered_residual":
        return gen.exponential(size=(steps, 2))
    return gen.standard_normal(steps)


def test_xi_path_matches_pointwise_oracle():
    n = 40
    for kind, make in XI_SPECS.items():
        spec = make(9)
        D = spec.depth
        w = driving(spec, 5, n + D)
        path = spec.xi_path(w, n)
        direct = [xi_value(spec, k, w[:D + k]) for k in range(1, n + 1)]
        assert path.shape == (n,), kind
        assert np.allclose(path, direct, rtol=1e-12, atol=1e-12), kind


def test_xi_backward_alignment():
    N = 30
    for kind, make in XI_SPECS.items():
        spec = make(7)
        w = driving(spec, 6, N)
        back = spec.xi_backward(w[::-1])
        # entry i is xi_{-i}, on the window ending i steps before the last
        direct = [xi_value(spec, 0, w[:N - i])
                  for i in range(N - spec.depth + 1)]
        assert np.allclose(back, direct, rtol=1e-12, atol=1e-12), kind


def test_xi_of_windows_matches_value():
    for kind, make in XI_SPECS.items():
        spec = make(6)
        D = spec.depth
        wins = driving(spec, 9, 50 * D).reshape((50, D) + (
            (2,) if kind == "staggered_residual" else ()))
        # one full window per row: xi of that window alone
        out = spec.xi(wins)[:, 0]
        direct = [xi_value(spec, D, row) for row in wins]
        assert np.allclose(out, direct, rtol=1e-12, atol=1e-12), kind
        if D > 1:
            with pytest.raises(ContractViolationError):
                spec.xi(wins[:, :D - 1])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(XI_SPECS)), st.integers(1, 12),
       st.integers(1, 25), st.integers(0, 2 ** 31 - 1))
def test_xi_path_backward_coupling_property(kind, depth, n, seed):
    spec = XI_SPECS[kind](depth)
    w = driving(spec, seed, n + spec.depth)
    path = spec.xi_path(w, n)
    back = spec.xi_backward(w[::-1])
    # one evaluator read both ways: the same bits
    assert np.array_equal(back[:n], path[::-1])
    k = n // 2 + 1
    assert path[k - 1] == pytest.approx(
        xi_value(spec, k, w[:spec.depth + k]), rel=1e-12, abs=1e-12)


# (beta, depth) of the doubling sum: every low set-bit pattern, the README
# model's 27, and beta = 0.99 at its default depth 1833
GEOMETRIC_DEPTHS = [(0.6, D) for D in (1, 2, 3, 4, 5, 8, 27, 31)] + \
    [(0.99, None)]
GEOMETRIC_MAPS = {"identity": "identity", "abs": "abs",
                  "callable": lambda w: np.sin(w) + 0.5 * w}


@pytest.mark.parametrize("beta, depth", GEOMETRIC_DEPTHS)
@pytest.mark.parametrize("h", sorted(GEOMETRIC_MAPS))
def test_geometric_xi_blocks_match_oracle(beta, depth, h):
    spec = StationarySpec.geometric_ma(GEOMETRIC_MAPS[h], beta,
                                       truncation_depth=depth,
                                       centering=0.3)
    D = spec.depth
    w = RngStream(17).generator().standard_normal((3, D + 12))
    xi = spec.xi(w)
    direct = [[xi_value(spec, D + k, row[:D + k]) for k in range(13)]
              for row in w]
    np.testing.assert_allclose(xi, direct, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("beta, depth", GEOMETRIC_DEPTHS)
def test_geometric_xi_rows_alone_and_backward(beta, depth):
    # the block is summed as one flat array, yet each row gives the bits
    # it gives alone, whatever the row length; backward rows give the
    # forward values turned round, bit for bit
    spec = StationarySpec.geometric_ma("abs", beta, truncation_depth=depth)
    D = spec.depth
    w = RngStream(19).generator().standard_normal((5, D + 40))
    block = spec.xi(w)
    for row, values in zip(w, block):
        assert np.array_equal(spec.xi(row), values)
        assert np.array_equal(spec.xi(row[:D + 3]), values[:4])
    path = spec.xi_path(w, 40)[:, ::-1]
    assert np.array_equal(spec.xi_backward(w[:, ::-1])[:, :40], path)
    work = [np.empty(w.size + 7) for _ in range(2)]
    out = np.empty_like(block)
    assert spec.xi(w, out, work) is out
    assert np.array_equal(out, block)


def test_instantaneous_and_zero_paths():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    spec = StationarySpec.instantaneous(h="square", centering=1.0)
    assert np.allclose(spec.xi_path(w, 3), [3.0, 8.0, 15.0])
    zero = StationarySpec.zero()
    assert np.array_equal(zero.xi_path(w, 4), np.zeros(4))
    with pytest.raises(ContractViolationError):
        spec.xi_path(w, 4)  # needs n + depth = 5 values


def test_xi_sd_analytic_against_iid_windows():
    law = IncrementLaw.exponential(1.0)
    spec = geometric_spec(0.5).centered(law)
    sd = spec.xi_sd_analytic(law)
    assert sd == pytest.approx(math.sqrt((1 - 0.5 ** 54) / 0.75), rel=1e-9)
    wins = law.sample(RngStream(31, stream_id=2).generator(),
                      20_000 * spec.depth).reshape(20_000, spec.depth)
    xi = spec.xi(wins)[:, 0]
    assert np.std(xi) == pytest.approx(sd, rel=0.03)
    assert StationarySpec.zero().xi_sd_analytic(law) == 0.0
    assert StationarySpec.instantaneous().xi_sd_analytic(law) == 1.0
    assert spec.xi_sd_analytic(IncrementLaw.exponential(1.0)) is not None
    custom = StationarySpec.geometric_ma(h=lambda w: w, beta=0.5)
    assert custom.xi_sd_analytic(law) is None


def test_lower_bounds():
    law = IncrementLaw.exponential(1.0)
    spec = StationarySpec.geometric_ma("abs", 0.5, centering=1.5)
    assert spec.lower_bound_for(IncrementLaw.normal(1.0, 1.0)) == -1.5
    ident = geometric_spec(0.5).centered(law)
    assert ident.lower_bound_for(law) == pytest.approx(-ident.centering)
    assert ident.lower_bound_for(IncrementLaw.normal(1.0, 1.0)) is None
    stag = StationarySpec.staggered_residual(-1.0, -2.0, 5)
    assert stag.lower_bound_for(law) == 0.0
    assert StationarySpec.staggered_residual(1.0, -2.0, 5) \
        .lower_bound_for(law) is None
    assert StationarySpec.zero().lower_bound_for(law) == 0.0
    n = 5000
    w = law.sample(RngStream(3).generator(), n + ident.depth)
    assert ident.xi_path(w, n).min() >= ident.lower_bound_for(law) - 1e-12


def test_quadratic_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadraticSpec(np.ones((2, 3)))
    with pytest.raises(ConfigurationError):
        QuadraticSpec(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        QuadraticSpec(np.zeros((2, 2)))
    assert QuadraticSpec(np.array([[0.5]])).d == 1


def test_zeta_quadratic_scalar_and_path():
    spec = QuadraticSpec(np.array([[0.5]]))
    assert zeta_quadratic(np.array([3.0]), 4, spec) == pytest.approx(1.125)
    with pytest.raises(ConfigurationError):
        zeta_quadratic(np.array([3.0]), 0, spec)
    with pytest.raises(ConfigurationError):
        zeta_quadratic(np.array([3.0, 1.0]), 2, spec)
    T = RngStream(12).generator().standard_normal((30, 1))
    sums = np.cumsum(T, axis=0)
    path = zeta_quadratic_path(sums, spec)
    direct = [zeta_quadratic(sums[n - 1], n, spec) for n in range(1, 31)]
    assert np.allclose(path, direct, rtol=1e-12)


def test_zeta_window_matches_path_version():
    gen = RngStream(13).generator()
    Y = gen.standard_normal((40, 2))
    sums = np.cumsum(Y, axis=0)
    Q = QuadraticSpec(np.array([[1.0, 0.2], [0.2, 0.5]]))
    m = 7
    path = zeta_window_path(sums, m, n_lo=m, n_hi=40, spec=Q)
    direct = [zeta_window(Y, m, n, Q) for n in range(m, 41)]
    assert np.allclose(path, direct, rtol=1e-10, atol=1e-12)
    with pytest.raises(ConfigurationError):
        zeta_window(Y, 0, 5, Q)
    with pytest.raises(ContractViolationError):
        zeta_window(Y, 3, 41, Q)
    with pytest.raises(ContractViolationError):
        zeta_window_path(sums, m, n_lo=m, n_hi=41, spec=Q)


def test_windowed_zeta_includes_empty_prefix():
    # at n = m the window is the whole prefix, so it matches zeta'_n
    Y = RngStream(14).generator().standard_normal((10, 1))
    sums = np.cumsum(Y, axis=0)
    Q = QuadraticSpec(np.array([[0.5]]))
    assert zeta_window(Y, 10, 10, Q) == pytest.approx(
        zeta_quadratic(sums[-1], 10, Q), rel=1e-12)


def test_mean_of_quadratic_term_matches_mixture():
    # E zeta'_n = trace(Q Sigma) for every n with centered unit increments
    law = IncrementLaw.exponential(1.0)
    vl = VectorLaw.centered_x().bind(law)
    Q = QuadraticSpec(np.array([[0.5]]))
    mix = mixture_weights(Q, vl.cov())
    assert mix.mean == pytest.approx(0.5)
    reps, n = 40_000, 25
    w = law.sample(RngStream(41, stream_id=3).generator(),
                   reps * n).reshape(reps, n)
    T = (w - 1.0).sum(axis=1)
    vals = 0.5 * T * T / n
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - 0.5) <= 3.0 * se


def test_residual_spec():
    # the residual is the constant shift zeta''_n = value
    assert ResidualSpec.zero().value == 0.0
    assert ResidualSpec.constant(0.3).value == 0.3
    with pytest.raises(ConfigurationError):
        ResidualSpec("user_hook")
