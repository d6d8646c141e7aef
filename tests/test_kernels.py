"""The batched kernels against the scalar per-replication reference in
``oracles``, and their independence of how replications are batched."""

import numpy as np
import pytest

import oracles
from renewalsim import (EventPredicate, IncrementLaw, PassageSamples,
                        PerturbedWalkModel, QuadraticSpec, RngStream,
                        StationarySpec, VectorLaw, backward_min_functional,
                        collect_passage)
from renewalsim.parallel import join_chunks
from renewalsim.perturbation import ResidualSpec
from renewalsim.staggered import staggered_backward_batch
from renewalsim.verification import (lemma1_collect, lemma3_collect,
                                     theorem1_counts)

EXP1 = IncrementLaw.exponential(1.0)
STREAM = RngStream(2718, 0, 4)


def _models(tm1_model, plain_exp_model):
    """(name, model, level) for every path feature the kernel handles."""
    abs_xi = StationarySpec.instantaneous("abs").centered(EXP1)
    gauss = PerturbedWalkModel(
        IncrementLaw.gamma(2.0, 2.0),
        vector_law=VectorLaw.gaussian([[1.0, 0.3], [0.3, 0.5]]),
        stationary=abs_xi, quadratic=QuadraticSpec(np.diag([0.5, -0.25])))
    return [
        ("tm1", tm1_model, 40.0),
        ("plain", plain_exp_model, 300.0),
        ("gaussian-2d", gauss, 30.0),
        ("abs-n0", PerturbedWalkModel(EXP1, stationary=abs_xi, n0=6), 3.0),
        ("residual", PerturbedWalkModel(
            EXP1, residual=ResidualSpec.constant(0.4)), 20.0),
        # Z lags S by 40, so most rows outrun their first block and are
        # drawn again with a longer one
        ("lagging", PerturbedWalkModel(
            EXP1, residual=ResidualSpec.constant(-40.0)), 25.0),
        # horizon 53 at a = 50: about 4 in 10 paths never cross
        ("horizon", PerturbedWalkModel(EXP1, horizon_factor=0.35), 50.0),
    ]


@pytest.fixture(scope="module")
def models(tm1_model, plain_exp_model):
    return _models(tm1_model, plain_exp_model)


def _close(new, ref):
    np.testing.assert_allclose(new, ref, rtol=1e-12, atol=0.0)


def test_passage_matches_reference(models):
    for name, model, a in models:
        out = collect_passage(model, a, 60, STREAM, rep_offset=11)
        ref = np.array([oracles.passage(model, a, STREAM.with_replication(r))
                        for r in range(11, 71)])
        assert np.array_equal(out.t, ref[:, 0]), name
        assert np.array_equal(out.crossed, ref[:, 4] == 1.0), name
        for col, values in ((1, out.R), (2, out.xi), (3, out.zeta)):
            _close(values, ref[:, col])
    horizon = models[-1][1]
    assert 0 < np.count_nonzero(~collect_passage(horizon, 50.0, 60,
                                                 STREAM).crossed) < 60


def test_counts_match_reference(models):
    B = EventPredicate.xi_leq(0.3)
    for name, model, a in models[:-1]:
        streams = [STREAM.with_replication(r) for r in range(5, 125)]
        thm1 = theorem1_counts(model, B, 0.8, a, 3.0, 120, STREAM, 5)
        assert np.array_equal(thm1, [oracles.window_count(
            model, B, 0.8, a, 3.0, s) for s in streams]), name
        level = max(a, 20.0)  # the lemma windows need a >= 20 or so
        lem1 = lemma1_collect(model, 0.4, level, 120, STREAM, 5)
        assert np.array_equal(lem1, [oracles.lemma1_values(
            model, 0.4, level, s) for s in streams]), name
        if model.quadratic is not None:
            lem3 = lemma3_collect(model, 0.4, 0.05, level, 120, STREAM, 5)
            assert np.array_equal(lem3, [oracles.coupling_count(
                model, 0.4, 0.05, level, s) for s in streams]), name


def test_window_predicate_matches_reference(tm1_model):
    # a predicate on the last three driving values, not only on xi
    B = EventPredicate("W_n-2 < W_n", 3, lambda w, xi: w[:, 0] < w[:, -1])
    counts = theorem1_counts(tm1_model, B, np.inf, 30.0, 1.0, 40, STREAM)
    assert np.array_equal(counts, [oracles.window_count(
        tm1_model, B, np.inf, 30.0, 1.0, STREAM.with_replication(r))
        for r in range(40)])


def test_lean_paths_equal_general_paths(plain_exp_model):
    # a model without xi or zeta gets Z = S, and one without zeta gets
    # Z = S + xi; a constant residual of 0 adds the zero term back, and
    # every statistic keeps its bits
    abs_xi = PerturbedWalkModel(
        EXP1, stationary=StationarySpec.instantaneous("abs").centered(EXP1))
    B = EventPredicate.xi_leq(0.3)
    W1 = EventPredicate("W_n > 1", 1, lambda w, xi: w[:, 0] > 1.0)
    for lean, a in ((plain_exp_model, 300.0), (abs_xi, 40.0)):
        general = PerturbedWalkModel(
            lean.increment_law, stationary=lean.stationary,
            residual=ResidualSpec.constant(0.0))
        for collect in (
                lambda m: collect_passage(m, a, 300, STREAM, 7),
                lambda m: theorem1_counts(m, B, 0.0, a, 2.0, 300, STREAM, 7),
                lambda m: theorem1_counts(m, W1, 0.0, a, 2.0, 300, STREAM),
                lambda m: lemma1_collect(m, 0.4, a, 300, STREAM, 7)):
            new, ref = collect(lean), collect(general)
            if isinstance(new, PassageSamples):
                new, ref = (np.column_stack([
                    s.t, s.R, s.xi, s.zeta, s.crossed]) for s in (new, ref))
            assert np.array_equal(new.view(np.int64), ref.view(np.int64))


def _same_backward(batch, ref):
    _close(batch.inf_value, ref[:, 0])
    _close(batch.xi0, ref[:, 1])
    _close(batch.first_value, ref[:, 2])
    assert np.array_equal(batch.attained_index, ref[:, 3])
    assert np.array_equal(batch.truncated, ref[:, 4] == 1.0)


def test_backward_matches_reference(models, fwci_model):
    for name, model, _ in models[:4]:
        _same_backward(backward_min_functional(model, None, 50, STREAM, 9),
                       oracles.backward_rows(model, None, 50, STREAM, 9))
    _same_backward(staggered_backward_batch(fwci_model, 30, STREAM,
                                            rep_offset=9),
                   oracles.staggered_backward_rows(fwci_model, 30, STREAM,
                                                   rep_offset=9))


def test_backward_depth_cap_matches_reference(tm1_model):
    # a cap near the exit point: some rows exit before it, some do not
    with pytest.warns(RuntimeWarning):
        batch = backward_min_functional(tm1_model, 130, 200, STREAM)
    assert 0 < batch.truncated.sum() < 200
    _same_backward(batch, oracles.backward_rows(tm1_model, 130, 200, STREAM))


def _split(collect, reps, cut):
    """collect(reps, rep_offset) whole and in two unaligned pieces."""
    return collect(reps, 0), (collect(cut, 0), collect(reps - cut, cut))


def test_forward_chunk_equivalence(models, tm1_model):
    # each case spans several sub-batches of the kernel, and rows that
    # need a longer block are drawn again in sub-batches of their own
    gauss, lagging = models[2][1], models[5][1]
    for model, a, reps, cut in ((tm1_model, 25.0, 700, 237),
                                (gauss, 300.0, 150, 41),
                                (lagging, 25.0, 700, 237)):
        whole, parts = _split(
            lambda n, off: collect_passage(model, a, n, STREAM, off),
            reps, cut)
        joined = join_chunks(list(parts))
        for field in ("t", "R", "xi", "zeta", "crossed"):
            assert np.array_equal(getattr(whole, field),
                                  getattr(joined, field), equal_nan=True)
    B = EventPredicate.xi_leq(0.0)
    for collect, reps in (
            (lambda n, off: theorem1_counts(tm1_model, B, 0.5, 25.0, 1.0,
                                            n, STREAM, off), 700),
            (lambda n, off: lemma1_collect(lagging, 0.4, 50.0, n, STREAM,
                                           off), 700),
            (lambda n, off: lemma3_collect(tm1_model, 0.4, 0.05, 200.0, n,
                                           STREAM, off), 400)):
        whole, parts = _split(collect, reps, 237)
        assert np.array_equal(whole, join_chunks(list(parts)))


def test_backward_chunk_equivalence_across_sub_batches(tm1_model, fwci_model):
    for collect, reps, cut in (
            (lambda n, off: backward_min_functional(tm1_model, None, n,
                                                    STREAM, off), 400, 137),
            (lambda n, off: staggered_backward_batch(fwci_model, n, STREAM,
                                                     rep_offset=off), 150, 37)):
        whole, parts = _split(collect, reps, cut)
        joined = join_chunks(list(parts))
        for field in ("inf_value", "xi0", "first_value", "attained_index",
                      "truncated"):
            assert np.array_equal(getattr(whole, field),
                                  getattr(joined, field))
