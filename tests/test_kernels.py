"""The batched kernels against the scalar per-replication reference in
``oracles``, and their independence of how replications are batched."""

from functools import partial

import numpy as np
import pytest

import oracles
from renewalsim import (EventPredicate, IncrementLaw, PassageSamples,
                        PerturbedWalkModel, QuadraticSpec, RngStream,
                        StationarySpec, VectorLaw, backward_min_functional,
                        collect_levels, collect_passage, passage_levels)
from renewalsim import first_passage
from renewalsim.first_passage import (_passage_stats, block_length,
                                      forward_kernel)
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


def _level_columns(samples):
    return [samples.t, samples.R, samples.xi, samples.zeta, samples.crossed]


def test_levels_match_one_level_runs(models):
    # one path per replication serves every level of a grid, unsorted
    # here: each level's stopped values equal the one-level run's, bit for
    # bit and NaNs included.  In the last grid a lower level's horizon
    # leaves rows uncrossed that cross the top level by its own horizon.
    spiky = PerturbedWalkModel(IncrementLaw.gamma(0.05, 0.05),
                               horizon_factor=0.5)
    cases = [(name, model, (a, 0.5 * a, 2.0 * a))
             for name, model, a in models]
    cases += [("n0-above-levels", PerturbedWalkModel(EXP1, n0=30),
               (5.0, 20.0, 40.0)),
              ("spiky-horizons", spiky, (50.0, 20.0, 80.0))]
    for name, model, grid in cases:
        levels = collect_levels(model, grid, 300, STREAM, 7)
        for a, samples in zip(grid, levels):
            one = collect_passage(model, a, 300, STREAM, 7)
            assert samples.a == one.a, name
            for new, ref in zip(_level_columns(samples), _level_columns(one)):
                assert np.array_equal(new, ref, equal_nan=True), (name, a)
    low, top = levels[0].crossed, levels[2].crossed
    assert np.count_nonzero(~low & top) > 0
    # an experiment's grid draws on sub-stream stream_id + 10
    for samples, a in zip(passage_levels(spiky, grid, 300, STREAM), grid):
        one = collect_passage(spiky, a, 300, first_passage.levels_stream(
            STREAM))
        for new, ref in zip(_level_columns(samples), _level_columns(one)):
            assert np.array_equal(new, ref, equal_nan=True)


def test_lemma_levels_match_one_level_runs(models):
    # each level's columns equal its one-level run; in the "horizon" model
    # the block outruns a lower level's horizon, so that level's envelope
    # test must be read at its horizon, not at the block's end
    for name, model, a in models:
        grid = (2.0 * max(a, 20.0), max(a, 20.0), 3.0 * max(a, 20.0))
        lem1 = lemma1_collect(model, 0.4, grid, 120, STREAM, 5)
        for i, level in enumerate(grid):
            assert np.array_equal(
                lem1[:, 3 * i:3 * i + 3],
                lemma1_collect(model, 0.4, [level], 120, STREAM, 5)), name
        if model.quadratic is not None:
            lem3 = lemma3_collect(model, 0.4, 0.05, grid, 120, STREAM, 5)
            for i, level in enumerate(grid):
                assert np.array_equal(lem3[:, i], lemma3_collect(
                    model, 0.4, 0.05, [level], 120, STREAM, 5)[:, 0]), name


def test_counts_match_reference(models):
    B = EventPredicate.xi_leq(0.3)
    for name, model, a in models[:-1]:
        streams = [STREAM.with_replication(r) for r in range(5, 125)]
        thm1 = theorem1_counts(model, B, 0.8, a, 3.0, 120, STREAM, 5)
        assert np.array_equal(thm1, [oracles.window_count(
            model, B, 0.8, a, 3.0, s) for s in streams]), name
        level = max(a, 20.0)  # the lemma windows need a >= 20 or so
        lem1 = lemma1_collect(model, 0.4, [level], 120, STREAM, 5)
        assert np.array_equal(lem1, [oracles.lemma1_values(
            model, 0.4, level, s) for s in streams]), name
        if model.quadratic is not None:
            lem3 = lemma3_collect(model, 0.4, 0.05, [level], 120, STREAM, 5)
            assert np.array_equal(lem3[:, 0], [oracles.coupling_count(
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
                lambda m: lemma1_collect(m, 0.4, [a], 300, STREAM, 7)):
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
        joined = join_chunks(parts, reps)
        for field in ("t", "R", "xi", "zeta", "crossed"):
            assert np.array_equal(getattr(whole, field),
                                  getattr(joined, field), equal_nan=True)
    B = EventPredicate.xi_leq(0.0)
    for collect, reps in (
            (lambda n, off: theorem1_counts(tm1_model, B, 0.5, 25.0, 1.0,
                                            n, STREAM, off), 700),
            (lambda n, off: lemma1_collect(lagging, 0.4, [50.0], n, STREAM,
                                           off), 700),
            (lambda n, off: lemma3_collect(tm1_model, 0.4, 0.05, [200.0], n,
                                           STREAM, off), 400)):
        whole, parts = _split(collect, reps, 237)
        assert np.array_equal(whole, join_chunks(parts, reps))


def test_backward_chunk_equivalence_across_sub_batches(tm1_model, fwci_model):
    for collect, reps, cut in (
            (lambda n, off: backward_min_functional(tm1_model, None, n,
                                                    STREAM, off), 400, 137),
            (lambda n, off: staggered_backward_batch(fwci_model, n, STREAM,
                                                     rep_offset=off), 150, 37)):
        whole, parts = _split(collect, reps, cut)
        joined = join_chunks(parts, reps)
        for field in ("inf_value", "xi0", "first_value", "attained_index",
                      "truncated"):
            assert np.array_equal(getattr(whole, field),
                                  getattr(joined, field))


def _batch_fields(batch):
    return [getattr(batch, f) for f in ("inf_value", "xi0", "first_value",
                                        "attained_index", "truncated")]


def test_results_do_not_depend_on_the_first_block(models, fwci_model,
                                                  monkeypatch):
    # rows that pass a first block are drawn again from their own key at
    # twice its length, so a first forward block of 1, the level's
    # block_length or the whole horizon, and a first backward depth of 16,
    # all give the same values
    for name, model, a in models:
        horizon = model.horizon(a)
        runs = [forward_kernel(model, STREAM, 150, 3, length, horizon,
                               partial(_passage_stats, model, [a],
                                       [horizon]), 4)
                for length in (1, block_length(model, a), horizon)]
        for run in runs[1:]:
            assert np.array_equal(run, runs[0], equal_nan=True), name
    collects = [lambda: staggered_backward_batch(fwci_model, 60, STREAM,
                                                 rep_offset=9)]
    collects += [partial(backward_min_functional, model, None, 60, STREAM, 9)
                 for _, model, _ in models]
    default = [_batch_fields(collect()) for collect in collects]
    monkeypatch.setattr(first_passage, "_exit_depth", lambda *args: 16)
    for collect, ref in zip(collects, default):
        for new, old in zip(_batch_fields(collect()), ref):
            assert np.array_equal(new, old)


def _gaussian_geometric_model():
    """gamma(2, 2) increments, a 2-d Gaussian vector and the geometric |W|
    (D = 52); at a = 50 the horizon is 53."""
    law = IncrementLaw.gamma(2.0, 2.0)
    return PerturbedWalkModel(
        law, vector_law=VectorLaw.gaussian([[1.0, 0.3], [0.3, 0.5]]),
        stationary=StationarySpec.geometric_ma("abs", 0.7).centered(law),
        quadratic=QuadraticSpec(np.diag([0.5, -0.25])), horizon_factor=0.35)


def test_gaussian_geometric_rows_alone_match(monkeypatch):
    # the Gaussian vector law draws whole 256-step chunks, and at the
    # horizon of 53 the block is cut inside one, so xi reads a strided view
    # of the first D + L values.  Sub-batches of one row give the same
    # columns as the default ones
    model = _gaussian_geometric_model()
    block = collect_passage(model, 50.0, 120, STREAM, 5)
    assert 0 < np.count_nonzero(~block.crossed) < 120
    monkeypatch.setattr(first_passage, "_BLOCK_ELEMENTS", 1)
    alone = collect_passage(model, 50.0, 120, STREAM, 5)
    for field in ("t", "R", "xi", "zeta", "crossed"):
        assert np.array_equal(getattr(block, field), getattr(alone, field),
                              equal_nan=True), field
    ref = np.array([oracles.passage(model, 50.0, STREAM.with_replication(r))
                    for r in range(5, 25)])
    assert np.array_equal(block.t[:20], ref[:, 0])
    for col, values in ((1, block.R), (2, block.xi), (3, block.zeta)):
        _close(values[:20], ref[:, col])


def test_gaussian_sub_batches_fit_the_workspace(monkeypatch):
    # a Gaussian block draws up to 255 steps past L, which the sub-batch
    # size allows for: no buffer grows past _BLOCK_ELEMENTS rows' worth
    model = _gaussian_geometric_model()
    assert model.stationary.depth == 52 and model.horizon(50.0) == 53
    monkeypatch.setattr(first_passage, "_IDLE", [])
    collect_passage(model, 50.0, 2000, STREAM)
    (ws,) = first_passage._IDLE
    assert set(ws._buffers) == {"W", "Y", "S", "xi", "Z", "zeta"}
    for name, buf in ws._buffers.items():
        per_row = 2 if name == "Y" else 1
        assert buf.size <= first_passage._BLOCK_ELEMENTS * per_row, name
