import numpy as np
import pytest

from renewalsim import IncrementLaw, RngStream, VectorLaw
from renewalsim.rng import ReplicationGenerators


def test_same_triple_reproduces_bitwise():
    a = RngStream(123, 4, 5).generator().standard_normal(64)
    b = RngStream(123, 4, 5).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_axes_give_distinct_streams():
    base = RngStream(2024)
    draws = [
        base.generator().standard_normal(32),
        base.with_replication(1).generator().standard_normal(32),
        base.with_stream(1).generator().standard_normal(32),
        RngStream(2025).generator().standard_normal(32),
    ]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_with_methods_return_new_value_objects():
    s = RngStream(7, 1, 2)
    t = s.with_replication(9).with_stream(3)
    assert (s.seed, s.replication_index, s.stream_id) == (7, 1, 2)
    assert (t.seed, t.replication_index, t.stream_id) == (7, 9, 3)


def test_replication_content_ignores_consumption_order():
    direct = RngStream(99).with_replication(3).generator().exponential(size=16)
    s = RngStream(99)
    out = None
    for r in (5, 0, 3):
        out = s.with_replication(r).generator().exponential(size=16)
    assert np.array_equal(out, direct)


def test_generator_is_fresh_each_call():
    s = RngStream(11)
    first = s.generator().random(8)
    again = s.generator().random(8)
    assert np.array_equal(first, again)


def test_seed_and_index_bounds():
    RngStream(0)
    RngStream((1 << 64) - 1)
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1 << 64)
    with pytest.raises(ValueError):
        RngStream(3, replication_index=-1)
    with pytest.raises(ValueError):
        RngStream(3, stream_id=-1)


def _law_draws(law, gen):
    return law.sample(gen, 37)


LAWS = [IncrementLaw.exponential(2.0), IncrementLaw.gamma(0.5, 1.0),
        IncrementLaw.gamma(3.0, 2.0), IncrementLaw.normal(1.0, 2.0),
        IncrementLaw.uniform(0.5, 1.5), IncrementLaw.deterministic(1.0),
        IncrementLaw.quantile_table([0.0, 0.5, 2.0, 4.0])]


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
def test_rekeyed_generator_matches_fresh_one(law):
    rng = np.random.default_rng(8)
    seeds = [0, (1 << 64) - 1] + [2 * int(s) + 1 for s in
                                  rng.integers(0, 1 << 63, 4)]
    gauss = VectorLaw.gaussian([[1.0, 0.3], [0.3, 0.5]])
    for seed in seeds:
        stream_id = int(rng.integers(0, 1 << 20))
        keys = ReplicationGenerators(RngStream(seed, 0, stream_id))
        for r in [int(i) for i in rng.integers(0, 1 << 40, 3)] + [0, 5]:
            fresh = RngStream(seed, r, stream_id).generator()
            gen = keys.generator(r)
            assert np.array_equal(_law_draws(law, gen),
                                  _law_draws(law, fresh))
            assert np.array_equal(gauss.materialize(np.zeros(5), gen),
                                  gauss.materialize(np.zeros(5), fresh))
            # leave a half-used output buffer and a cached 32-bit word;
            # the next replication must not see either
            gen.integers(0, 7, size=3, dtype=np.uint32)
