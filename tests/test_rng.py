"""Counter-based splitmix stream: determinism, ranges, and draw quality."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vctkit.rng import GOLDEN, Stream, fnv1a64, mix64, subject_seed

# regression anchors: the generator contract is "same seed, same bits, forever"
FROZEN_U64_SEED0 = (16294208416658607535, 7960286522194355700, 487617019471545679)


def test_u64_frozen_vector():
    assert tuple(int(v) for v in Stream(0).u64(3)) == FROZEN_U64_SEED0


def test_streams_restartable_and_stateful():
    a = Stream(42)
    first = a.u64(5)
    second = a.u64(5)
    assert not np.array_equal(first, second)
    b = Stream(42)
    assert np.array_equal(b.u64(10), np.concatenate([first, second]))

    assert np.array_equal(Stream(42).skip(3).u64(7), np.concatenate([first, second])[3:])


def test_distinct_seeds_disagree():
    assert not np.array_equal(Stream(1).u64(8), Stream(2).u64(8))


def test_uniform_range_and_mean():
    u = Stream(7).uniform(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


@given(st.integers(0, 2**64 - 1), st.integers(1, 40), st.integers(1, 7))
def test_standard_normals_rows_are_consecutive_normal_calls(seed, rows, n):
    batched, single = Stream(seed), Stream(seed)
    z = batched.standard_normals(rows, n)
    assert z.shape == (rows, n) and np.isfinite(z).all()
    for row in z:
        assert row.tobytes() == single.normal(n).tobytes()
    assert batched.u64(1).tobytes() == single.u64(1).tobytes()


@given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
def test_integers_in_range(seed, upper):
    draws = Stream(seed).integers(50, upper)
    assert draws.min() >= 0 and draws.max() < upper


def test_integers_rejects_bad_upper():
    with pytest.raises(ValueError):
        Stream(0).integers(5, 0)


def test_normal_moments():
    z = Stream(3).normal(40000, mean=2.0, sd=3.0)
    assert abs(z.mean() - 2.0) < 0.05
    assert abs(z.std() - 3.0) < 0.05


@given(st.integers(0, 2**32), st.integers(1, 300))
def test_permutation_is_bijection(seed, n):
    p = Stream(seed).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_choice_without_replacement():
    picks = Stream(5).choice(20, 12)
    assert len(set(picks.tolist())) == 12
    with pytest.raises(ValueError):
        Stream(5).choice(3, 4)


def test_mix64_stays_in_64_bits():
    for x in (0, 1, GOLDEN, 2**64 - 1):
        assert 0 <= mix64(x) < 2**64


def test_fnv1a64_known_values():
    # offset basis for empty input; classic "a" vector from the FNV reference
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_subject_seed_unique_per_index():
    seeds = {subject_seed(9, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert subject_seed(9, 0) != subject_seed(10, 0)
