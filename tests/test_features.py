"""Unit tests for the scale-invariant fitness / mutation-rate features."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from attnga.features import (FITNESS_DIM, SIGMA_DIM, average_ranks,
                             centered_ranks, rows_crossover_features,
                             rows_fitness_features, rows_joint_features,
                             rows_parent_features, rows_sampling_features,
                             rows_z_score, sigma_features, z_score)

finite_floats = st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False)


def _rank_oracle(f):
    """Average-rank oracle with explicit loops (1-based ranks)."""
    f = np.asarray(f, dtype=float)
    ranks = np.empty(f.size)
    for i, v in enumerate(f):
        less = np.sum(f < v)
        equal = np.sum(f == v)
        ranks[i] = less + (equal + 1) / 2.0
    return ranks


def test_centered_ranks_matches_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 20))
        f = rng.integers(0, 5, size=n).astype(float)  # plenty of ties
        expected = (_rank_oracle(f) - 1.0) / (n - 1.0) - 0.5
        np.testing.assert_allclose(centered_ranks(f), expected, atol=1e-12)


def test_centered_ranks_range_and_singleton():
    r = centered_ranks([3.0, 1.0, 2.0])
    np.testing.assert_allclose(sorted(r), [-0.5, 0.0, 0.5])
    np.testing.assert_array_equal(centered_ranks([7.0]), [0.0])
    with pytest.raises(ValueError):
        centered_ranks([1.0, np.inf])


def test_z_score_oracle_and_guards():
    f = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(z_score(f), (f - 2.5) / f.std(), atol=1e-12)
    np.testing.assert_array_equal(z_score(np.full(5, 3.7)), np.zeros(5))
    # Rows of the huge clip sentinel must be treated as converged even
    # though summation noise can make the raw std come out at ~1 ulp.
    np.testing.assert_array_equal(z_score(np.full(16, 1e30)), np.zeros(16))
    with pytest.raises(ValueError):
        z_score([np.nan, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=16),
       st.integers(-6, 6), st.integers(-160, 160))
def test_scale_invariance(values, log2_a, b16):
    """Positive affine rescaling leaves z-scores and ranks unchanged.

    Values live on a dyadic lattice and the scale is a power of two, so the
    rescaling is exact in binary floating point (no ties appear or vanish
    through rounding).
    """
    f = np.asarray(values, dtype=np.float64) / 16.0
    a, b = 2.0 ** log2_a, b16 / 16.0
    g = a * f + b
    np.testing.assert_allclose(z_score(g), z_score(f), atol=1e-6)
    np.testing.assert_allclose(centered_ranks(g), centered_ranks(f),
                               atol=1e-12)


def fitness_features(f, best_so_far):
    return rows_fitness_features(f, best_so_far,
                                 np.empty(f.shape + (FITNESS_DIM,)))


def test_fitness_features_columns():
    f = np.array([5.0, 1.0, 3.0])
    feats = fitness_features(f, best_so_far=3.0)
    assert feats.shape == (3, 3)
    np.testing.assert_allclose(feats[:, 0], z_score(f))
    np.testing.assert_allclose(feats[:, 1], centered_ranks(f))
    # Strict improvement: 1.0 < 3.0 only.
    np.testing.assert_array_equal(feats[:, 2], [0.0, 1.0, 0.0])


def test_joint_features_share_one_normalization():
    children = np.array([1.0, 10.0])
    parents = np.array([4.0, 7.0, 2.0])
    joint = np.empty((5, FITNESS_DIM))
    f_c, f_p = rows_joint_features(children, parents, 5.0, joint)
    both = np.concatenate([children, parents])
    np.testing.assert_allclose(joint[:, 0], z_score(both))
    np.testing.assert_allclose(joint[:, 1], centered_ranks(both))
    np.testing.assert_array_equal(joint, fitness_features(both, 5.0))
    np.testing.assert_array_equal(f_c, joint[:2])
    np.testing.assert_array_equal(f_p, joint[2:])


def test_sigma_features_minmax_and_validation():
    sigma = np.array([0.1, 0.2, 0.4])
    feats = sigma_features(sigma)
    assert feats.shape == (3, 2)
    np.testing.assert_allclose(
        feats[:, 1], 2.0 * (sigma - 0.1) / 0.3 - 1.0)
    assert feats[:, 1].min() == -1.0 and feats[:, 1].max() == 1.0
    # Converged rates collapse to zeros instead of dividing by ~0.
    np.testing.assert_array_equal(sigma_features(np.full(4, 0.3)),
                                  np.zeros((4, 2)))
    with pytest.raises(ValueError):
        sigma_features([0.1, -0.2])
    with pytest.raises(ValueError):
        sigma_features([0.1, np.inf])


def test_sampled_parent_features_concatenation():
    f = np.array([2.0, 8.0])
    sigma = np.array([0.1, 0.3])
    feats = rows_parent_features(f, sigma, 5.0,
                                 np.empty((2, FITNESS_DIM + SIGMA_DIM)))
    assert feats.shape == (2, 5)
    np.testing.assert_array_equal(feats[:, :3], fitness_features(f, 5.0))
    np.testing.assert_array_equal(feats[:, 3:], sigma_features(sigma))


def test_sampling_and_crossover_feature_blocks():
    f = np.array([2.0, 8.0, 5.0])
    age = np.array([0, 20, 3])
    feats = rows_sampling_features(f, age, 5.0, np.empty((3, 4)))
    np.testing.assert_array_equal(feats[:, :3], fitness_features(f, 5.0))
    np.testing.assert_array_equal(feats[:, 3], np.tanh(age / 20.0))
    # One row of coordinates per parent; coordinate 1 has converged.
    x = np.array([[1.0, 0.5], [2.0, 0.5], [4.0, 0.5]])
    feats = rows_crossover_features(f, x, 5.0, np.empty((2, 3, 5)))
    for d in range(2):
        np.testing.assert_array_equal(feats[d, :, :3],
                                      fitness_features(f, 5.0))
        np.testing.assert_array_equal(feats[d, :, 3], z_score(x[:, d]))
        np.testing.assert_array_equal(feats[d, :, 4],
                                      np.abs(z_score(x[:, d])))
    assert np.all(feats[1, :, 3:] == 0.0)


# -- exact fast paths ---------------------------------------------------------

RANK_SIZES = (1, 2, 3, 16, 17, 32, 128)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def _rank_inputs(rng, shape):
    """Distinct values, heavy ties and rows half full of the 1e30 sentinel."""
    yield rng.standard_normal(shape)
    yield rng.integers(0, 3, size=shape).astype(np.float64)
    sentinel = rng.standard_normal(shape)
    sentinel[..., shape[-1] // 2:] = 1e30
    yield sentinel


@pytest.mark.parametrize("n", RANK_SIZES)
def test_average_ranks_equal_rankdata_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for shape in ((n,), (5, n)):
        for values in _rank_inputs(rng, shape):
            expected = rankdata(values, method="average", axis=-1)
            assert _same_bits(average_ranks(values), expected)


def test_average_ranks_infinities_and_nan_rows():
    values = np.array([[np.inf, 1.0, np.inf, -np.inf, -np.inf, 0.0],
                       [np.nan, np.nan, np.nan, np.nan, np.nan, np.nan],
                       [2.0, np.nan, 1.0, 2.0, 0.5, np.inf],
                       [-0.0, 0.0, 1e30, 1e30, 1e30, -1.0]])
    with np.errstate(invalid="ignore"):
        expected = rankdata(values, method="average", axis=-1)
    assert np.isnan(expected[1:3]).all()
    assert _same_bits(average_ranks(values), expected)
    assert _same_bits(average_ranks(values[:, None, :]),
                      expected[:, None, :])


def _sequential_mean(values):
    """Row means with the terms added one after another, left to right."""
    total = values[..., 0].copy()
    for j in range(1, values.shape[-1]):
        total += values[..., j]
    return (total / values.shape[-1])[..., None]


def _z_textbook(values):
    """(values - mean) / std with sequentially summed moments."""
    mean = _sequential_mean(values)
    std = np.sqrt(_sequential_mean(np.square(values - mean)))
    guard = std < 1e-10 * np.maximum(1.0, np.abs(mean))
    return np.where(guard, 0.0, (values - mean) / np.where(guard, 1.0, std))


@pytest.mark.parametrize("shape", [(16,), (1, 16), (2, 16), (64, 16),
                                   (64, 32), (64, 16, 17)])
def test_rows_z_score_equals_textbook_formula(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    for scale in (1e-3, 1.0, 1e6, 1e30):
        values = scale * rng.standard_normal(shape) + scale
        values[..., :1] = values[..., 1:2]     # a tie does not matter
        assert _same_bits(rows_z_score(values), _z_textbook(values))
    converged = np.full(shape, 1e30)
    assert _same_bits(rows_z_score(converged), np.zeros(shape))
    out = np.empty(shape + (2,))[..., 0]
    assert rows_z_score(values, out=out) is out
    assert _same_bits(out.copy(), _z_textbook(values))


def test_z_score_equals_textbook_formula():
    rng = np.random.default_rng(5)
    for n in RANK_SIZES[1:]:
        f = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 20)
        mean = _sequential_mean(f)
        std = np.sqrt(_sequential_mean(np.square(f - mean)))
        assert _same_bits(z_score(f), (f - mean) / std)


def test_z_score_survives_overflowing_rows():
    """Rows beyond ~1e154 would overflow the squares; z is scale-free."""
    small = np.array([[3.0, 1.0, 2.0, 2.0], [1.0, 0.5, -4.0, 1e-3],
                      [7.0, 7.0, 7.0, 7.0], [1.0, -1.0, 0.25, 8.0]])
    huge = small.copy()
    huge[:3] *= 2.0 ** 1000          # exact; the last row stays as it is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = rows_z_score(huge)
        single = z_score(huge[0])
        mixed = z_score([1e160, 1.0, 2.0])
    assert _same_bits(z, rows_z_score(small))
    assert _same_bits(single, z_score(small[0]))
    assert np.all(np.isfinite(mixed)) and mixed[0] > 1.0
    np.testing.assert_allclose(mixed, [np.sqrt(2.0), -np.sqrt(0.5),
                                       -np.sqrt(0.5)])
    # A row holding inf stays non-finite, quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(rows_z_score(np.array([[np.inf, 1.0, 2.0]]))).all()
