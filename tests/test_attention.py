"""Unit tests for the dense attention kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnga.attention import (multi_head_sdpa, pairwise_sum_first,
                              row_softmax, sdpa, softmax_first, softmax_last)


def _softmax_oracle(row):
    """Straightforward softmax of one 1-D array."""
    exps = np.exp(row - np.max(row))
    return exps / exps.sum()


def _sdpa_oracle(q, k, v):
    """Row-by-row reference implementation with explicit loops."""
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] for j in range(k.shape[0])])
        weights = _softmax_oracle(scores / np.sqrt(q.shape[1]))
        out[i] = sum(weights[j] * v[j] for j in range(v.shape[0]))
    return out


def test_sdpa_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, m, dk, dv = rng.integers(1, 9, size=4)
        q = rng.standard_normal((n, dk))
        k = rng.standard_normal((m, dk))
        v = rng.standard_normal((m, dv))
        np.testing.assert_allclose(sdpa(q, k, v), _sdpa_oracle(q, k, v),
                                   rtol=1e-12, atol=1e-12)


def test_multi_head_matches_manual_concat_projection():
    rng = np.random.default_rng(2)
    heads = []
    for _ in range(3):
        heads.append((rng.standard_normal((4, 5)),
                      rng.standard_normal((6, 5)),
                      rng.standard_normal((6, 7))))
    w_out = rng.standard_normal((21, 4))
    expected = np.concatenate([_sdpa_oracle(*h) for h in heads],
                              axis=1) @ w_out
    np.testing.assert_allclose(multi_head_sdpa(heads, w_out), expected,
                               rtol=1e-12, atol=1e-12)


def test_single_head_reduces_to_sdpa():
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((5, 4)), rng.standard_normal((6, 4)),
               rng.standard_normal((6, 3)))
    np.testing.assert_array_equal(multi_head_sdpa([(q, k, v)]), sdpa(q, k, v))


def test_shape_validation():
    ok = np.zeros((3, 4))
    with pytest.raises(ValueError):
        sdpa(ok, np.zeros((3, 5)), np.zeros((3, 2)))     # q/k width
    with pytest.raises(ValueError):
        sdpa(ok, np.zeros((3, 4)), np.zeros((2, 2)))     # k/v rows
    with pytest.raises(ValueError):
        sdpa(np.zeros(4), ok, ok)                        # not 2-D
    with pytest.raises(ValueError):
        multi_head_sdpa([])
    with pytest.raises(ValueError):                      # >1 head needs w_out
        multi_head_sdpa([(ok, ok, ok), (ok, ok, ok)])
    with pytest.raises(ValueError):
        row_softmax(np.array([[0.0, np.inf]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(42, 10_000))
def test_row_softmax_rows_are_distributions(rows, cols, seed):
    logits = 100.0 * np.random.default_rng(seed).standard_normal((rows, cols))
    probs = row_softmax(logits)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
def test_sdpa_permutation_equivariance(n, m, seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 4))
    k = rng.standard_normal((m, 4))
    v = rng.standard_normal((m, 3))
    perm_q = rng.permutation(n)
    perm_kv = rng.permutation(m)
    base = sdpa(q, k, v)
    # Permuting queries permutes output rows.
    np.testing.assert_allclose(sdpa(q[perm_q], k, v), base[perm_q],
                               atol=1e-12)
    # Jointly permuting keys and values leaves the output unchanged.
    np.testing.assert_allclose(sdpa(q, k[perm_kv], v[perm_kv]), base,
                               atol=1e-12)


def test_output_rows_in_value_convex_hull():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((10, 6))
    k = rng.standard_normal((7, 6))
    v = rng.standard_normal((7, 2))
    out = sdpa(q, k, v)
    assert np.all(out <= v.max(axis=0) + 1e-12)
    assert np.all(out >= v.min(axis=0) - 1e-12)


def _softmax_textbook(logits):
    exps = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(16,), (1, 16), (2, 16), (64, 16),
                                   (64, 16, 17)])
def test_softmax_fast_path_equals_textbook_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for scale in (1e-3, 1.0, 30.0):
        logits = scale * rng.standard_normal(shape)
        expected = _softmax_textbook(logits).tobytes()
        assert row_softmax(logits).tobytes() == expected
        assert softmax_last(logits).tobytes() == expected
        cols = softmax_first(np.moveaxis(logits, -1, 0).copy())
        assert np.moveaxis(cols, 0, -1).tobytes() == expected
    # Order-free row max: a non-finite row behaves as in the formula.
    logits[..., 0] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(softmax_last(logits)).all()


@pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 17, 33, 65, 128, 129, 200,
                               300])
def test_pairwise_sum_first_is_numpys_row_sum(k):
    """The same additions as numpy's pairwise sum of contiguous rows; past
    ``PAIRWISE_BLOCK`` values, after numpy's split into two parts."""
    rng = np.random.default_rng(k)
    for a in (rng.standard_normal((64, 16, k)),
              np.exp(rng.standard_normal((5, k)) * 30.0),
              rng.standard_normal((3, k)) * 10.0 ** rng.integers(
                  -200, 200, (3, k))):
        assert pairwise_sum_first(np.moveaxis(a, -1, 0).copy()).tobytes() \
            == a.sum(axis=-1).tobytes()
