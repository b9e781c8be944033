"""Minimal dense attention kernel shared by all learned genetic operators.

Everything here operates on plain 2-D numpy arrays and is pure, so the
functions are safe to call from any number of threads.
"""

import numpy as np

__all__ = ["row_softmax", "softmax_last", "last_axis_first", "sdpa",
           "multi_head_sdpa"]


def last_axis_first(a):
    """Contiguous copy of ``a`` with its last axis moved to the front.

    Reductions whose result does not depend on the order (max, min,
    counts) run far faster over this leading axis of contiguous slabs
    than over many short rows.
    """
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))).copy()


def softmax_last(logits):
    """Unchecked softmax along the last axis of a float64 array.

    The row max is exact in any order. Over many short rows (at least four
    times as many rows as columns, as in the batched sweep) numpy's per-row
    reduction overhead dominates, so the max is then taken over the leading
    axis of a transposed copy. The denominators are summed along the rows
    as they are laid out, which fixes their bits.
    """
    if logits.size >= 4 * logits.shape[-1] ** 2:
        top = last_axis_first(logits).max(axis=0)
    else:
        top = logits.max(axis=-1)
    shifted = np.subtract(logits, top[..., None])
    np.exp(shifted, out=shifted)
    return np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)


def row_softmax(logits):
    """Numerically stabilized softmax applied independently to each row."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("row_softmax requires finite logits")
    return softmax_last(logits)


def sdpa(q, k, v):
    """Scaled dot-product attention: softmax(Q K^T / sqrt(D_K)) V.

    Output rows are convex combinations of the rows of ``v``, and the
    operation is equivariant to permutations of the query rows and invariant
    to joint permutations of key/value rows.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("sdpa expects 2-D arrays")
    if q.shape[1] != k.shape[1]:
        raise ValueError(
            f"query/key width mismatch: {q.shape[1]} vs {k.shape[1]}"
        )
    if k.shape[0] != v.shape[0]:
        raise ValueError(
            f"key/value row mismatch: {k.shape[0]} vs {v.shape[0]}"
        )
    d_k = q.shape[1]
    weights = row_softmax(q @ k.T / np.sqrt(d_k))
    return weights @ v


def multi_head_sdpa(heads, w_out=None):
    """Multi-head attention over explicit per-head (Q, K, V) triples.

    Per-head outputs are concatenated column-wise and projected by ``w_out``.
    With a single head and ``w_out=None`` (or identity) this reduces exactly
    to :func:`sdpa`.
    """
    heads = list(heads)
    if len(heads) < 1:
        raise ValueError("multi_head_sdpa needs at least one head")
    outputs = [sdpa(q, k, v) for q, k, v in heads]
    combined = np.concatenate(outputs, axis=1)
    if w_out is None:
        if len(heads) > 1:
            raise ValueError("w_out is required for more than one head")
        return combined
    w_out = np.asarray(w_out, dtype=np.float64)
    if w_out.shape[0] != combined.shape[1]:
        raise ValueError(
            f"w_out rows {w_out.shape[0]} != concatenated width "
            f"{combined.shape[1]}"
        )
    return combined @ w_out
