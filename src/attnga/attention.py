"""Minimal dense attention kernel shared by all learned genetic operators.

Everything here is pure and works over any leading axes. The checked names
validate their input, then run the unchecked core that the engine calls.
The learned operators' own attention (``operators.FoldedAttention``) runs
its softmax population-first, over the leading axis of logits laid out
keys first, with the row sums' bits from :func:`pairwise_sum_first`;
:func:`softmax_last` is the row form, which sampling, the checked names
and the row fallback of ``operators.softmax_categorical`` take.
"""

import math

import numpy as np

__all__ = ["row_softmax", "softmax_last", "last_axis_first", "many_short_rows",
           "reduce_rows", "pairwise_sum_first", "PAIRWISE_BLOCK",
           "REDUCE_COPY_CAP", "attend", "sdpa", "multi_head_sdpa"]

# numpy sums a contiguous row pairwise, in blocks of at most this many values.
PAIRWISE_BLOCK = 128
# reduce_rows takes a transposed copy only while the array's size times its
# row length is below this; from it on the copy costs more than the rows.
REDUCE_COPY_CAP = 2 ** 23


def last_axis_first(a):
    """Contiguous copy of ``a`` with its last axis moved to the front."""
    return a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))).copy()


def many_short_rows(a):
    """Whether ``a`` has at least four times as many rows as columns.

    Work along such rows (the sweep's) runs faster over the leading axis of
    a transposed copy (:func:`last_axis_first`), where each numpy call
    covers every row, than along the rows, where numpy pays per row.
    """
    return a.size >= 4 * a.shape[-1] ** 2


def reduce_rows(ufunc, a):
    """Order-free reduction (max or min) along the rows.

    Over many short rows it runs over the leading axis of a transposed copy,
    below ``REDUCE_COPY_CAP``: the copy slows down as the array outgrows
    the cache, the row loop speeds up as the rows grow, so a large array of
    long rows, such as (64, 64, 64) logits, stays along its rows. Either
    way the result is the same, as max and min do not depend on the order.
    """
    if many_short_rows(a) and a.size * a.shape[-1] < REDUCE_COPY_CAP:
        return ufunc.reduce(last_axis_first(a), axis=0)
    return ufunc.reduce(a, axis=-1)


def pairwise_sum_first(cols):
    """``a.sum(axis=-1)`` bit for bit, given ``cols = last_axis_first(a)``.

    numpy adds a row of k <= ``PAIRWISE_BLOCK`` values pairwise: fewer
    than 8 in sequence, more into 8 accumulators, r_j = a_j + a_j+8 + ...,
    then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    values past the last multiple of 8 in sequence. This makes the same
    additions, each over every row at once. A longer row numpy splits
    into halves first; such rows are summed as a contiguous copy instead.
    """
    k = len(cols)
    if k > PAIRWISE_BLOCK:
        return np.moveaxis(cols, 0, -1).copy().sum(axis=-1)
    if k < 8:
        return np.add.reduce(cols, axis=0)
    body = k - k % 8
    r = np.add.reduce(cols[:body].reshape((body // 8, 8) + cols.shape[1:]),
                      axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    total = r[0] + r[1]
    for col in cols[body:]:
        total += col
    return total


def softmax_last(logits, out=None):
    """Unchecked softmax along the last axis; ``out`` may be ``logits``.

    The denominators are summed along the rows as they are laid out, which
    fixes their bits.
    """
    top = reduce_rows(np.maximum, logits)[..., None]
    shifted = np.subtract(logits, top, out=out)
    np.exp(shifted, out=shifted)
    return np.divide(shifted, shifted.sum(axis=-1, keepdims=True), out=shifted)


def row_softmax(logits, out=None):
    """Numerically stabilized softmax applied independently to each row."""
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("row_softmax requires finite logits")
    return softmax_last(logits, out)


def attend(q, k, v, softmax=softmax_last):
    """softmax(Q K^T / sqrt(D_K)) V, unchecked; the core of :func:`sdpa`.

    The softmax runs in place on the logits.
    """
    logits = q @ np.swapaxes(k, -1, -2)
    logits /= math.sqrt(q.shape[-1])
    return softmax(logits, out=logits) @ v


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
    return attend(q, k, v, row_softmax)


def multi_head_sdpa(heads, w_out=None):
    """Multi-head attention over explicit per-head (Q, K, V) triples.

    The unfolded form of the learned selection and MRA attention, which
    ``operators.fold`` folds into bilinear forms.
    Works over any leading axes, unchecked but for the head count. Per-head
    outputs are concatenated along the last axis and projected by
    ``w_out``; with a single head and ``w_out=None`` this reduces exactly
    to :func:`sdpa`.
    """
    heads = list(heads)
    if len(heads) < 1:
        raise ValueError("multi_head_sdpa needs at least one head")
    outputs = [attend(q, k, v) for q, k, v in heads]
    if w_out is None:
        if len(heads) > 1:
            raise ValueError("w_out is required for more than one head")
        return outputs[0]
    return np.concatenate(outputs, axis=-1) @ w_out
