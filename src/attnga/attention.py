"""Minimal dense attention kernel shared by all learned genetic operators.

Everything here is pure and works over any leading axes. The checked names
validate their input, then run the unchecked core that the engine calls.
The learned operators lay their logits out keys first, (K, ..., Q), and
take :func:`softmax_first` over the leading axis: the attention of
``operators.FoldedAttention`` and the selection and sampling draw of
``operators.softmax_categorical``. :func:`softmax_last` is the row form,
which the checked names and the engine's debug records take. Both give
the same bits.
"""

import math

import numpy as np

__all__ = ["row_softmax", "softmax_last", "softmax_first",
           "pairwise_sum_first", "PAIRWISE_BLOCK", "attend", "sdpa",
           "multi_head_sdpa"]

# numpy sums a contiguous row pairwise, in blocks of at most this many values.
PAIRWISE_BLOCK = 128


def pairwise_sum_first(cols):
    """``a.sum(axis=-1)`` bit for bit, given ``cols = np.moveaxis(a, -1, 0)``.

    numpy adds a row of k <= ``PAIRWISE_BLOCK`` values pairwise: fewer
    than 8 in sequence, more into 8 accumulators, r_j = a_j + a_j+8 + ...,
    then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    values past the last multiple of 8 in sequence. This makes the same
    additions, each over every row at once. A longer row numpy sums as two
    parts, the first half rounded down to a multiple of 8 values, and so
    does this.
    """
    k = len(cols)
    if k > PAIRWISE_BLOCK:
        half = k // 2 - k // 2 % 8
        return (pairwise_sum_first(cols[:half])
                + pairwise_sum_first(cols[half:]))
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


def softmax_first(cols):
    """Unchecked softmax over the leading axis of ``cols``, in place.

    The bits of :func:`softmax_last` of ``np.moveaxis(cols, 0, -1)``: the
    max does not depend on the order, and :func:`pairwise_sum_first` makes
    numpy's row-sum additions. Each step is one numpy call over every row.
    """
    cols -= np.maximum.reduce(cols, axis=0)
    np.exp(cols, out=cols)
    cols /= pairwise_sum_first(cols)
    return cols


def softmax_last(logits, out=None):
    """Unchecked softmax along the last axis; ``out`` may be ``logits``.

    The denominators are summed along the rows as they are laid out, which
    fixes their bits.
    """
    top = np.maximum.reduce(logits, axis=-1, keepdims=True)
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
