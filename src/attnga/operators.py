"""Genetic operators: learned attention modules and white-box baselines.

All operators are pure given an explicit ``numpy.random.Generator``; the GA
engine composes them and owns the draw order. The learned-operator cores
take any leading candidate axes and check nothing; the engine calls them
directly, and the checked names validate and then run them. The baseline
operators the engine runs take leading axes too, an archive's arrays
included. Their draws follow ``draws.per_run``: one generator draws the
per-run shape once and every leading axis shares it, and a sequence of
one generator per run draws each run's slice alone.

All four learned operators attend over a few features (3 to 5 columns)
with d_k = 16, so :func:`fold` folds their projections into small bilinear
forms, Q_h K_h^T = F A_h F^T, and the value path after the softmax into a
small matrix. The engine folds them once per run or candidate batch.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .attention import (PAIRWISE_BLOCK, last_axis_first, many_short_rows,
                        pairwise_sum_first, row_softmax, softmax_last)
from .draws import per_run

__all__ = [
    "ParentArchive",
    "FoldedAttention",
    "fold",
    "selection_core",
    "mra_core",
    "sampling_core",
    "crossover_core",
    "selection_logits",
    "learned_selection_probs",
    "sample_selection",
    "apply_selection",
    "replacement_core",
    "mra_multiplier",
    "parents_at",
    "take_rows",
    "uniform_sample_parents",
    "mutate_core",
    "gaussian_mutate",
    "truncation_selection",
    "mr_one_fifth",
    "samr_adapt",
    "gesmr_adapt",
    "categorical_indices",
    "softmax_categorical",
]

# Mutation-rate clamps shared by the white-box adaptation rules.
SIGMA_MIN = 1e-8
SIGMA_MAX = 1e3
# The learned multiplicative adaptation is clamped to [e^-10, e^10].
LOG_DELTA_CLAMP = 10.0


@dataclass
class ParentArchive:
    """Elite solutions with fitness, mutation rates and survival ages."""

    x: np.ndarray       # (..., E, D)
    f: np.ndarray       # (..., E)
    sigma: np.ndarray   # (..., E), strictly positive
    age: np.ndarray     # (..., E), generations survived

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        self.age = np.asarray(self.age, dtype=np.int64)
        self.check_rates(self.sigma)
        if np.any(self.age < 0):
            raise ValueError("archive ages must be non-negative")

    @staticmethod
    def check_rates(sigma):
        """Raise unless every mutation rate of an archive is positive."""
        if np.any(sigma <= 0):
            raise ValueError("archive mutation rates must be positive")

    @property
    def size(self):
        return self.f.shape[-1]


def _archive(x, f, sigma, age):
    """A :class:`ParentArchive` of arrays an operator built, unchecked."""
    new = object.__new__(ParentArchive)
    new.x, new.f, new.sigma, new.age = x, f, sigma, age
    return new


class FoldedAttention:
    """An attention operator folded into bilinear forms of its features.

    With features F (a few columns) and per-head projections, the scores
    Q_h K_h^T / sqrt(d_k) are F_q A_h F_kv^T with the small form
    ``forms[h]`` = A_h, and everything after the attention is linear, so it
    folds into ``value``: the heads' value maps stacked along rows,
    (..., H * d, c). Leading candidate axes are allowed. The object also
    keeps the logits and mixed-feature buffers of the last shape it ran
    on, so a run or candidate batch that folds once allocates them once.
    """

    def __init__(self, forms, value):
        self.forms = forms
        self.value = value
        self._scratch = None

    @property
    def width(self):
        """Feature columns the operator reads: the size of its forms."""
        return self.forms[0].shape[-1]

    def attend(self, feats_q, feats_kv):
        """concat_h softmax((F_q A_h) F_kv^T) F_kv, into a reused buffer."""
        d = feats_kv.shape[-1]
        shape = feats_q.shape[:-1] + feats_kv.shape[-2:-1]
        if self._scratch is None or self._scratch[0].shape != shape:
            self._scratch = (np.empty(shape),
                             np.empty(shape[:-1] + (d * len(self.forms),)))
        logits, mixed = self._scratch
        keys = feats_kv.swapaxes(-1, -2)
        for h, form in enumerate(self.forms):
            np.matmul(feats_q @ form, keys, out=logits)
            softmax_last(logits, out=logits)
            np.matmul(logits, feats_kv, out=mixed[..., h * d:(h + 1) * d])
        return mixed


def fold(w, op):
    """Fold learned operator ``op``: ``sel``, ``mra``, ``smp`` or ``co``.

    Per head, A_h = W_q,h W_k,h^T / sqrt(d_k) (d_k the width of W_q), and
    the value is W_v,h (W_out,h T), W_v,h T for one head, with the op's
    value tail T, the heads' values stacked along rows:
    - ``sel``: T = W_q2 W_k2^T / sqrt(d_k). The logits are
      softmax(F_p A_h F_c^T) F_c B_h F_c^T summed over heads; B is (3H, 3).
    - ``mra``: T = w_sigma. The log-multiplier is
      1/2 softmax(F_m A'_h F_m^T) F_m u_h summed over heads; u is (5H, 1).
    - ``co`` (one head): T = W_dx. ``smp`` (one head): no T, value W_v.
    The float32 weights are cast to float64 before any product.
    """
    wq, wk, wv = (np.asarray(w[f"{op}_{p}"], dtype=np.float64)
                  for p in ("q", "k", "v"))
    if op in ("smp", "co"):     # one head, stored without a head axis
        wq, wk, wv = (np.expand_dims(a, -3) for a in (wq, wk, wv))
    heads, d, d_k = wq.shape[-3:]
    forms = wq @ np.swapaxes(wk, -1, -2)
    forms /= math.sqrt(d_k)
    if op != "smp":     # the value path: W_v, then W_out, then the tail
        if op == "sel":
            tail = np.asarray(w["sel_q2"], dtype=np.float64) @ np.swapaxes(
                np.asarray(w["sel_k2"], dtype=np.float64), -1, -2)
            tail /= math.sqrt(d_k)
        else:
            tail = np.asarray(w["mra_sigma" if op == "mra" else "co_dx"],
                              dtype=np.float64)
        tail = tail[..., None, :, :]
        w_out = w.get(f"{op}_out")
        if w_out is not None:
            w_out = np.asarray(w_out, dtype=np.float64)
            tail = w_out.reshape(w_out.shape[:-2] + (heads, d_k, d_k)) @ tail
        wv = wv @ tail
    return FoldedAttention(
        tuple(forms[..., h, :, :] for h in range(heads)),
        wv.reshape(wv.shape[:-3] + (heads * d, wv.shape[-1])))


def selection_core(folded, feats_parents, feats_children, out):
    """Unchecked :func:`selection_logits` into ``out``, keep column preset."""
    mixed = folded.attend(feats_parents, feats_children)
    np.matmul(mixed @ folded.value, feats_children.swapaxes(-1, -2),
              out=out[..., :-1])
    return out


def mra_core(folded, mra_feats):
    """Unchecked core of :func:`mra_multiplier`."""
    mixed = folded.attend(mra_feats, mra_feats)
    log_delta = (mixed @ folded.value)[..., 0]
    log_delta *= 0.5
    np.clip(log_delta, -LOG_DELTA_CLAMP, LOG_DELTA_CLAMP, out=log_delta)
    return np.exp(log_delta, out=log_delta)


def sampling_core(folded, feats):
    """Unchecked sampling probabilities (..., E) of the archive members."""
    raw = (folded.attend(feats, feats) @ folded.value)[..., 0]
    return softmax_last(raw, out=raw)


def crossover_core(folded, feats, x_parents):
    """Unchecked parents (..., N, D) plus their learned cross-over changes."""
    delta = (folded.attend(feats, feats) @ folded.value)[..., 0]
    return x_parents + np.moveaxis(delta, 0, -1)


def _checked_features(feats, width, what):
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[1] != width:
        raise ValueError(f"{what} feature width {feats.shape[1]} != {width}")
    if not np.all(np.isfinite(feats)):
        raise ValueError(f"{what} features must be finite")
    return feats


def selection_logits(params, feats_parents, feats_children):
    """E x (N+1) selection logits; the last column is the fixed keep offset."""
    folded = fold(params.weights, "sel")
    feats_parents = _checked_features(feats_parents, folded.width, "parent")
    feats_children = _checked_features(feats_children, folded.width, "child")
    out = np.ones((feats_parents.shape[0], feats_children.shape[0] + 1))
    return selection_core(folded, feats_parents, feats_children, out)


def learned_selection_probs(params, feats_parents, feats_children):
    """Row-stochastic replacement probabilities, keep-parent slot last."""
    return row_softmax(selection_logits(params, feats_parents,
                                        feats_children))


def categorical_indices(probs, u):
    """Row-wise inverse-CDF categorical draw from row-stochastic ``probs``.

    ``u`` holds one uniform per row; leading candidate axes may share it.
    The CDF is summed in sequence over the leading axis of a transposed
    view, which gives the bits of a cumulative sum along each row.
    """
    cdf = np.add.accumulate(np.moveaxis(probs, -1, 0), axis=0)
    return np.minimum(np.add.reduce(cdf < u, axis=0), probs.shape[-1] - 1)


def softmax_categorical(logits, u, keep_probs=False):
    """``categorical_indices(softmax_last(logits), u)`` and the probabilities.

    Returns the indices, and with ``keep_probs`` the probabilities (else
    None). Over many short rows of at most ``PAIRWISE_BLOCK`` columns the
    softmax and the draw share one transposed copy of the logits: its max,
    exp and denominators (``attention.pairwise_sum_first``, the bits of
    the row sums ``softmax_last`` takes) run over the leading axis, the
    probabilities go back to rows only when they are kept, and the CDF
    overwrites the copy one column at a time: the additions of
    :func:`categorical_indices` in its order, without a strided
    accumulate. Other shapes take the softmax along the rows.
    """
    if not (many_short_rows(logits) and logits.shape[-1] <= PAIRWISE_BLOCK):
        probs = softmax_last(logits)
        return categorical_indices(probs, u), probs if keep_probs else None
    cols = last_axis_first(logits)
    cols -= np.maximum.reduce(cols, axis=0)
    np.exp(cols, out=cols)
    cols /= pairwise_sum_first(cols)
    probs = np.moveaxis(cols, 0, -1).copy() if keep_probs else None
    k = len(cols)
    for j in range(1, k):
        np.add(cols[j - 1], cols[j], out=cols[j])
    return np.minimum(np.add.reduce(cols < u, axis=0), k - 1), probs


def sample_selection(probs, rng):
    """One categorical draw per row, returned as a 0/1 selection matrix."""
    probs = np.asarray(probs, dtype=np.float64)
    idx = categorical_indices(probs, rng.random(probs.shape[0]))
    sample = np.zeros_like(probs)
    sample[np.arange(probs.shape[0]), idx] = 1.0
    return sample


def apply_selection(sample, child_x, child_f, child_sigma, archive):
    """Replace archive rows per the 0/1 selection matrix.

    Column N (the last one) keeps the parent and increments its age; any
    other column copies that child's solution, fitness and mutation rate and
    resets the age. A single child may replace several parents.
    """
    sample = np.asarray(sample)
    n = np.asarray(child_f).size
    if sample.shape != (archive.size, n + 1):
        raise ValueError("selection matrix shape mismatch")
    return replacement_core(sample.argmax(axis=1),
                            np.asarray(child_x, dtype=np.float64),
                            np.asarray(child_f, dtype=np.float64),
                            np.asarray(child_sigma, dtype=np.float64),
                            archive)


def take_rows(idx, *arrays):
    """Rows ``idx[r]`` of ``a[r]`` for each leading index r, for each array.

    ``idx`` is (..., K) and every array (..., E, *tail) with the same E;
    each result is (..., K, *tail), and is ``a[idx]`` with no leading axes.
    Each is one ``take`` over the flattened leading and row axes, which
    costs a third of the fancy index ``a[r, idx[r]]``.
    """
    lead = idx.shape[:-1]
    flat = idx + _row_offsets(lead, arrays[0].shape[len(lead)])
    return [a.reshape((-1,) + a.shape[len(lead) + 1:]).take(flat, axis=0)
            for a in arrays]


@functools.lru_cache(maxsize=16)
def _row_offsets(lead, e):
    """Read-only flat offsets r * e of the leading indices r, (*lead, 1)."""
    offsets = np.arange(0, math.prod(lead) * e, e).reshape(lead + (1,))
    offsets.flags.writeable = False
    return offsets


def replacement_core(chosen, child_x, child_f, child_sigma, archive):
    """Unchecked :func:`apply_selection` by the chosen column of each row."""
    n = child_f.shape[-1]
    keep = chosen == n
    x, f, sigma = take_rows(np.minimum(chosen, n - 1), child_x, child_f,
                            child_sigma)
    age = archive.age + 1
    age *= keep
    return _archive(np.where(keep[..., None], archive.x, x),
                    np.where(keep, archive.f, f),
                    np.where(keep, archive.sigma, sigma), age)


def mra_multiplier(params, mra_feats):
    """Per-member multiplicative mutation-rate change from self-attention."""
    folded = fold(params.weights, "mra")
    return mra_core(folded, _checked_features(mra_feats, folded.width, "MRA"))


def parents_at(archive, idx):
    """Solutions, fitness and rates of rows ``idx`` of each run's archive.

    ``idx`` is (..., N), or (N,) shared by every leading index.
    """
    if idx.ndim < archive.f.ndim:
        return (archive.x.take(idx, axis=-2), archive.f.take(idx, axis=-1),
                archive.sigma.take(idx, axis=-1))
    return tuple(take_rows(idx, archive.x, archive.f, archive.sigma))


def uniform_sample_parents(archive, n, rng):
    """N i.i.d. uniform draws with replacement from each run's archive.

    The indices are (N,) when one generator draws them for every leading
    axis, and (R, N) for R generators.
    """
    e = archive.f.shape[-1]
    if e < 1:
        raise ValueError("archive is empty")
    idx = per_run(rng, lambda g, size: g.integers(0, e, size), (n,),
                  archive.f.shape[:-1])
    return (idx,) + parents_at(archive, idx)


def mutate_core(x, sigma, rng):
    """Unchecked :func:`gaussian_mutate` of float64 arrays."""
    return x + sigma[..., None] * per_run(
        rng, lambda g, size: g.standard_normal(size), x.shape[-2:],
        x.shape[:-2])


def gaussian_mutate(x, sigma, rng):
    """Isotropic Gaussian perturbation, one rate per row."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma < 0).any():
        raise ValueError("mutation rates must be non-negative")
    return mutate_core(x, sigma, rng)


def truncation_selection(child_x, child_f, child_sigma, archive):
    """Keep the top-E of each run's joint child+parent pool (minimization).

    Ties resolve in favour of children, then lower index, so fresh
    solutions win and the sort is fully deterministic: the pool lists the
    children first and the sort is stable. The kept rates are not checked
    again; callers whose rates may be non-positive check them.
    """
    child_x = np.asarray(child_x, dtype=np.float64)
    child_f = np.asarray(child_f, dtype=np.float64)
    child_sigma = np.asarray(child_sigma, dtype=np.float64)
    pool_f = np.concatenate([child_f, archive.f], axis=-1)
    order = np.argsort(pool_f, axis=-1, kind="stable")[..., :archive.size]
    pool_age = np.zeros(pool_f.shape, dtype=np.int64)
    np.add(archive.age, 1, out=pool_age[..., child_f.shape[-1]:])
    return _archive(*take_rows(
        order, np.concatenate([child_x, archive.x], axis=-2), pool_f,
        np.concatenate([child_sigma, archive.sigma], axis=-1), pool_age))


def mr_one_fifth(sigma, successes, trials):
    """Double the rate when at least a fifth of perturbations improved.

    ``sigma`` and ``successes`` may be arrays of one value per run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    new = np.where(np.divide(successes, trials) >= 0.2, 2.0 * sigma,
                   0.5 * sigma)
    return np.clip(new, SIGMA_MIN, SIGMA_MAX)


def samr_adapt(sigma_parent, meta_rate, rng):
    """Self-adaptive rates: multiply or divide by the meta rate, 50/50.

    Accepts a scalar, a vector or one vector per run of parent rates; the
    adapted rates ride along with their children through selection
    (co-evolution).
    """
    sigma_parent = np.asarray(sigma_parent, dtype=np.float64)
    if np.any(sigma_parent <= 0) or meta_rate <= 0:
        raise ValueError("rates must be positive")
    u = per_run(rng, lambda g, size: g.random(size),
                sigma_parent.shape[-1:], sigma_parent.shape[:-1])
    factor = np.where(u < 0.5, meta_rate, 1.0 / meta_rate)
    return np.clip(sigma_parent * factor, SIGMA_MIN, SIGMA_MAX)


def gesmr_adapt(sigma_groups, group_improvements, rng):
    """Group-elite mutation-rate sharing.

    The group with the best (lowest) fitness-improvement statistic keeps
    its rate; every other group resamples log-uniformly within one octave
    of the elite rate. Ties pick the lowest group index. The groups lie
    along the last axis.
    """
    sigma_groups = np.asarray(sigma_groups, dtype=np.float64)
    group_improvements = np.asarray(group_improvements, dtype=np.float64)
    if sigma_groups.shape != group_improvements.shape:
        raise ValueError("group count mismatch")
    elite = np.argmin(group_improvements, axis=-1)[..., None]
    elite_rate = np.take_along_axis(sigma_groups, elite, axis=-1)
    draws = per_run(rng, lambda g, size: g.uniform(-np.log(2.0), np.log(2.0),
                                                   size),
                    sigma_groups.shape[-1:], sigma_groups.shape[:-1])
    new = elite_rate * np.exp(draws)
    np.put_along_axis(new, elite, elite_rate, axis=-1)
    return np.clip(new, SIGMA_MIN, SIGMA_MAX)
