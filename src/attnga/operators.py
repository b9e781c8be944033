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

import copy
import math
from dataclasses import dataclass

import numpy as np

from .attention import last_axis_first, row_softmax, softmax_last
from .draws import per_run
from .features import FITNESS_DIM, SIGMA_DIM

__all__ = [
    "ParentArchive",
    "FoldedAttention",
    "fold",
    "fold_selection",
    "fold_mra",
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
    "uniform_sample_parents",
    "gaussian_mutate",
    "truncation_selection",
    "mr_one_fifth",
    "samr_adapt",
    "gesmr_adapt",
    "categorical_indices",
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
        if np.any(self.sigma <= 0):
            raise ValueError("archive mutation rates must be positive")
        if np.any(self.age < 0):
            raise ValueError("archive ages must be non-negative")

    @property
    def size(self):
        return self.f.shape[-1]


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

    def attend(self, feats_q, feats_kv):
        """concat_h softmax((F_q A_h) F_kv^T) F_kv, into a reused buffer."""
        d = feats_kv.shape[-1]
        shape = feats_q.shape[:-1] + feats_kv.shape[-2:-1]
        if self._scratch is None or self._scratch[0].shape != shape:
            self._scratch = (np.empty(shape),
                             np.empty(shape[:-1] + (d * len(self.forms),)))
        logits, mixed = self._scratch
        keys = np.swapaxes(feats_kv, -1, -2)
        for h, form in enumerate(self.forms):
            np.matmul(feats_q @ form, keys, out=logits)
            softmax_last(logits, out=logits)
            np.matmul(logits, feats_kv, out=mixed[..., h * d:(h + 1) * d])
        return mixed


def fold(w, prefix, tail=None):
    """Fold attention block ``prefix`` and the linear map ``tail`` after it.

    ``tail`` is T for selection, w_sigma for MRA and W_dx for cross-over;
    sampling has none, so its value is W_v. d_k is the width of W_q. The
    float32 weights are cast to float64 before any product.
    """
    wq, wk, wv = (np.asarray(w[f"{prefix}_{p}"], dtype=np.float64)
                  for p in ("q", "k", "v"))
    if prefix in ("smp", "co"):     # one head, stored without a head axis
        wq, wk, wv = (np.expand_dims(a, -3) for a in (wq, wk, wv))
    heads, d, d_k = wq.shape[-3:]
    forms = wq @ np.swapaxes(wk, -1, -2)
    forms /= math.sqrt(d_k)
    if tail is not None:    # the value path: W_v, then W_out, then tail
        tail = np.asarray(tail, dtype=np.float64)[..., None, :, :]
        w_out = w.get(f"{prefix}_out")
        if w_out is not None:
            w_out = np.asarray(w_out, dtype=np.float64)
            tail = w_out.reshape(w_out.shape[:-2] + (heads, d_k, d_k)) @ tail
        wv = wv @ tail
    return FoldedAttention(
        tuple(forms[..., h, :, :] for h in range(heads)),
        wv.reshape(wv.shape[:-3] + (heads * d, wv.shape[-1])))


def fold_selection(w):
    """Selection attention as A_h = W_q,h W_k,h^T / sqrt(d_k) and B.

    The logits are softmax(F_p A_h F_c^T) F_c B_h F_c^T summed over heads,
    with B_h = W_v,h (W_out,h T) (W_v,h T for one head) and
    T = W_q2 W_k2^T / sqrt(d_k); B stacks the B_h along rows, (3H, 3).
    """
    w_q2 = np.asarray(w["sel_q2"], dtype=np.float64)
    w_k2 = np.asarray(w["sel_k2"], dtype=np.float64)
    tail = w_q2 @ np.swapaxes(w_k2, -1, -2)
    tail /= math.sqrt(w_q2.shape[-1])
    return fold(w, "sel", tail)


def fold_mra(w):
    """MRA attention as A'_h and u_h = W_v,h (W_out,h w_sigma), (5H, 1).

    The log-multiplier is 1/2 softmax(F_m A'_h F_m^T) F_m u_h summed over
    heads (u_h = W_v,h w_sigma for one head).
    """
    return fold(w, "mra", w["mra_sigma"])


def selection_core(folded, feats_parents, feats_children, out):
    """Unchecked :func:`selection_logits` into ``out``, keep column preset."""
    mixed = folded.attend(feats_parents, feats_children)
    np.matmul(mixed @ folded.value, np.swapaxes(feats_children, -1, -2),
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
    feats_parents = _checked_features(feats_parents, FITNESS_DIM, "parent")
    feats_children = _checked_features(feats_children, FITNESS_DIM, "child")
    out = np.ones((feats_parents.shape[0], feats_children.shape[0] + 1))
    return selection_core(fold_selection(params.weights), feats_parents,
                          feats_children, out)


def learned_selection_probs(params, feats_parents, feats_children):
    """Row-stochastic replacement probabilities, keep-parent slot last."""
    return row_softmax(selection_logits(params, feats_parents,
                                        feats_children))


def categorical_indices(probs, u):
    """Row-wise inverse-CDF categorical draw from row-stochastic ``probs``.

    ``u`` holds one uniform per row; leading candidate axes may share it.
    The CDF is summed in sequence over the leading axis of a transposed
    view, which gives the bits of a cumulative sum along each row. Over
    many short rows (the rule of ``attention.reduce_rows``) the view is a
    contiguous copy summed one column at a time: the same additions in the
    same order, without a strided accumulate. Over few long rows the
    accumulate stays, as the loop's one call per column costs more there.
    """
    k = probs.shape[-1]
    if probs.size >= 4 * k * k:
        cdf = last_axis_first(probs)
        for j in range(1, k):
            np.add(cdf[j - 1], cdf[j], out=cdf[j])
    else:
        cdf = np.add.accumulate(np.moveaxis(probs, -1, 0), axis=0)
    return np.minimum(np.add.reduce(cdf < u, axis=0), k - 1)


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


def _rows(idx):
    """Index of rows ``idx[r]`` of ``a[r]`` for each leading index r.

    ``idx`` is (..., K) and ``a`` (..., E, *tail); ``a[_rows(idx)]`` is
    (..., K, *tail), and is ``a[idx]`` with no leading axes.
    """
    lead = idx.shape[:-1]
    return tuple(np.arange(k).reshape((k,) + (1,) * (len(lead) - i))
                 for i, k in enumerate(lead)) + (idx,)


def replacement_core(chosen, child_x, child_f, child_sigma, archive):
    """Unchecked :func:`apply_selection` by the chosen column of each row."""
    n = child_f.shape[-1]
    keep = chosen == n
    child = _rows(np.minimum(chosen, n - 1))
    new = copy.copy(archive)
    new.x = np.where(keep[..., None], archive.x, child_x[child])
    new.f = np.where(keep, archive.f, child_f[child])
    new.sigma = np.where(keep, archive.sigma, child_sigma[child])
    new.age = archive.age + 1
    new.age *= keep
    return new


def mra_multiplier(params, mra_feats):
    """Per-member multiplicative mutation-rate change from self-attention."""
    mra_feats = _checked_features(mra_feats, FITNESS_DIM + SIGMA_DIM, "MRA")
    return mra_core(fold_mra(params.weights), mra_feats)


def parents_at(archive, idx):
    """Solutions, fitness and rates of rows ``idx`` of each run's archive.

    ``idx`` is (..., N), or (N,) shared by every leading index.
    """
    lead = archive.f.shape[:-1]
    rows = (slice(None),) * (len(lead) + 1 - idx.ndim) + _rows(idx)
    return archive.x[rows], archive.f[rows], archive.sigma[rows]


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


def gaussian_mutate(x, sigma, rng):
    """Isotropic Gaussian perturbation, one rate per row."""
    x = np.asarray(x, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma < 0).any():
        raise ValueError("mutation rates must be non-negative")
    return x + sigma[..., None] * per_run(
        rng, lambda g, size: g.standard_normal(size), x.shape[-2:],
        x.shape[:-2])


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
    order = _rows(np.argsort(pool_f, axis=-1, kind="stable")
                  [..., :archive.size])
    kept = copy.copy(archive)
    kept.x = np.concatenate([child_x, archive.x], axis=-2)[order]
    kept.f = pool_f[order]
    kept.sigma = np.concatenate([child_sigma, archive.sigma], axis=-1)[order]
    kept.age = np.concatenate([np.zeros(child_f.shape, dtype=np.int64),
                               archive.age + 1], axis=-1)[order]
    return kept


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
    elite = _rows(np.argmin(group_improvements, axis=-1)[..., None])
    elite_rate = sigma_groups[elite]
    draws = per_run(rng, lambda g, size: g.uniform(-np.log(2.0), np.log(2.0),
                                                   size),
                    sigma_groups.shape[-1:], sigma_groups.shape[:-1])
    new = elite_rate * np.exp(draws)
    new[elite] = elite_rate
    return np.clip(new, SIGMA_MIN, SIGMA_MAX)
