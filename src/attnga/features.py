"""Scale-invariant fitness and mutation-rate features for the learned operators.

All transforms are invariant to positive affine rescaling of the raw fitness
values, which is what lets a single set of operator weights act across tasks
with wildly different objective scales. Zero-variance guards keep converged
populations from producing NaNs.

Each learned operator reads one block of features, which a ``rows_*`` core
builds over any leading axes; every z-score is :func:`rows_z_score`.
"""

import numpy as np

from .attention import last_axis_first, many_short_rows

__all__ = [
    "average_ranks",
    "centered_ranks",
    "rows_centered_ranks",
    "rows_z_score",
    "z_score",
    "sigma_features",
    "rows_fitness_features",
    "rows_sigma_features",
    "rows_parent_features",
    "rows_joint_features",
    "rows_sampling_features",
    "rows_crossover_features",
    "FITNESS_DIM",
    "SIGMA_DIM",
    "CROSSOVER_DIM",
]

# Columns: z-score, centered rank, improvement flag.
FITNESS_DIM = 3
# Columns: z-score, min-max map to [-1, 1].
SIGMA_DIM = 2
# Columns of one search coordinate across the parents, which learned
# cross-over appends to their fitness features: z-score, absolute z-score.
CROSSOVER_DIM = 2

# Relative std threshold below which a population is treated as converged.
# The guard scales with the mean magnitude: summing values near the clip
# sentinel (~1e30) leaves ulp-level noise in the std, which an absolute
# threshold would mistake for genuine spread.
_VAR_GUARD = 1e-10


def average_ranks(values):
    """Ascending 1-based average ranks along the last axis.

    Any number of leading axes is allowed. The result equals
    ``scipy.stats.rankdata(values, method="average", axis=-1)`` exactly:
    tied values (equal infinities included) share the mean of their
    positions, which is a half-integer for an even-sized tie group, and a
    row that holds a NaN comes out all NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if values.size == 0:
        return np.empty(values.shape)
    rows = values.reshape(-1, n)
    # Sort every row, then work on the flat sorted sequence.
    offsets = np.arange(0, rows.size, n)[:, None]
    order = rows.argsort(axis=-1)
    order += offsets
    order = order.ravel()
    ordered = rows.ravel()[order]
    # A tie group starts at each row start and wherever the value changes.
    starts = np.empty(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts[::n] = True
    starts = starts.nonzero()[0]
    sizes = np.empty_like(starts)
    sizes[-1] = ordered.size
    sizes[:-1] = starts[1:]
    sizes -= starts
    # Flat positions s .. s+k-1 average to s + (k+1)/2; removing the row's
    # offset leaves the 1-based rank in the row. All exact in floats.
    mean_rank = (sizes + 1) * 0.5
    mean_rank += starts
    flat = mean_rank.repeat(sizes).reshape(rows.shape)
    flat -= offsets
    ranks = np.empty(ordered.size)
    ranks[order] = flat.ravel()
    ranks = ranks.reshape(values.shape)
    # argsort puts NaN last in its row.
    has_nan = np.isnan(ordered[n - 1::n]).reshape(values.shape[:-1])
    if has_nan.any():
        ranks[has_nan] = np.nan
    return ranks


def rows_centered_ranks(values, out=None):
    """Average ranks along the last axis mapped linearly into [-0.5, 0.5].

    Rows of one value map to zero.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if out is None:
        out = np.empty(values.shape)
    if n == 1:
        out.fill(0.0)
        return out
    ranks = average_ranks(values)
    ranks -= 1.0
    ranks /= n - 1.0
    return np.subtract(ranks, 0.5, out=out)


def _finite(values, name):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} requires finite values")
    return values


def _rates(sigma):
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("mutation rates must be positive and finite")
    return sigma


def centered_ranks(f):
    """Ascending average ranks mapped linearly into [-0.5, 0.5]."""
    return rows_centered_ranks(_finite(f, "centered_ranks").ravel())


def _row_moments(values):
    """Row mean, deviations and std in the steps of numpy's mean and std.

    Those are sum/n, deviations, squares, sum/n and sqrt, with the sums
    added in sequence (an accumulate), so every memory layout gives one
    result: numpy's own sum is pairwise along a contiguous row but
    sequential along a strided one, which would make a row's z-score
    depend on how a batch lays it out.
    """
    count = values.shape[-1]
    mean = np.add.accumulate(values, axis=-1)[..., -1:]
    mean /= count
    dev = values - mean
    std = np.add.accumulate(np.square(dev), axis=-1)[..., -1:]
    std /= count
    np.sqrt(std, out=std)
    return mean, dev, std


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def rows_z_score(values, out=None):
    """z-scores along the last axis; zero where the variance guard fires.

    Equals ``(values - mean) / std`` with sequentially summed moments, bit
    for bit and in any layout, wherever the std is finite. Finite rows
    whose sum or squares overflow (values beyond ~1e154) are recomputed
    from the row scaled by an exact power of two, which the z-score does
    not see; rows holding inf or NaN are left to come out non-finite,
    without floating-point warnings.
    """
    values = np.asarray(values, dtype=np.float64)
    mean, dev, std = _row_moments(values)
    unit = 1.0
    # A non-finite mean makes every deviation, hence the std, non-finite.
    if not np.isfinite(std).all():
        lost = ~np.isfinite(std)
        top = np.abs(values).max(axis=-1, keepdims=True)
        lost &= np.isfinite(top)    # rows holding inf or NaN stay lost
        _, exponent = np.frexp(top)
        exponent[~lost] = 0
        rescued = _row_moments(np.ldexp(values, -exponent))
        for kept, new in zip((mean, dev, std), rescued):
            np.copyto(kept, new, where=lost)
        # The guard's floor of 1, in the units of the scaled rows.
        unit = np.ldexp(1.0, -exponent)
    floor = np.abs(mean)
    np.maximum(floor, unit, out=floor)
    floor *= _VAR_GUARD
    z = np.divide(dev, std, out=dev if out is None else out)
    np.copyto(z, 0.0, where=std < floor)
    return z


def z_score(f):
    """Population z-score; all zeros when the variance guard fires."""
    f = _finite(f, "z_score")
    return rows_z_score(f.ravel()).reshape(f.shape)


# Feature blocks: each rows_* core writes its columns into ``out`` for any
# leading candidate axes, unchecked; the checked names below validate first.

def rows_fitness_features(f, best_so_far, out):
    """[z-score, centered rank, strict-improvement flag] of ``f``."""
    rows_z_score(f, out=out[..., 0])
    rows_centered_ranks(f, out=out[..., 1])
    np.less(f, best_so_far, out=out[..., 2])
    return out


def rows_sigma_features(sigma, out):
    """[z-score, min-max map to [-1, 1]] of the mutation rates ``sigma``."""
    rows_z_score(sigma, out=out[..., 0])
    rows, axis = ((last_axis_first(sigma), 0) if many_short_rows(sigma)
                  else (sigma, -1))
    lo = np.minimum.reduce(rows, axis=axis)[..., None]
    span = np.maximum.reduce(rows, axis=axis)[..., None] - lo
    flat = span < _VAR_GUARD
    span[flat] = 1.0
    minmax = np.subtract(sigma, lo, out=out[..., 1])
    minmax *= 2.0
    minmax /= span
    minmax -= 1.0
    np.copyto(minmax, 0.0, where=flat)
    return out


def rows_parent_features(f, sigma, best_so_far, out):
    """Fitness then mutation-rate features of the sampled parents.

    The transforms run over the N sampled parents, not the archive they
    were drawn from, so duplicated parents shift the normalization.
    """
    rows_fitness_features(f, best_so_far, out[..., :FITNESS_DIM])
    rows_sigma_features(sigma, out[..., FITNESS_DIM:])
    return out


def rows_joint_features(f_children, f_parents, best_so_far, out):
    """Features of ``[children, parents]``; returns their rows of ``out``.

    The z-scores and ranks run over the joint vector, so children and
    parents live on one scale.
    """
    n = f_children.shape[-1]
    rows_fitness_features(np.concatenate((f_children, f_parents), axis=-1),
                          best_so_far, out)
    return out[..., :n, :], out[..., n:, :]


def rows_sampling_features(f, age, best_so_far, out):
    """Fitness features, then tanh(age / 20), which resolves ~50 gens."""
    rows_fitness_features(f, best_so_far, out[..., :FITNESS_DIM])
    scaled = np.divide(age, 20.0, out=out[..., FITNESS_DIM])
    np.tanh(scaled, out=scaled)
    return out


def rows_crossover_features(f, x, best_so_far, out):
    """Per coordinate of ``x`` (..., N, D): features of ``f``, z and |z|.

    The z-scores run over the N parents. The coordinate axis leads ``out``,
    (D, ..., N, 5), so its rows line up with a candidate batch's forms.
    """
    rows_fitness_features(f, best_so_far, out[0, ..., :FITNESS_DIM])
    out[1:, ..., :FITNESS_DIM] = out[0, ..., :FITNESS_DIM]
    z = rows_z_score(np.moveaxis(x, -1, 0), out=out[..., FITNESS_DIM])
    np.absolute(z, out=out[..., FITNESS_DIM + 1])
    return out


def sigma_features(sigma):
    """(n, 2) matrix of [z-score, min-max map to [-1, 1]] of mutation rates."""
    sigma = _rates(sigma)
    return rows_sigma_features(sigma, np.empty(sigma.shape + (SIGMA_DIM,)))
