"""Scale-invariant fitness and mutation-rate features for the learned operators.

All transforms are invariant to positive affine rescaling of the raw fitness
values, which is what lets a single set of operator weights act across tasks
with wildly different objective scales. Zero-variance guards keep converged
populations from producing NaNs.
"""

import numpy as np

__all__ = [
    "average_ranks",
    "centered_ranks",
    "rows_centered_ranks",
    "rows_z_score",
    "z_score",
    "fitness_features",
    "build_joint_fitness_features",
    "sigma_features",
    "build_sampled_parent_features",
    "FITNESS_DIM",
    "SIGMA_DIM",
]

# Columns: z-score, centered rank, improvement flag.
FITNESS_DIM = 3
# Columns: z-score, min-max map to [-1, 1].
SIGMA_DIM = 2

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
    order = np.argsort(rows, axis=-1)
    order += offsets
    order = order.ravel()
    ordered = rows.ravel()[order]
    # A tie group starts at each row start and wherever the value changes.
    starts = np.empty(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts[::n] = True
    starts = np.flatnonzero(starts)
    sizes = np.empty_like(starts)
    sizes[-1] = ordered.size
    sizes[:-1] = starts[1:]
    sizes -= starts
    # Flat positions s .. s+k-1 average to s + (k+1)/2; removing the row's
    # offset leaves the 1-based rank in the row. All exact in floats.
    mean_rank = (sizes + 1) * 0.5
    mean_rank += starts
    flat = np.repeat(mean_rank, sizes).reshape(rows.shape)
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


def centered_ranks(f):
    """Ascending average ranks mapped linearly into [-0.5, 0.5]."""
    f = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise ValueError("centered_ranks requires finite values")
    return rows_centered_ranks(f.ravel())


def _row_moments(values):
    """Row mean, deviations and std in the steps of numpy's mean and std.

    Those are sum/n, deviations, squares, sum/n and sqrt; the row sum is
    taken once and shared, so mean and std equal ``values.mean(-1)`` and
    ``values.std(-1)`` bit for bit.
    """
    count = values.shape[-1]
    mean = np.add.reduce(values, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean)
    dev = np.subtract(values, mean)
    std = np.add.reduce(np.square(dev), axis=-1, keepdims=True)
    np.true_divide(std, count, out=std)
    np.sqrt(std, out=std)
    return mean, dev, std


def rows_z_score(values, out=None):
    """z-scores along the last axis; zero where the variance guard fires.

    Equals ``(values - mean) / std`` bit for bit wherever the std is
    finite. Finite rows whose sum or squares overflow (values beyond
    ~1e154) are recomputed from the row scaled by an exact power of two,
    which the z-score does not see; rows holding inf or NaN are left to
    come out non-finite, without floating-point warnings.
    """
    values = np.asarray(values, dtype=np.float64)
    unit = 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean, dev, std = _row_moments(values)
        # A non-finite mean makes every deviation, hence the std, non-finite.
        lost = ~np.isfinite(std)
        if lost.any():
            top = np.abs(values).max(axis=-1, keepdims=True)
            lost &= np.isfinite(top)    # rows holding inf or NaN stay lost
            _, exponent = np.frexp(top)
            exponent[~lost] = 0
            rescued = _row_moments(np.ldexp(values, -exponent))
            for kept, new in zip((mean, dev, std), rescued):
                np.copyto(kept, new, where=lost)
            # The guard's floor of 1, in the units of the scaled rows.
            unit = np.ldexp(1.0, -exponent)
        z = np.divide(dev, std, out=dev if out is None else out)
    guard = std < _VAR_GUARD * np.maximum(unit, np.abs(mean))
    if guard.any():
        z[np.broadcast_to(guard, z.shape)] = 0.0
    return z


def z_score(f):
    """Population z-score; all zeros when the variance guard fires."""
    f = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise ValueError("z_score requires finite values")
    return rows_z_score(f.ravel()).reshape(f.shape)


def fitness_features(f, best_so_far):
    """(n, 3) matrix of [z-score, centered rank, strict-improvement flag]."""
    f = np.asarray(f, dtype=np.float64)
    flags = (f < best_so_far).astype(np.float64)
    return np.column_stack([z_score(f), centered_ranks(f), flags])


def build_joint_fitness_features(f_children, f_parents, best_so_far):
    """Joint child+parent fitness features, plus the two split views.

    The z-scores and centered ranks are computed over the concatenated
    ``[children, parents]`` vector so the two groups live on one common
    scale; the children occupy the first N rows of the joint matrix.
    """
    f_children = np.asarray(f_children, dtype=np.float64)
    f_parents = np.asarray(f_parents, dtype=np.float64)
    if f_children.size == 0 or f_parents.size == 0:
        raise ValueError("need at least one child and one parent")
    n = f_children.size
    joint = fitness_features(np.concatenate([f_children, f_parents]),
                             best_so_far)
    return joint, joint[:n], joint[n:]


def sigma_features(sigma):
    """(n, 2) matrix of [z-score, min-max map to [-1, 1]] of mutation rates."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("mutation rates must be positive and finite")
    lo, hi = sigma.min(), sigma.max()
    if hi - lo < _VAR_GUARD:
        minmax = np.zeros_like(sigma)
    else:
        minmax = 2.0 * (sigma - lo) / (hi - lo) - 1.0
    return np.column_stack([z_score(sigma), minmax])


def build_sampled_parent_features(f_sampled, sigma_sampled, best_so_far):
    """Concatenated fitness + mutation-rate features of the sampled parents.

    Fitness transforms are recomputed over the N sampled parents only (not
    the archive they were drawn from), so duplicated parents shift the
    normalization accordingly.
    """
    fit = fitness_features(f_sampled, best_so_far)
    sig = sigma_features(sigma_sampled)
    if fit.shape[0] != sig.shape[0]:
        raise ValueError("fitness/sigma length mismatch")
    return np.column_stack([fit, sig])
