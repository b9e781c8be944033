"""Permutation equivariance of learned sampling and cross-over, from raw
inputs through the engine's feature builders and the folded cores.

Permuting the archive members that sampling attends over permutes their
sampling probabilities; permuting the parents that cross-over attends
over permutes their children. The builders are where the claim can break
(tied ranks, the z-score guard, the improvement flag, tanh(age / 20) and
the per-coordinate z and |z|), so each case starts from raw fitness,
ages and solutions, at the leading shapes of a run (), a batch of runs
(3,) and a batch of candidates (8,), each candidate with its own weights.

The check is not bit for bit: the z-score moments, the softmax
denominators and the value products sum over the population, and a
permuted population sums them in another order, so the results may
differ in the last bits. ``TOL`` bounds that rounding, in absolute terms
for the probabilities and times (1 + the value scale) for the children.
Over 600 random cases the largest deviations were 9e-16 and 1.1e-14, so
``TOL`` leaves a margin of about 100, and a wrong pairing of rows moves
a value by far more.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnga import operators as ops
from attnga.attention import softmax_last
from attnga.engine import FITNESS_CLIP
from attnga.features import (FITNESS_DIM, rows_crossover_features,
                             rows_sampling_features)
from attnga.params import FeatureConfig, LgaParams

LEADS = [(), (3,), (8,)]
TOL = 1e-12


def _weights(lead, seed, **slot):
    """Folded-core weights: one set for () and (3,), eight for (8,)."""
    cfg = FeatureConfig(**slot)
    candidates = lead if lead == (8,) else ()
    rows = np.random.default_rng([seed, 1]).normal(
        0.0, 0.5, candidates + (LgaParams.zeros(cfg).n_params,))
    return LgaParams.from_vector(cfg, rows).weights


def _fitness(rng, shape, scale, ties):
    """Raw fitness with, per row, tied values, one converged row and an
    unevaluated (+inf) member."""
    f = scale * rng.standard_normal(shape) ** 2
    f[..., -1] = np.inf
    if ties:
        f[..., 1::3] = f[..., :1]          # every third value ties the first
    if len(shape) > 1:
        f[0] = f[0, 0]                     # a converged row
    return f


def _permutations(rng, lead, k):
    """One permutation of k members per leading index, (*lead, k)."""
    return np.stack([rng.permutation(k) for _ in range(int(np.prod(lead)))]
                    ).reshape(lead + (k,))


def _sampling_probs(folded, f, age, best):
    feats = rows_sampling_features(np.minimum(f, FITNESS_CLIP), age, best,
                                   np.empty(f.shape + (FITNESS_DIM + 1,)))
    logits = ops.sampling_core(folded, feats)
    return softmax_last(np.moveaxis(logits[..., 0], 0, -1))


@pytest.mark.parametrize("lead", LEADS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), e=st.integers(2, 20),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), ties=st.booleans())
def test_learned_sampling_is_permutation_equivariant(lead, seed, e, scale,
                                                     ties):
    rng = np.random.default_rng(seed)
    folded = ops.fold(_weights(lead, seed, with_sampling=True), "smp")
    f = _fitness(rng, lead + (e,), scale, ties)
    age = rng.integers(0, 60, lead + (e,))
    if lead:
        age[0] = 7                         # the converged row's ages tie too
    # Best-so-far below, at or above the best member: flags none or some.
    best = f.min(axis=-1, keepdims=True) + scale * rng.choice([-0.5, 0, 0.5])
    probs = _sampling_probs(folded, f, age, best)
    perm = _permutations(rng, lead, e)
    got = _sampling_probs(folded, np.take_along_axis(f, perm, -1),
                          np.take_along_axis(age, perm, -1), best)
    np.testing.assert_allclose(got, np.take_along_axis(probs, perm, -1),
                               rtol=0, atol=TOL)


def _crossover_children(folded, f, x, best):
    feats = rows_crossover_features(
        np.minimum(f, FITNESS_CLIP), x, best,
        np.empty((x.shape[-1],) + f.shape + (FITNESS_DIM + 2,)))
    return ops.crossover_core(folded, feats, x)


@pytest.mark.parametrize("lead", LEADS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 20),
       d=st.integers(1, 6), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       ties=st.booleans())
def test_learned_crossover_is_permutation_equivariant(lead, seed, n, d,
                                                      scale, ties):
    rng = np.random.default_rng(seed)
    folded = ops.fold(_weights(lead, seed, with_crossover=True), "co")
    f = _fitness(rng, lead + (n,), scale, ties)
    x = scale * rng.standard_normal(lead + (n, d))
    if lead:
        x[0] = x[0, :1]                    # the converged row's parents tie
    best = f.min(axis=-1, keepdims=True) + scale * rng.choice([-0.5, 0, 0.5])
    children = _crossover_children(folded, f, x, best)
    perm = _permutations(rng, lead, n)
    got = _crossover_children(folded, np.take_along_axis(f, perm, -1),
                              np.take_along_axis(x, perm[..., None], -2),
                              best)
    np.testing.assert_allclose(
        got, np.take_along_axis(children, perm[..., None], -2),
        rtol=0, atol=TOL * (1 + scale))
