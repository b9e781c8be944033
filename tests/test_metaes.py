"""Unit tests for the outer evolution strategy."""

import numpy as np
import pytest

from attnga.features import centered_ranks
from attnga.metaes import OpenAiEs


def test_popsize_must_be_even():
    with pytest.raises(ValueError):
        OpenAiEs(4, popsize=5)


_STEP = ((0.0, -1.0, np.nan, np.inf), "positive and finite", 5e-324)
_DECAY = ((np.nan, -1.0, 0.0, 2.0, np.inf), r"in \(0, 1\]", 1.0)

# Setting -> (values it rejects, its rule, a value at the edge it accepts).
_SETTINGS = {"lr": _STEP, "lr_final": _STEP, "sigma": _STEP,
             "sigma_final": _STEP, "lr_decay": _DECAY, "sigma_decay": _DECAY,
             "mean_decay": ((-0.1, 1.0, np.nan), r"in \[0, 1\)", 0.0),
             "popsize": ((0, -2, 3, 4.0, True), "an even integer, at least 2",
                         2)}


@pytest.mark.parametrize("name", list(_SETTINGS))
def test_step_sizes_must_be_positive_and_finite(name):
    """sigma 0 made the gradient non-finite and a negative lr climbed; a
    decay above 1 grew its step size every step, one of 0 or below dropped
    it to its floor at once and a NaN one ended in non-finite weights."""
    rejected, rule, edge = _SETTINGS[name]
    for value in rejected:
        with pytest.raises(ValueError, match=f"^{name} must be {rule}"):
            OpenAiEs(4, **{"popsize": 4, name: value})
    assert getattr(OpenAiEs(4, **{"popsize": 4, name: edge}), name) == edge


def test_ask_produces_antithetic_pairs():
    es = OpenAiEs(6, popsize=8, sigma=0.2, mean0=np.arange(6.0))
    pop = es.ask(np.random.default_rng(60))
    assert pop.shape == (8, 6)
    # Rows i and i + popsize/2 mirror each other around the mean.
    np.testing.assert_allclose(pop[:4] + pop[4:],
                               np.tile(2.0 * np.arange(6.0), (4, 1)),
                               atol=1e-12)


def test_tell_requires_matching_ask():
    es = OpenAiEs(3, popsize=4)
    with pytest.raises(ValueError):
        es.tell(np.zeros(4))
    es.ask(np.random.default_rng(61))
    with pytest.raises(ValueError):
        es.tell(np.zeros(3))


def _adam_oracle(grad, lr, t, m, v):
    m = 0.9 * m + 0.1 * grad
    v = 0.999 * v + 0.001 * grad ** 2
    m_hat = m / (1 - 0.9 ** t)
    v_hat = v / (1 - 0.999 ** t)
    return lr * m_hat / (np.sqrt(v_hat) + 1e-8), m, v


def test_single_step_matches_manual_gradient_and_adam():
    es = OpenAiEs(4, popsize=6, lr=0.05, sigma=0.3)
    rng = np.random.default_rng(62)
    pop = es.ask(rng)
    fitness = np.random.default_rng(63).standard_normal(6)

    eps = (pop - 0.0) / 0.3
    shaped = centered_ranks(fitness)
    grad = eps.T @ shaped / (6 * 0.3)
    step, _, _ = _adam_oracle(grad, 0.05, 1, np.zeros(4), np.zeros(4))

    es.tell(fitness)
    np.testing.assert_allclose(es.mean, -step, atol=1e-12)


def test_rank_shaping_moves_toward_better_half():
    """Mean moves toward perturbations with lower fitness."""
    es = OpenAiEs(2, popsize=32, lr=0.1, sigma=0.5)
    rng = np.random.default_rng(64)
    pop = es.ask(rng)
    fitness = pop[:, 0]   # candidates with smaller first coordinate win
    es.tell(fitness)
    assert es.mean[0] < 0.0


def test_schedules_decay_to_floors():
    es = OpenAiEs(2, popsize=4, lr=0.01, lr_decay=0.5, lr_final=0.004,
                  sigma=0.1, sigma_decay=0.5, sigma_final=0.04)
    rng = np.random.default_rng(65)
    for _ in range(5):
        es.ask(rng)
        es.tell(np.array([1.0, 2.0, 3.0, 4.0]))
    assert es.lr == 0.004 and es.sigma == 0.04


def test_zero_gradient_mean_decay_is_exact():
    es = OpenAiEs(5, popsize=8, mean_decay=0.005, mean0=np.full(5, 2.0))
    rng = np.random.default_rng(66)
    for step in range(1, 4):
        es.ask(rng)
        es.tell(np.zeros(8))   # constant fitness: all ranks tie, grad = 0
        np.testing.assert_array_equal(es.mean,
                                      np.full(5, 2.0) * 0.995 ** step)
