"""OpenAI-style evolution strategy used as the outer meta-optimizer.

Antithetic Gaussian perturbations, centered-rank fitness shaping (lower
fitness is better throughout) and an Adam step on the search mean, with
exponentially decayed-and-floored learning rate and perturbation scale.
An optional mean decay shrinks the search mean toward zero each step.
"""

import math

import numpy as np

from .features import centered_ranks

__all__ = ["OpenAiEs", "check_step_sizes"]

# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def check_step_sizes(**sizes):
    """Raise ``ValueError`` naming the first size not positive and finite.

    A zero or non-finite sigma makes the gradient estimate non-finite, and a
    negative learning rate climbs the loss.
    """
    for name, value in sizes.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")


class OpenAiEs:
    def __init__(self, n_dim, popsize, lr=0.01, lr_decay=0.999,
                 lr_final=0.001, sigma=0.1, sigma_decay=0.999,
                 sigma_final=0.001, mean_decay=0.0, mean0=None):
        check_step_sizes(lr=lr, lr_final=lr_final, sigma=sigma,
                         sigma_final=sigma_final)
        if popsize % 2 != 0:
            raise ValueError("population size must be even for antithetic "
                             "sampling")
        self.n_dim = n_dim
        self.popsize = popsize
        self.lr = lr
        self.lr_decay = lr_decay
        self.lr_final = lr_final
        self.sigma = sigma
        self.sigma_decay = sigma_decay
        self.sigma_final = sigma_final
        self.mean_decay = mean_decay
        self.mean = (np.zeros(n_dim) if mean0 is None
                     else np.asarray(mean0, dtype=np.float64).copy())
        self.adam_m = np.zeros(n_dim)
        self.adam_v = np.zeros(n_dim)
        self.t = 0
        self._eps = None

    def ask(self, rng):
        """Sample the population as antithetic pairs around the mean."""
        half = rng.standard_normal((self.popsize // 2, self.n_dim))
        self._eps = np.concatenate([half, -half], axis=0)
        return self.mean + self.sigma * self._eps

    def tell(self, fitness):
        """Rank-shaped gradient estimate plus Adam descent on the mean."""
        fitness = np.asarray(fitness, dtype=np.float64)
        if self._eps is None or fitness.shape != (self.popsize,):
            raise ValueError("tell must follow ask with matching fitness")
        shaped = centered_ranks(fitness)
        grad = self._eps.T @ shaped / (self.popsize * self.sigma)
        self._eps = None

        self.t += 1
        self.adam_m = ADAM_BETA1 * self.adam_m + (1 - ADAM_BETA1) * grad
        self.adam_v = ADAM_BETA2 * self.adam_v + (1 - ADAM_BETA2) * grad ** 2
        m_hat = self.adam_m / (1 - ADAM_BETA1 ** self.t)
        v_hat = self.adam_v / (1 - ADAM_BETA2 ** self.t)
        self.mean = self.mean - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if self.mean_decay > 0:
            self.mean = (1.0 - self.mean_decay) * self.mean
        self.lr = max(self.lr * self.lr_decay, self.lr_final)
        self.sigma = max(self.sigma * self.sigma_decay, self.sigma_final)
