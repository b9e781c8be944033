"""OpenAI-style evolution strategy used as the outer meta-optimizer.

Antithetic Gaussian perturbations, centered-rank fitness shaping (lower
fitness is better throughout) and an Adam step on the search mean, with
exponentially decayed-and-floored learning rate and perturbation scale.
An optional mean decay shrinks the search mean toward zero each step.
"""

import numpy as np

from .checks import POSITIVE, check_fields, is_integer
from .features import centered_ranks

__all__ = ["OpenAiEs"]

# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

_DECAY = (lambda v: 0 < v <= 1, "in (0, 1]")


class OpenAiEs:
    """Antithetic, rank-shaped ES with an Adam step on its search mean.

    After each step the learning rate and sigma are multiplied by
    ``lr_decay`` and ``sigma_decay`` and floored at ``lr_final`` and
    ``sigma_final``; the mean is shrunk by the factor ``1 - mean_decay``.
    ``RULES`` states each setting's range. ``mean0`` (default zeros) is the
    initial search mean.
    """

    # Each setting's rule, checked here and by every config that builds
    # one. A decay above 1 grows its step size each step; one of 0 or
    # below floors it at once.
    RULES = {
        "popsize": (lambda v: is_integer(v) and v >= 2 and v % 2 == 0,
                    "an even integer, at least 2"),
        "lr": POSITIVE, "lr_final": POSITIVE, "sigma": POSITIVE,
        "sigma_final": POSITIVE, "lr_decay": _DECAY, "sigma_decay": _DECAY,
        "mean_decay": (lambda v: 0 <= v < 1, "in [0, 1)"),
    }

    def __init__(self, n_dim, popsize, lr=0.01, lr_decay=0.999,
                 lr_final=0.001, sigma=0.1, sigma_decay=0.999,
                 sigma_final=0.001, mean_decay=0.0, mean0=None):
        settings = dict(popsize=popsize, lr=lr, lr_decay=lr_decay,
                        lr_final=lr_final, sigma=sigma,
                        sigma_decay=sigma_decay, sigma_final=sigma_final,
                        mean_decay=mean_decay)
        check_fields(settings, self.RULES)
        vars(self).update(settings)
        self.n_dim = n_dim
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
