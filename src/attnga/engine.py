"""Composable ask/tell genetic-algorithm loop with pluggable operator slots.

With learned selection and MRA this is the M=1 case of the meta-training
sweep: ``ask`` and ``tell`` run the sweep's unchecked feature, attention
and operator cores on weights folded into their bilinear forms
(``operators.fold_selection``/``fold_mra``) and buffers built once per
run, and share each draw below with it (do not reorder):

  ask:  1. parent sampling indices     (uniform ints or categorical uniforms)
        2. self-adaptive rate draws    (samr slot only)
        3. mutation noise, shape (N, D)
  eval: task noise, shape (N,)         (noisy tasks only)
  tell: 4. selection uniforms, shape (E,)   (learned selection only)
        5. group rate draws, shape (K,)     (gesmr slot only)

Validation happens once, at the engine's boundary, and raises
``ValueError`` in the call that meets the fault: ``tell`` checks the child
fitness; with learned MRA, ``ask`` checks the sampled rates (positive and
finite) and their features (finite), and selection checks the archive
rates (positive) where it forms an archive. Arrays the engine produced
itself are not checked again.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .attention import softmax_last
from .features import (FITNESS_DIM, SIGMA_DIM, fitness_features,
                       rows_joint_features, rows_parent_features)

__all__ = ["GaConfig", "GeneticAlgorithm", "Trajectory", "run",
           "trajectory_to_csv", "SELECTION_SLOTS", "MRA_SLOTS",
           "SAMPLING_SLOTS", "CROSSOVER_SLOTS", "FITNESS_CLIP"]

SELECTION_SLOTS = ("learned", "truncation")
MRA_SLOTS = ("learned", "fixed", "one_fifth", "samr", "gesmr")
SAMPLING_SLOTS = ("uniform", "learned")
CROSSOVER_SLOTS = ("none", "learned")

# Never-evaluated archive slots carry +inf fitness; features need finite
# inputs, so +inf is clipped to this sentinel before feature construction.
FITNESS_CLIP = 1e30


@dataclass
class GaConfig:
    """Inner-loop settings; elite count is ceil(elite_ratio * n_pop)."""

    n_pop: int = 16
    elite_ratio: float = 1.0
    sigma0: float = 0.1
    selection: str = "truncation"
    mra: str = "fixed"
    sampling: str = "uniform"
    crossover: str = "none"
    generations: int = 50
    seed: object = 0
    samr_meta_rate: float = 2.0
    gesmr_groups: int = 8
    init_low: float = -5.0
    init_high: float = 5.0

    def __post_init__(self):
        if self.n_pop < 1:
            raise ValueError("population size must be positive")
        if not 0.0 <= self.elite_ratio <= 1.0:
            raise ValueError("elite ratio must lie in [0, 1]")
        if self.sigma0 <= 0:
            raise ValueError("initial mutation rate must be positive")
        if self.selection not in SELECTION_SLOTS:
            raise ValueError(f"unknown selection slot {self.selection!r}")
        if self.mra not in MRA_SLOTS:
            raise ValueError(f"unknown MRA slot {self.mra!r}")
        if self.sampling not in SAMPLING_SLOTS:
            raise ValueError(f"unknown sampling slot {self.sampling!r}")
        if self.crossover not in CROSSOVER_SLOTS:
            raise ValueError(f"unknown cross-over slot {self.crossover!r}")
        if self.mra == "gesmr" and self.n_pop % self.gesmr_groups != 0:
            raise ValueError("gesmr group count must divide the population")

    @property
    def n_elite(self):
        # elite_ratio 0 maps to a single parent (hill-climbing limit).
        return max(1, math.ceil(self.elite_ratio * self.n_pop))

    @property
    def uses_learned(self):
        return (self.selection == "learned" or self.mra == "learned"
                or self.sampling == "learned" or self.crossover == "learned")


@dataclass
class Trajectory:
    """Per-generation records of one GA run."""

    fitness: np.ndarray       # (T, N) raw child fitness
    best_of_gen: np.ndarray   # (T,)
    best_so_far: np.ndarray   # (T,) running minimum, non-increasing
    mean_sigma: np.ndarray    # (T,) mean child mutation rate
    debug: list = field(default_factory=list)

    def __len__(self):
        return self.best_so_far.size


def _check_archive_rates(sigma):
    """Raise unless every rate of an archive that selection formed is > 0.

    Only learned MRA leaves its rates unclamped, so only it checks: the
    archive learned replacement writes into and the one truncation keeps.
    """
    if np.any(sigma <= 0):
        raise ValueError("archive mutation rates must be positive")


class GeneticAlgorithm:
    """Single-owner ask/tell state machine; one instance per run."""

    def __init__(self, config, dim, params=None, debug=False):
        if config.uses_learned and params is None:
            raise ValueError("learned operator slots require params")
        if config.sampling == "learned" and params is not None \
                and not params.cfg.with_sampling:
            raise ValueError("params lack learned-sampling weights")
        if config.crossover == "learned" and params is not None \
                and not params.cfg.with_crossover:
            raise ValueError("params lack learned cross-over weights")
        self.config = config
        self.dim = dim
        self.params = params
        self.debug = debug
        self.rng = np.random.default_rng(config.seed)
        self.generation = 0
        self.best_f = np.inf
        self.best_x = None
        self._pending = None
        self._sigma_scalar = config.sigma0          # one_fifth state
        self._sigma_groups = np.full(config.gesmr_groups, config.sigma0)
        self._init_archive()
        # Learned selection and MRA run the sweep's cores on weights folded,
        # and feature and logit buffers built, once per run.
        n, e = config.n_pop, config.n_elite
        if config.mra == "learned":
            self._mra = ops.fold_mra(params.weights)
            self._mra_feats = np.empty((n, FITNESS_DIM + SIGMA_DIM))
        if config.selection == "learned":
            self._sel = ops.fold_selection(params.weights)
            self._joint = np.empty((n + e, FITNESS_DIM))
            self._logits = np.ones((e, n + 1))       # keep column preset

    def _init_archive(self, x0=None):
        cfg = self.config
        e = cfg.n_elite
        if x0 is not None:
            x = np.tile(np.asarray(x0, dtype=np.float64), (e, 1))
        else:
            if cfg.init_low >= cfg.init_high:
                raise ValueError("empty initialization box")
            x = self.rng.uniform(cfg.init_low, cfg.init_high,
                                 size=(e, self.dim))
        self.archive = ops.ParentArchive(
            x=x, f=np.full(e, np.inf), sigma=np.full(e, cfg.sigma0),
            age=np.zeros(e, dtype=np.int64))

    def reinit(self, x0=None):
        """Reset the archive (optionally to copies of an explicit point)."""
        self.generation = 0
        self.best_f = np.inf
        self.best_x = None
        self._pending = None
        self._sigma_scalar = self.config.sigma0
        self._sigma_groups = np.full(self.config.gesmr_groups,
                                     self.config.sigma0)
        self._init_archive(x0)

    # -- ask ---------------------------------------------------------------

    def ask(self):
        """Produce (children, child mutation rates) for evaluation."""
        cfg, n = self.config, self.config.n_pop
        arch = self.archive

        if cfg.sampling == "learned":
            feats = fitness_features(np.minimum(arch.f, FITNESS_CLIP),
                                     self.best_f)
            probs = ops.learned_sampling_probs(self.params, feats, arch.age)
            idx = ops.categorical_indices(np.tile(probs, (n, 1)),
                                          self.rng.random(n))
            x_s, f_s, sigma_s = arch.x[idx], arch.f[idx], arch.sigma[idx]
        else:
            _, x_s, f_s, sigma_s = ops.uniform_sample_parents(arch, n,
                                                              self.rng)

        if cfg.crossover == "learned":
            feats = fitness_features(np.minimum(f_s, FITNESS_CLIP),
                                     self.best_f)
            x_s = ops.learned_crossover(self.params, feats, x_s)

        delta = None
        if cfg.mra == "learned":
            delta = self._mra_multiplier(f_s, sigma_s)
            sigma_c = delta * sigma_s
        elif cfg.mra == "fixed":
            sigma_c = np.full(n, cfg.sigma0)
        elif cfg.mra == "one_fifth":
            sigma_c = np.full(n, self._sigma_scalar)
        elif cfg.mra == "samr":
            sigma_c = ops.samr_adapt(sigma_s, cfg.samr_meta_rate, self.rng)
        else:  # gesmr
            groups = np.repeat(np.arange(cfg.gesmr_groups),
                               n // cfg.gesmr_groups)
            sigma_c = self._sigma_groups[groups]

        x_c = ops.gaussian_mutate(x_s, sigma_c, self.rng)
        self._pending = {"f_sampled": f_s, "delta": delta}
        return x_c, sigma_c

    def _mra_multiplier(self, f_s, sigma_s):
        """Learned MRA multipliers of the sampled parents, checked here.

        The rates must be positive and finite, and so must the features
        built from them: the min-max column overflows, which the check
        reports instead of a warning, once the rates span more than half
        the float range.
        """
        if not (sigma_s.min() > 0 and sigma_s.max() < np.inf):
            raise ValueError("mutation rates must be positive and finite")
        with np.errstate(over="ignore"):
            feats = rows_parent_features(np.minimum(f_s, FITNESS_CLIP),
                                         sigma_s, self.best_f,
                                         self._mra_feats)
        if not np.isfinite(feats).all():
            raise ValueError("MRA features must be finite")
        return ops.mra_core(self._mra, feats)

    # -- tell --------------------------------------------------------------

    def tell(self, x_child, f_child, sigma_child):
        """Fold evaluated children back into the archive."""
        if self._pending is None:
            raise ValueError("tell called before ask")
        cfg = self.config
        f_child = np.asarray(f_child, dtype=np.float64)
        if f_child.shape != (cfg.n_pop,):
            raise ValueError("fitness vector shape mismatch")
        if not np.isfinite(f_child).all():
            raise ValueError("non-finite fitness; map failures to large "
                             "finite penalties in the task")
        x_child = np.asarray(x_child, dtype=np.float64)
        sigma_child = np.asarray(sigma_child, dtype=np.float64)
        record = None

        if cfg.selection == "learned":
            record = self._learned_selection(x_child, f_child, sigma_child)
        else:
            kept = ops.truncation_selection(x_child, f_child, sigma_child,
                                            self.archive)
            if cfg.mra == "learned":
                _check_archive_rates(kept.sigma)
            self.archive = kept

        if cfg.mra == "one_fifth":
            successes = int(np.sum(f_child < self._pending["f_sampled"]))
            self._sigma_scalar = ops.mr_one_fifth(self._sigma_scalar,
                                                  successes, cfg.n_pop)
            self.archive.sigma[:] = self._sigma_scalar
        elif cfg.mra == "gesmr":
            k = cfg.gesmr_groups
            per_group = cfg.n_pop // k
            f_c = f_child.reshape(k, per_group)
            f_s = self._pending["f_sampled"].reshape(k, per_group)
            improvements = f_c.min(axis=1) - np.minimum(f_s.min(axis=1),
                                                        FITNESS_CLIP)
            self._sigma_groups = ops.gesmr_adapt(self._sigma_groups,
                                                 improvements, self.rng)

        gen_best = int(np.argmin(f_child))
        if f_child[gen_best] < self.best_f:
            self.best_f = float(f_child[gen_best])
            self.best_x = x_child[gen_best].copy()
        if record is not None:
            record["delta_sigma"] = self._pending["delta"]
            record["sigma_child"] = sigma_child.copy()
            record["generation"] = self.generation
        self.generation += 1
        self._pending = None
        return record

    def _learned_selection(self, x_child, f_child, sigma_child):
        """Replace archive rows by one categorical draw per parent.

        Column N of the selection logits keeps the parent (its age grows);
        any other column copies that child. Returns the debug record.
        """
        arch = self.archive
        feats_c, feats_p = rows_joint_features(
            f_child, np.minimum(arch.f, FITNESS_CLIP), self.best_f,
            self._joint)
        ops.selection_core(self._sel, feats_p, feats_c, self._logits)
        probs = softmax_last(self._logits)
        chosen = ops.categorical_indices(probs, self.rng.random(arch.size))
        if self.config.mra == "learned":
            _check_archive_rates(arch.sigma)
        self.archive = ops.replacement_core(chosen, x_child, f_child,
                                            sigma_child, arch)
        if not self.debug:
            return None
        return {"child_features": feats_c.copy(),
                "parent_features": feats_p.copy(),
                "logits": self._logits.copy(), "probs": probs,
                "chosen": chosen}


def run(config, task, params=None, debug=False, x0=None):
    """Run the full inner loop on a task and record the trajectory."""
    ga = GeneticAlgorithm(config, task.dim, params=params, debug=debug)
    if x0 is not None:
        ga.reinit(x0)
    t = config.generations
    fitness = np.empty((t, config.n_pop))
    best_of_gen = np.empty(t)
    best_so_far = np.empty(t)
    mean_sigma = np.empty(t)
    debug_records = []
    for gen in range(t):
        x_c, sigma_c = ga.ask()
        f_c = task.evaluate(x_c, ga.rng)
        record = ga.tell(x_c, f_c, sigma_c)
        fitness[gen] = f_c
        best_of_gen[gen] = f_c.min()
        best_so_far[gen] = ga.best_f
        mean_sigma[gen] = sigma_c.mean()
        if record is not None:
            debug_records.append(record)
    return Trajectory(fitness, best_of_gen, best_so_far, mean_sigma,
                      debug_records)


def trajectory_to_csv(trajectory, path, per_member=False):
    """Write per-generation summaries (optionally wide member columns)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        header = ["generation", "best_of_gen", "best_so_far", "mean_sigma"]
        n = trajectory.fitness.shape[1] if len(trajectory) else 0
        if per_member:
            header += [f"fitness_{j}" for j in range(n)]
        writer.writerow(header)
        for gen in range(len(trajectory)):
            row = [gen, repr(float(trajectory.best_of_gen[gen])),
                   repr(float(trajectory.best_so_far[gen])),
                   repr(float(trajectory.mean_sigma[gen]))]
            if per_member:
                row += [repr(float(v)) for v in trajectory.fitness[gen]]
            writer.writerow(row)
