"""Composable ask/tell genetic-algorithm loop with pluggable operator slots.

One instance advances one population, or a batch of them on a leading
axis: R runs (``seeds``, one generator each) or M candidates (``params``
whose weights lead with (M,), sharing one generator), never both. Every
array of the state, and of ``ask``/``tell``, then gains that axis, and the
same generation step runs over leading axes (), (R,) or (M,). The
meta-training sweep is ``run`` over M candidates; one run is the M=1 case.

Draws follow ``draws.per_run``. Each draw below has a per-run shape. One
generator draws it once and every candidate shares it (shared randomness:
candidates differ only through their weights). Each of R runs draws it
from its own generator exactly as it does alone, in the same order. So
each run of a batch, and each candidate of a sweep, equals its own single
run bit for bit. The draws, in order (do not reorder):

  init: archive, shape (E, D), copied to every leading index
  ask:  1. parent draws, shape (N,)    (uniform ints, or the categorical
                                       uniforms of learned sampling)
        2. self-adaptive rate draws    (samr slot only)
        3. mutation noise, shape (N, D)
  eval: task noise, shape (N,)         (noisy tasks only)
  tell: 4. selection uniforms, shape (E,)   (learned selection only)
        5. group rate draws, shape (K,)     (gesmr slot only)

The four learned operators (selection, MRA, sampling and cross-over) run
unchecked feature, attention and operator cores on weights folded into
their bilinear forms (``operators.fold``) and on buffers built once per
run or batch, over the leading axes. Debug records carry the leading
axes too.

``run`` calls the task once per generation with every child of the batch:
R runs that share one task pass it their (R, N, D) children and their R
generators, and M candidates their (M, N, D) children and the one shared
generator. Only runs given one task each evaluate their children one run
at a time.

Validation follows the input. A run, or a batch of runs, is validated
once, at the engine's boundary, and raises ``ValueError`` in the call
that meets the fault: ``tell`` checks the child fitness; with learned MRA,
``ask`` checks the sampled rates (positive and finite) and their features
(finite), and selection checks the archive rates (positive) where it forms
an archive. Arrays the engine produced itself are not checked again. In a
batch of runs, a fault in any run raises the error that run raises alone.
A batch of candidates is not validated: a diverging candidate runs on in
its own row, and meta-training patches and winsorizes its score.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .attention import reduce_rows
from .checks import POSITIVE, at_least, check_fields, one_of
from .draws import per_run
from .features import (rows_crossover_features, rows_joint_features,
                       rows_parent_features, rows_sampling_features)

__all__ = ["GaConfig", "GeneticAlgorithm", "Trajectory", "run",
           "SELECTION_SLOTS", "MRA_SLOTS", "SAMPLING_SLOTS",
           "CROSSOVER_SLOTS", "ALGORITHMS", "FITNESS_CLIP"]

SELECTION_SLOTS = ("learned", "truncation")
MRA_SLOTS = ("learned", "fixed", "one_fifth", "samr", "gesmr")
SAMPLING_SLOTS = ("uniform", "learned")
CROSSOVER_SLOTS = ("none", "learned")

# The named algorithms: each name's (selection, MRA) slot pair. "lga" is
# the learned GA that meta-training scores and the front ends deploy.
ALGORITHMS = {
    "lga": {"selection": "learned", "mra": "learned"},
    "gaussian": {"selection": "truncation", "mra": "fixed"},
    "mr15": {"selection": "truncation", "mra": "one_fifth"},
    "samr": {"selection": "truncation", "mra": "samr"},
    "gesmr": {"selection": "truncation", "mra": "gesmr"},
}

# Never-evaluated archive slots carry +inf fitness; features need finite
# inputs, so +inf is clipped to this sentinel before feature construction.
FITNESS_CLIP = 1e30
# The box the initial archive is drawn from, per coordinate.
INIT_LOW, INIT_HIGH = -5.0, 5.0
# SAMR multiplies or divides each child's rate by this factor.
SAMR_META_RATE = 2.0
# GESMR splits the population into this many groups of consecutive children.
GESMR_GROUPS = 8


@dataclass
class GaConfig:
    """Inner-loop settings; elite count is ceil(elite_ratio * n_pop).

    ``RULES`` states each field's range; with ``mra="gesmr"``, ``n_pop`` is
    also a multiple of ``GESMR_GROUPS``.
    """

    n_pop: int = 16
    elite_ratio: float = 1.0
    sigma0: float = 0.1
    selection: str = "truncation"
    mra: str = "fixed"
    sampling: str = "uniform"
    crossover: str = "none"
    generations: int = 50
    seed: object = 0

    RULES = {"n_pop": at_least(1),
             "elite_ratio": (lambda v: 0 <= v <= 1, "in [0, 1]"),
             "sigma0": POSITIVE, "selection": one_of(SELECTION_SLOTS),
             "mra": one_of(MRA_SLOTS), "sampling": one_of(SAMPLING_SLOTS),
             "crossover": one_of(CROSSOVER_SLOTS),
             "generations": at_least(1)}

    def __post_init__(self):
        check_fields(vars(self), self.RULES)
        if self.mra == "gesmr" and self.n_pop % GESMR_GROUPS != 0:
            raise ValueError(f"n_pop must be a multiple of {GESMR_GROUPS} "
                             f"(the gesmr group count), got {self.n_pop}")

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
    """Per-generation records of one GA run, or of a batch on its axis."""

    fitness: np.ndarray       # (..., T, N) raw child fitness
    best_of_gen: np.ndarray   # (..., T)
    best_so_far: np.ndarray   # (..., T) running minimum, non-increasing
    mean_sigma: np.ndarray    # (..., T) mean child mutation rate
    debug: list = field(default_factory=list)


class GeneticAlgorithm:
    """Single-owner ask/tell state machine of one population or a batch.

    With ``seeds`` it advances ``len(seeds)`` runs together, run r drawing
    from ``default_rng(seeds[r])`` in place of ``config.seed``; ``rng`` is
    then the list of the runs' generators. With ``params`` of shape (M,)
    it advances M candidates, all drawing from ``default_rng(config.seed)``.
    ``shape``, the leading axes of every state array, is (R,), (M,) or ().
    """

    def __init__(self, config, dim, params=None, debug=False, seeds=None):
        if config.uses_learned and params is None:
            raise ValueError("learned operator slots require params")
        if config.sampling == "learned" and not params.cfg.with_sampling:
            raise ValueError("params lack learned-sampling weights")
        if config.crossover == "learned" and not params.cfg.with_crossover:
            raise ValueError("params lack learned cross-over weights")
        candidates = () if params is None else params.shape
        if seeds is not None and candidates:
            raise ValueError("a batch holds runs (seeds) or candidates "
                             "(params), not both")
        self.config = config
        self.dim = dim
        self.debug = debug
        if seeds is None:
            self.rng = np.random.default_rng(config.seed)
            self.shape = candidates
        else:
            self.rng = [np.random.default_rng(seed) for seed in seeds]
            self.shape = (len(seeds),)
        # Runs are validated; a batch of candidates runs on unchecked.
        self._checked = not candidates
        self._mutate = (ops.gaussian_mutate if self._checked
                        else ops.mutate_core)
        n, e = config.n_pop, config.n_elite
        self.generation = 0
        self.best_f = np.full(self.shape, np.inf)
        self._pending = None
        self._sigma_groups = np.full(self.shape + (GESMR_GROUPS,),
                                     config.sigma0)
        # A fresh archive drawn from the initial box, every rate sigma0.
        x0 = per_run(self.rng, lambda g, size: g.uniform(
            INIT_LOW, INIT_HIGH, size=size), (e, dim), self.shape)
        lead = self.shape + (e,)
        self.archive = ops.ParentArchive(
            x=np.broadcast_to(x0, lead + (dim,)).copy(),
            f=np.full(lead, np.inf), sigma=np.full(lead, config.sigma0),
            age=np.zeros(lead, dtype=np.int64))
        # The learned operators run their cores on weights folded, and
        # feature and logit buffers built, once per run or batch.
        if config.sampling == "learned":
            self._smp = ops.fold(params.weights, "smp")
            self._smp_feats = np.empty(self.shape + (e, self._smp.width))
        if config.crossover == "learned":
            self._co = ops.fold(params.weights, "co")
            self._co_feats = np.empty((dim,) + self.shape
                                      + (n, self._co.width))
        if config.mra == "learned":
            self._mra = ops.fold(params.weights, "mra")
            self._mra_feats = np.empty(self.shape + (n, self._mra.width))
        if config.selection == "learned":
            self._sel = ops.fold(params.weights, "sel")
            self._joint = np.empty(self.shape + (n + e, self._sel.width))
            self._logits = np.ones(self.shape + (e, n + 1))  # keep column

    # -- ask ---------------------------------------------------------------

    def ask(self):
        """Produce (children, child mutation rates) for evaluation."""
        cfg, n = self.config, self.config.n_pop
        arch = self.archive

        if cfg.sampling == "learned":
            x_s, f_s, sigma_s = ops.parents_at(arch, self._sampled_parents())
        else:
            _, x_s, f_s, sigma_s = ops.uniform_sample_parents(arch, n,
                                                              self.rng)

        if cfg.crossover == "learned":
            feats = rows_crossover_features(
                np.minimum(f_s, FITNESS_CLIP), x_s, self.best_f[..., None],
                self._co_feats)
            x_s = ops.crossover_core(self._co, feats, x_s)

        delta = None
        if cfg.mra == "learned":
            delta = self._mra_multiplier(f_s, sigma_s)
            sigma_c = delta * sigma_s
        elif cfg.mra == "samr":
            sigma_c = ops.samr_adapt(sigma_s, SAMR_META_RATE, self.rng)
        elif cfg.mra == "gesmr":  # consecutive children share a group's rate
            sigma_c = np.repeat(self._sigma_groups, n // GESMR_GROUPS,
                                axis=-1)
        else:  # fixed, one_fifth: every archive member holds the one rate
            sigma_c = sigma_s

        x_c = self._mutate(x_s, sigma_c, self.rng)
        self._pending = {"f_sampled": f_s, "delta": delta}
        return x_c, sigma_c

    def _sampled_parents(self):
        """Indices (..., N) of the parents that learned sampling draws."""
        n, arch = self.config.n_pop, self.archive
        probs = ops.sampling_core(self._smp, rows_sampling_features(
            np.minimum(arch.f, FITNESS_CLIP), arch.age,
            self.best_f[..., None], self._smp_feats))
        u = per_run(self.rng, lambda g, size: g.random(size), (n,), self.shape)
        return ops.categorical_indices(np.broadcast_to(
            probs[..., None, :], self.shape + (n, arch.size)), u)

    def _mra_multiplier(self, f_s, sigma_s):
        """Learned MRA multipliers of the sampled parents, checked here.

        In a run (not a candidate batch), the rates must be positive and
        finite, and so must the features built from them: the min-max
        column overflows, which the check reports instead of a warning,
        once the rates span more than half the float range.
        """
        if self._checked and not (sigma_s.min() > 0
                                  and sigma_s.max() < np.inf):
            raise ValueError("mutation rates must be positive and finite")
        with np.errstate(over="ignore"):
            feats = rows_parent_features(np.minimum(f_s, FITNESS_CLIP),
                                         sigma_s, self.best_f[..., None],
                                         self._mra_feats)
        if self._checked and not np.isfinite(feats).all():
            raise ValueError("MRA features must be finite")
        return ops.mra_core(self._mra, feats)

    # -- tell --------------------------------------------------------------

    def tell(self, x_child, f_child, sigma_child):
        """Fold evaluated children back into the archive."""
        if self._pending is None:
            raise ValueError("tell called before ask")
        cfg = self.config
        f_child = np.asarray(f_child, dtype=np.float64)
        if f_child.shape != self.shape + (cfg.n_pop,):
            raise ValueError("fitness vector shape mismatch")
        if self._checked and not np.isfinite(f_child).all():
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
            # Only learned MRA leaves its rates unclamped, so only it
            # checks the archive that selection forms.
            if cfg.mra == "learned" and self._checked:
                ops.ParentArchive.check_rates(kept.sigma)
            self.archive = kept

        f_sampled = self._pending["f_sampled"]
        if cfg.mra == "one_fifth":
            successes = np.sum(f_child < f_sampled, axis=-1, keepdims=True)
            self.archive.sigma[...] = ops.mr_one_fifth(
                self.archive.sigma[..., :1], successes, cfg.n_pop)
        elif cfg.mra == "gesmr":
            groups = self.shape + (GESMR_GROUPS, cfg.n_pop // GESMR_GROUPS)
            improvements = f_child.reshape(groups).min(axis=-1) - np.minimum(
                f_sampled.reshape(groups).min(axis=-1), FITNESS_CLIP)
            self._sigma_groups = ops.gesmr_adapt(self._sigma_groups,
                                                 improvements, self.rng)

        self.best_f = np.minimum(self.best_f,
                                 reduce_rows(np.minimum, f_child))
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
            f_child, np.minimum(arch.f, FITNESS_CLIP), self.best_f[..., None],
            self._joint)
        ops.selection_core(self._sel, feats_p, feats_c, self._logits)
        chosen, probs = ops.softmax_categorical(
            self._logits, per_run(self.rng, lambda g, size: g.random(size),
                                  arch.f.shape[-1:], self.shape),
            self.debug)
        if self.config.mra == "learned" and self._checked:
            ops.ParentArchive.check_rates(arch.sigma)
        self.archive = ops.replacement_core(chosen, x_child, f_child,
                                            sigma_child, arch)
        if not self.debug:
            return None
        return {"child_features": feats_c.copy(),
                "parent_features": feats_p.copy(),
                "logits": self._logits.copy(), "probs": probs,
                "chosen": chosen}


def run(config, task, params=None, debug=False, seeds=None):
    """Run the full inner loop on a task and record the trajectory.

    With ``seeds``, one run per seed advances at once (see
    :class:`GeneticAlgorithm`) and the trajectory's arrays lead with the
    run axis. ``task`` is then one task shared by every run, or a sequence
    of one task per run. A shared task evaluates the R runs' (R, N, D)
    children in one ``task.evaluate(x, rng)`` call per generation, ``rng``
    the runs' R generators, and draws any noise of a run from that run's
    generator (:meth:`bbob.TaskSpec.evaluate`); a sequence evaluates each
    run's children on its own task with its own generator. Either way each
    run sees what it sees alone. With ``params`` of shape (M,) the M
    candidates advance at once, their children evaluated in one call with
    the shared generator, and the arrays lead with the candidate axis.
    """
    per_task = isinstance(task, (list, tuple))
    if per_task and (seeds is None or len(task) != len(seeds)):
        raise ValueError("a task sequence needs one seed per task")
    ga = GeneticAlgorithm(config, (task[0] if per_task else task).dim,
                          params=params, debug=debug, seeds=seeds)
    t = config.generations
    fitness = np.empty(ga.shape + (t, config.n_pop))
    sigma_sum = np.empty(ga.shape + (t,))
    debug_records = []
    for gen in range(t):
        x_c, sigma_c = ga.ask()
        if per_task:
            f_c = np.stack([each.evaluate(x, g)
                            for each, x, g in zip(task, x_c, ga.rng)])
        else:
            f_c = task.evaluate(x_c, ga.rng)
        record = ga.tell(x_c, f_c, sigma_c)
        fitness[..., gen, :] = f_c
        sigma_sum[..., gen] = np.add.reduce(sigma_c, axis=-1)
        if record is not None:
            debug_records.append(record)
    best_of_gen = fitness.min(axis=-1)
    # The mean rate in the steps of numpy's mean: the sum, then one division.
    return Trajectory(fitness, best_of_gen,
                      np.minimum.accumulate(best_of_gen, axis=-1),
                      sigma_sum / config.n_pop, debug_records)

