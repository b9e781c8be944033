"""Outer meta-evolution loop: evolve the operator weights across tasks.

Per meta-generation the loop samples a batch of tasks, draws candidate
weight vectors from the evolution strategy, scores every candidate on every
task with an identical task instance, archive initialization and random
stream (shared-randomness trick: candidates differ only through their
weights), z-scores each task column across candidates and feeds the
per-candidate median to the strategy.

The candidate sweep is ``engine.run`` over a batch of M candidates: the
loop that meta-training ranks with is the loop that is deployed. The
candidates share one generator and so every random draw, and the engine
runs them unchecked, so a diverging candidate leaves the others' rows
as they are; its non-finite score is patched and winsorized here. Row
sums are taken in sequence in every memory layout, so a candidate's
rollout does not depend on M: each row of a sweep equals that candidate's
own ``engine.run`` bit for bit.
"""

import contextlib
import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .bbob import TaskFamily, sample_task
from .checks import at_least, check_fields, one_of
from .features import rows_z_score
from .metaes import OpenAiEs
from .params import FeatureConfig, LgaParams
from .tasks import make_task

__all__ = ["MetaConfig", "MetaTrainResult", "OBJECTIVES", "reduce_scores",
           "meta_fitness", "evaluate_candidates_on_task", "meta_train",
           "job_map", "write_csv"]

OBJECTIVES = ("minN-minT", "minN-finalT", "meanN-minT", "meanN-finalT")

# Per-task winsorization percentile applied across candidates before the
# z-score normalization. Diverged candidates can post scores tens of
# orders of magnitude above the field; without a cap they inflate the
# column std until every other candidate collapses onto one z value and
# the training signal drowns in float round-off.
WINSOR_PCT = 80.0

# The held-out evals of the ES mean, every ``eval_every`` meta-generations:
# (meta-log column, task, dimension, seed).
HELD_OUT = (("eval_sphere", "sphere", 10, 11),
            ("eval_rosenbrock", "rosenbrock", 10, 13),
            ("eval_mlp", "mlp-sine", None, 17))

META_LOG_COLUMNS = ("meta_gen", "mf_mean", "mf_median", "mf_best",
                    "sigma_meta", "lr", *(column for column, *_ in HELD_OUT))

# OpenAiEs parameter -> the MetaConfig field that sets it.
_ES_FIELDS = {"popsize": "meta_popsize", "lr": "lr", "lr_decay": "lr_decay",
              "lr_final": "lr_final", "sigma": "sigma_meta",
              "sigma_decay": "sigma_decay", "sigma_final": "sigma_final",
              "mean_decay": "mean_decay"}


@dataclass
class MetaConfig:
    meta_popsize: int = 512
    n_tasks: int = 256
    inner_popsize: int = 16
    inner_generations: int = 50
    meta_generations: int = 750
    objective: str = "minN-finalT"
    mean_decay: float = 0.005
    seed: int = 0
    family: TaskFamily = field(default_factory=TaskFamily)
    feature_cfg: FeatureConfig = field(default_factory=FeatureConfig)
    lr: float = 0.01
    lr_decay: float = 0.999
    lr_final: float = 0.001
    sigma_meta: float = 0.1
    sigma_decay: float = 0.999
    sigma_final: float = 0.001
    eval_every: int = 25
    checkpoint_every: int = 50
    workers: int = 1

    # The ES settings and the inner GA's sizes take the rules of OpenAiEs
    # and GaConfig. A period of 0 turns it off; 0 meta-generations run none.
    RULES = {
        **{name: OpenAiEs.RULES[param] for param, name in _ES_FIELDS.items()},
        "n_tasks": at_least(1), "inner_popsize": engine.GaConfig.RULES["n_pop"],
        "inner_generations": engine.GaConfig.RULES["generations"],
        "meta_generations": at_least(0), "eval_every": at_least(0),
        "checkpoint_every": at_least(0), "objective": one_of(OBJECTIVES),
        "workers": at_least(1)}

    def __post_init__(self):
        check_fields(vars(self), self.RULES)

    def _es_settings(self):
        return {p: getattr(self, name) for p, name in _ES_FIELDS.items()}


@dataclass
class MetaTrainResult:
    params: LgaParams
    log: list
    mean_history: np.ndarray


def reduce_scores(fitness, objective):
    """Reduce a (..., T, N) fitness tensor to one score per leading index."""
    fitness = np.asarray(fitness, dtype=np.float64)
    if objective == "minN-minT":
        return fitness.min(axis=(-2, -1))
    if objective == "minN-finalT":
        return fitness[..., -1, :].min(axis=-1)
    if objective == "meanN-minT":
        return fitness.mean(axis=-1).min(axis=-1)
    if objective == "meanN-finalT":
        return fitness[..., -1, :].mean(axis=-1)
    raise ValueError(f"unknown objective {objective!r}")


def _inner_config(n_pop, generations, sigma0, seed):
    """The inner GA that meta-training scores and the held-out evals run."""
    return engine.GaConfig(
        n_pop=n_pop, elite_ratio=1.0, sigma0=sigma0, generations=generations,
        seed=seed, **engine.ALGORITHMS["lga"])


def meta_fitness(scores):
    """z-score each task column across candidates, median across tasks."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("meta_fitness requires finite scores")
    return np.median(rows_z_score(scores.T), axis=0)


# -- candidate sweep ---------------------------------------------------------

def evaluate_candidates_on_task(theta_matrix, feature_cfg, task, seed,
                                inner_popsize, inner_generations,
                                objective):
    """Scores of the (M, P) candidate rows of ``theta_matrix`` on ``task``.

    ``engine.run`` with ``_inner_config`` over the M candidates at once.
    """
    config = _inner_config(inner_popsize, inner_generations, task.sigma0,
                           seed)
    params = LgaParams.from_vector(feature_cfg, theta_matrix)
    return reduce_scores(engine.run(config, task, params=params).fitness,
                         objective)


def _task_job(args):
    return evaluate_candidates_on_task(*args)


def _winsorize_columns(scores):
    """Cap each task column at its ``WINSOR_PCT`` percentile across candidates.

    Order among capped candidates is lost (they tie at the cap), which is
    fine: they are the diverged tail, and the tie keeps the column std at
    the scale of the competitive candidates.
    """
    caps = np.percentile(scores, WINSOR_PCT, axis=0, keepdims=True)
    return np.minimum(scores, caps)


def _patch_non_finite(scores):
    """Non-finite entries become their column's worst finite score, or 0."""
    scores = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(scores)
    worst = np.max(scores, axis=0, where=finite, initial=-np.inf)
    return np.where(finite, scores, np.where(finite.any(axis=0), worst, 0.0))


def _held_out_score(params, cfg, name, dim, seed):
    task = make_task(name, dim=dim, seed=seed)
    config = _inner_config(cfg.inner_popsize, cfg.inner_generations,
                           task.sigma0, (cfg.seed, 0xE7A1, seed))
    trajectory = engine.run(config, task, params=params)
    return float(trajectory.best_so_far[-1])


def meta_train(cfg, out_dir=None, progress=None):
    """Full outer loop; returns the final mean as operator weights.

    ``out_dir`` (optional) receives the meta-log CSV and periodic/final
    checkpoints. ``progress`` (optional) is called with each log row.
    """
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    n_params = LgaParams.zeros(cfg.feature_cfg).n_params
    es = OpenAiEs(n_params, **cfg._es_settings())
    es_rng = np.random.default_rng([cfg.seed, 0x0E5])
    log = []
    mean_history = np.empty((cfg.meta_generations, n_params))
    with job_map(cfg.workers) as map_jobs:
        for gen in range(cfg.meta_generations):
            task_rng = np.random.default_rng([cfg.seed, gen, 0x7A5])
            tasks = [sample_task(cfg.family, task_rng)
                     for _ in range(cfg.n_tasks)]
            candidates = es.ask(es_rng).astype(np.float32)

            columns = map_jobs(_task_job, [
                (candidates, cfg.feature_cfg, task, [cfg.seed, gen, 0x1AEA, l],
                 cfg.inner_popsize, cfg.inner_generations, cfg.objective)
                for l, task in enumerate(tasks)])
            scores = _patch_non_finite(np.stack(columns, axis=1))
            scores = _winsorize_columns(scores)

            mf = meta_fitness(scores)
            es.tell(mf)
            mean_history[gen] = es.mean
            mean_params = LgaParams.from_vector(cfg.feature_cfg, es.mean)
            evals = ([_held_out_score(mean_params, cfg, name, dim, seed)
                      for _, name, dim, seed in HELD_OUT]
                     if cfg.eval_every and gen % cfg.eval_every == 0
                     else [""] * len(HELD_OUT))
            row = dict(zip(META_LOG_COLUMNS, [
                gen, float(mf.mean()), float(np.median(mf)), float(mf.min()),
                es.sigma, es.lr, *evals]))
            log.append(row)
            if progress is not None:
                progress(row)
            if out_dir and cfg.checkpoint_every \
                    and (gen + 1) % cfg.checkpoint_every == 0:
                mean_params.save(
                    os.path.join(out_dir, f"checkpoint_gen{gen + 1:05d}.txt"))

    final = LgaParams.from_vector(cfg.feature_cfg, es.mean)
    if out_dir:
        final.save(os.path.join(out_dir, "checkpoint_final.txt"))
        write_csv(os.path.join(out_dir, "meta_log.csv"), META_LOG_COLUMNS,
                  [row.values() for row in log])
    return MetaTrainResult(params=final, log=log, mean_history=mean_history)


@contextlib.contextmanager
def job_map(workers):
    """``map_jobs(fn, jobs)``, the list of ``fn(job)`` in job order.

    With one worker the jobs run here, one after another, and
    ``multiprocessing`` is never imported; with more, one process pool
    serves every map of the ``with`` block and shuts down at its end.
    """
    if workers == 1:
        yield lambda fn, jobs: [fn(job) for job in jobs]
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, jobs: list(pool.map(fn, jobs, chunksize=1))


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` as ASCII CSV, each float as its repr."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v))
                             if isinstance(v, (float, np.floating)) else v
                             for v in row])
