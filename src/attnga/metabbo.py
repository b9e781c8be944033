"""Outer meta-evolution loop: evolve the operator weights across tasks.

Per meta-generation the loop samples a batch of tasks, draws candidate
weight vectors from the evolution strategy, scores every candidate on every
task with an identical task instance, archive initialization and random
stream (shared-randomness trick: candidates differ only through their
weights), z-scores each task column across candidates and feeds the
per-candidate median to the strategy.

The candidate sweep is evaluated by a vectorized rollout that carries all M
candidates through the inner loop simultaneously; it reproduces the engine's
draw order, so a single-candidate batch matches ``engine.run`` on the same
seed (covered by tests).
"""

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .attention import last_axis_first, softmax_last
from .bbob import TaskFamily, sample_task
from .features import rows_centered_ranks, rows_z_score, z_score
from .metaes import OpenAiEs
from .params import FeatureConfig, LgaParams, weight_shapes
from .tasks import make_task

__all__ = ["MetaConfig", "MetaTrainResult", "OBJECTIVES", "reduce_scores",
           "inner_score", "meta_fitness", "evaluate_candidates_on_task",
           "meta_train", "write_meta_log"]

OBJECTIVES = ("minN-minT", "minN-finalT", "meanN-minT", "meanN-finalT")

META_LOG_COLUMNS = ("meta_gen", "mf_mean", "mf_median", "mf_best",
                    "sigma_meta", "lr", "eval_sphere", "eval_rosenbrock",
                    "eval_mlp")


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
    # Per-task winsorization percentile applied across candidates before the
    # z-score normalization. Diverged candidates can post scores tens of
    # orders of magnitude above the field; without a cap they inflate the
    # column std until every other candidate collapses onto one z value and
    # the training signal drowns in float round-off.
    winsor_pct: float = 80.0

    def __post_init__(self):
        if self.meta_popsize % 2 != 0:
            raise ValueError("meta population must be even")
        if self.n_tasks < 1:
            raise ValueError("need at least one task per meta-generation")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}; one of "
                             f"{OBJECTIVES}")
        if self.feature_cfg.heads != 1:
            raise ValueError("meta-training supports single-head operators")


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


def _inner_config(cfg, seed):
    return engine.GaConfig(
        n_pop=cfg.inner_popsize, elite_ratio=1.0, sigma0=0.1,
        selection="learned", mra="learned", sampling="uniform",
        crossover="none", generations=cfg.inner_generations, seed=seed)


def inner_score(params, tasks, objective, inner_popsize, inner_generations,
                seeds):
    """Score one candidate on each task via full engine rollouts."""
    scores = np.empty(len(tasks))
    for l, (task, seed) in enumerate(zip(tasks, seeds)):
        config = engine.GaConfig(
            n_pop=inner_popsize, elite_ratio=1.0, sigma0=task.sigma0,
            selection="learned", mra="learned",
            generations=inner_generations, seed=seed)
        trajectory = engine.run(config, task, params=params)
        scores[l] = reduce_scores(trajectory.fitness, objective)
    return scores


def meta_fitness(scores):
    """z-score each task column across candidates, median across tasks."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("meta_fitness requires finite scores")
    normalized = np.column_stack([z_score(col) for col in scores.T])
    return np.median(normalized, axis=1)


# -- vectorized candidate sweep ---------------------------------------------

def _stack_weights(theta_matrix, cfg):
    """(M, P) candidate matrix -> dict of (M, ...) stacked weight arrays."""
    theta_matrix = np.asarray(theta_matrix, dtype=np.float32)
    stacked, offset = {}, 0
    for name, shape in weight_shapes(cfg).items():
        size = int(np.prod(shape))
        block = theta_matrix[:, offset:offset + size]
        stacked[name] = block.reshape((-1,) + shape).astype(np.float64)
        offset += size
    if offset != theta_matrix.shape[1]:
        raise ValueError("candidate vector length mismatch")
    return stacked


def evaluate_candidates_on_task(theta_matrix, feature_cfg, task, seed,
                                inner_popsize, inner_generations,
                                objective):
    """Inner rollouts of all candidates on one task with shared randomness.

    Mirrors ``engine.run`` with learned selection + MRA, uniform sampling
    and elite_ratio 1; the random draw order matches the engine contract
    documented in :mod:`attnga.engine`.

    Features are written into buffers allocated once per call. Sums (row
    moments, softmax denominators, the selection CDF) run along contiguous
    rows, which fixes their bits; order-free reductions (max, min, counts)
    run over a leading axis.
    """
    w = _stack_weights(theta_matrix, feature_cfg)
    m = theta_matrix.shape[0]
    n, t, d = inner_popsize, inner_generations, task.dim
    scale = np.sqrt(feature_cfg.d_k)
    rng = np.random.default_rng(seed)
    clip = engine.FITNESS_CLIP

    x0 = rng.uniform(-5.0, 5.0, size=(n, d))
    x_p = np.broadcast_to(x0, (m, n, d)).copy()
    f_p = np.full((m, n), np.inf)
    sigma_p = np.full((m, n), task.sigma0)
    best = np.full(m, np.inf)
    fitness_log = np.empty((m, t, n))
    rows = np.arange(m)[:, None]

    # Per-generation buffers: MRA features [z, rank, flag, z(sigma), minmax]
    # of the sampled parents, the joint child+parent fitness (children
    # first) and its features [z, rank, flag], and the selection logits
    # whose last column is the fixed keep logit.
    f_m = np.empty((m, n, 5))
    joint = np.empty((m, 2 * n))
    j_feat = np.empty((m, 2 * n, 3))
    feats_c, feats_p = j_feat[:, :n], j_feat[:, n:]
    sel_logits = np.ones((m, n, n + 1))

    # Single-head weights, squeezed to (M, d_in, d_k).
    sel_q, sel_k, sel_v = w["sel_q"][:, 0], w["sel_k"][:, 0], w["sel_v"][:, 0]
    mra_q, mra_k, mra_v = w["mra_q"][:, 0], w["mra_k"][:, 0], w["mra_v"][:, 0]

    for gen in range(t):
        idx = rng.integers(0, n, size=n)
        x_s, f_s, sigma_s = x_p[:, idx], f_p[:, idx], sigma_p[:, idx]

        # MRA features of the sampled parents.
        f_feat = np.minimum(f_s, clip)
        rows_z_score(f_feat, out=f_m[:, :, 0])
        rows_centered_ranks(f_feat, out=f_m[:, :, 1])
        np.less(f_feat, best[:, None], out=f_m[:, :, 2])
        rows_z_score(sigma_s, out=f_m[:, :, 3])
        sigma_t = last_axis_first(sigma_s)
        lo, hi = sigma_t.min(axis=0)[:, None], sigma_t.max(axis=0)[:, None]
        span = hi - lo
        flat = span < 1e-10
        span[flat] = 1.0
        minmax = np.subtract(sigma_s, lo)
        minmax *= 2.0
        minmax /= span
        np.subtract(minmax, 1.0, out=f_m[:, :, 4])
        f_m[flat[:, 0], :, 4] = 0.0

        logits = (f_m @ mra_q) @ np.swapaxes(f_m @ mra_k, 1, 2)
        logits /= scale
        attn = softmax_last(logits) @ (f_m @ mra_v)
        log_delta = (attn @ w["mra_sigma"])[:, :, 0]
        log_delta *= 0.5
        np.clip(log_delta, -10.0, 10.0, out=log_delta)
        sigma_c = np.exp(log_delta, out=log_delta)
        sigma_c *= sigma_s

        eps = rng.standard_normal((n, d))
        x_c = x_s + sigma_c[:, :, None] * eps

        f_c = task.core_values(x_c.reshape(m * n, d)).reshape(m, n)
        if task.noise:
            noise = rng.standard_normal(n)
            f_c = np.maximum(f_c, 1e-12) * np.exp(task.noise_beta * noise)
        fitness_log[:, gen] = f_c

        # Joint child+parent fitness features, children first.
        joint[:, :n] = f_c
        np.minimum(f_p, clip, out=joint[:, n:])
        rows_z_score(joint, out=j_feat[:, :, 0])
        rows_centered_ranks(joint, out=j_feat[:, :, 1])
        np.less(joint, best[:, None], out=j_feat[:, :, 2])

        logits = (feats_p @ sel_q) @ np.swapaxes(feats_c @ sel_k, 1, 2)
        logits /= scale
        a_s = softmax_last(logits) @ (feats_c @ sel_v)
        logits = (a_s @ w["sel_q2"]) @ np.swapaxes(feats_c @ w["sel_k2"],
                                                   1, 2)
        np.divide(logits, scale, out=sel_logits[:, :, :n])
        probs = softmax_last(sel_logits)

        u = rng.random(n)
        cdf = np.cumsum(probs, axis=2)
        below = last_axis_first(cdf) < u
        sel = np.minimum(below.sum(axis=0), n)
        keep = sel == n
        child = np.minimum(sel, n - 1)
        x_p = np.where(keep[:, :, None], x_p, x_c[rows, child])
        f_p = np.where(keep, f_p, f_c[rows, child])
        sigma_p = np.where(keep, sigma_p, sigma_c[rows, child])

        best = np.minimum(best, last_axis_first(f_c).min(axis=0))

    return reduce_scores(fitness_log, objective)


def _task_job(args):
    return evaluate_candidates_on_task(*args)


def _winsorize_columns(scores, pct):
    """Cap each task column at its ``pct`` percentile across candidates.

    Order among capped candidates is lost (they tie at the cap), which is
    fine: they are the diverged tail, and the tie keeps the column std at
    the scale of the competitive candidates.
    """
    caps = np.percentile(scores, pct, axis=0, keepdims=True)
    return np.minimum(scores, caps)


def _patch_non_finite(scores):
    """Replace non-finite entries by their column's worst finite score."""
    scores = np.array(scores, dtype=np.float64)
    for j in range(scores.shape[1]):
        col = scores[:, j]
        bad = ~np.isfinite(col)
        if bad.any():
            finite = col[~bad]
            col[bad] = finite.max() if finite.size else 0.0
    return scores


def _held_out_score(params, cfg, name, dim, seed):
    task = make_task(name, dim=dim, seed=seed)
    config = _inner_config(cfg, seed=(cfg.seed, 0xE7A1, seed))
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
    es = OpenAiEs(n_params, cfg.meta_popsize, lr=cfg.lr,
                  lr_decay=cfg.lr_decay, lr_final=cfg.lr_final,
                  sigma=cfg.sigma_meta, sigma_decay=cfg.sigma_decay,
                  sigma_final=cfg.sigma_final, mean_decay=cfg.mean_decay)
    es_rng = np.random.default_rng([cfg.seed, 0x0E5])
    log = []
    mean_history = np.empty((cfg.meta_generations, n_params))
    executor = (ProcessPoolExecutor(max_workers=cfg.workers)
                if cfg.workers > 1 else None)
    try:
        for gen in range(cfg.meta_generations):
            task_rng = np.random.default_rng([cfg.seed, gen, 0x7A5])
            tasks = [sample_task(cfg.family, task_rng)
                     for _ in range(cfg.n_tasks)]
            candidates = es.ask(es_rng).astype(np.float32)

            jobs = [(candidates, cfg.feature_cfg, task,
                     [cfg.seed, gen, 0x1AEA, l], cfg.inner_popsize,
                     cfg.inner_generations, cfg.objective)
                    for l, task in enumerate(tasks)]
            if executor is not None:
                columns = list(executor.map(_task_job, jobs, chunksize=1))
            else:
                columns = [_task_job(job) for job in jobs]
            scores = _patch_non_finite(np.stack(columns, axis=1))
            scores = _winsorize_columns(scores, cfg.winsor_pct)

            mf = meta_fitness(scores)
            es.tell(mf)
            mean_history[gen] = es.mean

            row = {"meta_gen": gen, "mf_mean": float(mf.mean()),
                   "mf_median": float(np.median(mf)),
                   "mf_best": float(mf.min()), "sigma_meta": es.sigma,
                   "lr": es.lr, "eval_sphere": "", "eval_rosenbrock": "",
                   "eval_mlp": ""}
            if cfg.eval_every and gen % cfg.eval_every == 0:
                mean_params = LgaParams.from_vector(cfg.feature_cfg, es.mean)
                row["eval_sphere"] = _held_out_score(mean_params, cfg,
                                                     "sphere", 10, 11)
                row["eval_rosenbrock"] = _held_out_score(mean_params, cfg,
                                                         "rosenbrock", 10, 13)
                row["eval_mlp"] = _held_out_score(mean_params, cfg,
                                                  "mlp-sine", None, 17)
            log.append(row)
            if progress is not None:
                progress(row)
            if out_dir and cfg.checkpoint_every \
                    and (gen + 1) % cfg.checkpoint_every == 0:
                LgaParams.from_vector(cfg.feature_cfg, es.mean).save(
                    os.path.join(out_dir, f"checkpoint_gen{gen + 1:05d}.txt"))
    finally:
        if executor is not None:
            executor.shutdown()

    final = LgaParams.from_vector(cfg.feature_cfg, es.mean)
    if out_dir:
        final.save(os.path.join(out_dir, "checkpoint_final.txt"))
        write_meta_log(log, os.path.join(out_dir, "meta_log.csv"))
    return MetaTrainResult(params=final, log=log, mean_history=mean_history)


def write_meta_log(log, path):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=META_LOG_COLUMNS)
        writer.writeheader()
        for row in log:
            out = dict(row)
            for key, value in out.items():
                if isinstance(value, float):
                    out[key] = repr(value)
            writer.writerow(out)
