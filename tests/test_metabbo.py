"""Unit tests for the meta-training loop and the batched candidate sweep."""

import csv
import os
from dataclasses import replace

import numpy as np
import pytest

from attnga import engine, metabbo
from attnga.bbob import TaskFamily, TaskSpec, sample_task
from attnga.features import z_score
from attnga.params import FeatureConfig, LgaParams
from attnga.tasks import make_task


def _theta(m, seed=42, scale=0.1, cfg=None):
    n = LgaParams.zeros(cfg).n_params
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((m, n))).astype(np.float32)


def _engine_fitness(cfg, theta, task, seed, n, t):
    config = engine.GaConfig(n_pop=n, elite_ratio=1.0, sigma0=task.sigma0,
                             selection="learned", mra="learned",
                             generations=t, seed=seed)
    return engine.run(config, task,
                      params=LgaParams.from_vector(cfg, theta)).fitness


def _sweep_fitness(cfg, theta, task, seed, n, t):
    """The sweep's (M, T, N) child fitness log, captured at its reduction."""
    captured = {}
    original = metabbo.reduce_scores

    def capture(fitness, objective):
        captured["log"] = np.array(fitness)
        return original(fitness, objective)

    metabbo.reduce_scores = capture
    try:
        metabbo.evaluate_candidates_on_task(theta, cfg, task, seed, n, t,
                                            "minN-finalT")
    finally:
        metabbo.reduce_scores = original
    return captured["log"]


def test_objective_reductions_on_hand_tensor():
    fitness = np.array([[3.0, 1.0], [2.0, 4.0]])   # (T=2, N=2)
    assert metabbo.reduce_scores(fitness, "minN-minT") == 1.0
    assert metabbo.reduce_scores(fitness, "minN-finalT") == 2.0
    assert metabbo.reduce_scores(fitness, "meanN-minT") == 2.0
    assert metabbo.reduce_scores(fitness, "meanN-finalT") == 3.0
    with pytest.raises(ValueError):
        metabbo.reduce_scores(fitness, "maxN-minT")


def test_reduce_scores_handles_leading_axes():
    fitness = np.stack([np.array([[3.0, 1.0], [2.0, 4.0]]),
                        np.array([[5.0, 5.0], [0.5, 9.0]])])
    np.testing.assert_array_equal(
        metabbo.reduce_scores(fitness, "minN-finalT"), [2.0, 0.5])


def test_meta_fitness_normalizes_per_task():
    scores = np.array([[1.0, 10.0, 3.0],
                       [2.0, 20.0, 1.0],
                       [3.0, 30.0, 2.0]])
    expected = np.median(
        np.column_stack([z_score(scores[:, j]) for j in range(3)]), axis=1)
    np.testing.assert_allclose(metabbo.meta_fitness(scores), expected)
    with pytest.raises(ValueError):
        metabbo.meta_fitness(np.array([[1.0, np.inf]]))


def test_patch_non_finite_uses_column_worst():
    """A column with no finite score is patched to 0.0."""
    scores = np.array([[1.0, np.nan, -3.0, np.nan],
                       [np.inf, 2.0, np.nan, np.inf],
                       [3.0, 5.0, -1.0, -np.inf]])
    patched = metabbo._patch_non_finite(scores)
    np.testing.assert_array_equal(patched, [[1.0, 5.0, -3.0, 0.0],
                                            [3.0, 2.0, -1.0, 0.0],
                                            [3.0, 5.0, -1.0, 0.0]])


def test_meta_config_validation():
    with pytest.raises(ValueError):
        metabbo.MetaConfig(meta_popsize=7)
    with pytest.raises(ValueError):
        metabbo.MetaConfig(n_tasks=0)
    with pytest.raises(ValueError):
        metabbo.MetaConfig(objective="bestN")
    metabbo.MetaConfig(meta_popsize=2, meta_generations=0, eval_every=0,
                       checkpoint_every=0, mean_decay=0.0, lr_decay=1.0,
                       sigma_decay=1.0)


@pytest.mark.parametrize("name, value", [
    ("meta_popsize", 0), ("meta_generations", -1), ("eval_every", -1),
    ("checkpoint_every", -2), ("mean_decay", 2.0), ("mean_decay", -1.0),
    ("workers", 0), ("workers", -2), ("lr", -1.0), ("lr_final", 0.0),
    ("sigma_meta", 0.0), ("sigma_meta", np.nan), ("sigma_final", np.inf),
    ("lr_decay", np.nan), ("lr_decay", -1.0), ("lr_decay", 0.0),
    ("sigma_decay", 2.0), ("sigma_decay", np.inf)])
def test_meta_config_rejects_settings_that_misbehave(name, value):
    """Each raises naming its field: a meta population of 0 crashes, a
    negative period fires every generation, a mean decay outside [0, 1)
    flips or grows the search mean, fewer than one worker ran serially,
    a meta sigma of 0 or NaN ended in a non-finite meta-fitness, a
    negative learning rate climbed the meta-loss, a NaN learning-rate
    decay ended in non-finite weights a meta-generation later, one of -1
    dropped the rate to its floor after one step and a sigma decay of 2
    doubled the meta sigma every meta-generation."""
    with pytest.raises(ValueError, match=f"^{name} "):
        metabbo.MetaConfig(**{name: value})


@pytest.mark.parametrize("name, match", [
    ("inner_popsize", "^inner_popsize must be an integer, at least 1"),
    ("inner_generations", "^inner_generations must be an integer, at least 1")])
def test_meta_config_checks_its_inner_ga(name, match):
    """The inner GA's own rules are checked when the config is built."""
    with pytest.raises(ValueError, match=match):
        metabbo.MetaConfig(**{name: 0})


@pytest.mark.parametrize("noise", [False, True])
def test_batched_sweep_matches_engine_rollouts(noise):
    """The vectorized M-candidate evaluator is the engine, candidate-wise.

    In a batch of four and alone, each candidate's rollout is
    ``engine.run`` bit for bit.
    """
    cfg = FeatureConfig()
    theta = _theta(4)
    task = TaskSpec(function="rastrigin", dim=3,
                    offset=np.array([1.0, -2.0, 0.5]), sigma0=0.2,
                    noise=noise)
    seed, t, n = [9, 0, int(noise)], 30, 16

    batch = _sweep_fitness(cfg, theta, task, seed, n, t)
    for i in range(4):
        ref = _engine_fitness(cfg, theta[i], task, seed, n, t)
        assert batch[i].tobytes() == ref.tobytes()
        single = _sweep_fitness(cfg, theta[i:i + 1], task, seed, n, t)
        assert single[0].tobytes() == ref.tobytes()


def test_mlp_sine_one_candidate_sweep_equals_engine_run():
    cfg = FeatureConfig()
    theta = _theta(1, seed=3)
    task = make_task("mlp-sine")
    single = _sweep_fitness(cfg, theta, task, [4, 2], 8, 12)
    ref = _engine_fitness(cfg, theta[0], task, [4, 2], 8, 12)
    assert single[0].tobytes() == ref.tobytes()


def test_two_head_one_candidate_sweep_equals_engine_run():
    cfg = FeatureConfig(heads=2)
    theta = _theta(1, seed=5, scale=0.5, cfg=cfg)
    task = TaskSpec(function="sphere", dim=4,
                    offset=np.array([1.5, -0.5, 2.0, 0.0]), sigma0=0.3)
    single = _sweep_fitness(cfg, theta, task, [6, 1], 12, 20)
    ref = _engine_fitness(cfg, theta[0], task, [6, 1], 12, 20)
    assert single[0].tobytes() == ref.tobytes()


def _desk_tasks(count):
    family = TaskFamily(functions=("sphere", "rosenbrock", "rastrigin"),
                        dim_range=(2, 4))
    rng = np.random.default_rng([0, 0, 0x7A5])
    return [sample_task(family, rng) for _ in range(count)]


@pytest.mark.parametrize("case", ["desk-0", "desk-1", "mlp-sine",
                                  "two-head"])
def test_batched_sweep_equals_per_candidate_engine_run(case):
    """A candidate's rollout does not depend on the batch size M.

    Every row of a sweep over M in {1, 2, 64} candidates equals that
    candidate's own ``engine.run`` bit for bit.
    """
    cfg, n, t = FeatureConfig(), 16, 50
    if case.startswith("desk"):
        task = _desk_tasks(2)[int(case[-1])]
    elif case == "mlp-sine":
        task, n, t = make_task("mlp-sine"), 8, 12
    else:
        cfg, n, t = FeatureConfig(heads=2), 12, 20
        task = replace(make_task("rastrigin", dim=3, seed=4), noise=True)
    theta = _theta(64, seed=13, scale=0.5, cfg=cfg)
    seed = [0, 0, 0x1AEA, 3]
    refs = [_engine_fitness(cfg, row, task, seed, n, t).tobytes()
            for row in theta]
    for m in (1, 2, 64):
        batch = _sweep_fitness(cfg, theta[:m], task, seed, n, t)
        assert [row.tobytes() for row in batch] == refs[:m]


def test_warm_sweep_generations_take_no_page_faults():
    """The generation loop reuses its memory once a sweep is warm.

    A warm sweep of 2T generations takes no more minor page faults than one
    of T generations plus the pages of its larger fitness log: the
    per-generation temporaries stay small and the attention logits live in
    buffers built once per call.
    """
    resource = pytest.importorskip("resource")
    cfg, m, n, t = FeatureConfig(), 64, 16, 25
    task = _desk_tasks(1)[0]
    theta = _theta(m, seed=14, scale=0.5)

    def faults(generations):
        counts = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            metabbo.evaluate_candidates_on_task(
                theta, cfg, task, [0, 1], n, generations, "minN-finalT")
            counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        return min(counts[2:])          # the first calls warm the heap

    log_pages = m * n * t * 8 / os.sysconf("SC_PAGE_SIZE")
    assert faults(2 * t) - faults(t) <= log_pages + 0.2 * t


def test_duplicate_candidates_score_identically():
    """Shared-randomness invariance: scores depend only on the weights."""
    cfg = FeatureConfig()
    base = _theta(3, seed=11)
    theta = np.concatenate([base, base[1:2], base[0:1]], axis=0)
    task = TaskSpec(function="rosenbrock", dim=2,
                    offset=np.array([0.5, 0.5]), sigma0=0.15, noise=True)
    scores = metabbo.evaluate_candidates_on_task(
        theta, cfg, task, seed=[1, 2, 3], inner_popsize=8,
        inner_generations=15, objective="minN-finalT")
    assert scores[3] == scores[1]
    assert scores[4] == scores[0]
    assert scores[0] != scores[1]


def _tiny_config(workers=1, out_of=None):
    return metabbo.MetaConfig(
        meta_popsize=8, n_tasks=3, inner_popsize=8, inner_generations=8,
        meta_generations=3, seed=5,
        family=TaskFamily(functions=("sphere",), dim_range=(2, 3)),
        eval_every=2, checkpoint_every=2, workers=workers)


def test_meta_train_writes_checkpoints_and_log(tmp_path):
    out, rows_seen = tmp_path / "run", []
    result = metabbo.meta_train(_tiny_config(), out_dir=str(out),
                                progress=rows_seen.append)
    assert rows_seen == result.log     # each row once, in order
    assert result.params.n_params == 704
    assert result.mean_history.shape == (3, 704)
    assert len(result.log) == 3
    assert (out / "checkpoint_final.txt").exists()
    assert (out / "checkpoint_gen00002.txt").exists()
    loaded = LgaParams.load(out / "checkpoint_final.txt")
    np.testing.assert_array_equal(loaded.to_vector(),
                                  result.params.to_vector())
    with open(out / "meta_log.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert set(rows[0]) == set(metabbo.META_LOG_COLUMNS)
    # eval columns are filled on eval generations (0 and 2) only.
    assert rows[0]["eval_sphere"] != "" and rows[1]["eval_sphere"] == ""
    assert float(rows[0]["eval_sphere"]) > 0.0


def test_meta_train_mean_actually_moves():
    result = metabbo.meta_train(_tiny_config())
    assert np.linalg.norm(result.mean_history[-1]) > 0.0
    assert not np.array_equal(result.mean_history[0],
                              result.mean_history[-1])


def test_meta_train_is_deterministic_across_worker_counts(tmp_path):
    a = metabbo.meta_train(_tiny_config(workers=1),
                           out_dir=str(tmp_path / "w1"))
    b = metabbo.meta_train(_tiny_config(workers=4),
                           out_dir=str(tmp_path / "w4"))
    np.testing.assert_array_equal(a.mean_history, b.mean_history)
    assert (tmp_path / "w1" / "meta_log.csv").read_bytes() \
        == (tmp_path / "w4" / "meta_log.csv").read_bytes()
