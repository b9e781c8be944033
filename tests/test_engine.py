"""Unit tests for the ask/tell genetic-algorithm engine."""

import math
import warnings

import numpy as np
import pytest

from attnga import engine
from attnga import operators as ops
from attnga.attention import row_softmax
from attnga.bbob import TaskSpec
from attnga.features import (FITNESS_DIM, SIGMA_DIM, rows_joint_features,
                             rows_parent_features)
from attnga.params import FeatureConfig, LgaParams
from attnga.tasks import make_task


def _sphere_task(dim=3, offset=None):
    offset = np.zeros(dim) if offset is None else np.asarray(offset)
    return TaskSpec(function="sphere", dim=dim, offset=offset, sigma0=0.3)


def _params(seed=40):
    return LgaParams.random(FeatureConfig(), np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        engine.GaConfig(n_pop=0)
    with pytest.raises(ValueError):
        engine.GaConfig(elite_ratio=1.5)
    for sigma0 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="initial mutation rate"):
            engine.GaConfig(sigma0=sigma0)
    with pytest.raises(ValueError):
        engine.GaConfig(selection="roulette")
    with pytest.raises(ValueError):
        engine.GaConfig(mra="cosine")
    with pytest.raises(ValueError):
        engine.GaConfig(n_pop=12, mra="gesmr", gesmr_groups=5)


def test_elite_count_rounding():
    assert engine.GaConfig(n_pop=10, elite_ratio=0.25).n_elite == 3
    assert engine.GaConfig(n_pop=10, elite_ratio=0.0).n_elite == 1
    assert engine.GaConfig(n_pop=10, elite_ratio=1.0).n_elite == 10
    for n in (1, 7, 16):
        for rho in (0.0, 0.15, 0.35, 0.5, 1.0):
            expected = max(1, math.ceil(rho * n))
            assert engine.GaConfig(n_pop=n, elite_ratio=rho).n_elite \
                == expected


def test_learned_slots_require_params():
    with pytest.raises(ValueError):
        engine.GeneticAlgorithm(engine.GaConfig(selection="learned"), dim=2)
    with pytest.raises(ValueError):
        engine.GeneticAlgorithm(
            engine.GaConfig(sampling="learned"), dim=2, params=_params())
    with pytest.raises(ValueError):
        engine.GeneticAlgorithm(
            engine.GaConfig(crossover="learned"), dim=2, params=_params())


def test_ask_tell_protocol_errors():
    ga = engine.GeneticAlgorithm(engine.GaConfig(n_pop=4), dim=2)
    with pytest.raises(ValueError):
        ga.tell(np.zeros((4, 2)), np.zeros(4), np.full(4, 0.1))
    x, sigma = ga.ask()
    with pytest.raises(ValueError):
        ga.tell(x, np.zeros(3), sigma)           # wrong shape
    with pytest.raises(ValueError):
        ga.tell(x, np.full(4, np.nan), sigma)    # non-finite


def test_run_is_deterministic_per_seed():
    task = _sphere_task()
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, generations=20,
                             selection="learned", mra="learned",
                             seed=[1, 2])
    params = _params()
    a = engine.run(config, task, params=params)
    b = engine.run(config, task, params=params)
    np.testing.assert_array_equal(a.fitness, b.fitness)
    c = engine.run(engine.GaConfig(**{**config.__dict__, "seed": [1, 3]}),
                   task, params=params)
    assert not np.array_equal(a.fitness, c.fitness)


def test_best_so_far_is_running_minimum():
    traj = engine.run(engine.GaConfig(n_pop=8, generations=30, seed=5),
                      _sphere_task())
    np.testing.assert_array_equal(traj.best_so_far,
                                  np.minimum.accumulate(traj.best_of_gen))
    assert np.all(np.diff(traj.best_so_far) <= 0.0)


def test_truncation_engine_monotone_archive():
    """With truncation selection the archive's best never gets worse."""
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, generations=25,
                             seed=6)
    ga = engine.GeneticAlgorithm(config, dim=3)
    task = _sphere_task()
    prev = np.inf
    for _ in range(config.generations):
        x, sigma = ga.ask()
        ga.tell(x, task.evaluate(x), sigma)
        assert ga.archive.f.min() <= prev + 1e-12
        prev = ga.archive.f.min()


def test_one_generation_trace_matches_manual_replay():
    """Replay ask/tell by hand with an identical rng (draw-order contract)."""
    config = engine.GaConfig(n_pop=6, elite_ratio=0.5, sigma0=0.2,
                             selection="learned", mra="learned",
                             generations=1, seed=123)
    params = _params(41)
    task = _sphere_task(dim=2, offset=[1.0, -0.5])
    ga = engine.GeneticAlgorithm(config, task.dim, params=params)
    x_c, sigma_c = ga.ask()

    rng = np.random.default_rng(123)
    x0 = rng.uniform(-5.0, 5.0, size=(3, 2))            # archive init
    idx = rng.integers(0, 3, size=6)                    # parent sampling
    f_s = np.full(6, engine.FITNESS_CLIP)
    feats = rows_parent_features(f_s, np.full(6, 0.2), np.inf,
                                 np.empty((6, FITNESS_DIM + SIGMA_DIM)))
    delta = ops.mra_multiplier(params, feats)
    exp_sigma = delta * 0.2
    exp_x = x0[idx] + exp_sigma[:, None] * rng.standard_normal((6, 2))
    np.testing.assert_array_equal(sigma_c, exp_sigma)
    np.testing.assert_array_equal(x_c, exp_x)

    f_c = task.evaluate(x_c)
    ga.tell(x_c, f_c, sigma_c)
    feat_c, feat_p = rows_joint_features(
        f_c, np.full(3, engine.FITNESS_CLIP), np.inf,
        np.empty((9, FITNESS_DIM)))
    probs = row_softmax(ops.selection_logits(params, feat_p, feat_c))
    sel = ops.categorical_indices(probs, rng.random(3))
    for row, choice in enumerate(sel):
        if choice == 6:                                  # keep-parent slot
            np.testing.assert_array_equal(ga.archive.x[row], x0[row])
            assert ga.archive.age[row] == 1
        else:
            np.testing.assert_array_equal(ga.archive.x[row], x_c[choice])
            assert ga.archive.f[row] == f_c[choice]
            assert ga.archive.age[row] == 0
    assert ga.best_f == f_c.min()


def test_one_fifth_updates_scalar_sigma():
    config = engine.GaConfig(n_pop=10, elite_ratio=0.5, sigma0=0.4,
                             mra="one_fifth", generations=1, seed=7)
    ga = engine.GeneticAlgorithm(config, dim=2)
    x, sigma = ga.ask()
    np.testing.assert_array_equal(sigma, np.full(10, 0.4))
    # All children "improve" on the +inf archive: rate doubles.
    ga.tell(x, np.ones(10), sigma)
    assert ga._sigma_scalar == 0.8
    x, sigma = ga.ask()
    np.testing.assert_array_equal(sigma, np.full(10, 0.8))
    # No child improves on its sampled parent: rate halves.
    ga.tell(x, np.full(10, 2.0), sigma)
    assert ga._sigma_scalar == 0.4


def test_gesmr_group_layout():
    config = engine.GaConfig(n_pop=8, elite_ratio=1.0, sigma0=0.3,
                             mra="gesmr", gesmr_groups=4, generations=1,
                             seed=8)
    ga = engine.GeneticAlgorithm(config, dim=2)
    x, sigma = ga.ask()
    np.testing.assert_array_equal(sigma, np.full(8, 0.3))
    ga.tell(x, np.arange(8, dtype=float), sigma)
    # Group 0 had the best improvement statistic and keeps its rate.
    assert ga._sigma_groups[0] == 0.3
    assert np.all(ga._sigma_groups >= 0.15 - 1e-12)
    assert np.all(ga._sigma_groups <= 0.6 + 1e-12)


def test_samr_rates_ride_with_children():
    config = engine.GaConfig(n_pop=6, elite_ratio=0.5, sigma0=0.2,
                             mra="samr", generations=3, seed=9)
    ga = engine.GeneticAlgorithm(config, dim=2)
    task = _sphere_task(dim=2)
    for _ in range(3):
        x, sigma = ga.ask()
        assert set(np.round(sigma / 0.2, 10)) <= {
            round(2.0 ** k, 10) for k in range(-3, 4)}
        ga.tell(x, task.evaluate(x), sigma)


def test_new_ga_starts_fresh():
    config = engine.GaConfig(n_pop=4, elite_ratio=1.0, seed=10)
    ga = engine.GeneticAlgorithm(config, dim=3)
    assert ga.archive.x.shape == (4, 3)
    assert np.all((ga.archive.x >= engine.INIT_LOW)
                  & (ga.archive.x < engine.INIT_HIGH))
    assert np.all(np.isinf(ga.archive.f))
    assert ga.generation == 0 and ga.best_f == np.inf


def test_debug_records_expose_selection_internals():
    config = engine.GaConfig(n_pop=5, elite_ratio=0.4, generations=4,
                             selection="learned", mra="learned", seed=11)
    traj = engine.run(config, _sphere_task(), params=_params(), debug=True)
    assert len(traj.debug) == 4
    rec = traj.debug[0]
    assert rec["probs"].shape == (2, 6)
    np.testing.assert_allclose(rec["probs"].sum(axis=1), 1.0, atol=1e-12)
    assert rec["child_features"].shape == (5, 3)
    assert rec["delta_sigma"].shape == (5,)
    assert rec["generation"] == 0
    assert rec["chosen"].shape == (2,) and np.all(rec["chosen"] <= 5)
    # Each record holds its own generation's arrays, not a reused buffer.
    for key in ("child_features", "parent_features", "logits"):
        assert not np.array_equal(traj.debug[0][key], traj.debug[3][key])


# -- errors: raised once, at the engine's boundary ---------------------------

SLOTS = [("learned", "learned"), ("truncation", "fixed"),
         ("truncation", "one_fifth"), ("truncation", "samr"),
         ("truncation", "gesmr"), ("truncation", "learned"),
         ("learned", "fixed")]


def _first_error(ga, task, generations):
    """(call, generation) of the first ValueError of a manual ask/tell loop."""
    for gen in range(generations):
        try:
            x, sigma = ga.ask()
        except ValueError:
            return "ask", gen
        f = task.evaluate(x, ga.rng)
        try:
            ga.tell(x, f, sigma)
        except ValueError:
            return "tell", gen
    return None


@pytest.mark.parametrize("selection, mra", SLOTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_child_fitness_raises_in_that_tell(selection, mra, bad):
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, selection=selection,
                             mra=mra, seed=14)
    ga = engine.GeneticAlgorithm(config, dim=3, params=_params())
    task = _sphere_task()
    for _ in range(3):
        x, sigma = ga.ask()
        ga.tell(x, task.evaluate(x), sigma)
    x, sigma = ga.ask()
    f = task.evaluate(x)
    f[5] = bad
    with pytest.raises(ValueError, match="non-finite fitness"):
        ga.tell(x, f, sigma)


@pytest.mark.parametrize("selection, n_pop, elite_ratio, seed, expected", [
    ("learned", 8, 0.5, 2, ("ask", 1)),
    ("learned", 8, 1.0, 5, ("ask", 9)),
    ("learned", 2, 1.0, 1, ("tell", 9)),
    ("truncation", 8, 0.5, 2, ("tell", 0)),
    ("truncation", 8, 0.5, 0, ("tell", 3)),
])
def test_learned_mra_rate_underflow_raises_in_the_same_call(
        selection, n_pop, elite_ratio, seed, expected):
    """A rate at the denormal floor rounds to 0 under a multiplier < 1/2.

    A sampled zero rate raises in ``ask``; one that only sits in the archive
    raises in the ``tell`` whose selection forms that archive. The expected
    calls were observed with the per-block checks the engine used to make.
    """
    params = LgaParams.random(FeatureConfig(), np.random.default_rng(seed),
                              scale=3.0)
    config = engine.GaConfig(n_pop=n_pop, elite_ratio=elite_ratio,
                             sigma0=1e-320, selection=selection,
                             mra="learned", seed=seed)
    task = make_task("sphere", dim=3, seed=0, noise=True)
    ga = engine.GeneticAlgorithm(config, task.dim, params=params)
    assert _first_error(ga, task, 30) == expected


def test_zero_archive_rate_raises_in_learned_selection_tell():
    config = engine.GaConfig(n_pop=6, elite_ratio=0.5, selection="learned",
                             mra="learned", seed=15)
    ga = engine.GeneticAlgorithm(config, dim=3, params=_params())
    x, sigma = ga.ask()
    ga.archive.sigma[1] = 0.0
    with pytest.raises(ValueError, match="archive mutation rates"):
        ga.tell(x, _sphere_task().evaluate(x), sigma)


def test_truncation_tell_raises_only_when_a_zero_rate_is_kept():
    config = engine.GaConfig(n_pop=6, elite_ratio=0.5, selection="truncation",
                             mra="learned", seed=16)
    ga = engine.GeneticAlgorithm(config, dim=3, params=_params())
    x, sigma = ga.ask()
    sigma = sigma.copy()
    sigma[5] = 0.0                       # worst child: not kept
    ga.tell(x, np.arange(6.0), sigma)
    x, sigma = ga.ask()
    sigma = sigma.copy()
    sigma[0] = 0.0                       # best child: kept
    with pytest.raises(ValueError, match="archive mutation rates"):
        ga.tell(x, np.full(6, -1.0), sigma)


def test_learned_mra_rates_spanning_the_float_range_raise_in_ask():
    """Finite rates whose min-max feature overflows are rejected."""
    config = engine.GaConfig(n_pop=8, elite_ratio=1.0, selection="truncation",
                             mra="learned", seed=17)
    ga = engine.GeneticAlgorithm(config, dim=3, params=_params())
    ga.archive.sigma[:] = np.tile([1e-3, 1.7e308], 4)
    with pytest.raises(ValueError, match="MRA features must be finite"):
        ga.ask()


# -- batched runs: each run of a batch is its own engine.run -----------------

TRAJECTORY_FIELDS = ("fitness", "best_of_gen", "best_so_far", "mean_sigma")


def _seeded(config, seed):
    return engine.GaConfig(**{**config.__dict__, "seed": seed})


def _assert_runs_match(config, task, seeds, params):
    """Run ``seeds`` as one batch; each run must equal its own run."""
    batch = engine.run(config, task, params=params, seeds=seeds)
    tasks = task if isinstance(task, list) else [task] * len(seeds)
    for r, (seed, each) in enumerate(zip(seeds, tasks)):
        alone = engine.run(_seeded(config, seed), each, params=params)
        for name in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(getattr(batch, name)[r],
                                          getattr(alone, name), err_msg=name)


@pytest.mark.parametrize("selection, mra", SLOTS)
@pytest.mark.parametrize("runs", [1, 2, 5])
def test_batched_mlp_runs_match_single_runs(selection, mra, runs):
    """At N=48 the MLP task's 64-row blocks straddle runs."""
    config = engine.GaConfig(n_pop=48, elite_ratio=0.5, sigma0=0.25,
                             selection=selection, mra=mra, generations=6)
    _assert_runs_match(config, make_task("mlp-sine"),
                       [[3, 0, r] for r in range(runs)], _params())


@pytest.mark.parametrize("selection, mra", SLOTS)
@pytest.mark.parametrize("kind", ["offsets", "noisy"])
def test_batched_bbob_runs_match_single_runs(selection, mra, kind):
    """Per-run offsets as the CLI builds them, or one shared noisy task."""
    if kind == "offsets":
        task = [make_task("rastrigin", dim=4, seed=s) for s in (5, 6, 7)]
    else:
        task = TaskSpec(function="rastrigin", dim=4,
                        offset=[1.0, -2.0, 0.5, 0.0], sigma0=0.2, noise=True)
    config = engine.GaConfig(n_pop=16, elite_ratio=0.25, sigma0=0.3,
                             selection=selection, mra=mra, generations=15)
    _assert_runs_match(config, task, [[4, r] for r in range(3)], _params())


class _PoisonedSphere:
    """A sphere task whose ``at``-th evaluation scores one child NaN."""

    def __init__(self, at):
        self.dim, self.at, self.calls = 3, at, 0

    def evaluate(self, x, rng=None):
        self.calls += 1
        f = np.sum(np.square(x), axis=-1)
        if self.calls == self.at:
            f[..., 1] = np.nan
        return f


@pytest.mark.parametrize("selection, mra", SLOTS)
def test_non_finite_fitness_in_one_run_raises_as_that_run(selection, mra):
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, selection=selection,
                             mra=mra, generations=10, seed=[2, 1])
    with pytest.raises(ValueError, match="non-finite fitness") as alone:
        engine.run(config, _PoisonedSphere(at=4), params=_params())
    tasks = [_sphere_task(), _PoisonedSphere(at=4), _sphere_task()]
    with pytest.raises(ValueError) as batch:
        engine.run(config, tasks, params=_params(),
                   seeds=[[2, 0], [2, 1], [2, 2]])
    assert str(batch.value) == str(alone.value)
    assert tasks[1].calls == 4


def _assert_rows_match(batch, r, alone):
    """Row ``r`` of a batch's trajectory, debug records too, is ``alone``."""
    for name in TRAJECTORY_FIELDS:
        np.testing.assert_array_equal(getattr(batch, name)[r],
                                      getattr(alone, name), err_msg=name)
    assert len(batch.debug) == len(alone.debug)
    for got, want in zip(batch.debug, alone.debug):
        assert got.keys() == want.keys()
        assert got["generation"] == want["generation"]
        for key in got.keys() - {"generation"}:
            np.testing.assert_array_equal(got[key][r], want[key],
                                          err_msg=key)


@pytest.mark.parametrize("settings, debug", [
    ({"sampling": "learned"}, False), ({"crossover": "learned"}, False),
    ({}, True), ({"sampling": "learned", "crossover": "learned"}, True)])
def test_learned_sampling_crossover_and_debug_run_as_a_batch(settings, debug):
    """A batch of runs and one of M candidates: each row is its own run."""
    cfg = FeatureConfig(with_sampling=True, with_crossover=True)
    params = LgaParams.random(cfg, np.random.default_rng(3), scale=0.5)
    task = make_task("rastrigin", dim=4, seed=2, noise=True)
    config = engine.GaConfig(n_pop=12, elite_ratio=0.5, sigma0=0.3,
                             selection="learned", mra="learned",
                             generations=15, seed=[4, 1], **settings)
    seeds = [[4, r] for r in range(3)]
    batch = engine.run(config, task, params=params, seeds=seeds, debug=debug)
    for r, seed in enumerate(seeds):
        _assert_rows_match(batch, r, engine.run(
            _seeded(config, seed), task, params=params, debug=debug))
    rows = 0.5 * np.random.default_rng(5).standard_normal(
        (3, params.n_params))
    singles, _ = _candidates(cfg, rows)
    for m in (1, 2, 3):
        _, candidates = _candidates(cfg, rows[:m])
        batch = engine.run(config, task, params=candidates, debug=debug)
        for r in range(m):
            _assert_rows_match(batch, r, engine.run(
                config, task, params=singles[r], debug=debug))


def test_task_sequence_needs_one_seed_per_task():
    config = engine.GaConfig(n_pop=4, generations=2)
    with pytest.raises(ValueError, match="one seed per task"):
        engine.run(config, [_sphere_task()] * 2, seeds=[1, 2, 3])
    with pytest.raises(ValueError, match="one seed per task"):
        engine.run(config, [_sphere_task()])


# -- candidate batches: the meta-training sweep is engine.run over M ---------

def _candidates(cfg, rows):
    """One LgaParams per row, and all rows as one (M,) candidate batch."""
    return ([LgaParams.from_vector(cfg, row) for row in rows],
            LgaParams.from_vector(cfg, rows))


@pytest.mark.parametrize("selection, mra", [s for s in SLOTS
                                            if "learned" in s])
@pytest.mark.parametrize("heads, kind", [(1, "noisy"), (2, "noisy"),
                                         (1, "mlp-sine")])
def test_candidate_batch_rows_match_single_runs(selection, mra, heads, kind):
    """Each candidate of a batch sharing one generator is its own run."""
    cfg = FeatureConfig(heads=heads)
    rows = 0.5 * np.random.default_rng(heads).standard_normal(
        (5, LgaParams.zeros(cfg).n_params))
    if kind == "noisy":
        task = TaskSpec(function="rastrigin", dim=4,
                        offset=[1.0, -2.0, 0.5, 0.0], sigma0=0.2, noise=True)
    else:
        task = make_task("mlp-sine")
    config = engine.GaConfig(n_pop=12, elite_ratio=0.5, sigma0=0.3,
                             selection=selection, mra=mra, generations=15,
                             seed=[8, heads])
    singles, batch = _candidates(cfg, rows)
    trajectory = engine.run(config, task, params=batch)
    for m, params in enumerate(singles):
        alone = engine.run(config, task, params=params)
        for name in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(getattr(trajectory, name)[m],
                                          getattr(alone, name), err_msg=name)


def test_diverging_candidate_runs_on_in_its_own_row():
    """A batch of candidates is not validated; each row stays its own run.

    Candidate 1's mutation rates underflow to 0 (see the rate-underflow
    test above), which raises alone; in a batch the run goes on, with no
    numpy warning, and the other rows keep their bits.
    """
    cfg = FeatureConfig()
    rows = np.stack([LgaParams.random(cfg, np.random.default_rng(seed),
                                      scale=scale).to_vector()
                     for seed, scale in ((3, 0.1), (2, 3.0), (4, 0.0))])
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, sigma0=1e-320,
                             selection="learned", mra="learned",
                             generations=30, seed=2)
    task = make_task("sphere", dim=3, seed=0, noise=True)
    singles, batch = _candidates(cfg, rows)
    with pytest.raises(ValueError, match="positive and finite"):
        engine.run(config, task, params=singles[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajectory = engine.run(config, task, params=batch)
    for m in (0, 2):
        alone = engine.run(config, task, params=singles[m])
        for name in TRAJECTORY_FIELDS:
            np.testing.assert_array_equal(getattr(trajectory, name)[m],
                                          getattr(alone, name), err_msg=name)


def test_non_finite_fitness_in_a_candidate_batch_runs_on():
    cfg = FeatureConfig()
    config = engine.GaConfig(n_pop=8, elite_ratio=0.5, selection="learned",
                             mra="learned", generations=10, seed=[2, 1])
    with pytest.raises(ValueError, match="non-finite fitness"):
        engine.run(config, _PoisonedSphere(at=4), params=_params())
    _, batch = _candidates(cfg, np.stack([_params(s).to_vector()
                                          for s in (40, 41)]))
    trajectory = engine.run(config, _PoisonedSphere(at=4), params=batch)
    assert np.isnan(trajectory.fitness[:, 3, 1]).all()


def test_a_batch_is_runs_or_candidates_not_both():
    _, batch = _candidates(FeatureConfig(),
                           np.zeros((2, LgaParams.zeros().n_params)))
    config = engine.GaConfig(n_pop=4, selection="learned", mra="learned",
                             generations=2)
    with pytest.raises(ValueError, match="not both"):
        engine.run(config, _sphere_task(), params=batch, seeds=[1, 2])
