"""Correctness checks the benchmark runs after each workload's timed part.

Each check returns a list of failure messages; an empty list means it
passed. The evaluate checks parse the CSV that ``attnga evaluate`` wrote and
recompute the Gaussian-GA rows with a reference GA written here from the
random-draw order documented in ``attnga/engine.py``, with its own sphere,
rastrigin and MLP formulas. The meta-train checks re-score sampled
candidates of the sweeps captured during the timed part.
"""

import csv
import io
import math

import numpy as np

from attnga import engine, metabbo
from attnga.params import LgaParams

HEADER = ["task", "algo", "seed", "best_final", "normalized"]
NORM_FLOOR = 1e-12        # the CLI's guard for a zero Gaussian mean
REL_TOL = 1e-9            # "within rounding" for the reference GA
SAMPLES = 3               # sampled candidates checked against engine.run


# -- reference truncation + fixed-sigma GA -----------------------------------

def _offset_seed(master, task_idx, rep):
    return int((master * 1000003 + task_idx * 8191 + rep) % (2 ** 31))


def _mlp_data(seed=0, n_points=64):
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-1.0, 1.0, size=(n_points, 2))
    return inputs, np.sin(np.pi * inputs[:, 0]) + inputs[:, 1] ** 2


def reference_fitness(name, dim, offset_seed):
    """(fitness function of an (n, D) batch, D) for one evaluate task."""
    if name == "mlp-sine":
        inputs, targets = _mlp_data()

        def mlp(x):   # layers 2-8-1: w1 (2x8), b1 (8), w2 (8), b2 (1)
            w1 = x[:, :16].reshape(-1, 2, 8)
            hidden = np.tanh(inputs @ w1 + x[:, None, 16:24])
            pred = (hidden @ x[:, 24:32, None])[:, :, 0] + x[:, 32:33]
            return ((pred - targets) ** 2).mean(axis=1)
        return mlp, 33
    offset = np.random.default_rng([offset_seed, 0xB0B]).uniform(-5.0, 5.0,
                                                                  dim)
    if name == "sphere":
        return (lambda x: ((x - offset) ** 2).sum(axis=1)), dim
    if name == "rastrigin":
        def rastrigin(x):
            z = x - offset
            return (10.0 * (dim - np.cos(2.0 * np.pi * z).sum(axis=1))
                    + (z ** 2).sum(axis=1))
        return rastrigin, dim
    raise ValueError(f"no reference formula for {name!r}")


def reference_gaussian_best(fitness, dim, n_pop, generations, rho, sigma0,
                            run_seed):
    """Best fitness of a truncation + fixed-sigma GA, engine draw order."""
    rng = np.random.default_rng(run_seed)
    n_elite = max(1, math.ceil(rho * n_pop))
    x = rng.uniform(-5.0, 5.0, size=(n_elite, dim))
    f = np.full(n_elite, np.inf)
    best = np.inf
    for _ in range(generations):
        parents = rng.integers(0, n_elite, size=n_pop)
        children = x[parents] + sigma0 * rng.standard_normal((n_pop, dim))
        f_c = fitness(children)
        best = min(best, float(f_c.min()))
        # Keep the best E of children + parents; ties favour children,
        # then the lower index.
        pool = sorted(range(n_pop + n_elite),
                      key=lambda i: (f_c[i], 0, i) if i < n_pop
                      else (f[i - n_pop], 1, i - n_pop))[:n_elite]
        x = np.array([children[i] if i < n_pop else x[i - n_pop]
                      for i in pool])
        f = np.array([f_c[i] if i < n_pop else f[i - n_pop] for i in pool])
    return best


# -- evaluate ----------------------------------------------------------------

def check_evaluate_csv(text, tasks, algos, reps, n_pop, generations, rho,
                       sigma0, seed):
    """Check one ``attnga evaluate`` CSV against its inputs.

    ``tasks`` is a list of (name, dim-or-None); rows must come in
    task-major, then algorithm, then repetition order.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != HEADER:
        return [f"bad header {rows[:1]}"]
    rows = rows[1:]
    expected = len(tasks) * len(algos) * reps
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    failures, best = [], {}
    keys = [(t, a, r) for t in range(len(tasks)) for a in algos
            for r in range(reps)]
    for (task_idx, algo, rep), row in zip(keys, rows):
        name, dim = tasks[task_idx]
        label = name if dim is None else f"{name}:{dim}"
        if len(row) != 5 or row[:3] != [label, algo, str(rep)]:
            failures.append(f"row {row} is not ({label}, {algo}, {rep})")
            continue
        try:
            value, normalized = float(row[3]), float(row[4])
        except ValueError:
            failures.append(f"row {row}: unparsable number")
            continue
        if not (math.isfinite(value) and value >= 0.0):
            failures.append(f"row {row}: best_final not finite and >= 0")
        best[(task_idx, algo, rep)] = (value, normalized)
    if failures:
        return failures

    for task_idx, (name, dim) in enumerate(tasks):
        denom = max(float(np.mean([best[(task_idx, "gaussian", r)][0]
                                   for r in range(reps)])), NORM_FLOOR)
        for algo in algos:
            for rep in range(reps):
                value, normalized = best[(task_idx, algo, rep)]
                if not math.isclose(normalized, value / denom,
                                    rel_tol=1e-12):
                    failures.append(f"{name} {algo} {rep}: normalized "
                                    f"{normalized!r} != {value / denom!r}")
        for rep in range(reps):
            fitness, d = reference_fitness(name, dim,
                                           _offset_seed(seed, task_idx, rep))
            ref = reference_gaussian_best(fitness, d, n_pop, generations,
                                          rho, sigma0, [seed, task_idx, rep])
            value = best[(task_idx, "gaussian", rep)][0]
            if not math.isclose(value, ref, rel_tol=REL_TOL):
                failures.append(f"{name} gaussian {rep}: {value!r} != "
                                f"reference {ref!r}")
    return failures


# -- meta-train --------------------------------------------------------------

def check_sweeps(sweeps, feature_cfg, inner_popsize, inner_generations,
                 objective, rng):
    """Check captured ``evaluate_candidates_on_task`` calls.

    ``sweeps`` holds (theta, task, seed, scores) per call. Every score must
    be finite and >= 0 (the cores are non-negative and noiseless); for
    ``SAMPLES`` sampled (sweep, candidate) pairs the one-candidate sweep
    must equal ``engine.run`` bit for bit; duplicated candidate rows must
    score identically; and re-running one captured sweep with its
    candidate rows permuted must give the captured scores, permuted, bit
    for bit.
    """
    def sweep(theta, task, seed):
        return metabbo.evaluate_candidates_on_task(
            theta, feature_cfg, task, seed, inner_popsize, inner_generations,
            objective)

    failures = []
    for theta, task, seed, scores in sweeps:
        scores = np.asarray(scores)
        if scores.shape != (theta.shape[0],) \
                or not np.all(np.isfinite(scores)) or np.any(scores < 0):
            failures.append(f"task {task.function}-{task.dim}D seed {seed}: "
                            "scores not finite and >= 0")

    for k in rng.choice(len(sweeps), size=min(SAMPLES, len(sweeps)),
                        replace=False):
        theta, task, seed, _ = sweeps[k]
        m = int(rng.integers(theta.shape[0]))
        single = sweep(theta[m:m + 1], task, seed)[0]
        config = engine.GaConfig(
            n_pop=inner_popsize, elite_ratio=1.0, sigma0=task.sigma0,
            selection="learned", mra="learned",
            generations=inner_generations, seed=seed)
        params = LgaParams.from_vector(feature_cfg, theta[m])
        ref = metabbo.reduce_scores(
            engine.run(config, task, params=params).fitness, objective)
        if single != ref:
            failures.append(f"candidate {m} on {task.function}-{task.dim}D: "
                            f"one-candidate sweep {single!r} != engine.run "
                            f"{ref!r}")

    theta, task, seed, _ = sweeps[int(rng.integers(len(sweeps)))]
    picks = rng.choice(theta.shape[0], size=min(4, theta.shape[0]),
                       replace=False)
    doubled = sweep(theta[np.concatenate([picks, picks])], task, seed)
    half = picks.size
    if not np.array_equal(doubled[:half], doubled[half:]):
        failures.append(f"duplicated candidates {picks.tolist()} score "
                        f"differently: {doubled.tolist()}")

    theta, task, seed, scores = sweeps[int(rng.integers(len(sweeps)))]
    perm = rng.permutation(theta.shape[0])
    permuted = sweep(theta[perm], task, seed)
    if not np.array_equal(permuted, np.asarray(scores)[perm]):
        failures.append(f"task {task.function}-{task.dim}D seed {seed}: "
                        "permuted sweep does not give the captured scores, "
                        "permuted")
    return failures
