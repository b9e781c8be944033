"""Check that two checkouts of attnga produce byte-identical outputs.

    python tools/ab_identity.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout is a directory holding ``src/attnga`` and ``bench/`` (a
``git archive`` of a commit will do). The script runs itself once per
checkout in a fresh interpreter with that checkout's ``src`` on
``PYTHONPATH`` and single-threaded BLAS, records the outputs below, and
reports every one that differs. It exits non-zero if any does.

Each output is labelled "sampling+cross-over" if it runs learned sampling
and cross-over, "learned" if it runs a learned selection or MRA step, and
"baseline" otherwise, and the report counts the differing outputs per
label: a change to one learned step alone must leave every output of the
other labels byte-identical. A second label, "mlp-sine", marks the outputs
whose values pass through ``MlpTask.core_values``: the mlp-sine sweeps,
CSV rows and trajectories, the kernel's own bytes and every
``meta_log.csv`` (its ``eval_mlp`` column). The report counts the
differing outputs outside that label on their own and lists each one
inside it, so a change to the MLP fitness's rounding alone must leave
every other output byte-identical. An output that only one checkout
records (a checkout that cannot run it) counts as differing. The CSVs of
``evaluate``, ``sweep`` and ``transfer`` are split into one output per
task and algorithm (or slot pair), so their baseline rows, and the rows
of their tasks other than mlp-sine, are compared on their own.

- Sweep scores (``metabbo.evaluate_candidates_on_task``) of the first 64,
  3 and 1 candidates on the 32 desk tasks of meta-generations 0 and 1
  (config seed 0; weights drawn with seed 1 from N(0, 0.5^2)), plus a noisy
  rastrigin-3D and a diverging rosenbrock-5D sweep at N in {16, 5, 1},
  and the first 64, 3 and 1 candidates on mlp-sine and, with random
  2-head weights, on the noisy rastrigin-3D.
- The CSV bytes of ``attnga evaluate`` at the ``evaluate-mlp`` benchmark
  settings, on ``sphere:10,rastrigin:10``, and at N=48 with 3 repetitions
  on ``sphere:10,mlp-sine`` (the batched runs' 64-row MLP blocks straddle
  runs); of small ``attnga analyze`` (debug records; its stdout, the
  printed folded selection and MRA matrices, too), ``transfer`` and
  ``sweep`` (rho x sigma0 grid) runs; of a ``transfer`` run with 2
  repetitions at N=48; of an ``evaluate`` of ``lga,samr`` on
  ``sphere:4,mlp-sine``, whose Gaussian runs only as the hidden
  normalization denominator; and of a two-task ``sweep`` on
  ``sphere:3,mlp-sine`` with two workers, all with the desk checkpoint.
- The bytes ``LgaParams.save`` writes for the loaded desk checkpoint and
  for a random 2-head checkpoint that carries sampling and cross-over
  weights.
- The CSV bytes of an ``attnga evaluate`` run with that 2-head
  checkpoint, and the trajectories of an ``engine.run`` that uses those
  weights (learned sampling and cross-over), alone and as a batch of
  three runs; and of one ``engine.run`` of a batch of 8 random 2-head
  candidates with all four learned slots on the noisy rastrigin-3D.
- The trajectories (fitness, best-so-far and mean-sigma bytes) of
  ``engine.run`` for the five ``evaluate`` algorithms at the
  ``evaluate-mlp`` settings, for the four ``transfer`` slot compositions
  on sphere-10, for every (selection, MRA) slot pair on a noisy
  rastrigin-6, alone and as a batch of three runs, and of one
  ``debug=True`` run, whose debug arrays are recorded too (the evaluate
  CSV keeps only the final best).
- The ``meta_log.csv`` and final checkpoint bytes of a 3-meta-generation
  desk ``meta_train``, and the ``meta_log.csv`` and checkpoint bytes of a
  2-meta-generation ``meta_train`` whose candidates diverge (64 of them,
  meta sigma 2.0, on 8 rosenbrock and rastrigin tasks of dimension 2-5),
  so it patches and winsorizes non-finite sweep scores; that run is
  recorded with 1 and with 2 workers.
- The bytes of ``MlpTask.core_values`` itself (the 2-8-1 network), on
  1, 7, 64, 65 and 320 rows drawn from N(0, s^2) with s in {0.1, 1, 100}:
  a change to the fitness kernel can hide in the GA trajectories above,
  which see its values only through ranks.
"""

import contextlib
import io
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import replace

M_VALUES = (64, 3, 1)


def record(checkout, tmp):
    """All outputs of the checkout that this process imported."""
    import numpy as np

    sys.path.insert(0, os.path.join(checkout, "bench"))
    from workload import (ALGORITHMS, GENERATIONS, N_POP, RHO, SIGMA0,
                          desk_meta_config, evaluate_argv)

    from attnga import cli, engine, metabbo
    from attnga.bbob import TaskFamily, TaskSpec, sample_task
    from attnga.params import FeatureConfig, LgaParams
    from attnga.tasks import MlpTask, make_task

    out = {}
    cfg = desk_meta_config(0, 3, eval_every=1, workers=1)
    n_params = LgaParams.zeros(cfg.feature_cfg).n_params
    theta = np.random.default_rng(1).normal(
        0.0, 0.5, (64, n_params)).astype(np.float32)
    for gen in (0, 1):
        task_rng = np.random.default_rng([cfg.seed, gen, 0x7A5])
        tasks = [sample_task(cfg.family, task_rng)
                 for _ in range(cfg.n_tasks)]
        for l, task in enumerate(tasks):
            for m in M_VALUES:
                scores = metabbo.evaluate_candidates_on_task(
                    theta[:m], cfg.feature_cfg, task,
                    [cfg.seed, gen, 0x1AEA, l], cfg.inner_popsize,
                    cfg.inner_generations, cfg.objective)
                out[f"sweep gen={gen} task={l} M={m}"] = scores.tobytes()
    extra = (TaskSpec(function="rastrigin", dim=3,
                      offset=np.array([1.0, -2.0, 0.5]), sigma0=0.2,
                      noise=True),
             replace(make_task("rosenbrock", dim=5, seed=2), sigma0=2.0))
    for j, task in enumerate(extra):
        for m in M_VALUES:
            for n_pop in (16, 5, 1):
                scores = metabbo.evaluate_candidates_on_task(
                    4.0 * theta[:m], cfg.feature_cfg, task, [7, j], n_pop,
                    20, "minN-finalT")
                out[f"sweep {task.function} M={m} N={n_pop}"] = \
                    scores.tobytes()
    two_head = FeatureConfig(heads=2)
    theta_2h = np.random.default_rng(2).normal(
        0.0, 0.5, (64, LgaParams.zeros(two_head).n_params)).astype(np.float32)
    for key, rows, feature_cfg, task in (
            ("mlp-sine", theta, cfg.feature_cfg, make_task("mlp-sine")),
            ("2-head rastrigin", theta_2h, two_head, extra[0])):
        for m in M_VALUES:
            scores = metabbo.evaluate_candidates_on_task(
                rows[:m], feature_cfg, task, [8, 1], 16, 20, "minN-minT")
            out[f"sweep {key} M={m}"] = scores.tobytes()

    def cli_csv(key, argv, by=()):
        """The CSV's bytes, one output per value of the ``by`` columns
        (named after a colon: see :func:`evaluates_mlp`).

        What the run prints to stdout, if anything, is one output more.
        """
        path = os.path.join(tmp, "out.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv + ["--out", path])
        if rc != 0:
            raise SystemExit(f"attnga {' '.join(argv)} failed")
        if stdout.getvalue():
            out[f"attnga {key} stdout"] = stdout.getvalue().encode()
        with open(path, "rb") as fh:
            header, *rows = fh.read().splitlines(keepends=True)
        parts = {}
        for row in rows:
            fields = row.split(b",")
            name = "/".join(fields[i].decode() for i in by)
            parts[name] = parts.get(name, header) + row
        for name, data in parts.items():
            out[f"attnga {key}: {name}" if name else f"attnga {key}"] = data

    checkpoint = os.path.join(checkout, "bench", "lga_desk.txt")
    for tasks in ("mlp-sine", "sphere:10,rastrigin:10"):
        argv = evaluate_argv(0, 2, "unused")[:-2]     # drop its --out
        argv[argv.index("--tasks") + 1] = tasks
        argv[argv.index("--checkpoint") + 1] = checkpoint
        cli_csv(f"evaluate {tasks}", argv, by=(0, 1))
    argv[argv.index("--tasks") + 1] = "sphere:10,mlp-sine"
    argv[argv.index("--n-pop") + 1] = "48"
    argv[argv.index("--repetitions") + 1] = "3"
    cli_csv("evaluate N=48 sphere:10,mlp-sine", argv, by=(0, 1))
    small = ["--n-pop", "12", "--generations", "20", "--seed", "3",
             "--checkpoint", checkpoint]
    rates = ["--rho", "0.5", "--sigma0", "0.25"]
    reps = ["--repetitions", "2"]
    cli_csv("analyze", ["analyze", "--tasks", "rastrigin:5"] + small + rates)
    cli_csv("transfer", ["transfer", "--tasks", "sphere:5,mlp-sine"] + small
            + rates + reps, by=(0, 1, 2))
    cli_csv("transfer N=48", ["transfer", "--tasks", "sphere:10,mlp-sine",
                              "--n-pop", "48", "--generations", "40",
                              "--repetitions", "2", "--seed", "9",
                              "--checkpoint", checkpoint], by=(0, 1, 2))
    cli_csv("sweep", ["sweep", "--tasks", "rosenbrock:4",
                      "--algorithms", "lga,gaussian",
                      "--rho-grid", "0.25,1.0", "--sigma0-grid", "0.1,0.5"]
            + small + reps, by=(0, 1))
    cli_csv("evaluate hidden gaussian", [
        "evaluate", "--tasks", "sphere:4,mlp-sine", "--algorithms",
        "lga,samr"] + small + rates + reps, by=(0, 1))
    cli_csv("sweep sphere:3,mlp-sine", [
        "sweep", "--tasks", "sphere:3,mlp-sine", "--algorithms",
        "gaussian,lga", "--rho-grid", "0.5,0.25", "--sigma0-grid",
        "0.25,0.1", "--workers", "2"] + small + reps, by=(0, 1))

    wide = LgaParams.random(
        FeatureConfig(heads=2, with_sampling=True, with_crossover=True),
        np.random.default_rng(8), scale=0.5)
    wide_path = os.path.join(tmp, "wide.txt")
    wide.save(wide_path)
    desk_path = os.path.join(tmp, "desk.txt")
    LgaParams.load(checkpoint).save(desk_path)
    for key, path in (("desk", desk_path),
                      ("2-head sampling+cross-over", wide_path)):
        with open(path, "rb") as fh:
            out[f"checkpoint save {key}"] = fh.read()
    cli_csv("evaluate 2-head", ["evaluate", "--tasks", "sphere:6,mlp-sine",
                                "--algorithms", "lga,gaussian"]
            + small[:-1] + [wide_path] + rates + reps, by=(0, 1))
    config = engine.GaConfig(
        n_pop=16, elite_ratio=0.5, sigma0=0.2, selection="learned",
        mra="learned", sampling="learned", crossover="learned",
        generations=30, seed=[7])
    trajectory = engine.run(config, make_task("rastrigin", dim=5, seed=7),
                            params=wide)
    out["engine.run learned sampling+cross-over"] = trajectory_bytes(
        trajectory)
    try:
        trajectory = engine.run(config, make_task("rastrigin", dim=5, seed=7),
                                params=wide, seeds=[[7], [8], [9]])
        out["engine.run learned sampling+cross-over seeds=[7],[8],[9]"] = \
            trajectory_bytes(trajectory)
    except ValueError:      # a checkout that runs these slots unbatched
        pass
    batch = LgaParams.from_vector(wide.cfg, np.random.default_rng(11).normal(
        0.0, 0.5, (8, wide.n_params)))
    trajectory = engine.run(config, extra[0], params=batch)
    out["engine.run learned sampling+cross-over M=8 rastrigin-3"] = \
        trajectory_bytes(trajectory)

    desk = LgaParams.load(checkpoint)
    mlp = make_task("mlp-sine")
    for algo in ALGORITHMS:
        slots = cli.ALGORITHMS[algo]
        config = engine.GaConfig(n_pop=N_POP, elite_ratio=RHO, sigma0=SIGMA0,
                                 generations=GENERATIONS, seed=[0, 0, 0],
                                 **slots)
        trajectory = engine.run(config, mlp, params=desk)
        out[f"engine.run {algo} mlp-sine"] = trajectory_bytes(trajectory)
    sphere = make_task("sphere", dim=10, seed=5)
    for selection, mra in cli.TRANSFER_COMPOSITIONS:
        config = engine.GaConfig(n_pop=16, elite_ratio=0.5, sigma0=0.25,
                                 selection=selection, mra=mra,
                                 generations=50, seed=[5, 0, 0])
        trajectory = engine.run(config, sphere, params=desk)
        out[f"engine.run {selection}/{mra} sphere-10"] = trajectory_bytes(
            trajectory)
    rastrigin = replace(make_task("rastrigin", dim=6, seed=4), noise=True)
    for selection in engine.SELECTION_SLOTS:
        for mra in engine.MRA_SLOTS:
            config = engine.GaConfig(n_pop=16, elite_ratio=0.5, sigma0=0.25,
                                     selection=selection, mra=mra,
                                     generations=40, seed=[4])
            key = f"engine.run {selection}/{mra} rastrigin-6"
            out[key] = trajectory_bytes(engine.run(config, rastrigin,
                                                   params=desk))
            out[f"{key} seeds=[4],[5],[6]"] = trajectory_bytes(engine.run(
                config, rastrigin, params=desk, seeds=[[4], [5], [6]]))
    config = engine.GaConfig(n_pop=12, elite_ratio=0.25, sigma0=0.25,
                             selection="learned", mra="learned",
                             generations=20, seed=[6])
    trajectory = engine.run(config, make_task("rastrigin", dim=5, seed=6),
                            params=desk, debug=True)
    out["engine.run debug"] = trajectory_bytes(trajectory)
    for name in ("child_features", "parent_features", "logits", "probs",
                 "delta_sigma", "sigma_child"):
        out[f"engine.run debug {name}"] = b"".join(
            record[name].tobytes() for record in trajectory.debug)

    kernel_rng = np.random.default_rng(10)
    task = MlpTask()
    for rows in (1, 7, 64, 65, 320):
        for scale in (0.1, 1.0, 100.0):
            x = scale * kernel_rng.standard_normal((rows, task.dim))
            out[f"MlpTask(2, 8, 1).core_values rows={rows} "
                f"scale={scale}"] = task.core_values(x).tobytes()

    run_dir = os.path.join(tmp, "meta")
    metabbo.meta_train(cfg, out_dir=run_dir)
    for name in ("meta_log.csv", "checkpoint_final.txt"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            out[f"meta_train {name}"] = fh.read()
    for workers in (1, 2):
        run_dir = os.path.join(tmp, f"diverging-{workers}")
        metabbo.meta_train(metabbo.MetaConfig(
            meta_popsize=64, n_tasks=8, inner_popsize=16,
            inner_generations=30, meta_generations=2, seed=3,
            family=TaskFamily(functions=("rosenbrock", "rastrigin"),
                              dim_range=(2, 5)),
            sigma_meta=2.0, eval_every=1, checkpoint_every=1,
            workers=workers), out_dir=run_dir)
        for name in ("meta_log.csv", "checkpoint_gen00001.txt",
                     "checkpoint_final.txt"):
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[f"meta_train diverging workers={workers} {name}"] = \
                    fh.read()
    return out


LABELS = ("baseline", "learned", "sampling+cross-over")


def label(key):
    """Which of ``LABELS`` the output's steps fall under."""
    if "sampling+cross-over" in key:
        return "sampling+cross-over"
    learned = (key.startswith(("sweep ", "meta_train ", "attnga analyze"))
               or any(word in key for word in ("lga", "learned", "debug")))
    return "learned" if learned else "baseline"


def evaluates_mlp(key):
    """Whether the output's values pass through ``MlpTask.core_values``.

    A CSV part is judged by its own task column, after the colon, not by
    the tasks its command ran.
    """
    if key.startswith("attnga ") and ": " in key:
        key = key.rpartition(": ")[2]
    return any(word in key for word in ("mlp-sine", "MlpTask", "meta_log"))


def trajectory_bytes(trajectory):
    return b"".join(a.tobytes() for a in (trajectory.fitness,
                                          trajectory.best_so_far,
                                          trajectory.mean_sigma))


def run_checkout(checkout, tmp):
    dump = os.path.join(tmp, "outputs.pkl")
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--record",
                    checkout, tmp], env=env, check=True)
    with open(dump, "rb") as fh:
        return pickle.load(fh)


def main(argv):
    if argv[:1] == ["--record"]:
        checkout, tmp = argv[1:]
        import attnga
        if not os.path.abspath(attnga.__file__).startswith(
                os.path.abspath(checkout)):
            raise SystemExit(f"imported {attnga.__file__}, not {checkout}")
        with open(os.path.join(tmp, "outputs.pkl"), "wb") as fh:
            pickle.dump(record(checkout, tmp), fh)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (os.path.abspath(a) for a in argv)
    with tempfile.TemporaryDirectory() as tmp_old, \
            tempfile.TemporaryDirectory() as tmp_new:
        a, b = run_checkout(old, tmp_old), run_checkout(new, tmp_new)
    keys = list(a) + [key for key in b if key not in a]
    differ = [key for key in keys if a.get(key) != b.get(key)]
    sweeps = sum(len(v) // 8 for k, v in a.items() if k.startswith("sweep"))
    print(f"{len(keys)} outputs ({sweeps} sweep scores); "
          f"{len(differ)} differ")
    for group in LABELS:
        in_group = [key for key in keys if label(key) == group]
        changed = [key for key in differ if label(key) == group]
        print(f"{group}: {len(changed)} of {len(in_group)} differ")
    mlp = [key for key in keys if evaluates_mlp(key)]
    mlp_changed = [key for key in differ if evaluates_mlp(key)]
    print(f"outside mlp-sine: {len(differ) - len(mlp_changed)} of "
          f"{len(keys) - len(mlp)} differ; mlp-sine: {len(mlp_changed)} "
          f"of {len(mlp)} differ")
    for key in differ:
        mlp_label = ", mlp-sine" if evaluates_mlp(key) else ""
        print(f"DIFFERS ({label(key)}{mlp_label}): {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
