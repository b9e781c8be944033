"""One benchmark workload in a fresh process: set-up, timed part, checks.

``run.py`` starts this file with the thread settings and ``PYTHONPATH``
already in the environment. With ``--setup-only`` it prints ``ready`` once
it could start the first timed unit and exits. Otherwise it repeats whole
timed units until ``--seconds`` have passed, then checks the outputs and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
workload's end-to-end metrics, or with ``--trace 1`` its per-layer metrics.

A unit is one meta-generation of ``meta_train`` for ``meta-train`` and one
in-process ``attnga evaluate`` invocation for ``evaluate-mlp``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "lga_desk.txt")
RUNS = os.path.join(os.path.dirname(HERE), ".bench_out")
WORKLOADS = ("meta-train", "evaluate-mlp")

# The evaluate-mlp invocation; the checks re-run it with OTHER_WORKERS.
TASKS, N_POP, GENERATIONS, WORKERS, OTHER_WORKERS = "mlp-sine", 64, 200, 2, 1
ALGORITHMS = ("lga", "gaussian", "mr15", "samr", "gesmr")
REPETITIONS, RHO, SIGMA0 = 5, 0.5, 0.25
# meta_train runs until the time is up; this only bounds its history array.
META_GENERATIONS = 750
HELD_OUT_RUNS = 3
# Median calibration time on the reference machine (see calibrate).
CALIBRATION_REF_S = 0.60


def desk_meta_config(seed, meta_generations, eval_every, workers):
    """The desk meta-training setting of acceptance criterion 05."""
    from attnga.bbob import TaskFamily
    from attnga.metabbo import MetaConfig
    return MetaConfig(
        meta_popsize=64, n_tasks=32, inner_popsize=16, inner_generations=50,
        meta_generations=meta_generations, objective="minN-finalT",
        mean_decay=0.005, seed=seed,
        family=TaskFamily(functions=("sphere", "rosenbrock", "rastrigin"),
                          dim_range=(2, 4)),
        lr=0.1, lr_decay=0.999, lr_final=0.01,
        sigma_meta=0.5, sigma_decay=0.999, sigma_final=0.05,
        eval_every=eval_every, checkpoint_every=0, workers=workers)


def setup(workload, seed):
    """Imports, checkpoint load and task construction."""
    if workload == "meta-train":
        return desk_meta_config(seed, META_GENERATIONS, eval_every=1,
                                workers=1)
    from attnga import cli
    from attnga.params import FeatureConfig, LgaParams
    params = LgaParams.load(CHECKPOINT)
    if params.cfg != FeatureConfig() or params.n_params != 704:
        raise SystemExit(f"{CHECKPOINT}: not the default 704-parameter "
                         f"layout ({params.cfg}, {params.n_params})")
    tasks = cli.parse_task_list(TASKS)
    for task_idx, (name, dim) in enumerate(tasks):
        cli.build_task(name, dim, task_idx)
    return tasks


def evaluate_argv(seed, workers, out):
    return ["evaluate", "--tasks", TASKS,
            "--algorithms", ",".join(ALGORITHMS),
            "--n-pop", str(N_POP), "--generations", str(GENERATIONS),
            "--rho", repr(RHO), "--sigma0", repr(SIGMA0),
            "--repetitions", str(REPETITIONS), "--workers", str(workers),
            "--seed", str(seed), "--checkpoint", CHECKPOINT, "--out", out]


def calibrate():
    """Seconds for a fixed piece of numpy work, timed after every unit.

    The work mixes what the sweep and the engine spend their time on:
    small batched matmuls, softmax, sorts and cumulative sums. The speed of
    the reference VM drifts by up to 40% over minutes, and this work slows
    down with it, so throughput is reported scaled to ``CALIBRATION_REF_S``.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 32, 5))
    w = rng.standard_normal((64, 5, 16))
    start = time.perf_counter()
    for _ in range(300):
        q = a @ w
        s = q @ np.swapaxes(q, 1, 2)
        e = np.exp(s - s.max(axis=2, keepdims=True))
        p = e / e.sum(axis=2, keepdims=True)
        np.argsort(p, axis=2)
        np.cumsum(p, axis=2)
    return time.perf_counter() - start


def time_meta_train(cfg, seconds, after_unit, sweeps):
    """Run meta-generations until ``seconds`` pass; capture every sweep."""
    from attnga import metabbo

    original = metabbo.evaluate_candidates_on_task

    def capture(theta, feature_cfg, task, seed, *args):
        scores = original(theta, feature_cfg, task, seed, *args)
        sweeps.append((theta, task, seed, scores))
        return scores

    class TimeUp(Exception):
        pass

    durations = []
    start = last = time.perf_counter()

    def progress(_row):
        nonlocal last
        durations.append(time.perf_counter() - last)
        after_unit()
        if time.perf_counter() - start >= seconds:
            raise TimeUp
        last = time.perf_counter()

    metabbo.evaluate_candidates_on_task = capture
    failed = 0
    try:
        metabbo.meta_train(cfg, progress=progress)
    except TimeUp:
        pass
    except Exception:  # a failed unit is reported, not fatal to the run
        traceback.print_exc()
        failed = 1
    finally:
        metabbo.evaluate_candidates_on_task = original
    work = cfg.meta_popsize * cfg.n_tasks * cfg.inner_generations \
        + HELD_OUT_RUNS * cfg.inner_generations
    return durations, failed, work


def time_evaluate(seed, seconds, after_unit, out, digests):
    from attnga import cli

    argv = evaluate_argv(seed, WORKERS, out)
    durations, failed = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
        if rc == 0:
            durations.append(elapsed)
            with open(out, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        else:
            failed += 1
        after_unit()
        if time.perf_counter() - start >= seconds:
            break
    jobs = len(cli.parse_task_list(TASKS)) * len(ALGORITHMS) * REPETITIONS
    return durations, failed, jobs * GENERATIONS


def peak_rss_mb(workers):
    """Own peak RSS plus ``workers`` times the largest worker's peak."""
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def check_meta_train(cfg, seed, units, sweeps):
    import numpy as np

    import checks

    failures = [] if len(sweeps) == units * cfg.n_tasks else [
        f"{len(sweeps)} sweeps in {units} meta-generations"]
    return failures + checks.check_sweeps(
        sweeps, cfg.feature_cfg, cfg.inner_popsize, cfg.inner_generations,
        cfg.objective, np.random.default_rng([seed, 0xC4EC]))


def check_evaluate(seed, tasks, run_dir, digests):
    from attnga import cli

    import checks

    failures = []
    if len(set(digests)) != 1:
        failures.append(f"repeated invocations wrote {len(set(digests))} "
                        "different CSVs")
    other = os.path.join(run_dir, "other-workers.csv")
    if cli.main(evaluate_argv(seed, OTHER_WORKERS, other)) != 0:
        return failures + [f"--workers {OTHER_WORKERS} invocation failed"]
    with open(os.path.join(run_dir, "eval.csv"), "rb") as fh:
        data = fh.read()
    with open(other, "rb") as fh:
        if fh.read() != data:
            failures.append(f"--workers {WORKERS} and {OTHER_WORKERS} "
                            "CSVs differ")
    return failures + checks.check_evaluate_csv(
        data.decode("ascii"), tasks, list(ALGORITHMS), REPETITIONS, N_POP,
        GENERATIONS, RHO, SIGMA0, seed)


def measure(args, state, run_dir):
    """Timed part, then checks; returns the result object to print."""
    import spans

    tracer = units = None
    if args.trace:
        tracer, units = spans.Tracer(run_dir), []
        tracer.install()

    calibrations = []

    def after_unit():
        if tracer is not None:
            units.append(tracer.collect())
        calibrations.append(calibrate())

    digests, sweeps = [], []
    if args.workload == "meta-train":
        durations, failed, work = time_meta_train(
            state, args.seconds, after_unit, sweeps)
        workers = 0
    else:
        durations, failed, work = time_evaluate(
            args.seed, args.seconds, after_unit,
            os.path.join(run_dir, "eval.csv"), digests)
        workers = WORKERS
    rss = peak_rss_mb(workers)
    if tracer is not None:
        tracer.uninstall()

    if not durations:
        failures = ["no unit completed"]
    elif args.workload == "meta-train":
        failures = check_meta_train(state, args.seed, len(durations), sweeps)
    else:
        failures = check_evaluate(args.seed, state, run_dir, digests)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)

    print("unit seconds " + " ".join(f"{d:.3f}" for d in durations),
          file=sys.stderr)
    raw = statistics.median(work / d for d in durations) \
        if durations else 0.0
    calibration = statistics.median(calibrations) if calibrations else 0.0
    rate = raw * calibration / CALIBRATION_REF_S
    print(f"raw pop_gens_per_s {raw!r} calibration_s {calibration!r}",
          file=sys.stderr)
    if args.trace:
        metrics = spans.per_layer(units)
        print(f"traced pop_gens_per_s {rate!r}", file=sys.stderr)
    else:
        metrics = {"pop_gens_per_s": {"value": rate, "unit": "pop-gens/s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"correct": not failures, "attempted": len(durations) + failed,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    state = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return

    run_dir = os.path.join(RUNS, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result = measure(args, state, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
