"""In-process A/B timing of the meta-training sweep of two checkouts.

    python tools/sweep_ab.py OLD_CHECKOUT NEW_CHECKOUT [--pairs 12]

Each checkout is a directory holding ``src/attnga``. The script imports
both packages into one interpreter, as ``attnga_old`` and ``attnga_new``,
and times ``metabbo.evaluate_candidates_on_task`` on the 32 desk tasks of
meta-generation 0 (64 candidates drawn with seed 1 from N(0, 0.5^2),
N=16, T=50, the ``meta-train`` benchmark's setting). One pair runs every
task once on each side, the side that goes first alternating from task to
task, so both sides see the same machine state; the pair's speedup is the
old side's total time over the new side's. It checks that both sides
return the same score bytes on every task, then prints the median speedup,
its quartiles, how many pairs each side won, and the Python-level calls
per inner generation that cProfile counts over the 32 sweeps.

A run of ``bench/run.py`` spreads 4-12% (IQR) on ``meta-train``; this
harness times the sweep alone, back to back, and resolves a ~2% change.
Run it with single-threaded BLAS (``OPENBLAS_NUM_THREADS=1``) on an
otherwise idle machine.
"""

import argparse
import cProfile
import importlib.util
import os
import pstats
import statistics
import sys
import time

import numpy as np

N_TASKS, N_CANDIDATES, INNER_POP, INNER_GENERATIONS = 32, 64, 16, 50


def load(checkout, name):
    """Import ``checkout``/src/attnga as the package ``name``."""
    root = os.path.join(os.path.abspath(checkout), "src", "attnga")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("bbob", "metabbo", "params"):
        importlib.import_module(f"{name}.{sub}")
    return package


class Side:
    """One checkout's desk sweep: its own tasks, configs and weights."""

    def __init__(self, package):
        self.metabbo = package.metabbo
        family = package.bbob.TaskFamily(
            functions=("sphere", "rosenbrock", "rastrigin"), dim_range=(2, 4))
        task_rng = np.random.default_rng([0, 0, 0x7A5])
        self.tasks = [package.bbob.sample_task(family, task_rng)
                      for _ in range(N_TASKS)]
        self.feature_cfg = package.params.FeatureConfig()
        n_params = package.params.LgaParams.zeros(self.feature_cfg).n_params
        self.theta = np.random.default_rng(1).normal(
            0.0, 0.5, (N_CANDIDATES, n_params)).astype(np.float32)

    def sweep(self, l):
        return self.metabbo.evaluate_candidates_on_task(
            self.theta, self.feature_cfg, self.tasks[l], [0, 0, 0x1AEA, l],
            INNER_POP, INNER_GENERATIONS, "minN-finalT")

    def calls_per_generation(self):
        profile = cProfile.Profile()
        profile.enable()
        for l in range(N_TASKS):
            self.sweep(l)
        profile.disable()
        calls = pstats.Stats(profile).total_calls
        return calls / (N_TASKS * INNER_GENERATIONS)


def timed(side, l):
    start = time.perf_counter()
    scores = side.sweep(l)
    return time.perf_counter() - start, scores.tobytes()


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args(argv)
    old = Side(load(args.old, "attnga_old"))
    new = Side(load(args.new, "attnga_new"))
    for l in range(N_TASKS):       # warm-up, and the byte check
        if old.sweep(l).tobytes() != new.sweep(l).tobytes():
            print(f"task {l}: the two checkouts' scores differ")
            return 1
    speedups = []
    for pair in range(args.pairs):
        total = {id(old): 0.0, id(new): 0.0}
        for l in range(N_TASKS):
            order = (old, new) if (pair + l) % 2 == 0 else (new, old)
            results = [timed(side, l) for side in order]
            if results[0][1] != results[1][1]:
                print(f"pair {pair} task {l}: the scores differ")
                return 1
            for side, (seconds, _) in zip(order, results):
                total[id(side)] += seconds
        speedups.append(total[id(old)] / total[id(new)])
        print(f"pair {pair}: old {total[id(old)]:.3f} s, "
              f"new {total[id(new)]:.3f} s, speedup "
              f"{speedups[-1]:.3f}", flush=True)
    q1, median, q3 = statistics.quantiles(speedups, n=4) \
        if len(speedups) > 1 else speedups * 3
    won = sum(s > 1.0 for s in speedups)
    print(f"speedup median {median:.3f} (quartiles {q1:.3f}/{q3:.3f}); "
          f"new faster in {won} of {len(speedups)} pairs, old in "
          f"{len(speedups) - won}")
    print(f"calls per generation: old {old.calls_per_generation():.1f}, "
          f"new {new.calls_per_generation():.1f}")
    print(f"scores byte-equal on all {N_TASKS} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
