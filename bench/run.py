"""Benchmark of attnga's meta-training and learned-GA evaluation.

Run from the repository root:

    python3 bench/run.py --workload meta-train --seed 0 --seconds 35 --trace 0

Workloads: ``meta-train`` and ``evaluate-mlp`` (see bench/README.md). Every Python process the benchmark starts gets
single-threaded BLAS/OpenMP and ``src`` on its ``PYTHONPATH``.

With ``--trace 0`` the run times set-up in fresh interpreters, then runs the
workload untraced in one more fresh process and prints the end-to-end
metrics. With ``--trace 1`` it times ``import attnga.cli`` in fresh
interpreters and runs the workload with span tracing, printing the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy goes to
``.bench_out/``. The command exits non-zero without a result if the program
cannot be run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD = os.path.join(HERE, "workload.py")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 60
IMPORT_CODE = ("import time; t = time.perf_counter(); import attnga.cli; "
               "print(repr(time.perf_counter() - t))")


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def time_setup(args, env):
    """Seconds from process start to the workload being ready to time."""
    cmd = [sys.executable, WORKLOAD, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=CHILD_TIMEOUT)
    if rc != 0 or line.strip() != b"ready":
        raise SystemExit(f"set-up failed with exit code {rc}")
    return elapsed


def time_import(env):
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, check=True,
                          timeout=CHILD_TIMEOUT, text=True)
    return float(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    env = child_env()

    if args.trace:
        probe = "import.attnga_s"
        samples = [time_import(env) for _ in range(IMPORT_REPEATS)]
    else:
        probe = "setup_s"
        samples = [time_setup(args, env) for _ in range(SETUP_REPEATS)]

    done = subprocess.run(
        [sys.executable, WORKLOAD, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + 2 * CHILD_TIMEOUT)
    if done.returncode != 0:
        raise SystemExit(f"workload failed with exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["metrics"][probe] = {"value": statistics.median(samples),
                                "unit": "s"}

    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                                f"{args.trace}.json"), "w",
              encoding="ascii") as fh:
        fh.write(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
