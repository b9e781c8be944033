"""What the package loads: numpy alone, and a process pool only when asked.

Importing the package must not load scipy, and a run with one worker must
not load the process pool or ``multiprocessing``.
"""

import os
import subprocess
import sys

import attnga


def _run_fresh(code, cwd=None):
    """Standard output of ``code`` in a fresh interpreter with attnga."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(attnga.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                            capture_output=True, text=True, check=True,
                            timeout=120)
    return result.stdout.strip()


def test_cli_and_metabbo_import_no_scipy():
    code = ("import sys, attnga.cli, attnga.metabbo; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "== 'scipy'))")
    assert _run_fresh(code) == "[]"


def test_one_worker_runs_load_no_process_pool(tmp_path):
    """A one-worker meta_train and evaluate run in the calling process."""
    code = """
import sys
from attnga.cli import main
from attnga.metabbo import MetaConfig, meta_train
result = meta_train(MetaConfig(
    meta_popsize=4, n_tasks=2, inner_popsize=4, inner_generations=3,
    meta_generations=2, eval_every=1, checkpoint_every=0, workers=1))
result.params.save("lga.txt")
assert main(["evaluate", "--tasks", "sphere:2,mlp-sine", "--n-pop", "8",
             "--generations", "3", "--repetitions", "2", "--workers", "1",
             "--checkpoint", "lga.txt", "--out", "eval.csv"]) == 0
print(sorted(m for m in sys.modules
             if m == "concurrent.futures.process"
             or m.split(".")[0] == "multiprocessing"))
"""
    assert _run_fresh(code, cwd=tmp_path) == "[]"
    assert (tmp_path / "eval.csv").read_text().startswith("task,algo,")
