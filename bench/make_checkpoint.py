"""Re-create ``lga_desk.txt``, the learned-GA checkpoint evaluate-mlp uses.

It is the final search mean of a desk meta-training run: the acceptance-05
setting (64 candidates x 32 tasks x 150 meta-generations, N=16, T=50,
sphere/rosenbrock/rastrigin in 2-4 D, seed 0), with the held-out
evaluations switched off because they do not change the search mean.
Meta-training output does not depend on the worker count, so the run uses
two workers.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_checkpoint.py

It takes about 10 minutes on a 2-core x86 machine.
"""

from attnga.metabbo import meta_train
from workload import CHECKPOINT, desk_meta_config


def main():
    cfg = desk_meta_config(0, meta_generations=150, eval_every=0, workers=2)
    meta_train(cfg).params.save(CHECKPOINT)


if __name__ == "__main__":
    main()
