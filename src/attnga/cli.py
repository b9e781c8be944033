"""Command-line front end: meta-training, evaluation, sweeps and dumps.

All results are CSV. Every output is a pure function of (config, seed):
the repetitions of each grid cell run as one batched GA run, the cells fan
out across a worker pool, and rows are emitted in a fixed order, so the
files are byte-identical for any worker count.

Each subcommand's options are declared once, in ``MODES``: its handler and
a ``{key: default}`` table of exactly the keys it reads. The table gives
the subcommand's flags (``--key-name``) and the keys of its config-file
section (an INI section named after the subcommand); a value from either
takes its default's type, and command-line flags override file values. A
flag or key outside the table is an error (exit 2).
"""

import argparse
import configparser
import functools
import sys
from collections import namedtuple

import numpy as np

from . import engine
from . import operators as ops
from .bbob import TaskFamily, META_TRAIN_FUNCTIONS
from .checks import at_least, check_fields
from .engine import ALGORITHMS
from .metabbo import MetaConfig, job_map, meta_train, write_csv
from .params import FeatureConfig, LgaParams
from .tasks import make_task

TRANSFER_COMPOSITIONS = [
    ("truncation", "fixed"),
    ("truncation", "learned"),
    ("learned", "fixed"),
    ("learned", "learned"),
]

# Guard for exact-zero denominators (the Gaussian GA can hit 0 on sphere).
NORM_FLOOR = 1e-12


def _comma_list(spec, what, parse):
    """The entries of the comma list ``spec``, each through ``parse``.

    Blank entries are skipped. A ``ValueError`` from ``parse`` is raised
    again naming the entry, and an empty list is an error too.
    """
    items = []
    for token in spec.split(","):
        token = token.strip()
        if token:
            try:
                items.append(parse(token))
            except ValueError as exc:
                raise ValueError(f"{what} {token!r}: {exc}") from None
    if not items:
        raise ValueError(f"empty {what} list")
    return items


def _algorithm(name):
    if name not in ALGORITHMS:
        raise ValueError(f"not one of {', '.join(ALGORITHMS)}")
    return name


def _algorithm_list(spec):
    """The ``--algorithms`` entries; an entry given twice is an error.

    A repeated entry would run its cell again with the same seeds.
    """
    algos = _comma_list(spec, "algorithm", _algorithm)
    for i, algo in enumerate(algos):
        if algo in algos[:i]:
            raise ValueError(f"algorithm {algo!r} is listed twice")
    return algos


def _task_entry(token):
    name, sep, dim = token.partition(":")
    return (name.strip(), int(dim)) if sep else (token, None)


def parse_task_list(spec):
    """'sphere:20,rastrigin:10,mlp-sine' -> [(name, dim-or-None), ...]."""
    return _comma_list(spec, "task", _task_entry)


def build_task(name, dim, offset_seed):
    """The task of a ``--tasks`` entry; a bad entry raises naming it."""
    try:
        if name == "mlp-sine":
            return _mlp_sine(dim)  # fixed dataset; runs vary via the GA seed
        return make_task(name, dim=dim, seed=offset_seed)
    except ValueError as exc:
        raise ValueError(f"task {_label(name, dim)!r}: {exc}") from None


@functools.cache
def _mlp_sine(dim):
    """The mlp-sine task of a process and ``dim``, shared by all its runs."""
    return make_task("mlp-sine", dim=dim)


# One cell of an evaluate, sweep or transfer grid, its repetitions run as
# one batched GA run: the runs' engine.GaConfig, seeds and built tasks (one
# per run, or the one task they share) and the learned weights, if any.
Job = namedtuple("Job", "config seeds tasks params")


def _run_job(job):
    """Top-level worker: one cell's runs, returns their final best-so-far."""
    trajectory = engine.run(job.config, job.tasks, params=job.params,
                            seeds=job.seeds)
    return trajectory.best_so_far[:, -1].tolist()


def _offset_seed(master, task_idx, rep):
    return int((master * 1000003 + task_idx * 8191 + rep) % (2 ** 31))


def _label(name, dim):
    return name if dim is None else f"{name}:{dim}"


def _run_grid(opts, params, cells):
    """Run every task of ``--tasks`` in every cell; one row per run.

    A cell is (CSV columns, slots, rho, sigma0, seed key). Each task's R
    run instances and each cell's config are built before any job runs,
    so a bad spec fails at once. A task's cells run as one job each, in
    task-major order, and share the task's instances. R runs of one
    instance (mlp-sine's) get it once, so ``engine.run`` evaluates their
    children in one call per generation. Repetition ``rep`` is seeded
    with ``[seed, task_idx, *key, rep]``. A row is [task, *columns, rep,
    final best].
    """
    check_fields(opts, {"repetitions": at_least(1), "workers": at_least(1)})
    reps = range(opts["repetitions"])
    seed = opts["seed"]
    heads, jobs = [], []
    for task_idx, (name, dim) in enumerate(parse_task_list(opts["tasks"])):
        tasks = [build_task(name, dim, _offset_seed(seed, task_idx, rep))
                 for rep in reps]
        if all(each is tasks[0] for each in tasks):
            tasks = tasks[0]  # mlp-sine's one instance: one call per gen
        for columns, slots, rho, sigma0, key in cells:
            config = engine.GaConfig(
                n_pop=opts["n_pop"], generations=opts["generations"],
                elite_ratio=rho, sigma0=sigma0, **slots)
            heads.append([_label(name, dim), *columns])
            jobs.append(Job(config, [[seed, task_idx, *key, rep]
                                     for rep in reps], tasks,
                            params if "learned" in slots.values() else None))
    with job_map(opts["workers"]) as map_jobs:
        results = map_jobs(_run_job, jobs)
    return [[*head, rep, best] for head, bests in zip(heads, results)
            for rep, best in enumerate(bests)]


def _load_params(opts, required):
    if opts["checkpoint"]:
        return LgaParams.load(opts["checkpoint"])
    if required:
        raise ValueError("this mode requires --checkpoint")
    return None


# -- subcommands -------------------------------------------------------------

def cmd_evaluate(opts):
    algos = _algorithm_list(opts["algorithms"])
    params = _load_params(opts, required="lga" in algos)

    # The Gaussian baseline is always run: it is the normalization
    # denominator even when not among the requested algorithms.
    runs = algos if "gaussian" in algos else algos + ["gaussian"]
    rows = _run_grid(opts, params, [
        ((algo,), ALGORITHMS[algo], opts["rho"], opts["sigma0"], ())
        for algo in runs])

    reps = opts["repetitions"]
    block, denom_at = len(runs) * reps, runs.index("gaussian") * reps
    normalized = []
    for task in (rows[i:i + block] for i in range(0, len(rows), block)):
        gaussian = [row[-1] for row in task[denom_at:denom_at + reps]]
        denom = max(float(np.mean(gaussian)), NORM_FLOOR)
        normalized.extend([*row, row[-1] / denom]
                          for row in task[:len(algos) * reps])
    write_csv(opts["out"], ["task", "algo", "seed", "best_final",
                            "normalized"], normalized)


def cmd_sweep(opts):
    algos = _algorithm_list(opts["algorithms"])
    params = _load_params(opts, required="lga" in algos)
    rho_grid = _comma_list(opts["rho_grid"], "rho grid value", float)
    sigma_grid = _comma_list(opts["sigma0_grid"], "sigma0 grid value", float)
    write_csv(opts["out"], ["task", "algo", "rho", "sigma0", "seed",
                            "best_final"],
              _run_grid(opts, params, [
                  ((algo, rho, sigma0), ALGORITHMS[algo], rho, sigma0,
                   (gi, gj))
                  for algo in algos for gi, rho in enumerate(rho_grid)
                  for gj, sigma0 in enumerate(sigma_grid)]))


def cmd_transfer(opts):
    params = _load_params(opts, required=True)
    write_csv(opts["out"], ["task", "selection", "mra", "seed",
                            "best_final"],
              _run_grid(opts, params, [
                  ((selection, mra), {"selection": selection, "mra": mra},
                   opts["rho"], opts["sigma0"], ())
                  for selection, mra in TRANSFER_COMPOSITIONS]))


def _print_folded(params):
    """Print the checkpoint's folded selection and MRA operators.

    Per head the 3x3 selection form A and the 5x5 MRA form A', then the
    stacked 3H x 3 selection value map B and the 5H-vector u (as a row):
    48 numbers for one head, the learned operator pair up to its features.
    """
    sel = ops.fold(params.weights, "sel")
    mra = ops.fold(params.weights, "mra")
    blocks = ([(f"selection A[{h}]", a) for h, a in enumerate(sel.forms)]
              + [("selection B", sel.value)]
              + [(f"mra A'[{h}]", a) for h, a in enumerate(mra.forms)]
              + [("mra u^T", mra.value.T)])
    for name, matrix in blocks:
        print(f"{name} ({matrix.shape[0]}x{matrix.shape[1]}):")
        for row in matrix:
            print("  " + " ".join(f"{v:12.5g}" for v in row))


def cmd_analyze(opts):
    tasks = parse_task_list(opts["tasks"])
    if len(tasks) != 1:
        raise ValueError(f"analyze runs one task, got {len(tasks)}")
    (name, dim), = tasks
    params = _load_params(opts, required=True)
    _print_folded(params)
    task = build_task(name, dim, _offset_seed(opts["seed"], 0, 0))
    config = engine.GaConfig(
        n_pop=opts["n_pop"], elite_ratio=opts["rho"], sigma0=opts["sigma0"],
        generations=opts["generations"], seed=[opts["seed"], 0],
        **ALGORITHMS["lga"])
    trajectory = engine.run(config, task, params=params, debug=True)

    rows = []
    for record in trajectory.debug:
        gen = record["generation"]
        # The last column, the fixed keep-parent slot, has no features.
        features = [[z, rank, int(flag)] for z, rank, flag
                    in record["child_features"]] + [["", "", ""]]
        for parent in range(record["probs"].shape[0]):
            for child, cells in enumerate(features):
                rows.append(["selection", gen, parent, child, *cells,
                             record["logits"][parent, child],
                             record["probs"][parent, child], "", ""])
        for child, sigmas in enumerate(zip(record["delta_sigma"],
                                           record["sigma_child"])):
            rows.append(["mra", gen, "", child, "", "", "", "", "", *sigmas])
    write_csv(opts["out"],
              ["kind", "generation", "parent", "child", "z_score",
               "centered_rank", "improvement", "logit", "prob",
               "delta_sigma", "sigma_child"], rows)


def cmd_meta_train(opts):
    # TaskFamily rejects an unknown function, naming the list, and a noise
    # other than 0 and 1.
    functions = _comma_list(opts["functions"], "function", str)
    family = TaskFamily(functions=functions,
                        dim_range=(opts["dim_min"], opts["dim_max"]),
                        noise=opts["noise"])
    cfg = MetaConfig(
        meta_popsize=opts["meta_popsize"], n_tasks=opts["n_tasks"],
        inner_popsize=opts["n_pop"], inner_generations=opts["generations"],
        meta_generations=opts["meta_generations"],
        objective=opts["objective"], mean_decay=opts["mean_decay"],
        seed=opts["seed"], family=family,
        feature_cfg=FeatureConfig(),
        eval_every=opts["eval_every"],
        checkpoint_every=opts["checkpoint_every"], workers=opts["workers"])
    meta_train(cfg, out_dir=opts["out"])


# -- option table ------------------------------------------------------------

# Option groups, each default stated once; a mode's table joins the groups
# its command reads. Config keys are the table's keys, flags the keys with
# dashes, and a value from either takes its default's type.
_RUN = {"seed": 0, "out": "results.csv", "n_pop": 32, "generations": 50}
_POOL = {"workers": 1}
_TASKS = {"checkpoint": "", "tasks": "sphere:20"}
_RATES = {"rho": 0.5, "sigma0": 0.25}
_REPEATS = {**_POOL, "repetitions": 5}
_ALGORITHMS = {"algorithms": ",".join(ALGORITHMS)}

MODES = {
    "meta-train": (cmd_meta_train, {
        **_RUN, **_POOL, "meta_popsize": 512, "n_tasks": 256,
        "meta_generations": 750, "objective": "minN-finalT",
        "mean_decay": 0.005, "functions": ",".join(META_TRAIN_FUNCTIONS),
        "dim_min": 2, "dim_max": 10, "noise": 0, "eval_every": 25,
        "checkpoint_every": 50}),
    "evaluate": (cmd_evaluate,
                 {**_RUN, **_TASKS, **_RATES, **_REPEATS, **_ALGORITHMS}),
    "sweep": (cmd_sweep, {
        **_RUN, **_TASKS, **_REPEATS, **_ALGORITHMS,
        "rho_grid": "0.0,0.15,0.25,0.35,0.5,1.0",
        "sigma0_grid": "0.1,0.25,0.5,0.75,1.0"}),
    "transfer": (cmd_transfer, {**_RUN, **_TASKS, **_RATES, **_REPEATS}),
    "analyze": (cmd_analyze, {**_RUN, **_TASKS, **_RATES}),
}

_HELP = {"tasks": "comma list of name[:dim] entries"}


def resolve_options(mode, args):
    """Defaults < config-file section < command-line flags."""
    defaults = MODES[mode][1]
    opts = dict(defaults)
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ValueError(f"cannot read config file {args.config!r}")
        if parser.has_section(mode):
            for key, value in parser.items(mode):
                if key not in opts:
                    raise ValueError(f"unknown config key {key!r} in "
                                     f"[{mode}]")
                try:
                    opts[key] = type(defaults[key])(value)
                except ValueError as exc:
                    raise ValueError(f"config key {key!r} in [{mode}]: "
                                     f"{exc}") from None
    opts.update((key, value) for key, value in vars(args).items()
                if key in opts)
    return opts


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnga",
        description="Attention-parametrized genetic algorithms: "
                    "meta-training, benchmarking and analysis.")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, defaults) in MODES.items():
        # No abbreviations: `sweep --rho` must not mean `--rho-grid`.
        p = sub.add_parser(mode, allow_abbrev=False)
        p.add_argument("--config", default=None,
                       help="INI config file; section [%s]" % mode)
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default),
                           default=argparse.SUPPRESS, help=_HELP.get(key))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        MODES[args.mode][0](resolve_options(args.mode, args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
