"""Command-line front end: meta-training, evaluation, sweeps and dumps.

All results are CSV. Every output is a pure function of (config, seed):
the repetitions of each grid cell run as one batched GA run, the cells fan
out across a worker pool, and rows are emitted in a fixed order, so the
files are byte-identical for any worker count.

Config files use INI sections named after the subcommand; command-line
flags override file values.
"""

import argparse
import configparser
import csv
import functools
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import engine
from . import operators as ops
from .bbob import TaskFamily, META_TRAIN_FUNCTIONS
from .metabbo import MetaConfig, meta_train
from .params import FeatureConfig, LgaParams
from .tasks import make_task

ALGORITHMS = {
    "lga": {"selection": "learned", "mra": "learned"},
    "gaussian": {"selection": "truncation", "mra": "fixed"},
    "mr15": {"selection": "truncation", "mra": "one_fifth"},
    "samr": {"selection": "truncation", "mra": "samr"},
    "gesmr": {"selection": "truncation", "mra": "gesmr"},
}

TRANSFER_COMPOSITIONS = [
    ("truncation", "fixed"),
    ("truncation", "learned"),
    ("learned", "fixed"),
    ("learned", "learned"),
]

# Guard for exact-zero denominators (the Gaussian GA can hit 0 on sphere).
NORM_FLOOR = 1e-12


def _fmt(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) \
        else value


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def parse_task_list(spec):
    """'sphere:20,rastrigin:10,mlp-sine' -> [(name, dim-or-None), ...]."""
    items = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" in token:
            name, dim = token.split(":", 1)
            items.append((name.strip(), int(dim)))
        else:
            items.append((token, None))
    if not items:
        raise ValueError("empty task list")
    return items


def build_task(name, dim, offset_seed):
    if name == "mlp-sine":
        return _mlp_sine()  # fixed dataset; runs vary via the GA seed
    return make_task(name, dim=dim, seed=offset_seed)


@functools.cache
def _mlp_sine():
    """The one mlp-sine task of a process, shared by all its runs."""
    return make_task("mlp-sine")


# One cell of an evaluate, sweep or transfer grid, its repetitions run as
# one batched GA run: the runs' engine.GaConfig and seeds, the task as
# (name, dim, one offset seed per run) and the learned weights, if any.
Job = namedtuple("Job", "config seeds task params")


def _cell(opts, slots, params, task_idx, name, dim, *key, **settings):
    """The repetitions of ``slots`` as one job.

    Run ``rep`` is seeded with ``[seed, task_idx, *key, rep]``; ``settings``
    override the options' GaConfig.
    """
    reps = range(opts["repetitions"])
    if not reps:
        raise ValueError("repetitions must be at least 1")
    config = dict(n_pop=opts["n_pop"], generations=opts["generations"],
                  elite_ratio=opts["rho"], sigma0=opts["sigma0"], **slots)
    config.update(settings)
    return Job(engine.GaConfig(**config),
               [[opts["seed"], task_idx, *key, rep] for rep in reps],
               (name, dim, [_offset_seed(opts["seed"], task_idx, rep)
                            for rep in reps]),
               params if "learned" in slots.values() else None)


def _run_job(job):
    """Top-level worker: one cell's runs, returns their final best-so-far."""
    name, dim, offsets = job.task
    tasks = [build_task(name, dim, offset) for offset in offsets]
    trajectory = engine.run(job.config, tasks, params=job.params,
                            seeds=job.seeds)
    return trajectory.best_so_far[:, -1].tolist()


def _map_jobs(jobs, workers):
    """Each job's results, concatenated in job order."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_job, jobs, chunksize=1))
    else:
        results = [_run_job(job) for job in jobs]
    return [best for bests in results for best in bests]


def _offset_seed(master, task_idx, rep):
    return int((master * 1000003 + task_idx * 8191 + rep) % (2 ** 31))


def _parse_algorithms(spec):
    algos = [a.strip() for a in spec.split(",") if a.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; one of "
                             f"{sorted(ALGORITHMS)}")
    if not algos:
        raise ValueError("empty algorithm list")
    return algos


def _load_params(opts, required):
    if opts.get("checkpoint"):
        return LgaParams.load(opts["checkpoint"])
    if required:
        raise ValueError("this mode requires --checkpoint")
    return None


# -- subcommands -------------------------------------------------------------

def cmd_evaluate(opts):
    tasks = parse_task_list(opts["tasks"])
    algos = _parse_algorithms(opts["algorithms"])
    params = _load_params(opts, required="lga" in algos)
    reps = opts["repetitions"]

    # The Gaussian baseline is always run: it is the normalization
    # denominator even when not among the requested algorithms.
    denom_algos = algos if "gaussian" in algos else algos + ["gaussian"]
    jobs, keys = [], []
    for task_idx, (name, dim) in enumerate(tasks):
        for algo in denom_algos:
            jobs.append(_cell(opts, ALGORITHMS[algo], params, task_idx,
                              name, dim))
            keys.extend((task_idx, algo, rep) for rep in range(reps))
    results = dict(zip(keys, _map_jobs(jobs, opts["workers"])))

    rows = []
    for task_idx, (name, dim) in enumerate(tasks):
        denom = np.mean([results[(task_idx, "gaussian", r)]
                         for r in range(reps)])
        denom = max(float(denom), NORM_FLOOR)
        for algo in algos:
            for rep in range(reps):
                best = results[(task_idx, algo, rep)]
                label = name if dim is None else f"{name}:{dim}"
                rows.append([label, algo, rep, best, best / denom])
    _write_csv(opts["out"], ["task", "algo", "seed", "best_final",
                             "normalized"], rows)


def cmd_sweep(opts):
    tasks = parse_task_list(opts["tasks"])
    algos = _parse_algorithms(opts["algorithms"])
    params = _load_params(opts, required="lga" in algos)
    rho_grid = [float(v) for v in opts["rho_grid"].split(",") if v.strip()]
    sigma_grid = [float(v) for v in opts["sigma0_grid"].split(",")
                  if v.strip()]
    if not rho_grid or not sigma_grid:
        raise ValueError("sweep grids must be non-empty")
    reps = opts["repetitions"]

    jobs, keys = [], []
    for task_idx, (name, dim) in enumerate(tasks):
        for algo in algos:
            for gi, rho in enumerate(rho_grid):
                for gj, sigma0 in enumerate(sigma_grid):
                    jobs.append(_cell(opts, ALGORITHMS[algo], params,
                                      task_idx, name, dim, gi, gj,
                                      elite_ratio=rho, sigma0=sigma0))
                    keys.extend((name, dim, algo, rho, sigma0, rep)
                                for rep in range(reps))
    results = _map_jobs(jobs, opts["workers"])
    rows = [[name if dim is None else f"{name}:{dim}", algo, rho, sigma0,
             rep, best]
            for (name, dim, algo, rho, sigma0, rep), best
            in zip(keys, results)]
    _write_csv(opts["out"], ["task", "algo", "rho", "sigma0", "seed",
                             "best_final"], rows)


def cmd_transfer(opts):
    tasks = parse_task_list(opts["tasks"])
    params = _load_params(opts, required=True)
    reps = opts["repetitions"]

    jobs, keys = [], []
    for task_idx, (name, dim) in enumerate(tasks):
        for selection, mra in TRANSFER_COMPOSITIONS:
            slots = {"selection": selection, "mra": mra}
            jobs.append(_cell(opts, slots, params, task_idx, name, dim))
            keys.extend((name, dim, selection, mra, rep)
                        for rep in range(reps))
    results = _map_jobs(jobs, opts["workers"])
    rows = [[name if dim is None else f"{name}:{dim}", selection, mra, rep,
             best]
            for (name, dim, selection, mra, rep), best
            in zip(keys, results)]
    _write_csv(opts["out"], ["task", "selection", "mra", "seed",
                             "best_final"], rows)


def _print_folded(params):
    """Print the checkpoint's folded selection and MRA operators.

    Per head the 3x3 selection form A and the 5x5 MRA form A', then the
    stacked 3H x 3 selection value map B and the 5H-vector u (as a row):
    48 numbers for one head, the learned operator pair up to its features.
    """
    sel = ops.fold_selection(params.weights)
    mra = ops.fold_mra(params.weights)
    blocks = ([(f"selection A[{h}]", a) for h, a in enumerate(sel.forms)]
              + [("selection B", sel.value)]
              + [(f"mra A'[{h}]", a) for h, a in enumerate(mra.forms)]
              + [("mra u^T", mra.value.T)])
    for name, matrix in blocks:
        print(f"{name} ({matrix.shape[0]}x{matrix.shape[1]}):")
        for row in matrix:
            print("  " + " ".join(f"{v:12.5g}" for v in row))


def cmd_analyze(opts):
    params = _load_params(opts, required=True)
    _print_folded(params)
    tasks = parse_task_list(opts["tasks"])
    name, dim = tasks[0]
    task = build_task(name, dim, _offset_seed(opts["seed"], 0, 0))
    config = engine.GaConfig(
        n_pop=opts["n_pop"], elite_ratio=opts["rho"], sigma0=opts["sigma0"],
        selection="learned", mra="learned", generations=opts["generations"],
        seed=[opts["seed"], 0])
    trajectory = engine.run(config, task, params=params, debug=True)

    rows = []
    for record in trajectory.debug:
        gen = record["generation"]
        feats = record["child_features"]
        n = feats.shape[0]
        for parent in range(record["probs"].shape[0]):
            for child in range(n + 1):
                if child < n:
                    z, rank, flag = feats[child]
                    rows.append(["selection", gen, parent, child, z, rank,
                                 int(flag), record["logits"][parent, child],
                                 record["probs"][parent, child], "", ""])
                else:  # fixed keep-parent slot
                    rows.append(["selection", gen, parent, child, "", "", "",
                                 record["logits"][parent, child],
                                 record["probs"][parent, child], "", ""])
        for child in range(n):
            rows.append(["mra", gen, "", child, "", "", "", "", "",
                         record["delta_sigma"][child],
                         record["sigma_child"][child]])
    _write_csv(opts["out"],
               ["kind", "generation", "parent", "child", "z_score",
                "centered_rank", "improvement", "logit", "prob",
                "delta_sigma", "sigma_child"], rows)


def cmd_meta_train(opts):
    functions = tuple(f.strip() for f in opts["functions"].split(",")
                      if f.strip())
    family = TaskFamily(functions=functions,
                        dim_range=(opts["dim_min"], opts["dim_max"]),
                        noise=bool(opts["noise"]))
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


# -- option plumbing ---------------------------------------------------------

_DEFAULTS = {
    "seed": 0,
    "workers": 1,
    "out": "results.csv",
    "tasks": "sphere:20",
    "algorithms": "lga,gaussian,mr15,samr,gesmr",
    "n_pop": 32,
    "generations": 50,
    "rho": 0.5,
    "sigma0": 0.25,
    "repetitions": 5,
    "checkpoint": "",
    "rho_grid": "0.0,0.15,0.25,0.35,0.5,1.0",
    "sigma0_grid": "0.1,0.25,0.5,0.75,1.0",
    "meta_popsize": 512,
    "n_tasks": 256,
    "meta_generations": 750,
    "objective": "minN-finalT",
    "mean_decay": 0.005,
    "functions": ",".join(META_TRAIN_FUNCTIONS),
    "dim_min": 2,
    "dim_max": 10,
    "noise": 0,
    "eval_every": 25,
    "checkpoint_every": 50,
}

_INT_KEYS = {"seed", "workers", "n_pop", "generations", "repetitions",
             "meta_popsize", "n_tasks", "meta_generations", "dim_min",
             "dim_max", "noise", "eval_every", "checkpoint_every"}
_FLOAT_KEYS = {"rho", "sigma0", "mean_decay"}


def _coerce(key, value):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


def resolve_options(mode, args):
    """Defaults < config-file section < command-line flags."""
    opts = dict(_DEFAULTS)
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
                opts[key] = _coerce(key, value)
    for key in opts:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = _coerce(key, value)
    return opts


def build_parser():
    parser = argparse.ArgumentParser(
        prog="attnga",
        description="Attention-parametrized genetic algorithms: "
                    "meta-training, benchmarking and analysis.")
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {
        "meta-train": cmd_meta_train,
        "evaluate": cmd_evaluate,
        "sweep": cmd_sweep,
        "transfer": cmd_transfer,
        "analyze": cmd_analyze,
    }
    for mode, handler in modes.items():
        p = sub.add_parser(mode)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None,
                       help="INI config file; section [%s]" % mode)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--tasks", default=None,
                       help="comma list of name[:dim] entries")
        p.add_argument("--algorithms", default=None)
        p.add_argument("--n-pop", dest="n_pop", type=int, default=None)
        p.add_argument("--generations", type=int, default=None)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--sigma0", type=float, default=None)
        p.add_argument("--repetitions", type=int, default=None)
        if mode == "sweep":
            p.add_argument("--rho-grid", dest="rho_grid", default=None)
            p.add_argument("--sigma0-grid", dest="sigma0_grid", default=None)
        if mode == "meta-train":
            p.add_argument("--meta-popsize", dest="meta_popsize", type=int,
                           default=None)
            p.add_argument("--n-tasks", dest="n_tasks", type=int,
                           default=None)
            p.add_argument("--meta-generations", dest="meta_generations",
                           type=int, default=None)
            p.add_argument("--objective", default=None)
            p.add_argument("--mean-decay", dest="mean_decay", type=float,
                           default=None)
            p.add_argument("--functions", default=None)
            p.add_argument("--dim-min", dest="dim_min", type=int,
                           default=None)
            p.add_argument("--dim-max", dest="dim_max", type=int,
                           default=None)
            p.add_argument("--noise", type=int, default=None)
            p.add_argument("--eval-every", dest="eval_every", type=int,
                           default=None)
            p.add_argument("--checkpoint-every", dest="checkpoint_every",
                           type=int, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args.mode, args)
        args.handler(opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
