"""Span tracing for the benchmark's traced run.

The program is not modified: ``Tracer.install`` replaces each traced function
with a wrapper in every ``attnga`` module namespace that holds it (so names
imported with ``from ... import`` are wrapped where they are looked up, e.g.
``engine.row_softmax`` and ``operators.sdpa``), and each traced method on its
class. ``Tracer.uninstall`` puts the originals back.

Each call records one span ``(id, parent, name, start, end, info)`` in
memory. Span ids are ``(pid, n)`` pairs and times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans from forked pool
workers line up with the parent's. A forked worker inherits the parent's
open-span stack, so its spans name the parent-side span that was open at the
fork as their parent; the worker appends its spans to
``<spill_dir>/spans-<pid>.jsonl`` each time its outermost span closes, and
``Tracer.collect`` merges those files with the parent's own spans.

A span's self time is its duration minus the union of the intervals its
child spans cover (children may run in parallel in two workers).
"""

import functools
import glob
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function or Class.method) of every traced boundary. Public
# helpers not listed here (reduce_scores, categorical_indices,
# fitness_features, ...) count toward their caller's self time.
TRACED = (
    ("attnga.attention", "row_softmax"),
    ("attnga.attention", "sdpa"),
    ("attnga.attention", "multi_head_sdpa"),
    ("attnga.features", "z_score"),
    ("attnga.features", "centered_ranks"),
    ("attnga.features", "sigma_features"),
    ("attnga.operators", "selection_logits"),
    ("attnga.operators", "mra_multiplier"),
    ("attnga.operators", "sample_selection"),
    ("attnga.operators", "apply_selection"),
    ("attnga.operators", "truncation_selection"),
    ("attnga.operators", "gaussian_mutate"),
    ("attnga.operators", "mr_one_fifth"),
    ("attnga.operators", "samr_adapt"),
    ("attnga.operators", "gesmr_adapt"),
    ("attnga.engine", "run"),
    ("attnga.engine", "GeneticAlgorithm.ask"),
    ("attnga.engine", "GeneticAlgorithm.tell"),
    ("attnga.bbob", "sample_task"),
    ("attnga.bbob", "TaskSpec.core_values"),
    ("attnga.bbob", "TaskSpec.evaluate"),
    ("attnga.tasks", "MlpTask.core_values"),
    ("attnga.tasks", "MlpTask.evaluate"),
    ("attnga.params", "LgaParams.load"),
    ("attnga.metaes", "OpenAiEs.ask"),
    ("attnga.metaes", "OpenAiEs.tell"),
    ("attnga.metabbo", "meta_fitness"),
    ("attnga.metabbo", "evaluate_candidates_on_task"),
    ("attnga.metabbo", "_held_out_score"),
    ("attnga.cli", "main"),
    ("attnga.cli", "_run_job"),
)

ALGOS = ("lga", "gaussian", "mr15", "samr", "gesmr")
_SLOTS_TO_ALGO = {("learned", "learned"): "lga",
                  ("truncation", "fixed"): "gaussian",
                  ("truncation", "one_fifth"): "mr15",
                  ("truncation", "samr"): "samr",
                  ("truncation", "gesmr"): "gesmr"}


def _rows_info(_self, x, *_args, **_kwargs):
    return int(np.shape(x)[0]) if np.ndim(x) > 1 else 1


def _run_info(config, *_args, **_kwargs):
    algo = _SLOTS_TO_ALGO.get((config.selection, config.mra), "other")
    return [algo, int(config.generations)]


# Span name -> function of the call's arguments whose result is kept.
_INFO = {
    "bbob.TaskSpec.core_values": _rows_info,
    "tasks.MlpTask.core_values": _rows_info,
    "engine.run": _run_info,
}


class Tracer:
    """Records spans of the traced attnga functions while installed."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.spans = []
        self.stack = []
        self.count = 0
        self.pid = self.main_pid = os.getpid()
        self.base_depth = 0
        self._undo = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.spans = []
        self.pid = os.getpid()
        self.base_depth = len(self.stack)

    def _spill(self):
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def _wrap(self, fn, name):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            sid = (self.pid, self.count)
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((sid, parent, name, start, end,
                                   info(*args, **kwargs) if info else None))
                if self.pid != self.main_pid \
                        and len(self.stack) == self.base_depth:
                    self._spill()
        return traced

    def install(self):
        for module_name, _attr in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items()
                   if n == "attnga" or n.startswith("attnga.")]
        for module_name, attr in TRACED:
            module = sys.modules[module_name]
            name = module_name.split(".", 1)[1] + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def collect(self):
        """All spans since the last collect, the workers' spill files too."""
        spans = [tuple(s) for s in self.spans]
        self.spans = []
        for path in sorted(glob.glob(os.path.join(self.spill_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="ascii") as fh:
                for line in fh:
                    for sid, parent, name, start, end, info in json.loads(line):
                        spans.append((tuple(sid),
                                      tuple(parent) if parent else None,
                                      name, start, end, info))
            os.remove(path)
        return spans


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _info in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _info in spans:
        covered, cursor = 0.0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


# Per-layer metric -> the span names whose self time (or count) it sums.
SELF_TIME = {
    "params.load_s": ("params.LgaParams.load",),
    "metabbo.sweep_s": ("metabbo.evaluate_candidates_on_task",),
    "metabbo.meta_fitness_s": ("metabbo.meta_fitness",),
    "bbob.sample_task_s": ("bbob.sample_task",),
    "metaes.ask_s": ("metaes.OpenAiEs.ask",),
    "metaes.tell_s": ("metaes.OpenAiEs.tell",),
    "bbob.eval_s": ("bbob.TaskSpec.core_values", "bbob.TaskSpec.evaluate"),
    "tasks.mlp_eval_s": ("tasks.MlpTask.core_values",
                         "tasks.MlpTask.evaluate"),
    "engine.run_s": ("engine.run",),
    "engine.ask_s": ("engine.GeneticAlgorithm.ask",),
    "engine.tell_s": ("engine.GeneticAlgorithm.tell",),
    "features.z_score_s": ("features.z_score",),
    "features.centered_ranks_s": ("features.centered_ranks",),
    "features.sigma_features_s": ("features.sigma_features",),
    "attention.softmax_s": ("attention.row_softmax",),
    "attention.sdpa_s": ("attention.sdpa", "attention.multi_head_sdpa"),
    "operators.selection_logits_s": ("operators.selection_logits",),
    "operators.mra_multiplier_s": ("operators.mra_multiplier",),
    "operators.sample_selection_s": ("operators.sample_selection",),
    "operators.apply_selection_s": ("operators.apply_selection",),
    "operators.truncation_selection_s": ("operators.truncation_selection",),
    "operators.mutate_s": ("operators.gaussian_mutate",),
    "operators.baseline_mra_s": ("operators.mr_one_fifth",
                                 "operators.samr_adapt",
                                 "operators.gesmr_adapt"),
    "cli.self_s": ("cli.main", "cli._run_job"),
}
# Whole span durations: the held-out evals are a phase, not a module, and
# cli.main is the whole invocation.
TOTAL_TIME = {
    "metabbo.held_out_s": "metabbo._held_out_score",
    "cli.main_s": "cli.main",
}
CALLS = {
    "metabbo.sweep_calls": "metabbo.evaluate_candidates_on_task",
    "engine.runs": "engine.run",
    "cli.jobs": "cli._run_job",
}
ROWS = {
    "bbob.rows": "bbob.TaskSpec.core_values",
    "tasks.mlp_rows": "tasks.MlpTask.core_values",
}


def unit_metrics(spans):
    """Per-layer values of one timed unit, and its per-generation times."""
    own = self_times(spans)
    by_name = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    rows = defaultdict(int)
    gen_us = defaultdict(list)
    for sid, _parent, name, start, end, info in spans:
        by_name[name] += own[sid]
        total[name] += end - start
        calls[name] += 1
        if name in ROWS.values():
            rows[name] += info
        if name == "engine.run":
            algo, generations = info
            gen_us[algo].append((end - start) / generations * 1e6)
    values = {m: sum(by_name[n] for n in names)
              for m, names in SELF_TIME.items()}
    values.update({m: total[n] for m, n in TOTAL_TIME.items()})
    values.update({m: calls[n] for m, n in CALLS.items()})
    values.update({m: rows[n] for m, n in ROWS.items()})
    return values, gen_us


def per_layer(units):
    """Median over units of each layer value, as the benchmark prints them.

    ``engine.gen_us.<algo>`` is the median over all traced runs of that
    algorithm of run duration / generations; 0 when none ran.
    """
    per_unit, gen_us = [], defaultdict(list)
    for spans in units:
        values, gens = unit_metrics(spans)
        per_unit.append(values)
        for algo, times in gens.items():
            gen_us[algo].extend(times)
    out = {}
    for metric in list(SELF_TIME) + list(TOTAL_TIME) + list(CALLS) \
            + list(ROWS):
        unit = "s" if metric.endswith("_s") else "count"
        out[metric] = {"value": float(np.median([u[metric]
                                                 for u in per_unit])),
                       "unit": unit}
    for algo in ALGOS:
        times = gen_us.get(algo)
        out[f"engine.gen_us.{algo}"] = {
            "value": float(np.median(times)) if times else 0.0, "unit": "us"}
    return out
