"""Every field rule of a config is checked when the config is built."""

import re
from functools import partial

import numpy as np
import pytest

from attnga.bbob import TaskFamily, TaskSpec
from attnga.engine import GaConfig
from attnga.metabbo import MetaConfig
from attnga.metaes import OpenAiEs
from attnga.params import FeatureConfig
from attnga.tasks import MlpTask


@pytest.mark.parametrize("build, size, named", [
    (lambda v: MetaConfig(meta_popsize=v), 4, "meta_popsize"),
    (lambda v: MetaConfig(n_tasks=v), 2, "n_tasks"),
    (lambda v: MetaConfig(inner_popsize=v), 16, "inner_popsize"),
    (lambda v: MetaConfig(workers=v), 2, "workers"),
    (lambda v: GaConfig(n_pop=v), 16, "n_pop"),
    (lambda v: GaConfig(generations=v), 2, "generations"),
    (lambda v: FeatureConfig(heads=v), 1, "heads"),
    (lambda v: FeatureConfig(d_k=v), 16, "d_k"),
    (lambda v: MlpTask(n_points=v), 64, "n_points"),
    (lambda v: MlpTask(layers=(2, v, 1)), 8, "layers[1]"),
    (lambda v: TaskFamily(dim_range=(2, v)), 4, "dim_range[1]"),
])
def test_integer_sizes_reject_floats_and_bools(build, size, named):
    """A float size used to build and fail later with a TypeError (or, for
    a dimension range, to sample a shorter range); each now raises at
    construction, naming the field."""
    build(size)
    build(np.int64(size))
    for value in (float(size), size + 0.5, True):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} must "):
            build(value)


_STEP = ((0.0, -1.0, np.nan, np.inf), 5e-324)
_DECAY = ((np.nan, -1.0, 0.0, 2.0, np.inf), 1.0)
_MEAN_DECAY = ((-0.1, 1.0, np.nan), 0.0)


def _size(n):
    """(values an integer size of at least n rejects, the least it takes)."""
    return (n - 1, float(n), n + 0.5, True), n


# Each config, built with the fields it needs, -> field -> (values its rule
# rejects, a value at the rule's edge that it accepts). A field
# ``name[i]`` sets entry i of the built field.
_TABLES = [
    (partial(GaConfig), {
        "n_pop": _size(1), "elite_ratio": ((-0.1, 1.5, np.nan), 0.0),
        "sigma0": _STEP, "selection": (("roulette",), "learned"),
        "mra": (("cosine",), "gesmr"), "sampling": (("roulette",), "learned"),
        "crossover": (("blend",), "learned"), "generations": _size(1)}),
    (partial(MetaConfig), {
        "meta_popsize": ((0, 3, 4.0, True), 2), "lr": _STEP,
        "lr_decay": _DECAY, "lr_final": _STEP, "sigma_meta": _STEP,
        "sigma_decay": _DECAY, "sigma_final": _STEP,
        "mean_decay": _MEAN_DECAY, "n_tasks": _size(1),
        "inner_popsize": _size(1), "inner_generations": _size(1),
        "meta_generations": _size(0), "eval_every": _size(0),
        "checkpoint_every": _size(0), "objective": (("bestN",), "minN-minT"),
        "workers": _size(1)}),
    (partial(OpenAiEs, 4, popsize=4), {
        "popsize": ((0, -2, 3, 4.0, True), 2), "lr": _STEP,
        "lr_decay": _DECAY, "lr_final": _STEP, "sigma": _STEP,
        "sigma_decay": _DECAY, "sigma_final": _STEP,
        "mean_decay": _MEAN_DECAY}),
    (partial(FeatureConfig), {"d_k": _size(1), "heads": _size(1)}),
    (partial(TaskSpec, function="sphere", dim=1, offset=np.zeros(1)), {
        "function": (("nope", "mlp-sine"), "different_powers"),
        "dim": _size(1), "sigma0": _STEP, "noise": ((2, -1, "yes"), 1)}),
    (partial(TaskFamily, functions=("sphere",), dim_range=(1, 1)), {
        "functions": (((), ("sphere", "bogus")), ("different_powers",)),
        "dim_range[0]": _size(1), "dim_range[1]": _size(1),
        "dim_range": (((2, 1),), (2, 2)), "noise": ((2, -1), 1)}),
    (partial(MlpTask, layers=(2, 8, 1)), {
        "layers[0]": _size(2), "layers[1]": _size(2),
        "layers[2]": ((0, 2, 1.0, True), 1), "n_points": _size(2)}),
]


def _build(build, name, value):
    field, _, index = name.partition("[")
    if index:
        entries = list(build.keywords[field])
        entries[int(index[:-1])] = value
        value = tuple(entries)
    return build(**{field: value})


def test_every_rule_table_is_covered():
    for build, cases in _TABLES:
        assert set(cases) == set(build.func.RULES)


@pytest.mark.parametrize("build, name, rejected, edge", [
    pytest.param(build, name, rejected, edge,
                 id=f"{build.func.__name__}.{name}")
    for build, cases in _TABLES
    for name, (rejected, edge) in cases.items()])
def test_each_rule_rejects_naming_its_field_and_takes_its_edge(
        build, name, rejected, edge):
    wording = build.func.RULES[name][1]
    for value in rejected:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be "
                           rf"{re.escape(wording)}, got "):
            _build(build, name, value)
    _build(build, name, edge)
