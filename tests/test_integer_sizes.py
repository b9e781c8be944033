"""Every integer size of a config is checked when the config is built."""

import re

import numpy as np
import pytest

from attnga.bbob import TaskFamily
from attnga.engine import GaConfig
from attnga.metabbo import MetaConfig
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
