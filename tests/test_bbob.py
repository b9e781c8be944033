"""Unit tests for the benchmark function suite and task sampling."""

import re
import warnings

import numpy as np
import pytest

from attnga import bbob


ZERO_AT_OPTIMUM = tuple(n for n in bbob.FUNCTION_NAMES
                        if n != "linear_slope")


@pytest.mark.parametrize("name", ZERO_AT_OPTIMUM)
@pytest.mark.parametrize("dim", [2, 5, 10])
def test_core_is_zero_at_task_optimum(name, dim):
    rng = np.random.default_rng(hash(name) % 2 ** 31)
    offset = rng.uniform(-5.0, 5.0, dim)
    task = bbob.TaskSpec(function=name, dim=dim, offset=offset)
    value = task.core_values(offset[None, :])[0]
    assert abs(value) < 1e-6, f"{name}: core at optimum = {value}"


@pytest.mark.parametrize("name", ZERO_AT_OPTIMUM)
def test_core_is_nonnegative_nearby(name):
    rng = np.random.default_rng(99)
    task = bbob.TaskSpec(function=name, dim=4, offset=np.zeros(4))
    x = rng.uniform(-5.0, 5.0, size=(256, 4))
    values = task.core_values(x)
    assert values.shape == (256,)
    assert np.all(values >= -1e-6)


def test_linear_slope_is_monotone():
    task = bbob.TaskSpec(function="linear_slope", dim=3, offset=np.zeros(3))
    rng = np.random.default_rng(100)
    x = rng.uniform(-4.0, 4.0, size=(64, 3))
    base = task.core_values(x)
    for axis in range(3):
        bumped = x.copy()
        bumped[:, axis] += 0.5
        assert np.all(task.core_values(bumped) < base)


def test_sphere_matches_closed_form():
    offset = np.array([1.0, -2.0])
    task = bbob.TaskSpec(function="sphere", dim=2, offset=offset)
    x = np.array([[1.0, -2.0], [2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(task.core_values(x),
                               np.sum((x - offset) ** 2, axis=1))


def test_rosenbrock_curved_valley():
    task = bbob.TaskSpec(function="rosenbrock", dim=3,
                         offset=np.array([0.5, -1.0, 2.0]))
    assert task.core_values(task.offset[None, :])[0] == 0.0
    # A point along the valley floor scores much lower than off-valley.
    z = np.array([0.1, 0.1 ** 2, 0.1 ** 4])
    on_valley = task.core_values((task.offset + z - [0, 1, 1]
                                  + [0, z[0] ** 2, z[1] ** 2])[None, :])
    off_valley = task.core_values((task.offset + [0.0, 1.0, 0.0])[None, :])
    assert off_valley[0] > on_valley[0]


def test_rastrigin_multimodality():
    task = bbob.TaskSpec(function="rastrigin", dim=2, offset=np.zeros(2))
    # Local minima sit near integer lattice points with value ~ ||z||^2.
    np.testing.assert_allclose(task.core_values(np.array([[1.0, 1.0]]))[0],
                               2.0, atol=1e-9)
    assert task.core_values(np.array([[0.5, 0.5]]))[0] > 20.0


def test_oscillation_transform_fixes_zero_and_sign():
    assert bbob._t_osz(np.array([0.0]))[0] == 0.0
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    y = bbob._t_osz(x)
    np.testing.assert_array_equal(np.sign(y), np.sign(x))


def test_task_spec_validation():
    with pytest.raises(ValueError):
        bbob.TaskSpec(function="nope", dim=2, offset=np.zeros(2))
    with pytest.raises(ValueError):
        bbob.TaskSpec(function="sphere", dim=2, offset=np.zeros(3))
    with pytest.raises(ValueError):
        bbob.TaskSpec(function="sphere", dim=2, offset=np.array([0.0, 6.0]))
    with pytest.raises(ValueError):
        bbob.TaskSpec(function="sphere", dim=2, offset=np.zeros(2),
                      sigma0=0.0)
    with pytest.raises(ValueError):
        bbob.TaskSpec(function="sphere", dim=3, offset=np.zeros(3)) \
            .core_values(np.zeros((1, 2)))


@pytest.mark.parametrize("name, dim, match", [
    ("sphere", 0, "^dim must be an integer, at least 1, got 0"),
    ("sphere", -1, "^dim must be an integer, at least 1, got -1"),
    ("schaffers_f7", 1, "schaffers_f7 needs at least two dimensions, got 1"),
    ("griewank_rosenbrock", 1,
     "griewank_rosenbrock needs at least two dimensions, got 1"),
])
def test_task_spec_rejects_too_few_dimensions_when_built(name, dim, match):
    """The two pairing cores need two dimensions, every core one."""
    with pytest.raises(ValueError, match=match):
        bbob.TaskSpec(function=name, dim=dim, offset=np.zeros(max(dim, 0)))


@pytest.mark.parametrize("fields, message", [
    ({"sigma0": np.nan}, "sigma0 must be positive and finite, got nan"),
    ({"sigma0": np.inf}, "sigma0 must be positive and finite, got inf"),
    ({"sigma0": -1}, "sigma0 must be positive and finite, got -1"),
    ({"dim": True}, "dim must be an integer, at least 1, got True"),
    ({"dim": 2.0}, "dim must be an integer, at least 1, got 2.0"),
    ({"dim": 2.5}, "dim must be an integer, at least 1, got 2.5"),
    ({"offset": np.array([0.0, np.nan])}, "offset must lie within [-5, 5]^D"),
    ({"offset": np.zeros(3)}, "offset must have shape (2,), got (3,)"),
    ({"noise": 2}, "noise must be one of False, True, got 2"),
])
def test_task_spec_rejects_bad_fields_naming_them(fields, message):
    """A NaN or infinite sigma0 and a bool or float dimension used to be
    accepted, -1 raised a message naming no field, 2.5 was reported as an
    offset of the wrong shape and a NaN offset passed the box check."""
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        bbob.TaskSpec(**{"function": "sphere", "dim": 2,
                         "offset": np.zeros(2), **fields})


def test_noise_is_multiplicative_and_reproducible():
    task = bbob.TaskSpec(function="sphere", dim=2, offset=np.zeros(2),
                         noise=True)
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    core = task.core_values(x)
    a = task.evaluate(x, np.random.default_rng(3))
    b = task.evaluate(x, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    draws = np.random.default_rng(3).standard_normal(2)
    np.testing.assert_allclose(a, core * np.exp(0.01 * draws))
    assert np.all(a > 0.0)
    with pytest.raises(ValueError):
        task.evaluate(x)          # noisy task needs an rng
    # Noise stays multiplicative at the exact optimum via the fitness floor.
    at_opt = task.evaluate(np.zeros((1, 2)), np.random.default_rng(4))
    assert at_opt[0] > 0.0


def test_noiseless_evaluate_equals_core():
    task = bbob.TaskSpec(function="discus", dim=3, offset=np.ones(3))
    x = np.random.default_rng(5).uniform(-5, 5, (10, 3))
    np.testing.assert_array_equal(task.evaluate(x), task.core_values(x))


def test_function_split_is_disjoint_and_complete():
    train = set(bbob.META_TRAIN_FUNCTIONS)
    hold = set(bbob.HOLD_OUT_FUNCTIONS)
    assert not train & hold
    assert train | hold == set(bbob.FUNCTION_NAMES)
    assert len(train) == 10 and len(hold) == 5


def test_sample_task_respects_family_ranges():
    family = bbob.TaskFamily(functions=("sphere", "rastrigin"),
                             dim_range=(2, 4))
    rng = np.random.default_rng(6)
    seen_dims, seen_names = set(), set()
    for _ in range(200):
        task = bbob.sample_task(family, rng)
        assert task.function in family.functions
        assert 2 <= task.dim <= 4
        assert 0.01 <= task.sigma0 <= 0.5
        assert np.all(np.abs(task.offset) <= 5.0)
        seen_dims.add(task.dim)
        seen_names.add(task.function)
    assert seen_dims == {2, 3, 4}
    assert seen_names == {"sphere", "rastrigin"}
    with pytest.raises(ValueError):
        bbob.TaskFamily(functions=())
    with pytest.raises(ValueError):
        bbob.TaskFamily(functions=("nope",))


@pytest.mark.parametrize("dim_range, match", [
    ((0, 2), "dim_range[0] must be an integer, at least 1, got 0"),
    ((5, 2), "dim_range must be a (low, high) pair with low <= high"),
    ((1, 1), "schaffers_f7 needs at least two dimensions"),
])
def test_task_family_rejects_bad_dimension_ranges(dim_range, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        bbob.TaskFamily(dim_range=dim_range)


def test_task_family_dimension_floor_is_per_function():
    """One-dimensional tasks are fine without the two pairing cores."""
    family = bbob.TaskFamily(functions=("sphere", "rastrigin"),
                             dim_range=(1, 1))
    assert bbob.sample_task(family, np.random.default_rng(1)).dim == 1
    with pytest.raises(ValueError, match="griewank_rosenbrock needs"):
        bbob.TaskFamily(functions=("sphere", "griewank_rosenbrock"),
                        dim_range=(1, 3))
    bbob.TaskFamily(functions=("griewank_rosenbrock",), dim_range=(2, 2))


def test_batched_rows_match_single_rows():
    rng = np.random.default_rng(7)
    for name in bbob.FUNCTION_NAMES:
        dim = 3
        task = bbob.TaskSpec(function=name, dim=dim,
                             offset=rng.uniform(-4, 4, dim))
        x = rng.uniform(-5, 5, (8, dim))
        batched = task.core_values(x)
        singles = np.array([task.core_values(row[None, :])[0] for row in x])
        np.testing.assert_allclose(batched, singles, rtol=1e-12)


def test_overflowing_row_scores_inf_without_warning():
    task = bbob.TaskSpec(function="rosenbrock", dim=4, offset=np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = task.core_values(np.full((2, 4), 1e160))
    assert np.all(values == np.inf)
