"""Unit tests for the task registry and the synthetic MLP-fitting task."""

import pickle
import re
import tracemalloc

import numpy as np
import pytest

from attnga.tasks import MlpTask, make_task, task_names


def _mlp_oracle(task, w):
    """Single-network forward pass with explicit slicing.

    The biases are added after the first matmul, not folded into it as a
    ones column the way the batched kernel folds them; the two must still
    agree bit for bit.
    """
    d_in, d_h, d_out = task.layers
    i = 0
    w1 = w[i:i + d_in * d_h].reshape(d_in, d_h); i += d_in * d_h
    b1 = w[i:i + d_h]; i += d_h
    w2 = w[i:i + d_h * d_out].reshape(d_h, d_out); i += d_h * d_out
    b2 = w[i:i + d_out]
    hidden = np.tanh(task._inputs @ w1 + b1)
    pred = (hidden @ w2)[:, 0] + b2[0]
    return np.mean((pred - task._targets) ** 2)


def test_mlp_dimension_and_metadata():
    task = MlpTask()
    assert task.dim == 2 * 8 + 8 + 8 * 1 + 1 == 33
    assert task.sigma0 == 0.1
    assert task.function == "mlp-sine"
    with pytest.raises(ValueError):
        MlpTask(layers=(2, 8))


def test_mlp_matches_single_network_oracle():
    task = MlpTask()
    rng = np.random.default_rng(50)
    weights = rng.standard_normal((12, task.dim))
    batched = task.core_values(weights)
    singles = np.array([_mlp_oracle(task, w) for w in weights])
    assert batched.tobytes() == singles.tobytes()
    # 1-D input returns a scalar.
    assert np.isscalar(task.core_values(weights[0]))
    with pytest.raises(ValueError):
        task.core_values(np.zeros((2, 32)))


def test_mlp_dataset_is_seeded():
    np.testing.assert_array_equal(MlpTask(seed=3)._inputs,
                                  MlpTask(seed=3)._inputs)
    assert not np.array_equal(MlpTask(seed=3)._inputs,
                              MlpTask(seed=4)._inputs)
    task = MlpTask()
    np.testing.assert_allclose(
        task._targets,
        np.sin(np.pi * task._inputs[:, 0]) + task._inputs[:, 1] ** 2)


def test_mlp_fitness_is_learnable_signal():
    """A network near the data scale beats a wildly scaled one."""
    task = MlpTask()
    rng = np.random.default_rng(51)
    small = 0.5 * rng.standard_normal(task.dim)
    huge = 100.0 * rng.standard_normal(task.dim)
    assert task.core_values(small) < task.core_values(huge)


def test_make_task_registry():
    assert set(task_names()) >= {"sphere", "rastrigin", "mlp-sine"}
    task = make_task("sphere", dim=4, seed=9)
    assert task.dim == 4 and task.function == "sphere"
    # Offsets are a deterministic function of the seed.
    np.testing.assert_array_equal(task.offset,
                                  make_task("sphere", dim=4, seed=9).offset)
    assert not np.array_equal(task.offset,
                              make_task("sphere", dim=4, seed=10).offset)
    assert isinstance(make_task("mlp-sine"), MlpTask)
    assert make_task("mlp-sine", dim=33).dim == 33
    for dim in (5, 0, 34):
        with pytest.raises(ValueError, match=f"33 dimensions, not {dim}"):
            make_task("mlp-sine", dim=dim)
    with pytest.raises(ValueError):
        make_task("unknown-task", dim=2)
    for dim in (None, 0, -1):     # checked before the offset is drawn
        with pytest.raises(ValueError, match="sphere needs an explicit "
                           f"dimension of at least 1, got {dim}"):
            make_task("sphere", dim=dim)


@pytest.mark.parametrize("layers", [(2, 8, 1), (3, 5, 1), (2, 3, 1),
                                    (5, 16, 1), (2, 2, 1)])
def test_mlp_fast_path_equals_oracle_bit_for_bit(layers):
    # Row counts below, at and across the 64-row block, and many blocks;
    # scale 1e3 saturates tanh. 17 and 200 points leave a tail past a
    # multiple of 8 in the pairwise mean, and 200 sums past one 128-value
    # block; 2 is the fewest points the task takes.
    cases = ((1, 1.0), (3, 1.0), (7, 0.1), (63, 1.0), (64, 1.0), (65, 1e3),
             (129, 1.0), (256, 5.0), (1000, 1.0))
    for n_points in (64, 17, 2, 200):
        task = MlpTask(layers=layers, n_points=n_points, seed=4)
        rng = np.random.default_rng(51)
        for rows, scale in cases:
            x = scale * rng.standard_normal((rows, task.dim))
            if rows > 2:      # signed zeros: an all +0.0 and an all -0.0 row
                x[1] = 0.0
                x[2] = -0.0
            expected = np.array([_mlp_oracle(task, w) for w in x])
            assert task.core_values(x).tobytes() == expected.tobytes()
            single = task.core_values(x[0])
            assert np.isscalar(single) and single == expected[0]
            assert np.float64(single).tobytes() == expected[:1].tobytes()


@pytest.mark.parametrize("fields, named", [
    ({"layers": (1, 4, 1)}, "layers[0]"),
    ({"layers": (2, 0, 1)}, "layers[1]"),
    ({"layers": (2, 8, 2)}, "layers[2]"),
    ({"n_points": 0}, "n_points"),
    # One hidden unit or one point would make numpy run the first layer as
    # a matrix-vector product, whose sums vary with the block width.
    ({"layers": (2, 1, 1)}, "layers[1]"),
    ({"n_points": 1}, "n_points"),
])
def test_mlp_rejects_bad_fields_when_built(fields, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        MlpTask(**fields)


def test_mlp_call_allocates_no_large_block():
    """Work buffers are reused: no call allocates a block of 128 KiB.

    glibc serves blocks of 128 KiB and more with mmap and returns them on
    free, so each such temporary costs page faults on every call. Numpy
    reports its allocations to tracemalloc; the peak bounds any block.
    """
    task = MlpTask()
    x = np.random.default_rng(52).standard_normal((64, task.dim))
    task.core_values(x)                      # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        task.core_values(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 128 * 1024


def test_mlp_builds_its_work_buffers_on_first_evaluation():
    """Building a task holds only its dataset; the first call adds the
    work buffers (about 0.3 MiB), and later calls add nothing."""
    x = np.random.default_rng(54).standard_normal((3, MlpTask().dim))
    tracemalloc.start()
    try:
        task = MlpTask()
        built = tracemalloc.get_traced_memory()[0]
        task.core_values(x)
        evaluated = tracemalloc.get_traced_memory()[0]
        task.core_values(x)
        again = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert built < 16 * 1024
    assert evaluated - built > 256 * 1024
    assert again - evaluated < 1024


def test_mlp_pickles_and_compares_by_fields():
    """A copy pickled before or after the first evaluation is the same
    task and evaluates bit for bit like it."""
    task = MlpTask(seed=5)
    x = np.random.default_rng(53).standard_normal((70, task.dim))
    fresh = pickle.dumps(task)
    expected = task.core_values(x)
    for data in (fresh, pickle.dumps(task)):
        assert len(data) < 1024              # no dataset, no buffers
        clone = pickle.loads(data)
        assert clone == task and hash(clone) == hash(task)
        assert clone.core_values(x).tobytes() == expected.tobytes()
