"""Task registry: BBOB-style functions plus a synthetic MLP-fitting task.

The MLP task, mlp-sine, stands in for large neuroevolution problems at desk
scale: a fixed 2-8-1 network fitted on 64 points has 33 weights, more than
the meta-training dimensions, while a fitness evaluation stays in the
microsecond range.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bbob
from .checks import check_fields

__all__ = ["MlpTask", "make_task", "task_names"]


# The network, (inputs, hidden units, outputs), and the size of its fixed
# dataset.
LAYERS = (2, 8, 1)
N_POINTS = 64
# Rows per block of MlpTask.core_values: bounds its work buffers (the
# 256 KiB (points, rows x hidden) hidden layer) for any batch size.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class MlpTask:
    """Fit a tiny tanh MLP to a fixed sample of sin(pi*x1) + x2^2.

    The network is ``LAYERS``, 2-8-1: the two inputs the target reads,
    eight hidden units and one output, the prediction. ``seed`` draws the
    ``N_POINTS`` (64) inputs of the dataset.

    :meth:`core_values` runs blocks of up to ``_BLOCK_ROWS`` networks as
    two matmuls: the (points, inputs + 1) design matrix, the dataset with a
    last column of ones, times the block's first-layer weights, copied into
    one (inputs + 1, rows x hidden) matrix with the biases as its last row,
    so the biases are the ones column's weights; then one batched (points,
    hidden) times (hidden, 1) product per network. Each value is bit for
    bit that of the single-network forward pass ``tanh(inputs @ w1 + b1)
    @ w2 + b2`` on the same BLAS: a kernel that accumulates each dot
    product in input order (OpenBLAS's SkylakeX, Haswell and Prescott
    kernels were checked) adds the exact bias term 1 * b1 last, which
    rounds as adding b1 after the matmul does. Outputs thus do not depend
    on the batch size, the block a row falls in or the worker count. Across
    BLAS builds they may differ by rounding, as BLAS kernels may or may not
    fuse multiply-adds.

    The work buffers (about 0.3 MiB) are built on the first evaluation,
    not with the task: a process that only builds a task or pickles it to
    workers never holds them, and a pickle carries only the seed.
    """

    seed: int = 0

    def __post_init__(self):
        rng = np.random.default_rng(self.seed)
        inputs = rng.uniform(-1.0, 1.0, size=(N_POINTS, LAYERS[0]))
        targets = np.sin(np.pi * inputs[:, 0]) + inputs[:, 1] ** 2
        object.__setattr__(self, "_inputs", inputs)
        object.__setattr__(self, "_design", np.hstack(
            [inputs, np.ones((N_POINTS, 1))]))
        object.__setattr__(self, "_targets", targets)

    def __reduce__(self):
        # The dataset is rebuilt from the seed, the buffers when the copy
        # first evaluates.
        return type(self), (self.seed,)

    @cached_property
    def _buffers(self):
        """(w1, hidden, pred): the work buffers of one block.

        Every call reuses them: freeing fresh 256 KiB temporaries each call
        makes glibc return them to the system and fault them back in on
        the next call.
        """
        d_in, d_h, _ = LAYERS
        width = _BLOCK_ROWS * d_h
        return (np.empty((d_in + 1, width)), np.empty((N_POINTS, width)),
                np.empty((_BLOCK_ROWS, N_POINTS, 1)))

    @property
    def dim(self):
        d_in, d_h, d_out = LAYERS
        return d_in * d_h + d_h + d_h * d_out + d_out

    @property
    def sigma0(self):
        return 0.1

    @property
    def function(self):
        return "mlp-sine"

    def core_values(self, x):
        """Mean squared error of each decoded network over the dataset."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        x = np.atleast_2d(x)
        if x.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, "
                             f"got {x.shape[1]}")
        mse = np.empty(x.shape[0])
        for start in range(0, x.shape[0], _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            self._block_values(x[start:stop], mse[start:stop])
        # np.mean's own steps: each block's sums, then one true division.
        mse /= N_POINTS
        return mse[0] if squeeze else mse

    def _block_values(self, x, out):
        """Squared-error sums of at most ``_BLOCK_ROWS`` rows into ``out``."""
        d_in, d_h, _ = LAYERS
        n, p = x.shape[0], N_POINTS
        w1, hidden, pred = self._buffers
        width, split = n * d_h, (d_in + 1) * d_h
        w2 = x[:, split:split + d_h, None]
        b2 = x[:, split + d_h:]

        # First layer, (p, n*h): w1[k] holds row r's weights of input k at
        # r*h..r*h+h-1, and w1[d_in] the biases, the ones column's weights.
        w1 = w1[:, :width]
        np.copyto(w1.reshape(d_in + 1, n, d_h),
                  x[:, :split].reshape(n, d_in + 1, d_h).swapaxes(0, 1))
        hidden = np.matmul(self._design, w1, out=hidden[:, :width])
        np.tanh(hidden, out=hidden)
        pred = np.matmul(hidden.reshape(p, n, d_h).swapaxes(0, 1), w2,
                         out=pred[:n])[:, :, 0]
        pred += b2
        pred -= self._targets
        np.square(pred, out=pred)
        np.add.reduce(pred, axis=1, out=out)

    def evaluate(self, x, rng=None):
        """Noiseless fitness of each row of an (..., N, D) batch."""
        return bbob.rows_values(self.core_values, x)


def task_names():
    return bbob.FUNCTION_NAMES + ("mlp-sine",)


def make_task(name, dim=None, seed=0):
    """Build a task by string id; BBOB offsets are drawn from ``seed``.

    mlp-sine has a fixed dimension: ``dim`` is None or that dimension. A
    BBOB task has ``TaskSpec``'s default sigma0 and no noise; build a
    ``TaskSpec``, or ``dataclasses.replace`` one, for others.
    """
    if dim is not None:     # before the offset draw, which would fail in numpy
        check_fields({"dim": dim}, {"dim": bbob.TaskSpec.RULES["dim"]})
    if name == "mlp-sine":
        task = MlpTask(seed=seed)
        if dim not in (None, task.dim):
            raise ValueError(f"mlp-sine has {task.dim} dimensions, not {dim}")
        return task
    if name not in bbob.FUNCTION_NAMES:
        raise ValueError(f"unknown task {name!r}; known: "
                         f"{', '.join(task_names())}")
    if dim is None:
        raise ValueError(f"{name} needs an explicit dimension")
    offset = np.random.default_rng([seed, 0xB0B]).uniform(-5.0, 5.0, dim)
    return bbob.TaskSpec(function=name, dim=dim, offset=offset)
