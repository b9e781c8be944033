"""Task registry: BBOB-style functions plus a synthetic MLP-fitting task.

The MLP task stands in for large neuroevolution problems at desk scale: the
search space (33 weights by default) exceeds the meta-training dimensions
while a fitness evaluation stays in the microsecond range.
"""

from dataclasses import dataclass

import numpy as np

from . import bbob

__all__ = ["MlpTask", "make_task", "task_names"]


# Rows per block of MlpTask.core_values: bounds its work buffers (256 KiB
# each at the default sizes) for any batch size.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class MlpTask:
    """Fit a tiny tanh MLP to a fixed sample of sin(pi*x1) + x2^2."""

    layers: tuple = (2, 8, 1)
    n_points: int = 64
    seed: int = 0

    def __post_init__(self):
        if len(self.layers) != 3:
            raise ValueError("expected (input, hidden, output) layer sizes")
        rng = np.random.default_rng(self.seed)
        inputs = rng.uniform(-1.0, 1.0, size=(self.n_points, self.layers[0]))
        targets = np.sin(np.pi * inputs[:, 0]) + inputs[:, 1] ** 2
        object.__setattr__(self, "_inputs", inputs)
        object.__setattr__(self, "_columns", np.ascontiguousarray(inputs.T))
        object.__setattr__(self, "_targets", targets)
        # Work buffers for one block of rows, reused by every call: freeing
        # fresh 256 KiB temporaries each call makes glibc return them to
        # the system and fault them back in on the next call.
        d_h, p = self.layers[1], self.n_points
        object.__setattr__(self, "_hidden", np.empty((_BLOCK_ROWS, d_h, p)))
        object.__setattr__(self, "_scratch", np.empty(_BLOCK_ROWS * d_h * p))
        object.__setattr__(self, "_pred", np.empty((_BLOCK_ROWS, p, 1)))

    def __reduce__(self):
        # The dataset and the buffers are rebuilt from the fields.
        return type(self), (self.layers, self.n_points, self.seed)

    @property
    def dim(self):
        d_in, d_h, d_out = self.layers
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
        return mse[0] if squeeze else mse

    def _block_values(self, x, out):
        """:meth:`core_values` of at most ``_BLOCK_ROWS`` rows into ``out``."""
        d_in, d_h, d_out = self.layers
        n, p = x.shape[0], self.n_points
        i = 0
        w1 = x[:, i:i + d_in * d_h].reshape(-1, d_in, d_h); i += d_in * d_h
        b1 = x[:, i:i + d_h]; i += d_h
        w2 = x[:, i:i + d_h * d_out].reshape(-1, d_h, d_out); i += d_h * d_out
        b2 = x[:, i:i + d_out]

        # First layer: einsum("pi,nih->nph") spelled as d_in broadcast
        # multiply-adds in einsum's order of i, laid out (n, h, p) so the
        # inner loops run over the data points; the sums are the same.
        # (einsum starts from +0.0, so an all -0.0 sum may differ in sign;
        # the squared error below cannot.) Each product is a column copy
        # scaled in place, so no ufunc call broadcasts two operands (each
        # one gets its own 64 KiB iterator buffer). tanh writes into the
        # (n, p, h) layout that the second einsum reads, which fixes its
        # summation order.
        hidden = self._hidden[:n]
        scratch = self._scratch[:n * d_h * p]
        term = scratch.reshape(n, d_h, p)
        np.copyto(hidden, self._columns[0])
        hidden *= w1[:, 0, :, None]
        for k in range(1, d_in):
            np.copyto(term, self._columns[k])
            term *= w1[:, k, :, None]
            hidden += term
        hidden += b1[:, :, None]
        hidden_t = scratch.reshape(n, p, d_h)
        np.tanh(hidden, out=np.swapaxes(hidden_t, 1, 2))
        pred = np.einsum("nph,nho->npo", hidden_t, w2,
                         out=self._pred[:n])[:, :, 0]
        pred += b2
        pred -= self._targets
        np.square(pred, out=pred)
        np.mean(pred, axis=1, out=out)

    def evaluate(self, x, rng=None):
        """Noiseless fitness of each row of an (..., N, D) batch."""
        return bbob.rows_values(self.core_values, x)


def task_names():
    return bbob.FUNCTION_NAMES + ("mlp-sine",)


def make_task(name, dim=None, seed=0, sigma0=0.1, noise=False):
    """Build a task by string id; BBOB offsets are drawn from ``seed``.

    mlp-sine has a fixed dimension: ``dim`` is None or that dimension.
    """
    if name == "mlp-sine":
        task = MlpTask(seed=seed)
        if dim not in (None, task.dim):
            raise ValueError(f"mlp-sine has {task.dim} dimensions, not {dim}")
        return task
    if name not in bbob.FUNCTION_NAMES:
        raise ValueError(f"unknown task {name!r}; known: "
                         f"{', '.join(task_names())}")
    if dim is None:
        raise ValueError(f"task {name!r} needs an explicit dimension")
    offset = np.random.default_rng([seed, 0xB0B]).uniform(-5.0, 5.0, dim)
    return bbob.TaskSpec(function=name, dim=dim, offset=offset,
                         sigma0=sigma0, noise=noise)
