"""Random draws of one GA run, or of a batch on a leading axis.

A batch is R runs or M candidates. Callers pass the per-run shape of a
draw and the leading axes of the batch. One ``numpy.random.Generator``
draws that shape once, and every leading axis shares the draw: the M
candidates of a meta-training sweep see the same randomness. R runs own
one generator each, passed as a sequence, and each draws exactly what it
would draw alone, in the same order.
"""

import numpy as np

__all__ = ["per_run"]


def per_run(rng, draw, shape, lead):
    """A ``shape`` draw per run, ``draw(generator, size)``, for ``lead``.

    One generator draws ``shape`` once; the result broadcasts against
    ``lead + shape``. A sequence of one generator per run draws ``shape``
    from each, stacked on the run axis, which must be all of ``lead``.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng, shape)
    if tuple(lead) != (len(rng),):
        raise ValueError(f"{len(rng)} generators for leading axes "
                         f"{tuple(lead)}; need one per run on the leading "
                         "axis")
    return np.array([draw(g, shape) for g in rng])
