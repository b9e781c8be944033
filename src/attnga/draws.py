"""Random draws of one GA run, or of R runs batched on a leading axis.

A run owns one ``numpy.random.Generator``. R runs advanced together own one
each, passed as a sequence, and each draws exactly what it would draw alone,
in the same order.
"""

import numpy as np

__all__ = ["per_run"]


def per_run(rng, draw, shape):
    """A ``shape`` draw: ``draw(generator, size)`` from one or R generators.

    One generator draws the whole ``shape``. A sequence of one generator per
    run draws ``shape[1:]`` from each, stacked on the leading run axis, whose
    length must be the number of generators.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng, shape)
    if not shape or shape[0] != len(rng):
        raise ValueError(f"{len(rng)} generators for a draw of shape "
                         f"{shape}; need one per run on the leading axis")
    return np.stack([draw(g, shape[1:]) for g in rng])
