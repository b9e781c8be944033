"""What the configs accept as an integer size or count.

A size that arrives as a float or a bool is rejected when the config is
built, naming the field, instead of failing later inside numpy or
``range`` with a ``TypeError``.
"""

import numpy as np

__all__ = ["check_integers", "is_integer"]


def is_integer(value):
    """True for an int or a numpy integer; False for a bool or a float,
    even a whole one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def check_integers(**values):
    """Raise ``ValueError`` naming the first value that is no integer."""
    for name, value in values.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
