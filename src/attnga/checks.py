"""Field checks of the configs, each config's stated once in a rule table.

A rule is ``(test, wording)``: ``test`` holds for each value the field
accepts, and the wording completes "NAME must be ...". Each config checks
its ``RULES`` table with ``check_fields`` when it is built, so a bad value
raises ``ValueError`` naming the field there, not later inside numpy or a
run. An integer size rejects a float or a bool, even a whole one.
"""

import math

import numpy as np

__all__ = ["POSITIVE", "at_least", "check_fields", "is_integer", "one_of"]


def is_integer(value):
    """True for an int or a numpy integer; False for a bool or a float."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def at_least(n):
    """The rule of an integer size or count of at least ``n``."""
    return (lambda v: is_integer(v) and v >= n, f"an integer, at least {n}")


def one_of(choices):
    return (lambda v: v in choices, f"one of {', '.join(map(str, choices))}")


POSITIVE = (lambda v: math.isfinite(v) and v > 0, "positive and finite")


def check_fields(values, rules):
    """Raise ``ValueError`` naming the first field that breaks its rule.

    ``rules`` maps field names to rules, checked in order; the name
    ``field[i]`` stands for entry ``i`` of ``values[field]``.
    """
    for name, (holds, wording) in rules.items():
        field, _, index = name.partition("[")
        value = values[field][int(index[:-1])] if index else values[field]
        if not holds(value):
            raise ValueError(f"{name} must be {wording}, got {value!r}")
