"""BBOB-style test functions, task specs and task-family sampling.

The function cores are the un-rotated variants: tasks vary only the optimum
offset, the evaluation noise and the dimension. Every noiseless core has
value 0 at its optimum (the Rosenbrock core at the all-ones point; the
linear slope's optimum sits on the box boundary).
"""

from dataclasses import dataclass

import numpy as np

from .checks import POSITIVE, at_least, check_fields, one_of
from .draws import per_run

__all__ = [
    "TaskSpec",
    "TaskFamily",
    "core_function",
    "rows_values",
    "sample_task",
    "FUNCTION_NAMES",
    "META_TRAIN_FUNCTIONS",
    "HOLD_OUT_FUNCTIONS",
    "NOISE_BETA",
    "SIGMA0_RANGE",
]

NOISE_BETA = 0.01
# Sampled tasks draw their suggested initial mutation rate from this range.
SIGMA0_RANGE = (0.01, 0.5)
# Floor applied to raw fitness before the multiplicative noise.
_NOISE_FLOOR = 1e-12


def _t_osz(x):
    """Standard oscillation transform; maps 0 to 0."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.where(x != 0.0, np.log(np.abs(np.where(x == 0.0, 1.0, x))), 0.0)
    c1 = np.where(x > 0.0, 10.0, 5.5)
    c2 = np.where(x > 0.0, 7.9, 3.1)
    return np.sign(x) * np.exp(
        xhat + 0.049 * (np.sin(c1 * xhat) + np.sin(c2 * xhat)))


def _axis_weights(d, exponent_scale):
    if d == 1:
        return np.ones(1)
    return 10.0 ** (exponent_scale * np.arange(d) / (d - 1))


def _sphere(z):
    return np.sum(z ** 2, axis=-1)


def _rosenbrock(z):
    a = z[..., :-1]
    b = z[..., 1:]
    return np.sum(100.0 * (a ** 2 - b) ** 2 + (a - 1.0) ** 2, axis=-1)


def _discus(z):
    return 1e6 * z[..., 0] ** 2 + np.sum(z[..., 1:] ** 2, axis=-1)


def _rastrigin(z):
    d = z.shape[-1]
    return (10.0 * (d - np.sum(np.cos(2.0 * np.pi * z), axis=-1))
            + np.sum(z ** 2, axis=-1))


_SCHWEFEL_SHIFT = 420.968746
_SCHWEFEL_TERM = _SCHWEFEL_SHIFT * np.sin(np.sqrt(_SCHWEFEL_SHIFT))


def _schwefel(z):
    w = z + _SCHWEFEL_SHIFT
    d = z.shape[-1]
    return d * _SCHWEFEL_TERM - np.sum(
        w * np.sin(np.sqrt(np.abs(w))), axis=-1)


def _bueche_rastrigin(z):
    d = z.shape[-1]
    s = _axis_weights(d, 0.5)
    odd_boost = np.where((np.arange(d) % 2 == 0) & (z > 0.0), 10.0, 1.0)
    y = odd_boost * s * _t_osz(z)
    return (10.0 * (d - np.sum(np.cos(2.0 * np.pi * y), axis=-1))
            + np.sum(y ** 2, axis=-1))


def _attractive_sector(z):
    s = np.where(z > 0.0, 100.0, 1.0)
    return _t_osz(np.sum((s * z) ** 2, axis=-1)) ** 0.9


_WEIERSTRASS_K = np.arange(12)
_WEIERSTRASS_A = 0.5 ** _WEIERSTRASS_K
_WEIERSTRASS_B = 3.0 ** _WEIERSTRASS_K
_WEIERSTRASS_BIAS = np.sum(_WEIERSTRASS_A * np.cos(np.pi * _WEIERSTRASS_B))


def _weierstrass(z):
    d = z.shape[-1]
    terms = _WEIERSTRASS_A * np.cos(
        2.0 * np.pi * _WEIERSTRASS_B * (z[..., None] + 0.5))
    return np.sum(terms, axis=(-1, -2)) - d * _WEIERSTRASS_BIAS


def _schaffers_f7(z):
    s = np.sqrt(z[..., :-1] ** 2 + z[..., 1:] ** 2)
    inner = np.sqrt(s) * (1.0 + np.sin(50.0 * s ** 0.2) ** 2)
    return (np.mean(inner, axis=-1)) ** 2


def _griewank_rosenbrock(z):
    w = z + 1.0
    s = 100.0 * (w[..., :-1] ** 2 - w[..., 1:]) ** 2 + (w[..., :-1] - 1.0) ** 2
    d = z.shape[-1]
    return 10.0 / (d - 1.0) * np.sum(s / 4000.0 - np.cos(s), axis=-1) + 10.0


def _ellipsoidal(z):
    return np.sum(_axis_weights(z.shape[-1], 6.0) * z ** 2, axis=-1)


def _linear_slope(z):
    # Optimum at the upper box boundary; monotone decreasing in every
    # coordinate, so it is tested via monotonicity rather than a zero value.
    s = _axis_weights(z.shape[-1], 1.0)
    return np.sum(s * (5.0 - np.clip(z, -5.0, 5.0)), axis=-1)


def _step_ellipsoid(z):
    coarse = np.floor(0.5 + z)
    fine = np.floor(0.5 + 10.0 * z) / 10.0
    y = np.where(np.abs(z) > 0.5, coarse, fine)
    quad = np.sum(_axis_weights(z.shape[-1], 2.0) * y ** 2, axis=-1)
    return 0.1 * np.maximum(np.abs(z[..., 0]) / 1e4, quad)


def _sharp_ridge(z):
    return z[..., 0] ** 2 + 100.0 * np.sqrt(np.sum(z[..., 1:] ** 2, axis=-1))


def _different_powers(z):
    d = z.shape[-1]
    exponents = 2.0 + (4.0 * np.arange(d) / (d - 1) if d > 1
                       else np.zeros(1))
    return np.sqrt(np.sum(np.abs(z) ** exponents, axis=-1))


META_TRAIN_FUNCTIONS = (
    "sphere",
    "rosenbrock", "discus", "rastrigin", "schwefel",
    "bueche_rastrigin", "attractive_sector", "weierstrass",
    "schaffers_f7", "griewank_rosenbrock",
)
HOLD_OUT_FUNCTIONS = (
    "ellipsoidal", "linear_slope", "step_ellipsoid", "sharp_ridge",
    "different_powers",
)

_CORES = {
    "sphere": _sphere,
    "rosenbrock": _rosenbrock,
    "discus": _discus,
    "rastrigin": _rastrigin,
    "schwefel": _schwefel,
    "bueche_rastrigin": _bueche_rastrigin,
    "attractive_sector": _attractive_sector,
    "weierstrass": _weierstrass,
    "schaffers_f7": _schaffers_f7,
    "griewank_rosenbrock": _griewank_rosenbrock,
    "ellipsoidal": _ellipsoidal,
    "linear_slope": _linear_slope,
    "step_ellipsoid": _step_ellipsoid,
    "sharp_ridge": _sharp_ridge,
    "different_powers": _different_powers,
}

FUNCTION_NAMES = tuple(_CORES)
# The cores that pair neighbouring coordinates, so need two or more.
_TWO_DIM_FUNCTIONS = ("schaffers_f7", "griewank_rosenbrock")


def core_function(name):
    try:
        return _CORES[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}; known: "
                         f"{', '.join(FUNCTION_NAMES)}") from None


def rows_values(core_values, x):
    """``core_values`` of an (..., N, D) batch as one (rows, D) call."""
    x = np.asarray(x, dtype=np.float64)
    return core_values(x.reshape(-1, x.shape[-1])).reshape(
        x.shape[:-1] or (1,))


@dataclass(frozen=True)
class TaskSpec:
    """One concrete optimization task instance."""

    function: str
    dim: int
    offset: np.ndarray          # optimum location, within [-5, 5]^D
    sigma0: float = 0.1         # suggested initial mutation rate
    noise: bool = False

    RULES = {"function": one_of(FUNCTION_NAMES), "dim": at_least(1),
             "sigma0": POSITIVE, "noise": one_of((False, True))}

    def __post_init__(self):
        check_fields(vars(self), self.RULES)
        if self.dim < 2 and self.function in _TWO_DIM_FUNCTIONS:
            raise ValueError(f"{self.function} needs at least two "
                             f"dimensions, got {self.dim}")
        offset = np.asarray(self.offset, dtype=np.float64)
        if offset.shape != (self.dim,):
            raise ValueError(f"offset must have shape ({self.dim},), got "
                             f"{offset.shape}")
        if not np.all(np.abs(offset) <= 5.0):   # NaN lies in no box
            raise ValueError("offset must lie within [-5, 5]^D")
        object.__setattr__(self, "offset", offset)

    def core_values(self, x):
        """Noiseless fitness of each row of ``x``.

        Overflowing points score ``+inf`` and raise no overflow warning:
        ``engine.run`` rejects them in a run and lets them through in a
        batch of candidates, whose scores meta-training patches.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, "
                             f"got {x.shape[-1]}")
        z = x - self.offset
        if self.function == "rosenbrock":
            z = z + 1.0  # core optimum at the all-ones point
        with np.errstate(over="ignore"):
            return np.atleast_1d(core_function(self.function)(z))

    def evaluate(self, x, rng=None):
        """Fitness of (..., N, D) rows, with log-normal noise if enabled.

        The noise follows ``draws.per_run``: one generator draws one (N,)
        noise vector, shared by any leading axes, and a sequence of R
        generators, one per run of an (R, N, D) batch, draws each run's
        (N,) from that run's own generator, as the run draws it alone.
        """
        values = rows_values(self.core_values, x)
        if self.noise:
            if rng is None:
                raise ValueError("noisy task needs an rng")
            noise = per_run(rng, lambda g, size: g.standard_normal(size),
                            values.shape[-1:], values.shape[:-1])
            values = np.maximum(values, _NOISE_FLOOR) * np.exp(
                NOISE_BETA * noise)
        return values


@dataclass(frozen=True)
class TaskFamily:
    """A distribution over task instances used for meta-training/testing."""

    functions: tuple = META_TRAIN_FUNCTIONS
    dim_range: tuple = (2, 10)
    noise: bool = False

    # The range's entries are checked before the pair, so a bad entry is
    # named by its index.
    RULES = {"functions": (lambda f: f and set(f) <= set(FUNCTION_NAMES),
                           f"one or more of {', '.join(FUNCTION_NAMES)}"),
             "dim_range[0]": at_least(1), "dim_range[1]": at_least(1),
             "dim_range": (lambda pair: pair[0] <= pair[1],
                           "a (low, high) pair with low <= high"),
             "noise": one_of((False, True))}

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        lo, _ = self.dim_range      # a pair, else a ValueError
        check_fields(vars(self), self.RULES)
        for name in _TWO_DIM_FUNCTIONS:
            if lo < 2 and name in self.functions:
                raise ValueError(f"{name} needs at least two dimensions, "
                                 f"but the dimension range starts at {lo}")


def sample_task(family, rng):
    """Draw one task: uniform function id, dimension, offset and sigma0."""
    name = family.functions[rng.integers(0, len(family.functions))]
    lo, hi = family.dim_range
    dim = int(rng.integers(lo, hi + 1))
    offset = rng.uniform(-5.0, 5.0, size=dim)
    sigma0 = float(rng.uniform(*SIGMA0_RANGE))
    # Nothing reads the seed; it is still drawn, so later draws keep their
    # place in the stream.
    rng.integers(0, 2 ** 31 - 1)
    return TaskSpec(function=name, dim=dim, offset=offset, sigma0=sigma0,
                    noise=family.noise)
