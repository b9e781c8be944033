"""Trainable weight matrices of the attention-parametrized genetic operators.

Weights are stored as float32 (checkpoints stay compact, and the meta-search
operates on the float32 values); all kernels upcast to float64 for the
actual arithmetic.
"""

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .checks import at_least, check_fields
from .features import CROSSOVER_DIM, FITNESS_DIM, SIGMA_DIM

__all__ = ["FeatureConfig", "LgaParams", "unflatten", "weight_shapes"]

CHECKPOINT_VERSION = 1

# Feature widths a checkpoint records, which the operators fix.
FEATURE_WIDTHS = {"d_fit": FITNESS_DIM, "d_sigma": SIGMA_DIM,
                  "d_elite": CROSSOVER_DIM}
# Every key of a checkpoint's [config] block.
CONFIG_KEYS = ("d_k", "heads", *FEATURE_WIDTHS, "with_sampling",
               "with_crossover")


@dataclass(frozen=True)
class FeatureConfig:
    """Attention layout of the learned operators and which ones exist."""

    d_k: int = 16
    heads: int = 1
    with_sampling: bool = False
    with_crossover: bool = False

    RULES = {"d_k": at_least(1), "heads": at_least(1)}

    def __post_init__(self):
        check_fields(vars(self), self.RULES)


def weight_shapes(cfg):
    """Ordered name -> shape map; the order fixes the flat-vector layout.

    Per-head query/key/value projections carry a leading head axis; the
    output projections only exist for more than one head (a single head
    feeds its attention output through unprojected).
    """
    h, dk, df = cfg.heads, cfg.d_k, FITNESS_DIM
    dm = FITNESS_DIM + SIGMA_DIM
    shapes = {
        "sel_q": (h, df, dk),
        "sel_k": (h, df, dk),
        "sel_v": (h, df, dk),
        "sel_q2": (dk, dk),
        "sel_k2": (df, dk),
        "mra_q": (h, dm, dk),
        "mra_k": (h, dm, dk),
        "mra_v": (h, dm, dk),
        "mra_sigma": (dk, 1),
    }
    if h > 1:
        shapes["sel_out"] = (h * dk, dk)
        shapes["mra_out"] = (h * dk, dk)
    if cfg.with_sampling:
        shapes["smp_q"] = (df + 1, dk)
        shapes["smp_k"] = (df + 1, dk)
        shapes["smp_v"] = (df + 1, 1)
    if cfg.with_crossover:
        dx = df + CROSSOVER_DIM
        shapes["co_q"] = (dx, dk)
        shapes["co_k"] = (dx, dk)
        shapes["co_v"] = (dx, dk)
        shapes["co_dx"] = (dk, 1)
    return shapes


def unflatten(cfg, vectors):
    """Flat weight vectors (..., P) -> name -> (..., *shape) views."""
    shapes = weight_shapes(cfg)
    sizes = [int(np.prod(s)) for s in shapes.values()]
    if vectors.shape[-1] != sum(sizes):
        raise ValueError(f"expected {sum(sizes)} scalars, "
                         f"got {vectors.shape[-1]}")
    blocks = np.split(vectors, np.cumsum(sizes)[:-1], axis=-1)
    return {name: block.reshape(vectors.shape[:-1] + shape)
            for (name, shape), block in zip(shapes.items(), blocks)}


@dataclass
class LgaParams:
    """A concrete learned-GA instance: config plus named weight matrices.

    The weights of M candidates carry a leading (M,) axis, the same on
    every weight (``shape``); the engine runs such a batch as M candidates
    that share every random draw.
    """

    cfg: FeatureConfig
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = weight_shapes(self.cfg)
        if set(self.weights) != set(shapes):
            missing = set(shapes) - set(self.weights)
            extra = set(self.weights) - set(shapes)
            raise ValueError(f"weight names mismatch: missing={sorted(missing)}"
                             f" extra={sorted(extra)}")
        lead = None
        for name, shape in shapes.items():
            arr = np.asarray(self.weights[name], dtype=np.float32)
            if lead is None:    # the first weight sets the leading axes
                lead = arr.shape[:max(arr.ndim - len(shape), 0)]
            if arr.shape != lead + shape:
                raise ValueError(f"{name}: expected shape {lead + shape}, "
                                 f"got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite weights")
            self.weights[name] = arr

    @property
    def shape(self):
        """Leading axes of every weight: () for one candidate, (M,) for M."""
        return self.weights["mra_sigma"].shape[:-2]

    def _single(self, what):
        if self.shape:
            raise ValueError(f"{what} takes one candidate, not a batch of "
                             f"shape {self.shape}")

    @classmethod
    def zeros(cls, cfg=None):
        cfg = cfg or FeatureConfig()
        return cls(cfg, {n: np.zeros(s, dtype=np.float32)
                         for n, s in weight_shapes(cfg).items()})

    @classmethod
    def random(cls, cfg=None, rng=None, scale=0.1):
        cfg = cfg or FeatureConfig()
        rng = rng if rng is not None else np.random.default_rng()
        return cls(cfg, {
            n: (scale * rng.standard_normal(s)).astype(np.float32)
            for n, s in weight_shapes(cfg).items()
        })

    @property
    def n_params(self):
        return sum(int(np.prod(s)) for s in weight_shapes(self.cfg).values())

    def to_vector(self):
        self._single("to_vector")
        return np.concatenate(
            [self.weights[n].ravel() for n in weight_shapes(self.cfg)]
        ).astype(np.float32)

    @classmethod
    def from_vector(cls, cfg, vec):
        """One candidate from a (P,) vector, or M from (M, P) rows."""
        vec = np.asarray(vec, dtype=np.float32)
        return cls(cfg, {name: w.copy()
                         for name, w in unflatten(cfg, vec).items()})

    def with_extra_operators(self, sampling=False, crossover=False, rng=None,
                             scale=0.1):
        """Copy of these params with sampling/cross-over weights added."""
        cfg = replace(self.cfg,
                      with_sampling=self.cfg.with_sampling or sampling,
                      with_crossover=self.cfg.with_crossover or crossover)
        donor = (LgaParams.random(cfg, rng, scale) if rng is not None
                 else LgaParams.zeros(cfg))
        weights = dict(donor.weights)
        weights.update({n: w.copy() for n, w in self.weights.items()})
        return LgaParams(cfg, weights)

    # -- checkpoint I/O ----------------------------------------------------
    # Plain-text format: a version line, a [config] block and one [matrix *]
    # block per weight with row-major decimal values. float32 values are
    # written with enough digits that parsing is bit-exact. The config block
    # records the fixed feature widths too.

    def save(self, path):
        self._single("save")
        values = {**asdict(self.cfg), **FEATURE_WIDTHS}
        lines = [f"format-version: {CHECKPOINT_VERSION}", "[config]"]
        lines += [f"{key}: {int(values[key])}" for key in CONFIG_KEYS]
        for name in weight_shapes(self.cfg):
            arr = self.weights[name]
            lines.append(f"[matrix {name}]")
            lines.append(f"rows: {arr.shape[0] if arr.ndim > 1 else 1}")
            lines.append("shape: " + " ".join(str(d) for d in arr.shape))
            lines.append(" ".join(_f32_repr(v) for v in arr.ravel()))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines or not lines[0].startswith("format-version:"):
            raise ValueError(f"{path}: missing format-version header")
        version = _parsed(int, lines[0].split(":", 1)[1], path,
                          f"line {lines[0]!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        cfg_kv, matrices = {}, {}
        if lines[1:2] != ["[config]"]:
            raise ValueError(f"{path}: expected [config] block")
        i = 2
        while i < len(lines) and not lines[i].startswith("["):
            key, sep, val = lines[i].partition(":")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}: bad config line {lines[i]!r}")
            if key in cfg_kv:
                raise ValueError(f"{path}: [config] repeats {key}")
            cfg_kv[key] = _parsed(int, val, path, f"config line {lines[i]!r}")
            i += 1
        missing = [key for key in CONFIG_KEYS if key not in cfg_kv]
        if missing:
            raise ValueError(f"{path}: [config] lacks {', '.join(missing)}")
        for key, width in FEATURE_WIDTHS.items():
            if cfg_kv[key] != width:
                raise ValueError(f"{path}: {key} is {cfg_kv[key]}, but the "
                                 f"operators' features have {width} columns")
        cfg = FeatureConfig(**{f.name: type(f.default)(cfg_kv[f.name])
                               for f in fields(FeatureConfig)})
        while i < len(lines):
            header = lines[i]
            if not (header.startswith("[matrix ") and header.endswith("]")):
                raise ValueError(f"{path}: bad block header {header!r}")
            name = header[len("[matrix "):-1]
            if name in matrices:
                raise ValueError(f"{path}: matrix {name} appears twice")
            # The rows line is redundant, kept for readability.
            block = lines[i + 1:i + 4]
            if not (len(block) == 3 and block[0].startswith("rows:")
                    and block[1].startswith("shape:")
                    and not block[2].startswith("[")):
                raise ValueError(f"{path}: matrix {name} needs rows, shape "
                                 f"and value lines")
            _, shape, values = block
            shape = _parsed(lambda t: tuple(int(d) for d in t.split()[1:]),
                            shape, path, f"matrix {name} shape")
            values = np.array(_parsed(
                lambda t: [np.float32(v) for v in t.split()], values, path,
                f"matrix {name} values"), dtype=np.float32)
            if values.size != np.prod(shape, dtype=np.int64):
                raise ValueError(f"{path}: matrix {name} holds {values.size} "
                                 f"values, not the {shape} its shape needs")
            matrices[name] = values.reshape(shape)
            i += 4
        return cls(cfg, matrices)


def _parsed(parse, text, path, where):
    """``parse(text)``; its ``ValueError`` names the file and ``where``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None


def _f32_repr(value):
    """Shortest decimal string that parses back to the same float32."""
    return np.format_float_positional(np.float32(value), unique=True,
                                      trim="0")
