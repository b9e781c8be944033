"""Unit tests for weight layout, flat-vector packing and checkpoints."""

import re

import numpy as np
import pytest

from attnga.params import FeatureConfig, LgaParams, weight_shapes


def _count_oracle(cfg):
    """Independent parameter count from the architecture description.

    Selection reads 3 fitness features, MRA those plus 2 rate features,
    and cross-over those plus 2 per-coordinate columns.
    """
    h, dk, df = cfg.heads, cfg.d_k, 3
    dm = df + 2
    total = 3 * h * df * dk          # selection q/k/v projections
    total += dk * dk + df * dk       # second-stage selection query/key
    total += 3 * h * dm * dk + dk    # MRA q/k/v + sigma head
    if h > 1:
        total += 2 * h * dk * dk     # output projections
    if cfg.with_sampling:
        total += 2 * (df + 1) * dk + (df + 1)
    if cfg.with_crossover:
        total += 3 * (df + 2) * dk + dk
    return total


def test_default_parameter_count():
    assert LgaParams.zeros().n_params == 704


@pytest.mark.parametrize("cfg", [
    FeatureConfig(),
    FeatureConfig(heads=2),
    FeatureConfig(with_sampling=True),
    FeatureConfig(with_crossover=True),
    FeatureConfig(with_sampling=True, with_crossover=True),
    FeatureConfig(d_k=8, heads=3, with_sampling=True, with_crossover=True),
])
def test_parameter_count_matches_oracle(cfg):
    assert LgaParams.zeros(cfg).n_params == _count_oracle(cfg)


def test_vector_round_trip_preserves_layout():
    cfg = FeatureConfig(with_sampling=True, with_crossover=True)
    params = LgaParams.random(cfg, np.random.default_rng(5))
    vec = params.to_vector()
    assert vec.dtype == np.float32 and vec.size == params.n_params
    rebuilt = LgaParams.from_vector(cfg, vec)
    for name in weight_shapes(cfg):
        np.testing.assert_array_equal(rebuilt.weights[name],
                                      params.weights[name])
    with pytest.raises(ValueError):
        LgaParams.from_vector(cfg, vec[:-1])


def test_from_vector_rows_give_a_candidate_batch(tmp_path):
    cfg = FeatureConfig(heads=2, with_crossover=True)
    n = LgaParams.zeros(cfg).n_params
    rows = np.random.default_rng(9).standard_normal((4, n)).astype(np.float32)
    batch = LgaParams.from_vector(cfg, rows)
    assert batch.shape == (4,) and LgaParams.zeros(cfg).shape == ()
    for m, row in enumerate(rows):
        single = LgaParams.from_vector(cfg, row)
        for name, shape in weight_shapes(cfg).items():
            assert batch.weights[name].shape == (4,) + shape
            np.testing.assert_array_equal(batch.weights[name][m],
                                          single.weights[name])
    with pytest.raises(ValueError, match="not a batch"):
        batch.save(tmp_path / "batch.txt")
    with pytest.raises(ValueError, match="not a batch"):
        batch.to_vector()
    assert not (tmp_path / "batch.txt").exists()
    mixed = dict(batch.weights)
    mixed["mra_v"] = mixed["mra_v"][:3]
    with pytest.raises(ValueError, match="mra_v"):
        LgaParams(cfg, mixed)


def test_weight_validation():
    cfg = FeatureConfig()
    good = LgaParams.zeros(cfg).weights
    bad = dict(good)
    del bad["mra_sigma"]
    with pytest.raises(ValueError):
        LgaParams(cfg, bad)
    bad = dict(good)
    bad["sel_q"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        LgaParams(cfg, bad)
    bad = dict(good)
    bad["sel_q"] = np.full_like(good["sel_q"], np.nan)
    with pytest.raises(ValueError):
        LgaParams(cfg, bad)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    cfg = FeatureConfig(with_sampling=True, with_crossover=True)
    params = LgaParams.random(cfg, np.random.default_rng(6), scale=1e3)
    # Sprinkle in values that commonly lose digits in decimal round trips.
    params.weights["mra_sigma"][0, 0] = np.float32(1e-8)
    params.weights["mra_sigma"][1, 0] = np.float32(np.pi)
    params.weights["mra_sigma"][2, 0] = np.float32(-1.0 / 3.0)
    path = tmp_path / "ckpt.txt"
    params.save(path)
    loaded = LgaParams.load(path)
    assert loaded.cfg == cfg
    for name in weight_shapes(cfg):
        np.testing.assert_array_equal(
            loaded.weights[name].view(np.uint32),
            params.weights[name].view(np.uint32))


def test_checkpoint_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("format-version: 99\n[config]\n")
    with pytest.raises(ValueError):
        LgaParams.load(path)
    path.write_text("hello\n")
    with pytest.raises(ValueError):
        LgaParams.load(path)


def _desk_lines(tmp_path):
    path = tmp_path / "ckpt.txt"
    LgaParams.zeros(FeatureConfig()).save(path)
    return path, path.read_text().splitlines()


@pytest.mark.parametrize("keep, match", [
    (lambda lines: lines[:1], "expected \\[config\\] block"),
    (lambda lines: [ln for ln in lines if not ln.startswith("d_fit:")],
     "\\[config\\] lacks d_fit"),
    (lambda lines: [ln for ln in lines if not ln.startswith("heads:")],
     "\\[config\\] lacks heads"),
    (lambda lines: lines[:2] + ["d_k 16"] + lines[3:], "bad config line"),
    (lambda lines: lines[:-1], "matrix mra_sigma needs rows, shape and value"),
    (lambda lines: lines[:11] + lines[12:],     # sel_q's shape line
     "matrix sel_q needs rows, shape and value"),
    (lambda lines: lines[:-1] + [lines[-1] + " 0"],
     "matrix mra_sigma holds 17 values"),
    (lambda lines: lines[:4] + ["heads: 1"] + lines[4:],
     "\\[config\\] repeats heads"),
    (lambda lines: lines + lines[9:13], "matrix sel_q appears twice"),
    (lambda lines: lines[:9] + ["[weights sel_q]"] + lines[10:],
     "bad block header '\\[weights sel_q\\]'"),
])
def test_checkpoint_rejects_malformed_files(tmp_path, keep, match):
    """A missing or repeated block, line or key raises ValueError naming
    the file."""
    path, lines = _desk_lines(tmp_path)
    path.write_text("\n".join(keep(lines)) + "\n")
    with pytest.raises(ValueError, match=match) as info:
        LgaParams.load(path)
    assert str(info.value).startswith(f"{path}: ")


def _replaced(at, line):
    return lambda lines: lines[:at] + [line] + lines[at + 1:]


@pytest.mark.parametrize("edit, match", [
    (_replaced(0, "format-version: x"), "line 'format-version: x': "),
    (_replaced(3, "heads: one"), "config line 'heads: one': "),
    (_replaced(11, "shape: 1 3 x"), "matrix sel_q shape: "),
    (lambda lines: lines[:12] + [lines[12].replace("0.0", "abc", 1)]
     + lines[13:], "matrix sel_q values: .*'abc'"),
], ids=["format-version", "config", "shape", "value"])
def test_checkpoint_rejects_malformed_numbers(tmp_path, edit, match):
    """A number that does not parse raises ValueError naming the file and
    the line or matrix that holds it."""
    path, lines = _desk_lines(tmp_path)
    assert lines[11] == "shape: 1 3 16"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValueError, match=match) as info:
        LgaParams.load(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("key, value", [("d_fit", 4), ("d_sigma", 3),
                                        ("d_elite", 3)])
def test_checkpoint_rejects_other_feature_widths(tmp_path, key, value):
    """The features fix these widths; a checkpoint records them."""
    path = tmp_path / "ckpt.txt"
    LgaParams.zeros(FeatureConfig(with_crossover=True)).save(path)
    lines = path.read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith(key + ":")]
    lines[at] = f"{key}: {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{key} is {value}"):
        LgaParams.load(path)


@pytest.mark.parametrize("key", ["with_sampling", "with_crossover"])
@pytest.mark.parametrize("value", [2, -1])
def test_checkpoint_rejects_operator_flags_other_than_0_or_1(tmp_path, key,
                                                             value):
    """A flag of 2 used to load as True through bool()."""
    path = tmp_path / "ckpt.txt"
    LgaParams.zeros(FeatureConfig(with_sampling=True,
                                  with_crossover=True)).save(path)
    lines = path.read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith(key + ":")]
    assert lines[at] == f"{key}: 1"
    lines[at] = f"{key}: {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {key} "
                       f"must be 0 or 1, got {value}$"):
        LgaParams.load(path)


def test_with_extra_operators_keeps_shared_weights():
    base = LgaParams.random(FeatureConfig(), np.random.default_rng(7))
    extended = base.with_extra_operators(sampling=True, crossover=True,
                                         rng=np.random.default_rng(8))
    assert extended.cfg.with_sampling and extended.cfg.with_crossover
    for name in weight_shapes(base.cfg):
        np.testing.assert_array_equal(extended.weights[name],
                                      base.weights[name])
    assert "smp_q" in extended.weights and "co_dx" in extended.weights
    zeros = base.with_extra_operators(sampling=True)     # no rng: zeros
    assert zeros.cfg.with_sampling and not zeros.cfg.with_crossover
    added = set(weight_shapes(zeros.cfg)) - set(weight_shapes(base.cfg))
    assert "smp_q" in added
    for name in added:
        assert not zeros.weights[name].any()
    for name in weight_shapes(base.cfg):
        np.testing.assert_array_equal(zeros.weights[name],
                                      base.weights[name])


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(heads=0)
    with pytest.raises(ValueError):
        FeatureConfig(d_k=0)
    with pytest.raises(TypeError):
        FeatureConfig(d_fit=4)      # the features fix their widths
