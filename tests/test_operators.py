"""Unit tests for learned and white-box genetic operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnga import operators as ops
from attnga.attention import multi_head_sdpa, row_softmax, sdpa
from attnga.features import FITNESS_DIM, rows_crossover_features
from attnga.params import FeatureConfig, LgaParams, unflatten


def _params(seed=0, **cfg_kwargs):
    cfg = FeatureConfig(**cfg_kwargs)
    return LgaParams.random(cfg, np.random.default_rng(seed))


def _archive(rng, e=4, d=3):
    return ops.ParentArchive(
        x=rng.standard_normal((e, d)), f=rng.standard_normal(e) ** 2,
        sigma=rng.uniform(0.05, 0.5, e), age=rng.integers(0, 5, e))


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _selection_logits_oracle(params, f_p, f_c):
    """Two-stage selection attention, written out with loops."""
    w = {k: np.asarray(v, dtype=np.float64)
         for k, v in params.weights.items()}
    dk = params.cfg.d_k
    q, k, v = f_p @ w["sel_q"][0], f_c @ w["sel_k"][0], f_c @ w["sel_v"][0]
    attn = np.zeros((f_p.shape[0], dk))
    for i in range(f_p.shape[0]):
        weights = _softmax(np.array([q[i] @ k[j] / np.sqrt(dk)
                                     for j in range(f_c.shape[0])]))
        attn[i] = weights @ v
    logits = (attn @ w["sel_q2"]) @ (f_c @ w["sel_k2"]).T / np.sqrt(dk)
    return np.concatenate([logits, np.ones((f_p.shape[0], 1))], axis=1)


def test_selection_logits_match_loop_oracle():
    rng = np.random.default_rng(10)
    params = _params(11)
    for _ in range(20):
        e, n = rng.integers(1, 9, size=2)
        f_p = rng.standard_normal((e, 3))
        f_c = rng.standard_normal((n, 3))
        np.testing.assert_allclose(
            ops.selection_logits(params, f_p, f_c),
            _selection_logits_oracle(params, f_p, f_c),
            rtol=1e-12, atol=1e-12)


def _unfolded(w, prefix, f_q, f_kv):
    """Per-head projections through ``multi_head_sdpa``, as in the paper."""
    heads = [tuple(f @ w[f"{prefix}_{p}"][..., h, :, :]
                   for f, p in ((f_q, "q"), (f_kv, "k"), (f_kv, "v")))
             for h in range(w[f"{prefix}_q"].shape[-3])]
    return multi_head_sdpa(heads, w.get(f"{prefix}_out"))


def _fold_case(heads, lead, seed, **cfg_kwargs):
    """float32 weights with leading axes ``lead``, and their float64 copy."""
    cfg = FeatureConfig(heads=heads, **cfg_kwargs)
    rng = np.random.default_rng(seed)
    n_params = LgaParams.zeros(cfg).n_params
    w32 = unflatten(cfg, (0.5 * rng.standard_normal(lead + (n_params,)))
                    .astype(np.float32))
    return w32, {k: v.astype(np.float64) for k, v in w32.items()}, rng


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_folded_selection_core_matches_unfolded_attention(heads, lead):
    w32, w, rng = _fold_case(heads, lead, 30 + heads)
    f_p = rng.standard_normal(lead + (5, 3))
    f_c = rng.standard_normal(lead + (7, 3))
    keys = np.swapaxes(f_c @ w["sel_k2"], -1, -2)
    expected = (_unfolded(w, "sel", f_p, f_c) @ w["sel_q2"]) @ keys / 4.0
    folded = ops.fold_selection(w32)
    assert folded.value.shape == lead + (3 * heads, 3)
    out = np.ones(lead + (5, 8))
    assert ops.selection_core(folded, f_p, f_c, out) is out
    np.testing.assert_allclose(out[..., :-1], expected, rtol=1e-12,
                               atol=1e-12)
    assert np.all(out[..., -1] == 1.0)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_folded_mra_core_matches_unfolded_attention(heads, lead):
    w32, w, rng = _fold_case(heads, lead, 40 + heads)
    feats = rng.standard_normal(lead + (6, 5))
    log_delta = 0.5 * (_unfolded(w, "mra", feats, feats)
                       @ w["mra_sigma"])[..., 0]
    folded = ops.fold_mra(w32)
    assert folded.value.shape == lead + (5 * heads, 1)
    np.testing.assert_allclose(ops.mra_core(folded, feats),
                               np.exp(np.clip(log_delta, -10.0, 10.0)),
                               rtol=1e-12, atol=0.0)


def test_folded_forms_are_the_scaled_projection_products():
    """A_h = W_q,h W_k,h^T / sqrt(d_k): 3x3 and 5x5 per head."""
    params = _params(5, heads=2)
    w = {k: v.astype(np.float64) for k, v in params.weights.items()}
    for fold, prefix, d in ((ops.fold_selection, "sel", 3),
                            (ops.fold_mra, "mra", 5)):
        folded = fold(params.weights)
        assert len(folded.forms) == 2
        for h, form in enumerate(folded.forms):
            assert form.shape == (d, d)
            np.testing.assert_allclose(
                form, w[f"{prefix}_q"][h] @ w[f"{prefix}_k"][h].T / 4.0,
                rtol=1e-15)


def test_zero_weight_selection_probabilities():
    """All-zero weights leave only the constant keep-parent logit."""
    params = LgaParams.zeros()
    f_p = np.random.default_rng(12).standard_normal((2, 3))
    f_c = np.random.default_rng(13).standard_normal((3, 3))
    probs = ops.learned_selection_probs(params, f_p, f_c)
    expected = _softmax(np.array([0.0, 0.0, 0.0, 1.0]))
    np.testing.assert_allclose(probs, np.tile(expected, (2, 1)), atol=1e-12)
    np.testing.assert_allclose(probs[0, :3], 0.17488, atol=5e-6)
    np.testing.assert_allclose(probs[0, 3], 0.47537, atol=5e-6)


def test_selection_feature_width_validation():
    params = _params(14)
    with pytest.raises(ValueError):
        ops.selection_logits(params, np.zeros((2, 4)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ops.selection_logits(params, np.zeros((2, 3)), np.zeros((3, 2)))


def test_categorical_indices_match_searchsorted():
    """Both CDF paths: many short rows, and few long ones."""
    rng = np.random.default_rng(15)
    for shape in [(50, 7), (3, 40), (5, 32, 65), (64, 16, 17)]:
        probs = row_softmax(rng.standard_normal(shape).reshape(-1, shape[-1]))
        u = rng.random(probs.shape[0])
        idx = ops.categorical_indices(probs.reshape(shape),
                                      u.reshape(shape[:-1]))
        expected = np.array([np.searchsorted(np.cumsum(p), ui, side="right")
                             for p, ui in zip(probs, u)])
        np.testing.assert_array_equal(idx.ravel(),
                                      np.minimum(expected, shape[-1] - 1))


def test_sample_selection_is_one_hot():
    rng = np.random.default_rng(16)
    probs = row_softmax(rng.standard_normal((6, 5)))
    sample = ops.sample_selection(probs, rng)
    assert sample.shape == probs.shape
    np.testing.assert_array_equal(sample.sum(axis=1), np.ones(6))
    assert set(np.unique(sample)) <= {0.0, 1.0}


def test_apply_selection_semantics():
    rng = np.random.default_rng(17)
    arch = _archive(rng, e=3, d=2)
    child_x = rng.standard_normal((2, 2))
    child_f = np.array([0.5, 0.7])
    child_sigma = np.array([0.2, 0.3])
    # Parent 0 keeps, parents 1 and 2 both take child 1.
    sample = np.array([[0, 0, 1], [0, 1, 0], [0, 1, 0]], dtype=float)
    before = [getattr(arch, name).copy() for name in ("x", "f", "sigma",
                                                      "age")]
    new = ops.apply_selection(sample, child_x, child_f, child_sigma, arch)
    for name, old in zip(("x", "f", "sigma", "age"), before):
        np.testing.assert_array_equal(getattr(arch, name), old,
                                      err_msg=name)   # input left as it was
    assert new.age[0] == arch.age[0] + 1
    np.testing.assert_array_equal(new.x[0], arch.x[0])
    for row in (1, 2):
        np.testing.assert_array_equal(new.x[row], child_x[1])
        assert new.f[row] == 0.7 and new.sigma[row] == 0.3
        assert new.age[row] == 0
    with pytest.raises(ValueError):
        ops.apply_selection(sample[:, :2], child_x, child_f, child_sigma,
                            arch)


def _mra_oracle(params, feats):
    w = {k: np.asarray(v, dtype=np.float64)
         for k, v in params.weights.items()}
    dk = params.cfg.d_k
    q, k, v = feats @ w["mra_q"][0], feats @ w["mra_k"][0], \
        feats @ w["mra_v"][0]
    out = np.zeros(feats.shape[0])
    for i in range(feats.shape[0]):
        weights = _softmax(np.array([q[i] @ k[j] / np.sqrt(dk)
                                     for j in range(feats.shape[0])]))
        out[i] = 0.5 * ((weights @ v) @ w["mra_sigma"][:, 0])
    return np.exp(np.clip(out, -10.0, 10.0))


def test_mra_multiplier_matches_loop_oracle():
    rng = np.random.default_rng(18)
    params = _params(19)
    for _ in range(20):
        feats = rng.standard_normal((int(rng.integers(1, 10)), 5))
        np.testing.assert_allclose(ops.mra_multiplier(params, feats),
                                   _mra_oracle(params, feats),
                                   rtol=1e-12, atol=1e-12)


def test_mra_multiplier_is_clamped():
    cfg = FeatureConfig()
    params = LgaParams.zeros(cfg)
    params.weights["mra_v"][:] = 100.0
    params.weights["mra_sigma"][:] = 100.0
    feats = np.ones((4, 5))
    delta = ops.mra_multiplier(params, feats)
    assert np.all(delta <= np.exp(10.0) + 1e-6)
    params.weights["mra_sigma"][:] = -100.0
    delta = ops.mra_multiplier(params, feats)
    assert np.all(delta >= np.exp(-10.0) - 1e-30)


def _unfolded_per_row(w, prefix, feats, tail=None):
    """sdpa self-attention of each (rows, d) block of ``feats`` alone.

    The output is then multiplied by weight ``tail``, if given. The weights
    carry the last leading axes of the blocks (a coordinate axis may lead).
    """
    lead = w[f"{prefix}_q"].shape[:-2]
    out = []
    for idx in np.ndindex(feats.shape[:-2]):
        wi = {name: v[idx[len(idx) - len(lead):]] for name, v in w.items()}
        f = feats[idx]
        attn = sdpa(*(f @ wi[f"{prefix}_{p}"] for p in ("q", "k", "v")))
        out.append(attn if tail is None else attn @ wi[tail])
    return np.reshape(out, feats.shape[:-1] + (-1,))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_folded_sampling_core_matches_unfolded_attention(lead):
    w32, w, rng = _fold_case(1, lead, 50, with_sampling=True)
    feats = rng.standard_normal(lead + (6, 4))
    raw = _unfolded_per_row(w, "smp", feats)[..., 0]
    folded = ops.fold(w32, "smp")
    assert folded.forms[0].shape == lead + (4, 4)
    assert folded.value.shape == lead + (4, 1)
    np.testing.assert_allclose(ops.sampling_core(folded, feats),
                               row_softmax(raw.reshape(-1, 6))
                               .reshape(raw.shape), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_folded_crossover_core_matches_unfolded_attention(lead):
    w32, w, rng = _fold_case(1, lead, 60, with_crossover=True)
    feats = rng.standard_normal((4,) + lead + (6, 5))   # 4 coordinates
    x = rng.standard_normal(lead + (6, 4))
    delta = _unfolded_per_row(w, "co", feats, tail="co_dx")[..., 0]
    folded = ops.fold(w32, "co", w32["co_dx"])
    assert folded.forms[0].shape == lead + (5, 5)
    assert folded.value.shape == lead + (5, 1)
    np.testing.assert_allclose(ops.crossover_core(folded, feats, x),
                               x + np.moveaxis(delta, 0, -1), rtol=1e-12,
                               atol=1e-12)


def test_learned_sampling_probs_is_distribution():
    """Positive probabilities over the archive members, summing to one."""
    params = _params(22, with_sampling=True)
    rng = np.random.default_rng(23)
    feats = np.column_stack([rng.standard_normal((6, 3)),
                             np.tanh(rng.integers(0, 40, 6) / 20.0)])
    probs = ops.sampling_core(ops.fold(params.weights, "smp"), feats)
    assert probs.shape == (6,)
    assert np.all(probs > 0.0)
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)


def _crossover_oracle(params, feats, x):
    """Dimension-by-dimension reference for the learned recombination."""
    w = {k: np.asarray(v, dtype=np.float64)
         for k, v in params.weights.items()}
    dk = params.cfg.d_k
    out = x.copy()
    for dim in range(x.shape[1]):
        col = x[:, dim]
        std = col.std()
        if std < 1e-10:
            zs = np.zeros_like(col)
            dist = np.zeros_like(col)
        else:
            zs = (col - col.mean()) / std
            dist = np.abs(col - col.mean()) / std
        f = np.column_stack([feats, zs, dist])
        q, k, v = f @ w["co_q"], f @ w["co_k"], f @ w["co_v"]
        for i in range(x.shape[0]):
            weights = _softmax(np.array([q[i] @ k[j] / np.sqrt(dk)
                                         for j in range(x.shape[0])]))
            out[i, dim] += (weights @ v) @ w["co_dx"][:, 0]
    return out


def test_learned_crossover_matches_per_dimension_oracle():
    """Features, fold and core together, a coordinate converged too."""
    params = _params(24, with_crossover=True)
    folded = ops.fold(params.weights, "co", params.weights["co_dx"])
    rng = np.random.default_rng(25)
    for _ in range(10):
        e, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        f = rng.standard_normal(e)
        x = rng.standard_normal((e, d))
        x[:, 0] = 0.5
        feats = rows_crossover_features(f, x, 0.0, np.empty((d, e, 5)))
        np.testing.assert_allclose(
            ops.crossover_core(folded, feats, x),
            _crossover_oracle(params, feats[0, :, :FITNESS_DIM], x),
            rtol=1e-10, atol=1e-10)


def test_uniform_sampling_and_mutation():
    rng = np.random.default_rng(26)
    arch = _archive(rng, e=5, d=2)
    idx, x, f, sigma = ops.uniform_sample_parents(arch, 100, rng)
    assert idx.shape == (100,) and np.all((idx >= 0) & (idx < 5))
    np.testing.assert_array_equal(x, arch.x[idx])

    mut_rng = np.random.default_rng(27)
    sigma_c = np.full(100, 0.5)
    x_c = ops.gaussian_mutate(x, sigma_c, mut_rng)
    expected = x + 0.5 * np.random.default_rng(27).standard_normal(x.shape)
    np.testing.assert_array_equal(x_c, expected)
    with pytest.raises(ValueError):
        ops.gaussian_mutate(x, -sigma_c, mut_rng)


def _truncation_oracle(child_x, child_f, child_sigma, archive):
    """Joint sort with (fitness, children-first, index) keys."""
    entries = []
    for i, f in enumerate(child_f):
        entries.append((f, 0, i, child_x[i], child_sigma[i], 0))
    for i, f in enumerate(archive.f):
        entries.append((f, 1, i, archive.x[i], archive.sigma[i],
                        archive.age[i] + 1))
    entries.sort(key=lambda t: (t[0], t[1], t[2]))
    top = entries[:archive.size]
    return (np.array([t[3] for t in top]), np.array([t[0] for t in top]),
            np.array([t[4] for t in top]), np.array([t[5] for t in top]))


def test_truncation_selection_matches_oracle_and_tie_breaks():
    rng = np.random.default_rng(28)
    for _ in range(50):
        e, n, d = (int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                   int(rng.integers(1, 4)))
        arch = _archive(rng, e=e, d=d)
        child_x = rng.standard_normal((n, d))
        child_f = rng.integers(0, 4, n).astype(float)     # force ties
        arch.f[:] = rng.integers(0, 4, e).astype(float)
        child_sigma = rng.uniform(0.1, 1.0, n)
        new = ops.truncation_selection(child_x, child_f, child_sigma, arch)
        ox, of, osigma, oage = _truncation_oracle(child_x, child_f,
                                                  child_sigma, arch)
        np.testing.assert_array_equal(new.x, ox)
        np.testing.assert_array_equal(new.f, of)
        np.testing.assert_array_equal(new.sigma, osigma)
        np.testing.assert_array_equal(new.age, oage)


def _lexsort_truncation(child_x, child_f, child_sigma, archive):
    """Truncation by the 3-key sort (fitness, parent flag, index)."""
    n, e = child_f.size, archive.size
    pool_f = np.concatenate([child_f, archive.f])
    is_parent = np.concatenate([np.zeros(n), np.ones(e)])
    index = np.concatenate([np.arange(n), np.arange(e)])
    order = np.lexsort((index, is_parent, pool_f))[:e]
    return (np.concatenate([child_x, archive.x])[order], pool_f[order],
            np.concatenate([child_sigma, archive.sigma])[order],
            np.concatenate([np.zeros(n, dtype=np.int64),
                            archive.age + 1])[order])


def test_truncation_selection_matches_lexsort_reference():
    """Heavy ties, +inf (never evaluated) parents and +-0.0 fitness."""
    rng = np.random.default_rng(32)
    values = np.array([-0.0, 0.0, 1.0, -1.0, np.inf])
    for _ in range(300):
        e, n, d = (int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                   int(rng.integers(1, 4)))
        arch = _archive(rng, e=e, d=d)
        arch.f[:] = rng.choice(values, e)
        child_f = rng.choice(values[:4], n)
        child_x = rng.standard_normal((n, d))
        child_sigma = rng.uniform(0.1, 1.0, n)
        new = ops.truncation_selection(child_x, child_f, child_sigma, arch)
        want = _lexsort_truncation(child_x, child_f, child_sigma, arch)
        for got, expected in zip((new.x, new.f, new.sigma, new.age), want):
            assert got.tobytes() == expected.tobytes()
            assert got.dtype == expected.dtype


def test_mr_one_fifth_threshold_and_clamps():
    assert ops.mr_one_fifth(0.1, successes=2, trials=10) == 0.2  # ratio 0.2
    assert ops.mr_one_fifth(0.1, successes=1, trials=10) == 0.05
    assert ops.mr_one_fifth(1e-8, 0, 10) == 1e-8       # lower clamp
    assert ops.mr_one_fifth(1e3, 10, 10) == 1e3        # upper clamp
    with pytest.raises(ValueError):
        ops.mr_one_fifth(0.1, 0, 0)


def test_samr_adapt_values_and_balance():
    rng = np.random.default_rng(29)
    sigma = np.full(20_000, 0.1)
    new = ops.samr_adapt(sigma, 2.0, rng)
    assert set(np.round(np.unique(new), 12)) == {0.05, 0.2}
    frac_up = np.mean(new == 0.2)
    assert 0.48 < frac_up < 0.52
    # At the upper clamp the doubling branch saturates at 1e3.
    clamped = ops.samr_adapt(np.full(50, 1e3), 2.0, rng)
    assert set(np.unique(clamped)) == {500.0, 1000.0}
    with pytest.raises(ValueError):
        ops.samr_adapt(np.array([0.1, -0.1]), 2.0, rng)


def test_gesmr_adapt_elite_keeps_rate():
    rng = np.random.default_rng(30)
    sigma = np.array([0.1, 0.2, 0.4, 0.8])
    improvements = np.array([3.0, -1.0, -1.0, 2.0])  # tie: group 1 wins
    new = ops.gesmr_adapt(sigma, improvements, rng)
    assert new[1] == 0.2
    others = np.delete(new, 1)
    assert np.all(others >= 0.1 - 1e-12) and np.all(others <= 0.4 + 1e-12)
    with pytest.raises(ValueError):
        ops.gesmr_adapt(sigma, improvements[:2], rng)


def test_gesmr_adapt_resamples_within_one_octave():
    rng = np.random.default_rng(31)
    sigma = np.full(1000, 0.3)
    improvements = np.arange(1000, dtype=float)
    new = ops.gesmr_adapt(sigma, improvements, rng)
    assert new[0] == 0.3
    assert np.all(new >= 0.15 - 1e-12) and np.all(new <= 0.6 + 1e-12)


def test_one_generator_draws_over_all_leading_axes():
    """One generator draws the per-run shape once; leading axes share it.

    This is how the M candidates of a sweep share every draw: each
    candidate's slice equals that candidate's own call on a fresh
    generator.
    """
    rng = np.random.default_rng(33)
    archives = [_archive(rng, e=5, d=2) for _ in range(3)]
    batch = ops.ParentArchive(*(np.stack([getattr(a, name) for a in archives])
                                for name in ("x", "f", "sigma", "age")))
    x = rng.standard_normal((3, 4, 2))
    sigma = np.array([[0.1, 0.2, 0.4, 0.8]] * 3)
    improvements = np.array([[0.0, 1, 2, 3], [3, 0, 1, 2], [3, 2, 1, 0]])

    idx, x_p, f_p, sigma_p = ops.uniform_sample_parents(
        batch, 6, np.random.default_rng(0))
    assert idx.shape == (6,)
    x_c = ops.gaussian_mutate(x, sigma, np.random.default_rng(1))
    rates = ops.samr_adapt(sigma, 2.0, np.random.default_rng(2))
    groups = ops.gesmr_adapt(sigma, improvements, np.random.default_rng(3))
    for r, arch in enumerate(archives):
        alone = ops.uniform_sample_parents(arch, 6, np.random.default_rng(0))
        np.testing.assert_array_equal(idx, alone[0])
        for got, want in zip((x_p, f_p, sigma_p), alone[1:]):
            np.testing.assert_array_equal(got[r], want)
        np.testing.assert_array_equal(x_c[r], ops.gaussian_mutate(
            x[r], sigma[r], np.random.default_rng(1)))
        np.testing.assert_array_equal(rates[r], ops.samr_adapt(
            sigma[r], 2.0, np.random.default_rng(2)))
        np.testing.assert_array_equal(groups[r], ops.gesmr_adapt(
            sigma[r], improvements[r], np.random.default_rng(3)))
    # Every row saw the same draws.
    noise = (x_c - x) / sigma[..., None]
    np.testing.assert_allclose(noise[0], noise[2], rtol=1e-12)
    u = np.random.default_rng(2).random(4)
    np.testing.assert_array_equal(rates, np.where(u < 0.5, 2.0, 0.5) * sigma)


def test_one_generator_per_run_draws_each_run_alone():
    rng = np.random.default_rng(32)
    archives = [_archive(rng, e=5, d=2) for _ in range(3)]
    batch = ops.ParentArchive(*(np.stack([getattr(a, name) for a in archives])
                                for name in ("x", "f", "sigma", "age")))
    sigma = rng.uniform(0.1, 1.0, (3, 6))

    def gens():
        return [np.random.default_rng(seed) for seed in (5, 6, 7)]

    idx, x, f, sigma_p = ops.uniform_sample_parents(batch, 6, gens())
    x_c = ops.gaussian_mutate(x, sigma, gens())
    rates = ops.samr_adapt(sigma, 2.0, gens())
    groups = ops.gesmr_adapt(sigma, -sigma, gens())
    for r, arch in enumerate(archives):
        alone = ops.uniform_sample_parents(arch, 6, gens()[r])
        for got, want in zip((idx, x, f, sigma_p), alone):
            np.testing.assert_array_equal(got[r], want)
        np.testing.assert_array_equal(
            x_c[r], ops.gaussian_mutate(x[r], sigma[r], gens()[r]))
        np.testing.assert_array_equal(
            rates[r], ops.samr_adapt(sigma[r], 2.0, gens()[r]))
        np.testing.assert_array_equal(
            groups[r], ops.gesmr_adapt(sigma[r], -sigma[r], gens()[r]))
    with pytest.raises(ValueError, match="one per run"):
        ops.gaussian_mutate(x, sigma, gens()[:2])


def test_parent_archive_validation():
    with pytest.raises(ValueError):
        ops.ParentArchive(np.zeros((2, 2)), np.zeros(2),
                          np.array([0.1, 0.0]), np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        ops.ParentArchive(np.zeros((2, 2)), np.zeros(2),
                          np.array([0.1, 0.1]), np.array([0, -1]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_selection_probs_permutation_equivariance(e, n, seed):
    rng = np.random.default_rng(seed)
    params = _params(seed + 1)
    f_p = rng.standard_normal((e, 3))
    f_c = rng.standard_normal((n, 3))
    probs = ops.learned_selection_probs(params, f_p, f_c)
    perm_p, perm_c = rng.permutation(e), rng.permutation(n)
    by_parents = ops.learned_selection_probs(params, f_p[perm_p], f_c)
    np.testing.assert_allclose(by_parents, probs[perm_p], atol=1e-9)
    by_children = ops.learned_selection_probs(params, f_p, f_c[perm_c])
    np.testing.assert_allclose(by_children[:, :n], probs[:, perm_c],
                               atol=1e-9)
    np.testing.assert_allclose(by_children[:, n], probs[:, n], atol=1e-9)
