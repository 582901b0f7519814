import dataclasses

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_scaling_map, build_sites, hook_set
from mailpp.autodiff import NonFiniteError, Tensor
from mailpp.encoder import EncoderConfig, classify, image_forward, init_dual_encoder, text_forward
from mailpp.verify import random_toy_model


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(d_t=10, n_heads=4)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(L=0)


def test_output_shapes(tiny_cfg, tiny_model):
    f = text_forward([1, 2, 3], tiny_cfg, tiny_model.text)
    assert f.shape == (tiny_cfg.d_t,)
    patches = rng.derive(0, "in").standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
    g = image_forward(patches, tiny_cfg, tiny_model.image)
    assert g.shape == (tiny_cfg.d_t,)  # projected to the text width regardless of d_v


def test_text_forward_contract(tiny_cfg, tiny_model):
    with pytest.raises(ValueError, match="vocabulary"):
        text_forward([tiny_cfg.vocab_size + 3], tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="exceeds N_t"):
        text_forward(list(range(tiny_cfg.N_t + 1)), tiny_cfg, tiny_model.text)


def test_image_forward_contract(tiny_cfg, tiny_model):
    with pytest.raises(ValueError, match="patch tokens"):
        image_forward(np.ones((tiny_cfg.N_v, tiny_cfg.d_v + 1)), tiny_cfg, tiny_model.image)


def test_hooks_at_init_are_bitwise_identity(tiny_cfg, tiny_model):
    gen = rng.derive(3, "inputs")
    for mode in CouplingMode:
        sites = build_sites(tiny_cfg, mode, 2, 4, rng.derive(4, "s", mode.value), np.float64)
        hooks = hook_set(sites)
        scalings = build_scaling_map(sites)
        tokens = gen.integers(0, tiny_cfg.vocab_size, size=4)
        patches = gen.standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
        assert np.array_equal(
            text_forward(tokens, tiny_cfg, tiny_model.text).data,
            text_forward(tokens, tiny_cfg, tiny_model.text, hooks, scalings).data,
        )
        assert np.array_equal(
            image_forward(patches, tiny_cfg, tiny_model.image).data,
            image_forward(patches, tiny_cfg, tiny_model.image, hooks, scalings).data,
        )


def test_random_agents_change_output(tiny_cfg, tiny_model):
    from mailpp.verify import randomize_sites

    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(5, "s"), np.float64)
    randomize_sites(sites, rng.derive(6, "p"))
    hooks = hook_set(sites)
    scalings = build_scaling_map(sites)
    tokens = [1, 2, 3]
    plain = text_forward(tokens, tiny_cfg, tiny_model.text).data
    hooked = text_forward(tokens, tiny_cfg, tiny_model.text, hooks, scalings).data
    assert not np.array_equal(plain, hooked)
    cos = float(plain @ hooked / (np.linalg.norm(plain) * np.linalg.norm(hooked)))
    assert cos < 1.0


def test_hook_dimension_mismatch_rejected(tiny_cfg, tiny_model):
    from mailpp.agents import AgentLayer
    from mailpp.encoder import HookSet

    bad = HookSet({("text", 0, "1a"): AgentLayer.identity(tiny_cfg.d_t + 1, np.float64)})
    with pytest.raises(ValueError, match="width"):
        bad.validate(tiny_cfg)


def test_feature_norm_finite_nonzero_over_seeds():
    for seed in range(100):
        model = random_toy_model(seed, np.float64, max_blocks=2)
        gen = rng.derive(seed, "inp")
        tokens = gen.integers(0, model.cfg.vocab_size, size=3)
        patches = gen.standard_normal((model.cfg.N_v, model.cfg.d_v))
        for feat in (
            text_forward(tokens, model.cfg, model.text).data,
            image_forward(patches, model.cfg, model.image).data,
        ):
            norm = np.linalg.norm(feat)
            assert np.isfinite(norm) and norm > 0


# ------------------------------------------------------------------
# frozen weights: wrapped once per model, still live and checked


def _features(model, tokens, patches):
    return (
        text_forward(tokens, model.cfg, model.text).data,
        image_forward(patches, model.cfg, model.image).data,
    )


def _edit_in_place(model):
    model.text.blocks[0].mlp.fc2.w[0, 0] += 0.5
    model.text.final_ln.gamma[1] *= -2.0
    model.text.embed[3] += 0.25
    model.image.blocks[1].attn.w_q.b[2] -= 0.75
    model.image.proj.w[0] *= 1.5
    model.image.cls_token[0] += 1.0


def test_in_place_weight_edit_after_a_forward_pass_shows_through(tiny_cfg):
    gen = rng.derive(12, "inputs")
    tokens = [1, 3, 5]
    patches = gen.standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
    model = init_dual_encoder(tiny_cfg, rng.derive(11, "tiny-model"), np.float64)
    before = _features(model, tokens, patches)
    _edit_in_place(model)
    after = _features(model, tokens, patches)
    fresh = init_dual_encoder(tiny_cfg, rng.derive(11, "tiny-model"), np.float64)
    _edit_in_place(fresh)  # edited before any forward pass
    for old, new, ref in zip(before, after, _features(fresh, tokens, patches)):
        assert not np.array_equal(old, new)
        assert np.array_equal(new, ref)


@pytest.mark.parametrize("modality", ["text", "image"])
def test_nan_written_into_a_weight_after_a_forward_pass_raises(tiny_cfg, modality):
    model = init_dual_encoder(tiny_cfg, rng.derive(11, "tiny-model"), np.float32)
    tokens = [1, 3, 5]
    patches = rng.derive(12, "inputs").standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
    _features(model, tokens, patches)
    getattr(model, modality).blocks[1].attn.w_v.b[0] = np.nan
    with pytest.raises(NonFiniteError):
        _features(model, tokens, patches)


@pytest.mark.parametrize(
    "path",
    [
        "text",
        "image.proj",
        "text.blocks",
        "text.blocks.0.ln1",
        "text.blocks.0.ln1.gamma",
        "image.blocks.1.attn.w_o",
        "image.blocks.1.attn.w_o.w",
        "image.blocks.0.mlp.fc1",
    ],
)
def test_weight_fields_cannot_be_rebound(tiny_model, path):
    *parents, field = path.split(".")
    obj = tiny_model
    for part in parents:
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


def test_blocks_cannot_be_replaced_item_by_item(tiny_model):
    with pytest.raises(TypeError):
        tiny_model.text.blocks[0] = tiny_model.text.blocks[1]


# ------------------------------------------------------------------
# batched forward passes: one call per batch equals the stacked per-row calls

_BATCH_TOL = {np.float64: 1e-10, np.float32: 1e-5}


def _paths(seed, dtype):
    """The config and (name, model, hooks, scalings) for a hooked random model and its fused model."""
    from mailpp.agents import fuse_model
    from mailpp.verify import randomize_sites

    model = random_toy_model(seed, dtype)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(seed, "batch-sites"), dtype)
    randomize_sites(sites, rng.derive(seed, "batch-perturb"))
    fused = fuse_model(model, sites)
    return model.cfg, [("hooked", model, hook_set(sites), build_scaling_map(sites)), ("fused", fused, None, None)]


def _mixed_batch(cfg, gen, b, dtype):
    lengths = [1, cfg.N_t] + [int(n) for n in gen.integers(1, cfg.N_t + 1, size=max(b - 2, 0))]
    tokens = [gen.integers(0, cfg.vocab_size, size=n) for n in lengths[:b]]
    patches = gen.standard_normal((b, cfg.N_v, cfg.d_v)).astype(dtype)
    return tokens, patches


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(6))
def test_batch_forward_equals_stacked_rows(seed, dtype):
    from mailpp.verify import relative_error

    cfg, paths = _paths(seed, dtype)
    gen = rng.derive(seed, "batch-inputs")
    for b in (1, 2, 7):
        tokens, patches = _mixed_batch(cfg, gen, b, dtype)
        for name, model, hooks, scalings in paths:
            txt = text_forward(tokens, cfg, model.text, hooks, scalings).data
            img = image_forward(patches, cfg, model.image, hooks, scalings).data
            rows_t = np.stack([text_forward(t, cfg, model.text, hooks, scalings).data for t in tokens])
            rows_v = np.stack([image_forward(p, cfg, model.image, hooks, scalings).data for p in patches])
            assert txt.shape == rows_t.shape == (b, cfg.d_t) and txt.dtype == dtype
            assert img.shape == rows_v.shape == (b, cfg.d_t) and img.dtype == dtype
            assert relative_error(txt, rows_t) <= _BATCH_TOL[dtype], (name, b)
            assert relative_error(img, rows_v) <= _BATCH_TOL[dtype], (name, b)


def test_text_batch_accepts_a_2d_id_array(tiny_cfg, tiny_model):
    ids = rng.derive(13, "ids").integers(0, tiny_cfg.vocab_size, size=(3, 4))
    assert np.array_equal(
        text_forward(ids, tiny_cfg, tiny_model.text).data,
        text_forward([list(r) for r in ids], tiny_cfg, tiny_model.text).data,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batched_hooks_at_init_are_bitwise_identity(dtype):
    for seed in range(4):
        model = random_toy_model(seed, dtype)
        tokens, patches = _mixed_batch(model.cfg, rng.derive(seed, "id-inputs"), 5, dtype)
        plain_t = text_forward(tokens, model.cfg, model.text).data
        plain_v = image_forward(patches, model.cfg, model.image).data
        for mode in CouplingMode:
            sites = build_sites(model.cfg, mode, 2, 4, rng.derive(seed, "id-sites", mode.value), dtype)
            hooks, scalings = hook_set(sites), build_scaling_map(sites)
            assert np.array_equal(plain_t, text_forward(tokens, model.cfg, model.text, hooks, scalings).data)
            assert np.array_equal(plain_v, image_forward(patches, model.cfg, model.image, hooks, scalings).data)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pad_id_does_not_reach_the_features(monkeypatch, dtype):
    import mailpp.encoder

    for seed in range(3):
        cfg, paths = _paths(seed, dtype)
        tokens, _ = _mixed_batch(cfg, rng.derive(seed, "pad-inputs"), 6, dtype)
        for _, model, hooks, scalings in paths:
            feats = []
            for pad in (0, cfg.vocab_size - 1):
                monkeypatch.setattr(mailpp.encoder, "PAD_ID", pad)
                feats.append(text_forward(tokens, cfg, model.text, hooks, scalings).data)
            assert feats[0].tobytes() == feats[1].tobytes()


def test_batch_contract(tiny_cfg, tiny_model):
    from mailpp.training import evaluate

    with pytest.raises(ValueError, match="empty batch"):
        text_forward(np.empty((0, 3), dtype=np.int64), tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="non-empty"):
        text_forward([[1, 2], []], tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="exceeds N_t"):
        text_forward([[1, 2], list(range(tiny_cfg.N_t + 1))], tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="vocabulary"):
        text_forward([[1, 2], [tiny_cfg.vocab_size]], tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="non-empty 1-D"):
        text_forward(np.zeros((2, 2, 2), dtype=np.int64), tiny_cfg, tiny_model.text)
    with pytest.raises(ValueError, match="empty batch"):
        image_forward(np.empty((0, tiny_cfg.N_v, tiny_cfg.d_v)), tiny_cfg, tiny_model.image)
    for shape in (
        (2, tiny_cfg.N_v, tiny_cfg.d_v + 1),
        (2, tiny_cfg.N_v + 1, tiny_cfg.d_v),
        (1, 2, tiny_cfg.N_v, tiny_cfg.d_v),
        (tiny_cfg.d_v,),
    ):
        with pytest.raises(ValueError, match="patch tokens"):
            image_forward(np.ones(shape), tiny_cfg, tiny_model.image)
    with pytest.raises(ValueError, match="non-empty"):
        evaluate(tiny_model, None, np.empty((0, tiny_cfg.N_v, tiny_cfg.d_v)), np.empty(0, dtype=np.int64), [[1, 2]])
    with pytest.raises(ValueError, match="batch"):
        evaluate(tiny_model, None, np.ones((tiny_cfg.N_v, tiny_cfg.d_v)), np.zeros(1, dtype=np.int64), [[1, 2]])


# ------------------------------------------------------------------
# classify


def test_classify_uniform_when_classes_identical():
    img = Tensor(np.asarray([1.0, 0.5]))
    classes = Tensor(np.asarray([[0.3, 0.4]] * 4))
    p = classify(img, classes, temperature=1.0)
    assert np.allclose(p.data, 0.25)


def test_classify_analytic_two_class():
    img = Tensor(np.asarray([1.0, 0.0]))
    classes = Tensor(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
    p = classify(img, classes, temperature=1.0)
    e = np.e
    assert np.allclose(p.data, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-9)


def test_classify_low_temperature_is_one_hot():
    img = Tensor(np.asarray([1.0, 0.2]))
    classes = Tensor(np.asarray([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    p = classify(img, classes, temperature=1e-4).data
    assert p.argmax() == 0
    assert p[0] == pytest.approx(1.0, abs=1e-8)


def test_classify_permutation_equivariance():
    gen = rng.derive(9, "cls")
    img = Tensor(gen.standard_normal(6))
    mat = gen.standard_normal((5, 6))
    p = classify(img, Tensor(mat), temperature=0.3).data
    perm = gen.permutation(5)
    p2 = classify(img, Tensor(mat[perm]), temperature=0.3).data
    assert np.allclose(p2, p[perm], atol=1e-12)


def test_classify_contract():
    img = Tensor(np.asarray([1.0, 0.0]))
    classes = Tensor(np.asarray([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="temperature"):
        classify(img, classes, temperature=0.0)
    with pytest.raises(ValueError, match="zero-norm"):
        classify(Tensor(np.zeros(2)), classes, temperature=1.0)
