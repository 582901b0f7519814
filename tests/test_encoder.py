import dataclasses

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_scaling_map, build_sites
from mailpp.autodiff import NonFiniteError, Tensor
from mailpp.encoder import DualEncoder, EncoderConfig, image_forward, init_dual_encoder, text_forward
from mailpp.training import _probs
from mailpp.verify import random_toy_model


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(d_t=10, n_heads=4)
    with pytest.raises(ValueError, match="positive"):
        EncoderConfig(L=0)


def test_output_shapes(tiny_cfg, tiny_model):
    f = text_forward([1, 2, 3], tiny_model)
    assert f.shape == (tiny_cfg.d_t,)
    patches = rng.derive(0, "in").standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
    g = image_forward(patches, tiny_model)
    assert g.shape == (tiny_cfg.d_t,)  # projected to the text width regardless of d_v


def test_text_forward_contract(tiny_cfg, tiny_model):
    with pytest.raises(ValueError, match="vocabulary"):
        text_forward([tiny_cfg.vocab_size + 3], tiny_model)
    with pytest.raises(ValueError, match="exceeds N_t"):
        text_forward(list(range(tiny_cfg.N_t + 1)), tiny_model)


def test_image_forward_contract(tiny_cfg, tiny_model):
    with pytest.raises(ValueError, match="patch tokens"):
        image_forward(np.ones((tiny_cfg.N_v, tiny_cfg.d_v + 1)), tiny_model)


def test_hooks_at_init_are_bitwise_identity(tiny_cfg, tiny_model):
    gen = rng.derive(3, "inputs")
    for mode in CouplingMode:
        sites = build_sites(tiny_cfg, mode, 2, 4, rng.derive(4, "s", mode.value), np.float64)
        scalings = build_scaling_map(sites)
        tokens = gen.integers(0, tiny_cfg.vocab_size, size=4)
        patches = gen.standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
        assert np.array_equal(
            text_forward(tokens, tiny_model).data,
            text_forward(tokens, tiny_model, scalings).data,
        )
        assert np.array_equal(
            image_forward(patches, tiny_model).data,
            image_forward(patches, tiny_model, scalings).data,
        )


def test_random_agents_change_output(tiny_cfg, tiny_model):
    from mailpp.verify import randomize_sites

    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(5, "s"), np.float64)
    randomize_sites(sites, rng.derive(6, "p"))
    scalings = build_scaling_map(sites)
    tokens = [1, 2, 3]
    plain = text_forward(tokens, tiny_model).data
    hooked = text_forward(tokens, tiny_model, scalings).data
    assert not np.array_equal(plain, hooked)
    cos = float(plain @ hooked / (np.linalg.norm(plain) * np.linalg.norm(hooked)))
    assert cos < 1.0


def test_hook_dimension_mismatch_rejected(tiny_cfg, tiny_model):
    width = tiny_cfg.d_t + 1
    bad = {("text", 0, "1a"): (Tensor(np.ones(width)), Tensor(np.zeros(width)))}
    with pytest.raises(ValueError):
        text_forward([1, 2, 3], tiny_model, bad)


def test_feature_norm_finite_nonzero_over_seeds():
    for seed in range(100):
        model = random_toy_model(seed, np.float64, max_blocks=2)
        gen = rng.derive(seed, "inp")
        tokens = gen.integers(0, model.cfg.vocab_size, size=3)
        patches = gen.standard_normal((model.cfg.N_v, model.cfg.d_v))
        for feat in (
            text_forward(tokens, model).data,
            image_forward(patches, model).data,
        ):
            norm = np.linalg.norm(feat)
            assert np.isfinite(norm) and norm > 0


# frozen_digest() of the tiny_cfg model drawn from derive(11, "tiny-model"): any change to the
# layout, the names, the init distributions or the RNG draw order changes it
_TINY_DIGEST = {
    np.float32: "01400959c5066a7cb983bc6fee101f3fdc6f05584ef1a43fba4c1771e9b14915",
    np.float64: "86948e05d5ace719f6211a6bfca39945b1edcdf6d2e2c778f5072adc4e2b69d9",
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_weights_keep_their_draw_order_and_layout(tiny_cfg, dtype):
    from mailpp.encoder import weight_shapes

    model = init_dual_encoder(tiny_cfg, rng.derive(11, "tiny-model"), dtype)
    assert model.frozen_digest() == _TINY_DIGEST[dtype]
    shapes = {**weight_shapes(tiny_cfg, "text"), **weight_shapes(tiny_cfg, "image")}
    assert {n: a.shape for n, a in model.arrays.items()} == shapes
    assert list(model.arrays) == list(shapes)  # text first, then image


# ------------------------------------------------------------------
# frozen weights: wrapped once per model, still live and checked


def _features(model, tokens, patches):
    return (
        text_forward(tokens, model).data,
        image_forward(patches, model).data,
    )


def _edit_in_place(model):
    model.arrays["frozen/text/block0/mlp/fc2/w"][0, 0] += 0.5
    model.arrays["frozen/text/final_ln/gamma"][1] *= -2.0
    model.arrays["frozen/text/embed"][3] += 0.25
    model.arrays["frozen/image/block1/attn/q/b"][2] -= 0.75
    model.arrays["frozen/image/proj/w"][0] *= 1.5
    model.arrays["frozen/image/cls"][0] += 1.0


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
    model.arrays[f"frozen/{modality}/block1/attn/v/b"][0] = np.nan
    with pytest.raises(NonFiniteError):
        _features(model, tokens, patches)


# Sub-trees of frozen weights (text, text.blocks.0.ln1, ...) and the entries
# of the one arrays table that hold them: each entry under the prefix must
# refuse rebinding and deletion.
_ENTRY_PREFIXES = {
    "text": "frozen/text/",
    "image": "frozen/image/",
    "text.blocks": "frozen/text/block",
    "text.blocks.0.ln1": "frozen/text/block0/ln1/",
    "text.blocks.0.ln1.gamma": "frozen/text/block0/ln1/gamma",
    "image.blocks.1.attn.w_o": "frozen/image/block1/attn/o/",
    "image.blocks.1.attn.w_o.w": "frozen/image/block1/attn/o/w",
    "image.proj": "frozen/image/proj/",
    "image.blocks.0.mlp.fc1": "frozen/image/block0/mlp/fc1/",
}


@pytest.mark.parametrize("path", ["cfg", "arrays", "text.arrays", "image.arrays", *_ENTRY_PREFIXES])
def test_weight_fields_cannot_be_rebound(tiny_model, path):
    assert [f.name for f in dataclasses.fields(tiny_model)] == ["cfg", "arrays"]
    if path.endswith(".arrays") and path != "arrays":
        # One modality's share of the table, replaced as a whole: neither
        # through the table nor by rebinding the model's `arrays` field.
        arrays = tiny_model.arrays
        prefix = f"frozen/{path.split('.')[0]}/"
        share = {name: arr.copy() for name, arr in arrays.items() if name.startswith(prefix)}
        assert share
        with pytest.raises((TypeError, AttributeError)):
            arrays.update(share)
        with pytest.raises(TypeError):
            arrays[prefix + "extra"] = next(iter(share.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_model.arrays = {**arrays, **share}
        return
    if path in _ENTRY_PREFIXES:
        arrays = tiny_model.arrays
        names = [name for name in arrays if name.startswith(_ENTRY_PREFIXES[path])]
        assert names
        for name in names:
            with pytest.raises(TypeError):
                arrays[name] = arrays[name]
            with pytest.raises(TypeError):
                del arrays[name]
        return
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(tiny_model, path, getattr(tiny_model, path))


def test_blocks_cannot_be_replaced_item_by_item(tiny_model):
    arrays = tiny_model.arrays
    with pytest.raises(TypeError):
        arrays["frozen/text/block0/ln1/gamma"] = arrays["frozen/text/block1/ln1/gamma"]
    with pytest.raises(TypeError):
        del arrays["frozen/text/block0/ln1/gamma"]


# ------------------------------------------------------------------
# batched forward passes: one call per batch equals the stacked per-row calls

_BATCH_TOL = {np.float64: 1e-10, np.float32: 1e-5}


def _paths(seed, dtype):
    """The config and (name, model, scalings) for a hooked random model and its fused model."""
    from mailpp.agents import fuse_model
    from mailpp.verify import randomize_sites

    model = random_toy_model(seed, dtype)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(seed, "batch-sites"), dtype)
    randomize_sites(sites, rng.derive(seed, "batch-perturb"))
    fused = fuse_model(model, sites)
    return model.cfg, [("hooked", model, build_scaling_map(sites)), ("fused", fused, None)]


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
        for name, model, scalings in paths:
            txt = text_forward(tokens, model, scalings).data
            img = image_forward(patches, model, scalings).data
            rows_t = np.stack([text_forward(t, model, scalings).data for t in tokens])
            rows_v = np.stack([image_forward(p, model, scalings).data for p in patches])
            assert txt.shape == rows_t.shape == (b, cfg.d_t) and txt.dtype == dtype
            assert img.shape == rows_v.shape == (b, cfg.d_t) and img.dtype == dtype
            assert relative_error(txt, rows_t) <= _BATCH_TOL[dtype], (name, b)
            assert relative_error(img, rows_v) <= _BATCH_TOL[dtype], (name, b)


def test_text_batch_accepts_a_2d_id_array(tiny_cfg, tiny_model):
    ids = rng.derive(13, "ids").integers(0, tiny_cfg.vocab_size, size=(3, 4))
    assert np.array_equal(
        text_forward(ids, tiny_model).data,
        text_forward([list(r) for r in ids], tiny_model).data,
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batched_hooks_at_init_are_bitwise_identity(dtype):
    for seed in range(4):
        model = random_toy_model(seed, dtype)
        tokens, patches = _mixed_batch(model.cfg, rng.derive(seed, "id-inputs"), 5, dtype)
        plain_t = text_forward(tokens, model).data
        plain_v = image_forward(patches, model).data
        for mode in CouplingMode:
            sites = build_sites(model.cfg, mode, 2, 4, rng.derive(seed, "id-sites", mode.value), dtype)
            scalings = build_scaling_map(sites)
            assert np.array_equal(plain_t, text_forward(tokens, model, scalings).data)
            assert np.array_equal(plain_v, image_forward(patches, model, scalings).data)


def _moved(model, modality, seed):
    """A copy of ``model`` whose every ``frozen/<modality>/`` entry holds other finite values."""
    gen = rng.derive(seed, "moved", modality)
    arrays = dict(model.arrays)
    for name, arr in arrays.items():
        if name.startswith(f"frozen/{modality}/"):
            arrays[name] = (arr + 0.5 + gen.random(arr.shape)).astype(arr.dtype)
            assert np.all(arrays[name] != arr) and np.all(np.isfinite(arrays[name])), name
    return DualEncoder(model.cfg, arrays)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(3))
def test_each_forward_pass_reads_only_its_own_modality(seed, dtype):
    cfg, paths = _paths(seed, dtype)
    hooked, scalings = paths[0][1], paths[0][2]
    tokens, patches = _mixed_batch(cfg, rng.derive(seed, "own-inputs"), 3, dtype)
    for model, hooks in [(hooked, scalings), (hooked, None), (paths[1][1], None)]:
        for forward, inputs, own, other in (
            (text_forward, tokens, "text", "image"),
            (image_forward, patches, "image", "text"),
        ):
            want = forward(inputs, model, hooks).data
            assert forward(inputs, _moved(model, other, seed), hooks).data.tobytes() == want.tobytes()
            assert not np.array_equal(forward(inputs, _moved(model, own, seed), hooks).data, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_pad_id_does_not_reach_the_features(monkeypatch, dtype):
    import mailpp.encoder

    for seed in range(3):
        cfg, paths = _paths(seed, dtype)
        tokens, _ = _mixed_batch(cfg, rng.derive(seed, "pad-inputs"), 6, dtype)
        for _, model, scalings in paths:
            feats = []
            for pad in (0, cfg.vocab_size - 1):
                monkeypatch.setattr(mailpp.encoder, "PAD_ID", pad)
                feats.append(text_forward(tokens, model, scalings).data)
            assert feats[0].tobytes() == feats[1].tobytes()


def test_batch_contract(tiny_cfg, tiny_model):
    from mailpp.training import evaluate

    with pytest.raises(ValueError, match="empty batch"):
        text_forward(np.empty((0, 3), dtype=np.int64), tiny_model)
    with pytest.raises(ValueError, match="non-empty"):
        text_forward([[1, 2], []], tiny_model)
    with pytest.raises(ValueError, match="exceeds N_t"):
        text_forward([[1, 2], list(range(tiny_cfg.N_t + 1))], tiny_model)
    with pytest.raises(ValueError, match="vocabulary"):
        text_forward([[1, 2], [tiny_cfg.vocab_size]], tiny_model)
    with pytest.raises(ValueError, match="non-empty 1-D"):
        text_forward(np.zeros((2, 2, 2), dtype=np.int64), tiny_model)
    with pytest.raises(ValueError, match="empty batch"):
        image_forward(np.empty((0, tiny_cfg.N_v, tiny_cfg.d_v)), tiny_model)
    for shape in (
        (2, tiny_cfg.N_v, tiny_cfg.d_v + 1),
        (2, tiny_cfg.N_v + 1, tiny_cfg.d_v),
        (1, 2, tiny_cfg.N_v, tiny_cfg.d_v),
        (tiny_cfg.d_v,),
    ):
        with pytest.raises(ValueError, match="patch tokens"):
            image_forward(np.ones(shape), tiny_model)
    with pytest.raises(ValueError, match="non-empty"):
        evaluate(tiny_model, None, np.empty((0, tiny_cfg.N_v, tiny_cfg.d_v)), np.empty(0, dtype=np.int64), [[1, 2]])
    with pytest.raises(ValueError, match="batch"):
        evaluate(tiny_model, None, np.ones((tiny_cfg.N_v, tiny_cfg.d_v)), np.zeros(1, dtype=np.int64), [[1, 2]])


# ------------------------------------------------------------------
# classification probabilities (training._probs)


def test_classify_uniform_when_classes_identical():
    img = Tensor(np.asarray([[1.0, 0.5]]))
    classes = Tensor(np.asarray([[0.3, 0.4]] * 4))
    p = _probs(img, classes, temperature=1.0)
    assert np.allclose(p.data, 0.25)


def test_classify_analytic_two_class():
    img = Tensor(np.asarray([[1.0, 0.0]]))
    classes = Tensor(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
    p = _probs(img, classes, temperature=1.0)
    e = np.e
    assert np.allclose(p.data, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-9)


def test_classify_low_temperature_is_one_hot():
    img = Tensor(np.asarray([[1.0, 0.2]]))
    classes = Tensor(np.asarray([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    p = _probs(img, classes, temperature=1e-4).data[0]
    assert p.argmax() == 0
    assert p[0] == pytest.approx(1.0, abs=1e-8)


def test_classify_permutation_equivariance():
    gen = rng.derive(9, "cls")
    img = Tensor(gen.standard_normal((1, 6)))
    mat = gen.standard_normal((5, 6))
    p = _probs(img, Tensor(mat), temperature=0.3).data[0]
    perm = gen.permutation(5)
    p2 = _probs(img, Tensor(mat[perm]), temperature=0.3).data[0]
    assert np.allclose(p2, p[perm], atol=1e-12)


def test_classify_contract():
    img = Tensor(np.asarray([[1.0, 0.0]]))
    classes = Tensor(np.asarray([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="temperature"):
        _probs(img, classes, temperature=0.0)
    with pytest.raises(ValueError, match="zero-norm"):
        _probs(Tensor(np.zeros((1, 2))), classes, temperature=1.0)
