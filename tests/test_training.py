import gc

import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_sites
from mailpp.autodiff import NonFiniteError, Tensor
from mailpp.checkpoint import load_checkpoint, save_checkpoint
from mailpp.state import pack_dataset, unpack_dataset
from mailpp.training import (
    TrainingConfig,
    adamw_init,
    adamw_step,
    ce_loss,
    evaluate,
    gen_synthetic,
    reg_losses,
    sample_few_shot,
    total_loss,
    train,
)


def t64(x):
    return Tensor(np.asarray(x, dtype=np.float64))


# ------------------------------------------------------------------
# losses


def test_ce_uniform_two_classes_is_ln2():
    img = t64([[1.0, 0.0]])
    classes = t64([[0.6, 0.8], [0.6, 0.8]])  # identical -> equal similarities
    loss = ce_loss(img, classes, [0], temperature=1.0)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_analytic_logits_ten_zero():
    # cosine sims (1, 0) at temperature 0.1 -> logits (10, 0)
    img = t64([[1.0, 0.0]])
    classes = t64([[1.0, 0.0], [0.0, 1.0]])
    loss = ce_loss(img, classes, [0], temperature=0.1)
    assert loss.item() == pytest.approx(np.log1p(np.exp(-10.0)), rel=1e-9)
    assert loss.item() == pytest.approx(4.54e-5, rel=1e-2)


def test_ce_batch_of_identical_items_equals_single():
    gen = rng.derive(0, "ce")
    feat = gen.standard_normal(6)
    classes = t64(gen.standard_normal((4, 6)))
    single = ce_loss(t64([feat]), classes, [2], temperature=0.5).item()
    double = ce_loss(t64([feat, feat]), classes, [2, 2], temperature=0.5).item()
    assert double == pytest.approx(single, rel=1e-12)


def test_ce_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        ce_loss(t64([[1.0, 0.0]]), t64([[1.0, 0.0]]), [1], temperature=1.0)


def test_reg_losses_trivial_cases():
    gen = rng.derive(1, "reg")
    a = gen.standard_normal((3, 5))
    t = gen.standard_normal((2, 5))
    rv, rt = reg_losses(t64(a), a, t64(t), t)
    assert rv.item() == pytest.approx(0.0, abs=1e-12)
    assert rt.item() == pytest.approx(0.0, abs=1e-12)

    rv, rt = reg_losses(t64(-a), a, t64(-t), t)
    assert rv.item() == pytest.approx(2.0, abs=1e-12)
    assert rt.item() == pytest.approx(2.0, abs=1e-12)


def test_reg_losses_orthogonal_is_one():
    a = np.asarray([[1.0, 0.0], [0.0, 2.0]])
    f = np.asarray([[0.0, 3.0], [4.0, 0.0]])
    rv, rt = reg_losses(t64(a), f, t64(a), f)
    assert rv.item() == pytest.approx(1.0)
    assert rt.item() == pytest.approx(1.0)


def test_total_loss_composition():
    ce, rv, rt = t64(1.0), t64(0.1), t64(0.2)
    assert total_loss(ce, rv, rt, 0.0).item() == pytest.approx(1.0)
    assert total_loss(ce, rv, rt, 2.0).item() == pytest.approx(1.6)
    with pytest.raises(ValueError, match="non-negative"):
        total_loss(ce, rv, rt, -1.0)


def test_total_loss_decomposition_exact_f64():
    # the op adds nothing beyond the cited sum: bit-identical to ce + lam * (rv + rt)
    gen = rng.derive(2, "decomp")
    for _ in range(50):
        ce, rv, rt = (t64(abs(gen.standard_normal())) for _ in range(3))
        lam = float(abs(gen.standard_normal()))
        total = total_loss(ce, rv, rt, lam).item()
        assert total == ce.item() + lam * (rv.item() + rt.item())


# ------------------------------------------------------------------
# AdamW


def test_adamw_zero_grad_shrinks_by_decoupled_decay():
    params = np.asarray([1.0, -2.0])
    grads = np.zeros(2)
    state = adamw_init(params)
    lr, wd = 0.1, 0.5
    new, state2 = adamw_step(params, grads, state, lr=lr, weight_decay=wd)
    assert np.allclose(new, params * (1.0 - lr * wd))
    assert state2.step == 1


def test_adamw_first_step_is_signlike():
    g = np.asarray([0.3, -4.0, 1e-3])
    params = np.zeros(3)
    state = adamw_init(params)
    lr, eps = 0.01, 1e-8
    new, _ = adamw_step(params, g, state, lr=lr, eps=eps, weight_decay=0.0)
    expect = -lr * g / (np.abs(g) + eps)
    assert np.allclose(new, expect, rtol=1e-12)


def test_adamw_deterministic():
    gen = rng.derive(3, "adamw")
    params = np.concatenate([gen.standard_normal(4), gen.standard_normal((2, 3)).reshape(-1)])
    grads = np.concatenate([gen.standard_normal(4), gen.standard_normal((2, 3)).reshape(-1)])
    state = adamw_init(params)
    out1 = adamw_step(params, grads, state, lr=1e-3)
    out2 = adamw_step(params, grads, state, lr=1e-3)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].m, out2[1].m)


def test_adamw_rejects_nan_gradient():
    params = np.ones(2)
    state = adamw_init(params)
    with pytest.raises(NonFiniteError, match="gradient"):
        adamw_step(params, np.asarray([np.nan, 0.0]), state, lr=1e-3)


def test_adamw_bias_corrected_moments_match_constant_gradient():
    params = np.zeros(1)
    state = adamw_init(params)
    g = np.asarray([2.0])
    p = params
    for _ in range(500):
        p, state = adamw_step(p, g, state, lr=0.0, weight_decay=0.0)
    t = state.step
    m_hat = state.m[0] / (1.0 - 0.9**t)
    v_hat = state.v[0] / (1.0 - 0.999**t)
    assert m_hat == pytest.approx(2.0, rel=1e-9)
    assert v_hat == pytest.approx(4.0, rel=1e-9)


def _per_array_adamw_step(params, grads, m, v, step, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
    """Reference: the AdamW update applied array by array over name -> array tables."""
    b1, b2 = betas
    t = step + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m_n = b1 * m[name] + (1.0 - b1) * g
        v_n = b2 * v[name] + (1.0 - b2) * (g * g)
        m_hat = m_n / (1.0 - b1**t)
        v_hat = v_n / (1.0 - b2**t)
        p_out = p * (1.0 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_params[name] = p_out.astype(p.dtype)
        new_m[name] = m_n.astype(p.dtype)
        new_v[name] = v_n.astype(p.dtype)
    return new_params, new_m, new_v


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_flat_adamw_equals_the_per_array_update_bitwise(dtype):
    from mailpp.agents import flatten_params, named_params
    from mailpp.encoder import EncoderConfig
    from mailpp.verify import randomize_sites

    cfg = EncoderConfig(L=2, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=5, mlp_ratio=2, vocab_size=24)
    sites = build_sites(cfg, CouplingMode.BIDIRECTIONAL, 2, 3, rng.derive(40, "s"), dtype, bridge_shift=True)
    randomize_sites(sites, rng.derive(41, "p"))
    ref = {name: arr.copy() for name, arr in named_params(sites)}
    ref_m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    ref_v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    flat = flatten_params(sites)
    state = adamw_init(flat)
    gen = rng.derive(42, "grads")

    def as_flat(table):
        return np.concatenate([arr.reshape(-1) for arr in table.values()])

    for step in range(20):
        grads = {
            name: (gen.standard_normal(arr.shape) * 10.0 ** gen.integers(-3, 2)).astype(dtype)
            for name, arr in ref.items()
        }
        # a Python float, and a float64 scalar as the cosine schedule gives
        lr = 1e-2 if step % 2 else np.float64(1e-2) * 0.5 * (1.0 + np.cos(np.pi * step / 19))
        ref, ref_m, ref_v = _per_array_adamw_step(ref, grads, ref_m, ref_v, step, lr)
        new, state = adamw_step(flat, as_flat(grads), state, lr=lr)
        flat[...] = new
        assert state.step == step + 1
        assert flat.tobytes() == as_flat(ref).tobytes(), step
        assert state.m.tobytes() == as_flat(ref_m).tobytes(), step
        assert state.v.tobytes() == as_flat(ref_v).tobytes(), step
    for name, arr in named_params(sites):  # the sites see the update through their views
        assert arr.tobytes() == ref[name].tobytes(), name


# ------------------------------------------------------------------
# synthetic data and episodes


def test_gen_synthetic_deterministic():
    a = gen_synthetic(6, 5, 0.1, seed=3, dims=(4, 10))
    b = gen_synthetic(6, 5, 0.1, seed=3, dims=(4, 10))
    assert np.array_equal(a.images, b.images)
    assert a.tokens == b.tokens
    c = gen_synthetic(6, 5, 0.1, seed=4, dims=(4, 10))
    assert not np.array_equal(a.images, c.images)


def test_gen_synthetic_zero_noise_identical_samples():
    ds = gen_synthetic(4, 6, 0.0, seed=0, dims=(3, 8))
    for c in range(4):
        assert np.all(ds.images[c] == ds.images[c, 0])


def test_gen_synthetic_prototypes_orthonormal():
    ds = gen_synthetic(5, 2, 0.1, seed=1, dims=(3, 12))
    gram = ds.prototypes @ ds.prototypes.T
    assert np.allclose(gram, np.eye(5), atol=1e-5)


def test_gen_synthetic_too_many_classes():
    with pytest.raises(ValueError, match="orthogonal prototypes"):
        gen_synthetic(9, 2, 0.1, seed=0, dims=(3, 8))


def nearest_prototype_accuracy(dataset) -> float:
    """Closed-form probe: classify mean-patch latents by nearest prototype."""
    C, pool = dataset.num_classes, dataset.pool_per_class
    latents = dataset.images.mean(axis=2).reshape(C * pool, -1)
    pred = (latents @ dataset.prototypes.T).argmax(axis=1)
    return float((pred == np.repeat(np.arange(C), pool)).mean())


def test_gen_synthetic_probe_separability():
    ds = gen_synthetic(2, 20, 0.2, seed=5, dims=(4, 16))
    assert nearest_prototype_accuracy(ds) == 1.0


def test_splits_disjoint():
    ds = gen_synthetic(8, 4, 0.1, seed=6, dims=(3, 10))
    assert set(ds.base_classes).isdisjoint(ds.novel_classes)
    assert sorted(ds.base_classes + ds.novel_classes) == list(range(8))


def test_sample_few_shot_deterministic_and_counts():
    ds = gen_synthetic(6, 5, 0.1, seed=7, dims=(3, 8))
    ep1 = sample_few_shot(ds, 2, seed=9)
    ep2 = sample_few_shot(ds, 2, seed=9)
    assert np.array_equal(ep1.train_images, ep2.train_images)
    assert np.array_equal(ep1.train_labels, ep2.train_labels)

    ep_k1 = sample_few_shot(ds, 1, seed=9)
    assert ep_k1.train_images.shape[0] == len(ds.base_classes)

    with pytest.raises(ValueError, match="exceeds pool"):
        sample_few_shot(ds, 6, seed=9)


def _gen_synthetic_images_per_class(ds):
    """The per-class jitter loop that ``gen_synthetic`` replaced, kept as its oracle."""
    C, pool, n_v, d_v = ds.images.shape
    gen = rng.derive(ds.seed, "synthetic")
    gen.standard_normal((d_v, d_v))  # the draw the prototypes come from
    dtype = ds.images.dtype
    images = np.empty((C, pool, n_v, d_v), dtype=dtype)
    for c in range(C):
        lifted = (ds.prototypes[c] * np.sqrt(d_v)).astype(dtype)
        jitter = gen.standard_normal((pool, n_v, d_v)).astype(dtype)
        images[c] = lifted[None, None, :] + float(ds.noise) * jitter
    return images


def _sample_few_shot_per_sample(dataset, k, seed):
    """The per-sample loop that ``sample_few_shot`` replaced, kept as its oracle: the six split arrays."""
    gen = rng.derive(seed, "episode")
    splits = {"train": ([], []), "base": ([], []), "novel": ([], [])}
    for label, c in enumerate(dataset.base_classes):
        order = gen.permutation(dataset.pool_per_class)
        for split, idxs in (("train", order[:k]), ("base", order[k:])):
            for idx in idxs:
                splits[split][0].append(dataset.images[c, idx])
                splits[split][1].append(label)
    for label, c in enumerate(dataset.novel_classes):
        for idx in range(dataset.pool_per_class):
            splits["novel"][0].append(dataset.images[c, idx])
            splits["novel"][1].append(label)
    out = []
    for images, labels in splits.values():
        empty = np.empty((0,) + dataset.images.shape[2:], dtype=dataset.images.dtype)
        out += [np.stack(images) if images else empty, np.asarray(labels, dtype=np.int64)]
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gen_synthetic_equals_the_per_class_loop(dtype):
    for C, pool, noise, seed, dims in ((6, 5, 0.1, 3, (4, 10)), (2, 1, 0.0, 0, (1, 2)), (8, 16, 0.3, 11, (9, 32))):
        ds = gen_synthetic(C, pool, noise, seed, dims=dims, dtype=dtype)
        want = _gen_synthetic_images_per_class(ds)
        assert ds.images.dtype == want.dtype and ds.images.flags.c_contiguous
        assert ds.images.tobytes() == want.tobytes()


def test_sample_few_shot_equals_the_per_sample_loop(tmp_path):
    import dataclasses

    ds = gen_synthetic(8, 5, 0.1, seed=7, dims=(3, 8))
    shuffled = dataclasses.replace(ds, base_classes=[6, 1, 3], novel_classes=[0, 7])
    save_checkpoint(tmp_path / "d.bin", *pack_dataset(shuffled))
    loaded = unpack_dataset(*load_checkpoint(tmp_path / "d.bin"))  # read from disk, classes out of order
    datasets = {
        "generated": ds,
        "f64": gen_synthetic(6, 4, 0.2, seed=1, dims=(2, 6), dtype=np.float64),
        "one base class": dataclasses.replace(ds, base_classes=[5], novel_classes=[2, 4]),
        "no novel class": dataclasses.replace(ds, novel_classes=[]),
        "loaded": loaded,
    }
    for name, dataset in datasets.items():
        for k in (1, 2, dataset.pool_per_class):  # k == pool leaves the base eval split empty
            for seed in (0, 9):
                ep = sample_few_shot(dataset, k, seed)
                got = [
                    ep.train_images,
                    ep.train_labels,
                    ep.base_eval_images,
                    ep.base_eval_labels,
                    ep.novel_eval_images,
                    ep.novel_eval_labels,
                ]
                for g, w in zip(got, _sample_few_shot_per_sample(dataset, k, seed)):
                    assert g.shape == w.shape and g.dtype == w.dtype and g.flags.c_contiguous, (name, k)
                    assert g.tobytes() == w.tobytes(), (name, k, seed)
                assert ep.base_tokens == [dataset.tokens[c] for c in dataset.base_classes]
                assert ep.novel_tokens == [dataset.tokens[c] for c in dataset.novel_classes]


# ------------------------------------------------------------------
# train loop


def _episode_setup(seed=0, steps=5, mode=CouplingMode.BIDIRECTIONAL, lam=1.0, dtype=np.float32):
    from mailpp.encoder import EncoderConfig, init_dual_encoder

    cfg = EncoderConfig(L=1, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=4, mlp_ratio=2, vocab_size=16)
    tcfg = TrainingConfig(shots=2, classes=6, batch_size=8, steps=steps, mode=mode, rank=2, d_m=4, lam=lam)
    model = init_dual_encoder(cfg, rng.derive(seed, "w"), dtype)
    ds = gen_synthetic(tcfg.classes, 4, 0.1, seed, dims=(cfg.N_v, cfg.d_v), dtype=dtype)
    ep = sample_few_shot(ds, tcfg.shots, seed)
    sites = build_sites(cfg, tcfg.mode, tcfg.rank, tcfg.d_m, rng.derive(seed, "s"), dtype)
    return model, sites, tcfg, ep


def test_train_zero_steps_keeps_initial_state():
    import dataclasses

    model, sites, tcfg, ep = _episode_setup(steps=0)
    frozen_acc = evaluate(model, None, ep.train_images, ep.train_labels, ep.base_tokens)
    st = train(model, sites, dataclasses.replace(tcfg, steps=0), ep, seed=0)
    assert st.metrics == []
    assert st.final_train_accuracy == pytest.approx(frozen_acc)
    for site in sites.values():
        assert np.all(site.arrays["image/a"] == 1.0) and np.all(site.arrays["image/b"] == 0.0)


def test_train_frozen_weights_unchanged():
    model, sites, tcfg, ep = _episode_setup(steps=4)
    digest_before = model.frozen_digest()
    train(model, sites, tcfg, ep, seed=0)
    assert model.frozen_digest() == digest_before


def test_train_metric_log_bitwise_deterministic():
    model1, sites1, tcfg, ep1 = _episode_setup(steps=4)
    st1 = train(model1, sites1, tcfg, ep1, seed=0)
    model2, sites2, _, ep2 = _episode_setup(steps=4)
    st2 = train(model2, sites2, tcfg, ep2, seed=0)
    assert [r.csv() for r in st1.metrics] == [r.csv() for r in st2.metrics]


def test_train_loss_decreases_and_agents_move():
    model, sites, tcfg, ep = _episode_setup(steps=25)
    st = train(model, sites, tcfg, ep, seed=0)
    assert st.metrics[-1].l_total < st.metrics[0].l_total
    moved = any(not np.all(s.arrays["image/a"] == 1.0) for s in sites.values())
    assert moved


def test_train_minibatch_cycling():
    import dataclasses

    model, sites, tcfg, ep = _episode_setup(steps=6)
    tcfg = dataclasses.replace(tcfg, batch_size=4)  # n_train = 6 -> forces reshuffles
    st = train(model, sites, tcfg, ep, seed=0)
    assert len(st.metrics) == 6


def test_cosine_lr_schedule_runs_and_changes_trajectory():
    import dataclasses

    model1, sites1, tcfg, ep = _episode_setup(steps=6)
    st_const = train(model1, sites1, tcfg, ep, seed=0)
    model2, sites2, _, ep2 = _episode_setup(steps=6)
    st_cos = train(model2, sites2, dataclasses.replace(tcfg, cosine_lr=True), ep2, seed=0)
    assert len(st_cos.metrics) == 6
    assert st_cos.metrics[-1].l_total != st_const.metrics[-1].l_total


def test_evaluate_matches_train_accuracy_field():
    model, sites, tcfg, ep = _episode_setup(steps=3)
    st = train(model, sites, tcfg, ep, seed=0)
    acc = evaluate(model, sites, ep.train_images, ep.train_labels, ep.base_tokens)
    assert acc == pytest.approx(st.final_train_accuracy)


@pytest.mark.parametrize("eval_batch", [1, 7, 32, 1000])
def test_evaluate_in_any_batch_size_matches_per_row_features(monkeypatch, eval_batch):
    import mailpp.training
    from mailpp.agents import build_scaling_map
    from mailpp.training import _accuracy, _feats_image, _feats_text
    from mailpp.verify import randomize_sites

    model, sites, _, _ = _episode_setup()
    model = model.astype(np.float64)
    sites = build_sites(model.cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(1, "s"), np.float64)
    randomize_sites(sites, rng.derive(2, "p"), spread=0.5)
    gen = rng.derive(3, "pool")
    images = gen.standard_normal((70, model.cfg.N_v, model.cfg.d_v))
    tokens = [[1, 2 + c] * (1 + c % 3) for c in range(5)]
    labels = gen.integers(0, len(tokens), size=70)
    scalings = build_scaling_map(sites)
    txt = _feats_text(model, tokens, scalings).data
    img = _feats_image(model, images, scalings).data
    want = _accuracy(img, txt, labels)
    assert 0.0 < want < 1.0
    # The rule reads EVAL_BATCH and the default widths; at the model's own
    # widths as the defaults, it encodes EVAL_BATCH images per call.
    monkeypatch.setattr(mailpp.training, "EVAL_BATCH", eval_batch)
    monkeypatch.setattr(mailpp.training, "EncoderConfig", lambda: model.cfg)
    sizes = _count_image_calls(monkeypatch)
    assert evaluate(model, sites, images, labels, tokens) == want
    assert sizes == [min(eval_batch, 70 - i) for i in range(0, 70, eval_batch)]


def _count_image_calls(monkeypatch) -> list[int]:
    """The number of images of each ``image_forward`` call that ``evaluate`` makes."""
    import mailpp.training

    sizes = []
    real = mailpp.training.image_forward

    def counting(patches, model, scalings=None):
        sizes.append(len(patches))
        return real(patches, model, scalings)

    monkeypatch.setattr(mailpp.training, "image_forward", counting)
    return sizes


def _width_model_and_pool(n_images, classes=4, **widths):
    from mailpp.encoder import EncoderConfig, init_dual_encoder

    cfg = EncoderConfig(**widths)
    model = init_dual_encoder(cfg, rng.derive(0, "w"), np.float32)
    images = rng.derive(1, "pool").standard_normal((n_images, cfg.N_v, cfg.d_v)).astype(np.float32)
    tokens = [[1, 2 + c] for c in range(classes)]
    return model, images, np.arange(n_images) % classes, tokens


def test_evaluate_encodes_16_images_per_call_at_the_default_widths(monkeypatch):
    model, images, labels, tokens = _width_model_and_pool(160)
    sizes = _count_image_calls(monkeypatch)
    evaluate(model, None, images, labels, tokens)
    assert sizes == [16] * 10


def test_evaluate_encodes_each_pool_in_one_call_at_the_oracle_widths(monkeypatch):
    import json
    from pathlib import Path

    spec = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json").read_text())
    widths = spec["workloads"]["oracle"]["config"]["encoder"]
    # F = 5 * 4 * 8 = 160, so 16 * 1728 // 160 = 172 images per call
    for n, want in ((32, [32]), (48, [48]), (200, [172, 28])):
        model, images, labels, tokens = _width_model_and_pool(n, **widths)
        sizes = _count_image_calls(monkeypatch)
        evaluate(model, None, images, labels, tokens)
        assert sizes == want


def test_evaluate_keeps_16_images_per_call_on_wider_models(monkeypatch):
    model, images, labels, tokens = _width_model_and_pool(40, L=4, d_t=128, d_v=128)
    sizes = _count_image_calls(monkeypatch)
    evaluate(model, None, images, labels, tokens)
    assert sizes == [16, 16, 8]


def _six_images_three_classes():
    model, images, _, tokens = _width_model_and_pool(6, classes=3, L=1, d_t=8, d_v=8, n_heads=2, N_t=4, N_v=4)
    return model, images, tokens


def test_evaluate_rejects_one_label_for_many_images():
    model, images, tokens = _six_images_three_classes()
    with pytest.raises(ValueError, match="6 integer class indices, one per image"):
        evaluate(model, None, images, np.array([0]), tokens)


@pytest.mark.parametrize("bad", [5, -1, 3])
def test_evaluate_rejects_a_label_outside_the_classes(bad):
    model, images, tokens = _six_images_three_classes()
    with pytest.raises(ValueError, match="label out of range for 3 classes"):
        evaluate(model, None, images, np.array([0, 1, 2, 0, 1, bad]), tokens)


def test_evaluate_rejects_a_label_count_that_is_not_the_image_count():
    model, images, tokens = _six_images_three_classes()
    for labels in (np.array([0, 1, 2, 0]), np.zeros((6, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="one per image"):
            evaluate(model, None, images, labels, tokens)


def test_evaluate_rejects_labels_that_are_not_integers():
    model, images, tokens = _six_images_three_classes()
    with pytest.raises(ValueError, match="integer class indices"):
        evaluate(model, None, images, np.zeros(6), tokens)


def _count_adamw_steps(monkeypatch) -> dict:
    """Count the AdamW updates of ``train``, and note whether the collector ran during each."""
    import mailpp.training

    calls = {"adamw": 0, "collector": []}

    def counting(*args, **kwargs):
        calls["adamw"] += 1
        calls["collector"].append(gc.isenabled())
        return adamw_step(*args, **kwargs)

    monkeypatch.setattr(mailpp.training, "adamw_step", counting)
    return calls


def test_train_leaves_view_the_flat_buffer_and_step_once_each(monkeypatch):
    import mailpp.autodiff as ad

    model, sites, tcfg, ep = _episode_setup(steps=3)
    calls = _count_adamw_steps(monkeypatch)
    leaves = []
    leaf = ad.Tape.leaf

    def recording(tape, value, name=None):
        leaves.append((name, value))
        return leaf(tape, value, name)

    monkeypatch.setattr(ad.Tape, "leaf", recording)
    train(model, sites, tcfg, ep, seed=0)
    assert calls["adamw"] == 3
    arrays = {f"{key}/{local}": arr for key, site in sites.items() for local, arr in site.arrays.items()}
    assert len(leaves) == 3 * len(arrays)
    for name, value in leaves:
        assert isinstance(value, Tensor) and np.shares_memory(value.data, arrays[name]), name


@pytest.mark.parametrize("bad_step", [0, 2])
def test_non_finite_gradient_names_the_step_and_the_parameter(monkeypatch, bad_step):
    import mailpp.autodiff as ad

    model, _, tcfg, ep = _episode_setup(steps=4, mode=CouplingMode.IVLU)
    sites = build_sites(model.cfg, CouplingMode.IVLU, 2, 4, rng.derive(0, "s"), np.float32, positions=("2",))
    calls = _count_adamw_steps(monkeypatch)
    emit = ad._emit

    def emit_inf_shift_gradient(name, out, inputs, vjp):
        # from bad_step on, affine's VJP gives an Inf gradient to its shift input
        if name == "affine" and calls["adamw"] >= bad_step:
            grads = vjp

            def vjp(g):
                gy, ga, gb = grads(g)
                return gy, ga, np.full_like(gb, np.inf)

        return emit(name, out, inputs, vjp)

    monkeypatch.setattr(ad, "_emit", emit_inf_shift_gradient)
    with pytest.raises(NonFiniteError) as info:
        train(model, sites, tcfg, ep, seed=0)
    # the first site parameter fed by an affine shift is block0.2's image/b
    assert str(info.value) == (
        f"non-finite gradient at step {bad_step}: backward: gradient of block0.2/image/b: non-finite value in result"
    )
    assert calls["adamw"] == bad_step
    assert not any(calls["collector"])
    assert gc.isenabled()  # put back although the step raised


# ------------------------------------------------------------------
# the cyclic garbage collector: paused during the steps, which leave no garbage


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_train_pauses_the_collector_and_puts_back_the_state_it_found(monkeypatch, enabled):
    model, sites, tcfg, ep = _episode_setup(steps=3)
    calls = _count_adamw_steps(monkeypatch)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        train(model, sites, tcfg, ep, seed=0)
        after = gc.isenabled()
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert calls["collector"] == [False] * 3
    assert after is enabled


def _garbage_after_five_steps(model, sites, tcfg, ep) -> int:
    """Unreachable objects that five training steps leave for the cyclic collector."""
    import dataclasses

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        train(model, sites, dataclasses.replace(tcfg, steps=5), ep, seed=0)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_default_f32_steps_leave_no_garbage():
    from mailpp.config import RunConfig
    from mailpp.encoder import init_dual_encoder

    cfg = RunConfig()
    model = init_dual_encoder(cfg.encoder, rng.derive(0, "frozen-weights"), cfg.dtype)
    ds = gen_synthetic(
        cfg.training.classes,
        cfg.data.pool_per_class,
        cfg.data.noise,
        0,
        dims=(cfg.encoder.N_v, cfg.encoder.d_v),
        text_len=cfg.data.text_len,
    )
    ep = sample_few_shot(ds, cfg.training.shots, 0)
    assert _garbage_after_five_steps(model, cfg.sites(rng.derive(0, "s")), cfg.training, ep) == 0


@pytest.mark.parametrize("mode", list(CouplingMode), ids=lambda m: m.value)
def test_f64_shift_bridge_cosine_minibatch_steps_leave_no_garbage(mode):
    import dataclasses

    model, _, tcfg, ep = _episode_setup(mode=mode, dtype=np.float64)
    shift = mode is not CouplingMode.IVLU  # IVLU has no bridge to shift
    tcfg = dataclasses.replace(tcfg, bridge_shift=shift, cosine_lr=True, batch_size=4)
    assert tcfg.batch_size < len(ep.train_labels)
    sites = build_sites(model.cfg, mode, tcfg.rank, tcfg.d_m, rng.derive(0, "s"), np.float64, bridge_shift=shift)
    assert _garbage_after_five_steps(model, sites, tcfg, ep) == 0
