import numpy as np
import pytest

from mailpp import rng
from mailpp.agents import CouplingMode, build_sites
from mailpp.autodiff import NonFiniteError, Tensor
from mailpp.training import (
    TrainingConfig,
    adamw_init,
    adamw_step,
    ce_loss,
    evaluate,
    gen_synthetic,
    nearest_prototype_accuracy,
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
    params = {"w": np.asarray([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    state = adamw_init(params)
    lr, wd = 0.1, 0.5
    new, state2 = adamw_step(params, grads, state, lr=lr, weight_decay=wd)
    assert np.allclose(new["w"], params["w"] * (1.0 - lr * wd))
    assert state2.step == 1


def test_adamw_first_step_is_signlike():
    g = np.asarray([0.3, -4.0, 1e-3])
    params = {"w": np.zeros(3)}
    state = adamw_init(params)
    lr, eps = 0.01, 1e-8
    new, _ = adamw_step(params, {"w": g}, state, lr=lr, eps=eps, weight_decay=0.0)
    expect = -lr * g / (np.abs(g) + eps)
    assert np.allclose(new["w"], expect, rtol=1e-12)


def test_adamw_deterministic():
    gen = rng.derive(3, "adamw")
    params = {"a": gen.standard_normal(4), "b": gen.standard_normal((2, 3))}
    grads = {"a": gen.standard_normal(4), "b": gen.standard_normal((2, 3))}
    state = adamw_init(params)
    out1 = adamw_step(params, grads, state, lr=1e-3)
    out2 = adamw_step(params, grads, state, lr=1e-3)
    for k in params:
        assert np.array_equal(out1[0][k], out2[0][k])
        assert np.array_equal(out1[1].m[k], out2[1].m[k])


def test_adamw_rejects_nan_gradient():
    params = {"w": np.ones(2)}
    state = adamw_init(params)
    with pytest.raises(NonFiniteError, match="gradient"):
        adamw_step(params, {"w": np.asarray([np.nan, 0.0])}, state, lr=1e-3)


def test_adamw_bias_corrected_moments_match_constant_gradient():
    params = {"w": np.zeros(1)}
    state = adamw_init(params)
    g = {"w": np.asarray([2.0])}
    p = params
    for _ in range(500):
        p, state = adamw_step(p, g, state, lr=0.0, weight_decay=0.0)
    t = state.step
    m_hat = state.m["w"][0] / (1.0 - 0.9**t)
    v_hat = state.v["w"][0] / (1.0 - 0.999**t)
    assert m_hat == pytest.approx(2.0, rel=1e-9)
    assert v_hat == pytest.approx(4.0, rel=1e-9)


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


# ------------------------------------------------------------------
# train loop


def _episode_setup(seed=0, steps=5, mode=CouplingMode.BIDIRECTIONAL, lam=1.0):
    from mailpp.encoder import EncoderConfig, init_dual_encoder

    cfg = EncoderConfig(L=1, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=4, mlp_ratio=2, vocab_size=16)
    tcfg = TrainingConfig(shots=2, classes=6, batch_size=8, steps=steps, mode=mode, rank=2, d_m=4, lam=lam)
    model = init_dual_encoder(cfg, rng.derive(seed, "w"), np.float32)
    ds = gen_synthetic(tcfg.classes, 4, 0.1, seed, dims=(cfg.N_v, cfg.d_v))
    ep = sample_few_shot(ds, tcfg.shots, seed)
    sites = build_sites(cfg, tcfg.mode, tcfg.rank, tcfg.d_m, rng.derive(seed, "s"), np.float32)
    return model, sites, tcfg, ep


def test_train_zero_steps_keeps_initial_state():
    import dataclasses

    model, sites, tcfg, ep = _episode_setup(steps=0)
    frozen_acc = evaluate(model, None, ep.train_images, ep.train_labels, ep.base_tokens)
    st = train(model, sites, dataclasses.replace(tcfg, steps=0), ep, seed=0)
    assert st.metrics == []
    assert st.final_train_accuracy == pytest.approx(frozen_acc)
    for site in sites.values():
        assert np.all(site.image_agent.a == 1.0) and np.all(site.image_agent.b == 0.0)


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
    moved = any(not np.all(s.image_agent.a == 1.0) for s in sites.values())
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
    from mailpp.agents import build_scaling_map, hook_set
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
    hooks, scalings = hook_set(sites), build_scaling_map(sites)
    txt = _feats_text(model, tokens, hooks, scalings).data
    img = _feats_image(model, images, hooks, scalings).data
    want = _accuracy(img, txt, labels)
    assert 0.0 < want < 1.0
    monkeypatch.setattr(mailpp.training, "EVAL_BATCH", eval_batch)
    assert evaluate(model, sites, images, labels, tokens) == want
