import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mailpp import rng
from mailpp.agents import (
    AgentLayer,
    BridgeFunction,
    CoupledAgentSite,
    CouplingMode,
    MetaScalingVector,
    SiteKey,
    bridge_norm,
    build_scaling_map,
    build_sites,
    fuse_layernorm,
    fuse_linear,
    fuse_model,
    trainable_param_count,
)
from mailpp.autodiff import Tape, Tensor
from mailpp.autodiff import affine as ad_affine
from mailpp.autodiff import layernorm as ad_layernorm
from mailpp.autodiff import linear as ad_linear
from mailpp.encoder import image_forward, text_forward
from mailpp.verify import randomize_sites


def _agent(a, b):
    return AgentLayer(np.asarray(a, np.float64), np.asarray(b, np.float64))


def _scalar_site(mode, a_v, a_t, w_up_v=0.0, w_down_v=0.0, w_up_t=0.0, w_down_t=0.0, a_m=None):
    """Width-1 site with explicit bridge entries, for hand-checkable arithmetic."""
    kwargs = dict(
        key=SiteKey(None, "5"),
        mode=mode,
        image_agent=_agent([a_v], [0.0]),
        text_agent=_agent([a_t], [0.0]),
    )
    if mode == CouplingMode.TEXT_TO_IMAGE:
        kwargs["bridge_v"] = BridgeFunction(np.asarray([[w_down_v]]), np.asarray([[w_up_v]]))
    elif mode == CouplingMode.IMAGE_TO_TEXT:
        kwargs["bridge_t"] = BridgeFunction(np.asarray([[w_down_t]]), np.asarray([[w_up_t]]))
    elif mode == CouplingMode.BIDIRECTIONAL:
        kwargs["bridge_v"] = BridgeFunction(np.asarray([[w_down_v]]), np.asarray([[w_up_v]]))
        kwargs["bridge_t"] = BridgeFunction(np.asarray([[w_down_t]]), np.asarray([[w_up_t]]))
        kwargs["meta"] = MetaScalingVector(np.asarray([float(a_m)]))
    return CoupledAgentSite(**kwargs)


# ------------------------------------------------------------------
# effective scalings


def test_effective_fresh_bridges_are_transparent(tiny_cfg):
    for mode in CouplingMode:
        sites = build_sites(tiny_cfg, mode, 2, 4, rng.derive(0, "t", mode.value), np.float64)
        for site in sites.values():
            a_v, a_t = site.effective()[:2]
            assert np.array_equal(a_v.data, site.image_agent.a)
            assert np.array_equal(a_t.data, site.text_agent.a)


def test_effective_scalar_text_to_image():
    site = _scalar_site(CouplingMode.TEXT_TO_IMAGE, a_v=1.0, a_t=3.0, w_up_v=2.0, w_down_v=0.5)
    a_v, a_t = site.effective()[:2]
    assert a_v.data.tolist() == [4.0]  # 1 + 2 * 0.5 * 3
    assert a_t.data.tolist() == [3.0]


def test_effective_scalar_bidirectional():
    site = _scalar_site(
        CouplingMode.BIDIRECTIONAL,
        a_v=1.0,
        a_t=1.0,
        w_up_v=1.0,
        w_down_v=0.5,
        w_up_t=0.25,
        w_down_t=1.0,
        a_m=2.0,
    )
    a_v, a_t = site.effective()[:2]
    assert a_v.data.tolist() == [2.0]  # 1 + 1 * 0.5 * 2
    assert a_t.data.tolist() == [1.5]  # 1 + 0.25 * 1 * 2


def test_effective_scalar_image_to_text():
    site = _scalar_site(CouplingMode.IMAGE_TO_TEXT, a_v=4.0, a_t=1.0, w_up_t=0.5, w_down_t=1.0)
    a_v, a_t = site.effective()[:2]
    assert a_v.data.tolist() == [4.0]
    assert a_t.data.tolist() == [3.0]  # 1 + 0.5 * 1 * 4


def test_site_mode_field_consistency():
    with pytest.raises(ValueError, match="ivlu"):
        CoupledAgentSite(
            key=SiteKey(None, "4"),
            mode=CouplingMode.IVLU,
            image_agent=AgentLayer.identity(2, np.float64),
            text_agent=AgentLayer.identity(2, np.float64),
            bridge_v=BridgeFunction(np.zeros((1, 2)), np.zeros((2, 1))),
        )
    with pytest.raises(ValueError, match="bidirectional"):
        CoupledAgentSite(
            key=SiteKey(None, "4"),
            mode=CouplingMode.BIDIRECTIONAL,
            image_agent=AgentLayer.identity(2, np.float64),
            text_agent=AgentLayer.identity(2, np.float64),
        )


def test_shift_coupling_follows_the_scale_rule():
    def site(mode, **coupling):
        return CoupledAgentSite(
            key=SiteKey(None, "4"),
            mode=mode,
            image_agent=AgentLayer.identity(3, np.float64),
            text_agent=AgentLayer.identity(2, np.float64),
            **coupling,
        )

    t2i = BridgeFunction(np.zeros((1, 2)), np.zeros((3, 1)))  # text (2) -> image (3)
    i2t = BridgeFunction(np.zeros((1, 3)), np.zeros((2, 1)))
    site(CouplingMode.TEXT_TO_IMAGE, bridge_v=t2i, bridge_shift=True, shift_bridge_v=t2i)
    with pytest.raises(ValueError, match="dims"):  # an image -> text shift bridge where text -> image belongs
        site(CouplingMode.TEXT_TO_IMAGE, bridge_v=t2i, bridge_shift=True, shift_bridge_v=i2t)
    with pytest.raises(ValueError, match="text_to_image"):
        site(CouplingMode.TEXT_TO_IMAGE, bridge_v=t2i, shift_bridge_v=t2i)  # shift bridge without bridge_shift
    m2v = BridgeFunction(np.zeros((1, 4)), np.zeros((3, 1)))
    m2t = BridgeFunction(np.zeros((1, 4)), np.zeros((2, 1)))
    coupled = dict(bridge_v=m2v, bridge_t=m2t, meta=MetaScalingVector(np.ones(4)))
    with pytest.raises(ValueError, match="bidirectional"):  # shift bridges without a shift meta vector
        site(CouplingMode.BIDIRECTIONAL, **coupled, bridge_shift=True, shift_bridge_v=m2v, shift_bridge_t=m2t)
    with pytest.raises(ValueError, match="coupled mode"):
        site(CouplingMode.IVLU, bridge_shift=True)


def test_bridge_init_distribution_and_rank():
    gen = rng.derive(0, "bridge-init")
    samples = [BridgeFunction.init(64, 32, 4, gen, np.float64) for _ in range(40)]
    assert all(np.all(b.w_up == 0.0) for b in samples)
    downs = np.concatenate([b.w_down.ravel() for b in samples])
    assert abs(float(downs.std()) - 1.0 / np.sqrt(64)) < 0.01  # std = 1/sqrt(in_dim)
    with pytest.raises(ValueError, match="rank"):
        BridgeFunction.init(4, 8, 5, gen)


# ------------------------------------------------------------------
# folding


def test_fuse_layernorm_identity_and_arithmetic():
    gamma = np.asarray([1.0, 1.0])
    beta = np.asarray([0.5, 0.0])
    ident = AgentLayer.identity(2, np.float64)
    g2, b2 = fuse_layernorm(gamma, beta, ident)
    assert np.array_equal(g2, gamma) and np.array_equal(b2, beta)

    agent = _agent([2.0, 3.0], [1.0, 1.0])
    g2, b2 = fuse_layernorm(gamma, beta, agent)
    assert g2.tolist() == [2.0, 3.0]
    assert b2.tolist() == [2.0, 1.0]


def test_fuse_layernorm_matches_unfused_path():
    gen = rng.derive(1, "fuse-ln")
    for _ in range(20):
        d = 6
        x = Tensor(gen.standard_normal((4, d)).astype(np.float32))
        gamma = (1.0 + 0.3 * gen.standard_normal(d)).astype(np.float32)
        beta = (0.2 * gen.standard_normal(d)).astype(np.float32)
        agent = AgentLayer(
            (1.0 + 0.5 * gen.standard_normal(d)).astype(np.float32),
            (0.5 * gen.standard_normal(d)).astype(np.float32),
        )
        unfused = ad_affine(ad_layernorm(x, Tensor(gamma), Tensor(beta), 1e-5), Tensor(agent.a), Tensor(agent.b)).data
        g2, b2 = fuse_layernorm(gamma, beta, agent)
        fused = ad_layernorm(x, Tensor(g2), Tensor(b2), 1e-5).data
        assert np.max(np.abs(unfused - fused)) <= 1e-6


def test_fuse_linear_identity_and_arithmetic():
    w = np.asarray([[1.0, 2.0], [3.0, 4.0]])
    bias = np.asarray([1.0, 1.0])
    ident = AgentLayer.identity(2, np.float64)
    w2, b2 = fuse_linear(w, bias, ident)
    assert np.array_equal(w2, w) and np.array_equal(b2, bias)

    agent = _agent([2.0, 0.5], [0.0, 1.0])
    w2, b2 = fuse_linear(w, bias, agent)
    assert w2.tolist() == [[2.0, 4.0], [1.5, 2.0]]
    assert b2.tolist() == [2.0, 1.5]


def test_fuse_linear_matches_unfused_path():
    gen = rng.derive(2, "fuse-lin")
    for _ in range(20):
        d_out, d_in = 5, 7
        x = Tensor(gen.standard_normal((3, d_in)).astype(np.float32))
        w = (gen.standard_normal((d_out, d_in)) / np.sqrt(d_in)).astype(np.float32)
        bias = gen.standard_normal(d_out).astype(np.float32)
        agent = AgentLayer(
            (1.0 + 0.5 * gen.standard_normal(d_out)).astype(np.float32),
            (0.5 * gen.standard_normal(d_out)).astype(np.float32),
        )
        unfused = ad_affine(ad_linear(x, Tensor(w), Tensor(bias)), Tensor(agent.a), Tensor(agent.b)).data
        w2, b2 = fuse_linear(w, bias, agent)
        fused = ad_linear(x, Tensor(w2), Tensor(b2)).data
        assert np.max(np.abs(unfused - fused)) <= 1e-6


def test_fuse_linear_row_locality():
    gen = rng.derive(3, "locality")
    w = gen.standard_normal((5, 4))
    bias = gen.standard_normal(5)
    agent = AgentLayer.identity(5, np.float64)
    a_eff = np.ones(5)
    a_eff[2] = 3.5
    w2, _ = fuse_linear(w, bias, agent, effective_a=a_eff)
    changed = np.any(w2 != w, axis=1)
    assert changed.tolist() == [False, False, True, False, False]


def test_fuse_model_all_init_is_bitwise_frozen(tiny_model, tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(4, "sites"), np.float64)
    fused = fuse_model(tiny_model, sites)
    before = dict(tiny_model.named_tensors())
    for name, arr in fused.named_tensors():
        assert np.array_equal(arr, before[name]), name
    # folding adds nothing: same tensor structure, same total size
    assert sum(a.size for _, a in fused.named_tensors()) == sum(a.size for _, a in before.items())


def test_fuse_model_matches_hooked_outputs(tiny_model, tiny_cfg):
    worst = 0.0
    gen = rng.derive(5, "fuse-inputs")
    for trial in range(100):
        mode = list(CouplingMode)[trial % 4]
        sites = build_sites(tiny_cfg, mode, 2, 4, rng.derive(6, "s", trial), np.float64)
        randomize_sites(sites, rng.derive(7, "p", trial))
        fused = fuse_model(tiny_model, sites)
        scalings = build_scaling_map(sites)
        tokens = gen.integers(0, tiny_cfg.vocab_size, size=4)
        patches = gen.standard_normal((tiny_cfg.N_v, tiny_cfg.d_v))
        a = text_forward(tokens, tiny_cfg, tiny_model.text, scalings).data
        b = text_forward(tokens, tiny_cfg, fused.text).data
        c = image_forward(patches, tiny_cfg, tiny_model.image, scalings).data
        d = image_forward(patches, tiny_cfg, fused.image).data
        worst = max(worst, np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a))))
        worst = max(worst, np.max(np.abs(c - d)) / max(1.0, np.max(np.abs(c))))
    assert worst <= 1e-10


def test_fuse_model_with_bridge_shift(tiny_model, tiny_cfg):
    sites = build_sites(
        tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(8, "s"), np.float64, bridge_shift=True
    )
    randomize_sites(sites, rng.derive(9, "p"))
    fused = fuse_model(tiny_model, sites)
    scalings = build_scaling_map(sites)
    tokens = [1, 2]
    a = text_forward(tokens, tiny_cfg, tiny_model.text, scalings).data
    b = text_forward(tokens, tiny_cfg, fused.text).data
    assert np.max(np.abs(a - b)) <= 1e-10


# the frozen tensors each position folds into, per block (1a-3) or once (4, 5)
_FOLDED = {
    "1a": ("ln1/gamma", "ln1/beta"),
    "1b": ("ln2/gamma", "ln2/beta"),
    "2": ("attn/o/w", "attn/o/b"),
    "3": ("mlp/fc2/w", "mlp/fc2/b"),
    "4": ("final_ln/gamma", "final_ln/beta"),
    "5": ("proj/w", "proj/b"),
}


@pytest.mark.parametrize("pos", sorted(_FOLDED))
def test_fuse_model_folds_each_position_into_its_own_tensors(tiny_model, tiny_cfg, pos):
    sites = build_sites(
        tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(22, "s"), np.float64, True, positions=(pos,)
    )
    randomize_sites(sites, rng.derive(23, "p"))
    fused = fuse_model(tiny_model, sites)
    before = dict(tiny_model.named_tensors())
    blocks = [f"block{i}/" for i in range(tiny_cfg.L)] if pos in ("1a", "1b", "2", "3") else [""]
    want = {f"frozen/{m}/{b}{leaf}" for m in ("text", "image") for b in blocks for leaf in _FOLDED[pos]}
    changed = {name for name, arr in fused.named_tensors() if not np.array_equal(arr, before[name])}
    assert changed == want
    assert list(dict(fused.named_tensors())) == list(before)
    assert not any(np.shares_memory(arr, before[name]) for name, arr in fused.named_tensors())


# ------------------------------------------------------------------
# gradient routing through the coupling


def _loss_on(feat):
    from mailpp import autodiff as ad

    return ad.reduce_sum(ad.mul(feat, feat))


def _grads_for_losses(model, sites, which):
    """Backward of an image-only or text-only loss; returns nonzero-grad names."""
    tape = Tape()
    values = {}
    for key, site in sites.items():
        for local, arr in site.params():
            values[f"{key}/{local}"] = tape.leaf(arr)
    scalings = build_scaling_map(sites, values)
    if which == "image":
        patches = rng.derive(12, "gi").standard_normal((model.cfg.N_v, model.cfg.d_v))
        loss = _loss_on(image_forward(patches, model.cfg, model.image, scalings))
    else:
        loss = _loss_on(text_forward([1, 2, 3], model.cfg, model.text, scalings))
    grads = tape.backward(loss)
    return {name for name, leaf in values.items() if np.any(grads[leaf.node].data != 0.0)}


def test_ivlu_routes_no_parameter_to_both_modalities(tiny_model, tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.IVLU, 2, 4, rng.derive(10, "s"), np.float64)
    randomize_sites(sites, rng.derive(11, "p"))
    img_names = _grads_for_losses(tiny_model, sites, "image")
    txt_names = _grads_for_losses(tiny_model, sites, "text")
    assert img_names and txt_names
    assert not (img_names & txt_names)


def test_bidirectional_meta_gets_gradient_from_text_loss(tiny_model, tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(12, "s"), np.float64)
    randomize_sites(sites, rng.derive(13, "p"))  # W_up perturbed away from zero
    txt_names = _grads_for_losses(tiny_model, sites, "text")
    assert any(name.endswith("meta/a_m") for name in txt_names)
    img_names = _grads_for_losses(tiny_model, sites, "image")
    assert any(name.endswith("meta/a_m") for name in img_names)


def test_text_to_image_bridge_gets_gradient_from_image_loss(tiny_model, tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.TEXT_TO_IMAGE, 2, 4, rng.derive(14, "s"), np.float64)
    randomize_sites(sites, rng.derive(15, "p"))
    img_names = _grads_for_losses(tiny_model, sites, "image")
    assert any("bridge_v/w_up" in n for n in img_names)
    assert any("bridge_v/w_down" in n for n in img_names)
    # the text scaling is shared into the image path through the bridge
    assert any(n.endswith("text/a") for n in img_names)


# ------------------------------------------------------------------
# bridge norms


def test_bridge_norm_fresh_site_is_zero(tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(16, "s"), np.float64)
    for site in sites.values():
        assert bridge_norm(site, "image") == 0.0
        assert bridge_norm(site, "text") == 0.0


def test_bridge_norm_scalar_case():
    site = _scalar_site(CouplingMode.BIDIRECTIONAL, 1.0, 1.0, w_up_v=1.0, w_down_v=0.5, w_up_t=1.0, w_down_t=1.0, a_m=1.0)
    assert bridge_norm(site, "image") == pytest.approx(50.0)  # d=1: 100 * |0.5|


def test_bridge_norm_sign_flip_invariant(tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(17, "s"), np.float64)
    randomize_sites(sites, rng.derive(18, "p"))
    site = next(iter(sites.values()))
    before = bridge_norm(site, "image")
    site.bridge_v.w_up = -site.bridge_v.w_up
    site.bridge_v.w_down = -site.bridge_v.w_down
    assert bridge_norm(site, "image") == pytest.approx(before, rel=1e-12)


def test_bridge_norm_requires_bidirectional(tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.IVLU, 2, 4, rng.derive(19, "s"), np.float64)
    with pytest.raises(ValueError, match="bidirectional"):
        bridge_norm(next(iter(sites.values())), "image")


# ------------------------------------------------------------------
# counting and structure


def test_site_ordering_and_keys(tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.IVLU, 1, 2, rng.derive(20, "s"), np.float64)
    keys = [str(k) for k in sites]
    assert keys[:4] == ["block0.1a", "block0.1b", "block0.2", "block0.3"]
    assert keys[-2:] == ["final.4", "final.5"]
    assert len(keys) == 4 * tiny_cfg.L + 2
    assert SiteKey.parse("block1.2") == SiteKey(1, "2")
    assert SiteKey.parse("final.5") == SiteKey(None, "5")


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(list(CouplingMode)),
    rank=st.integers(1, 3),
    d_m=st.integers(3, 6),
    positions=st.sets(st.sampled_from(["1a", "1b", "2", "3", "4", "5"]), min_size=1).map(tuple),
    shift=st.booleans(),
)
def test_counter_matches_enumeration(mode, rank, d_m, positions, shift):
    from mailpp.encoder import EncoderConfig
    from mailpp.verify import count_trainable_params

    cfg = EncoderConfig(L=2, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=5, mlp_ratio=2, vocab_size=24)
    if mode == CouplingMode.IVLU and shift:
        shift = False
    total, breakdown = count_trainable_params(cfg, mode, rank, d_m, shift, positions)
    sites = build_sites(cfg, mode, rank, d_m, rng.derive(21, "s"), np.float32, shift, positions)
    assert total == trainable_param_count(sites)
    assert set(breakdown) == {str(k) for k in sites}
    for key, site in sites.items():
        assert breakdown[str(key)] == sum(a.size for _, a in site.params())
