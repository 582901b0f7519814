import inspect
import itertools
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mailpp import autodiff as ad
from mailpp import rng
from mailpp.agents import (
    CoupledAgentSite,
    CouplingMode,
    SiteKey,
    bridge_norm,
    build_scaling_map,
    build_sites,
    flat_views,
    flatten_params,
    fuse_layernorm,
    fuse_linear,
    fuse_model,
    named_params,
    site_shapes,
    trainable_param_count,
)
from mailpp.autodiff import Tape, Tensor
from mailpp.autodiff import affine as ad_affine
from mailpp.autodiff import layernorm as ad_layernorm
from mailpp.autodiff import linear as ad_linear
from mailpp.config import RunConfig
from mailpp.encoder import ALL_POSITIONS, BLOCK_POSITIONS, EncoderConfig, image_forward, init_dual_encoder, text_forward
from mailpp.verify import count_trainable_params, randomize_sites


def _identity(w_v, w_t):
    """Identity agents of the given widths, as site table entries."""
    return {"image/a": np.ones(w_v), "image/b": np.zeros(w_v), "text/a": np.ones(w_t), "text/b": np.zeros(w_t)}


def _bridge(field, w_down, w_up):
    """One bridge's table entries from its W_down and W_up."""
    return {f"{field}/w_up": np.asarray(w_up, np.float64), f"{field}/w_down": np.asarray(w_down, np.float64)}


def _scalar_site(mode, a_v, a_t, w_up_v=0.0, w_down_v=0.0, w_up_t=0.0, w_down_t=0.0, a_m=None):
    """Width-1 site with explicit bridge entries, for hand-checkable arithmetic."""
    arrays = {"image/a": np.asarray([a_v]), "image/b": np.zeros(1), "text/a": np.asarray([a_t]), "text/b": np.zeros(1)}
    if mode == CouplingMode.TEXT_TO_IMAGE:
        arrays |= _bridge("bridge_v", [[w_down_v]], [[w_up_v]])
    elif mode == CouplingMode.IMAGE_TO_TEXT:
        arrays |= _bridge("bridge_t", [[w_down_t]], [[w_up_t]])
    elif mode == CouplingMode.BIDIRECTIONAL:
        arrays |= _bridge("bridge_v", [[w_down_v]], [[w_up_v]])
        arrays |= _bridge("bridge_t", [[w_down_t]], [[w_up_t]])
        arrays["meta/a_m"] = np.asarray([float(a_m)])
    return CoupledAgentSite(key=SiteKey(None, "5"), mode=mode, bridge_shift=False, arrays=arrays)


# ------------------------------------------------------------------
# effective scalings


def test_effective_fresh_bridges_are_transparent(tiny_cfg):
    for mode in CouplingMode:
        sites = build_sites(tiny_cfg, mode, 2, 4, rng.derive(0, "t", mode.value), np.float64)
        for site in sites.values():
            a_v, a_t = site.effective()[:2]
            assert np.array_equal(a_v.data, site.arrays["image/a"])
            assert np.array_equal(a_t.data, site.arrays["text/a"])


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
            bridge_shift=False,
            arrays=_identity(2, 2) | _bridge("bridge_v", np.zeros((1, 2)), np.zeros((2, 1))),
        )
    with pytest.raises(ValueError, match="bidirectional"):
        CoupledAgentSite(
            key=SiteKey(None, "4"), mode=CouplingMode.BIDIRECTIONAL, bridge_shift=False, arrays=_identity(2, 2)
        )


def test_site_table_is_kept_in_params_order():
    site = _scalar_site(CouplingMode.BIDIRECTIONAL, 1.0, 1.0, a_m=1.0)  # built with meta/a_m last
    assert list(site.arrays) == [
        "image/a",
        "image/b",
        "text/a",
        "text/b",
        "meta/a_m",
        "bridge_v/w_up",
        "bridge_v/w_down",
        "bridge_t/w_up",
        "bridge_t/w_down",
    ]


def test_shift_coupling_follows_the_scale_rule():
    def site(mode, bridge_shift, *coupling):
        arrays = _identity(3, 2)
        for entries in coupling:
            arrays |= entries
        return CoupledAgentSite(key=SiteKey(None, "4"), mode=mode, bridge_shift=bridge_shift, arrays=arrays)

    def t2i(field):  # text (2) -> image (3)
        return _bridge(field, np.zeros((1, 2)), np.zeros((3, 1)))

    def i2t(field):
        return _bridge(field, np.zeros((1, 3)), np.zeros((2, 1)))

    site(CouplingMode.TEXT_TO_IMAGE, True, t2i("bridge_v"), t2i("shift_bridge_v")).effective()
    # an image -> text shift bridge where text -> image belongs: the bridge's first product raises
    miswired = site(CouplingMode.TEXT_TO_IMAGE, True, t2i("bridge_v"), i2t("shift_bridge_v"))
    with pytest.raises(ValueError, match=re.escape("matmul: inner dimension mismatch ((1, 3) @ (2,))")):
        miswired.effective()
    with pytest.raises(ValueError, match="text_to_image"):  # shift bridge without bridge_shift
        site(CouplingMode.TEXT_TO_IMAGE, False, t2i("bridge_v"), t2i("shift_bridge_v"))

    def m2v(field):
        return _bridge(field, np.zeros((1, 4)), np.zeros((3, 1)))

    def m2t(field):
        return _bridge(field, np.zeros((1, 4)), np.zeros((2, 1)))

    coupled = (m2v("bridge_v"), m2t("bridge_t"), {"meta/a_m": np.ones(4)})
    with pytest.raises(ValueError, match="bidirectional"):  # shift bridges without a shift meta vector
        site(CouplingMode.BIDIRECTIONAL, True, *coupled, m2v("shift_bridge_v"), m2t("shift_bridge_t"))
    with pytest.raises(ValueError, match="coupled mode"):
        site(CouplingMode.IVLU, True)


def test_bridge_init_distribution_and_rank():
    gen = rng.derive(0, "bridge-init")
    # 40 in-block sites, each with one text (64) -> image (32) bridge of rank 4
    cfg = EncoderConfig(L=10, d_t=64, d_v=32)
    sites = build_sites(cfg, CouplingMode.TEXT_TO_IMAGE, 4, 1, gen, np.float64, positions=BLOCK_POSITIONS)
    assert len(sites) == 40
    assert all(np.all(s.arrays["bridge_v/w_up"] == 0.0) for s in sites.values())
    downs = np.concatenate([s.arrays["bridge_v/w_down"].ravel() for s in sites.values()])
    assert downs.size == 40 * 4 * 64
    assert abs(float(downs.std()) - 1.0 / np.sqrt(64)) < 0.01  # std = 1/sqrt(in_dim)
    # the rank rule, 1 <= rank <= min(in, out) for every bridge, in every coupled mode and shift setting;
    # each case above the bound names the first bridge that breaks it, at d_t = 4, d_v = 8, d_m = 16
    small = EncoderConfig(d_t=4, d_v=8)
    cases = {
        (CouplingMode.TEXT_TO_IMAGE, 0): "rank must be positive",
        (CouplingMode.TEXT_TO_IMAGE, 5): "rank 5 outside [1, min(4, 8)]",
        (CouplingMode.IMAGE_TO_TEXT, 0): "rank must be positive",
        (CouplingMode.IMAGE_TO_TEXT, 5): "rank 5 outside [1, min(8, 4)]",
        (CouplingMode.BIDIRECTIONAL, 0): "rank must be positive",
        # meta -> image takes 5; meta -> text does not
        (CouplingMode.BIDIRECTIONAL, 5): "rank 5 outside [1, min(16, 4)]",
    }
    for (mode, rank), message in cases.items():
        for shift in (False, True):
            with pytest.raises(ValueError, match=re.escape(message)):
                build_sites(small, mode, rank, 16, gen, bridge_shift=shift)
            build_sites(small, mode, 4, 16, gen, bridge_shift=shift)  # rank = min(d_t, d_v) is allowed
    with pytest.raises(ValueError, match=re.escape("rank 3 outside [1, min(2, 8)]")):  # rank > d_m
        build_sites(small, CouplingMode.BIDIRECTIONAL, 3, 2, gen)


def _reference_shapes(cfg, mode, rank, d_m, shift, positions):
    """The layout sized site by site from the coupling table of the module docstring, for ``site_shapes`` to match."""
    bridges = {  # field -> (side it adds to, vector it reads)
        CouplingMode.IVLU: {},
        CouplingMode.TEXT_TO_IMAGE: {"bridge_v": ("image", "text")},
        CouplingMode.IMAGE_TO_TEXT: {"bridge_t": ("text", "image")},
        CouplingMode.BIDIRECTIONAL: {"bridge_v": ("image", "meta"), "bridge_t": ("text", "meta")},
    }[mode]
    keys = [SiteKey(i, p) for i in range(cfg.L) for p in ("1a", "1b", "2", "3") if p in positions]
    keys += [SiteKey(None, p) for p in ("4", "5") if p in positions]
    layout = []
    for key in keys:
        widths = {"image": cfg.d_t if key.pos == "5" else cfg.d_v, "text": cfg.d_t, "meta": d_m}
        table = [("image/a", (widths["image"],)), ("image/b", (widths["image"],))]
        table += [("text/a", (widths["text"],)), ("text/b", (widths["text"],))]
        for prefix, meta_name in (("", "meta/a_m"), ("shift_", "shift_meta/b_m"))[: 1 + shift]:
            if mode == CouplingMode.BIDIRECTIONAL:
                table.append((meta_name, (d_m,)))
            for field, (side, source) in bridges.items():
                table.append((f"{prefix}{field}/w_up", (widths[side], rank)))
                table.append((f"{prefix}{field}/w_down", (rank, widths[source])))
        layout.append((key, table))
    return layout


def test_site_shapes_shares_one_table_per_hook_width_pair():
    """Every site's table equals the per-site reference, in order; sites of one hook-width pair share it."""
    subsets = [c for n in range(1, 7) for c in itertools.combinations(ALL_POSITIONS, n)]  # with and without "5"
    for L in (1, 2, 3):
        cfg = EncoderConfig(L=L, d_t=8, d_v=12, n_heads=2)
        for positions in subsets:
            for mode, shift in _ALL_COUPLINGS:
                layout = site_shapes(cfg, mode, 3, 5, shift, positions)
                want = _reference_shapes(cfg, mode, 3, 5, shift, positions)
                assert [(key, list(table.items())) for key, table in layout.items()] == want
                tables = {}  # position 5's hook widths (8, 8) or everyone else's (12, 8) -> the one table
                for key, table in layout.items():
                    assert tables.setdefault(key.pos == "5", table) is table


# ------------------------------------------------------------------
# folding


def test_fuse_layernorm_identity_and_arithmetic():
    gamma = np.asarray([1.0, 1.0])
    beta = np.asarray([0.5, 0.0])
    g2, b2 = fuse_layernorm(gamma, beta, np.ones(2), np.zeros(2))
    assert np.array_equal(g2, gamma) and np.array_equal(b2, beta)

    g2, b2 = fuse_layernorm(gamma, beta, np.asarray([2.0, 3.0]), np.asarray([1.0, 1.0]))
    assert g2.tolist() == [2.0, 3.0]
    assert b2.tolist() == [2.0, 1.0]


def test_fuse_layernorm_matches_unfused_path():
    gen = rng.derive(1, "fuse-ln")
    for _ in range(20):
        d = 6
        x = Tensor(gen.standard_normal((4, d)).astype(np.float32))
        gamma = (1.0 + 0.3 * gen.standard_normal(d)).astype(np.float32)
        beta = (0.2 * gen.standard_normal(d)).astype(np.float32)
        a = (1.0 + 0.5 * gen.standard_normal(d)).astype(np.float32)
        b = (0.5 * gen.standard_normal(d)).astype(np.float32)
        unfused = ad_affine(ad_layernorm(x, gamma, beta, 1e-5), Tensor(a), Tensor(b)).data
        g2, b2 = fuse_layernorm(gamma, beta, a, b)
        fused = ad_layernorm(x, g2, b2, 1e-5).data
        assert np.max(np.abs(unfused - fused)) <= 1e-6


def test_fuse_linear_identity_and_arithmetic():
    w = np.asarray([[1.0, 2.0], [3.0, 4.0]])
    bias = np.asarray([1.0, 1.0])
    w2, b2 = fuse_linear(w, bias, np.ones(2), np.zeros(2))
    assert np.array_equal(w2, w) and np.array_equal(b2, bias)

    w2, b2 = fuse_linear(w, bias, np.asarray([2.0, 0.5]), np.asarray([0.0, 1.0]))
    assert w2.tolist() == [[2.0, 4.0], [1.5, 2.0]]
    assert b2.tolist() == [2.0, 1.5]


def test_folds_reject_an_agent_pair_of_another_width():
    # a shift of width 1 would broadcast over the channels instead of raising
    gamma, w = np.ones(2), np.ones((2, 3))
    for a, b in ((np.ones(3), np.zeros(3)), (np.ones(2), np.zeros(1)), (np.ones(2), np.zeros(3))):
        with pytest.raises(ValueError, match="fuse_layernorm: agent pair"):
            fuse_layernorm(gamma, np.zeros(2), a, b)
        with pytest.raises(ValueError, match="fuse_linear: agent pair"):
            fuse_linear(w, np.zeros(2), a, b)


def test_fuse_linear_matches_unfused_path():
    gen = rng.derive(2, "fuse-lin")
    for _ in range(20):
        d_out, d_in = 5, 7
        x = Tensor(gen.standard_normal((3, d_in)).astype(np.float32))
        w = (gen.standard_normal((d_out, d_in)) / np.sqrt(d_in)).astype(np.float32)
        bias = gen.standard_normal(d_out).astype(np.float32)
        a = (1.0 + 0.5 * gen.standard_normal(d_out)).astype(np.float32)
        b = (0.5 * gen.standard_normal(d_out)).astype(np.float32)
        unfused = ad_affine(ad_linear(x, w, bias), Tensor(a), Tensor(b)).data
        w2, b2 = fuse_linear(w, bias, a, b)
        fused = ad_linear(x, w2, b2).data
        assert np.max(np.abs(unfused - fused)) <= 1e-6


def test_fuse_linear_row_locality():
    gen = rng.derive(3, "locality")
    w = gen.standard_normal((5, 4))
    bias = gen.standard_normal(5)
    a_eff = np.ones(5)
    a_eff[2] = 3.5
    w2, _ = fuse_linear(w, bias, a_eff, np.zeros(5))
    changed = np.any(w2 != w, axis=1)
    assert changed.tolist() == [False, False, True, False, False]


def test_fuse_model_all_init_is_bitwise_frozen(tiny_model, tiny_cfg):
    sites = build_sites(tiny_cfg, CouplingMode.BIDIRECTIONAL, 2, 4, rng.derive(4, "sites"), np.float64)
    fused = fuse_model(tiny_model, sites)
    before = dict(tiny_model.arrays)
    for name, arr in fused.arrays.items():
        assert np.array_equal(arr, before[name]), name
    # folding adds nothing: same tensor structure, same total size
    assert sum(a.size for a in fused.arrays.values()) == sum(a.size for a in before.values())


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
        a = text_forward(tokens, tiny_model, scalings).data
        b = text_forward(tokens, fused).data
        c = image_forward(patches, tiny_model, scalings).data
        d = image_forward(patches, fused).data
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
    a = text_forward(tokens, tiny_model, scalings).data
    b = text_forward(tokens, fused).data
    assert np.max(np.abs(a - b)) <= 1e-10


def _primitive_counts(forward) -> Counter:
    """Calls of each public ``mailpp.autodiff`` function while ``forward()`` runs."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name, fn in vars(ad).items():
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
                mp.setattr(ad, name, counting(name, fn))
        forward()
    return counts


def test_the_fused_model_runs_exactly_the_frozen_models_primitives():
    """Folding keeps the frozen model's cost (PAPER.md): the same primitive calls, and no ``affine``."""
    run_cfg = RunConfig()
    cfg = run_cfg.encoder
    model = init_dual_encoder(cfg, rng.derive(50, "w"), run_cfg.dtype)
    sites = run_cfg.sites(rng.derive(51, "s"))
    randomize_sites(sites, rng.derive(52, "p"))
    fused = fuse_model(model, sites)
    scalings = build_scaling_map(sites)
    tokens = [[1, 2, 3], [1, 4], [1, 5, 6, 7]]
    patches = rng.derive(53, "d").standard_normal((3, cfg.N_v, cfg.d_v)).astype(run_cfg.dtype)

    def counts(m, hooks=None):
        return _primitive_counts(lambda: (text_forward(tokens, m, hooks), image_forward(patches, m, hooks)))

    frozen, folded, hooked = counts(model), counts(fused), counts(model, scalings)
    assert folded == frozen
    assert "affine" not in frozen
    # the count sees the hooks: one affine per site and modality
    assert hooked["affine"] == 2 * len(sites) == 20
    assert hooked - Counter(affine=20) == frozen


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
    before = dict(tiny_model.arrays)
    blocks = [f"block{i}/" for i in range(tiny_cfg.L)] if pos in ("1a", "1b", "2", "3") else [""]
    want = {f"frozen/{m}/{b}{leaf}" for m in ("text", "image") for b in blocks for leaf in _FOLDED[pos]}
    changed = {name for name, arr in fused.arrays.items() if not np.array_equal(arr, before[name])}
    assert changed == want
    assert list(fused.arrays) == list(before)
    assert not any(np.shares_memory(arr, before[name]) for name, arr in fused.arrays.items())


# ------------------------------------------------------------------
# gradient routing through the coupling


def _loss_on(feat):
    from mailpp import autodiff as ad

    return ad.reduce_sum(ad.mul(feat, feat))


def _grads_for_losses(model, sites, which):
    """Backward of an image-only or text-only loss; returns nonzero-grad names."""
    tape = Tape()
    values = {name: tape.leaf(arr) for name, arr in named_params(sites)}
    scalings = build_scaling_map(sites, values)
    if which == "image":
        patches = rng.derive(12, "gi").standard_normal((model.cfg.N_v, model.cfg.d_v))
        loss = _loss_on(image_forward(patches, model, scalings))
    else:
        loss = _loss_on(text_forward([1, 2, 3], model, scalings))
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
    site.set_param("bridge_v/w_up", -site.arrays["bridge_v/w_up"])
    site.set_param("bridge_v/w_down", -site.arrays["bridge_v/w_down"])
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
        assert breakdown[str(key)] == sum(a.size for a in site.arrays.values())


_ALL_COUPLINGS = [(mode, False) for mode in CouplingMode] + [
    (mode, True) for mode in CouplingMode if mode != CouplingMode.IVLU
]


@pytest.mark.parametrize(
    "mode,bridge_shift", _ALL_COUPLINGS, ids=[f"{m.value}-shift{int(s)}" for m, s in _ALL_COUPLINGS]
)
def test_flatten_params_makes_every_entry_a_view_of_one_buffer(mode, bridge_shift):
    cfg = EncoderConfig(L=2, d_t=8, d_v=12, n_heads=2, N_t=6, N_v=5, mlp_ratio=2, vocab_size=24)
    sites = build_sites(cfg, mode, 2, 3, rng.derive(24, "s"), np.float32, bridge_shift)
    randomize_sites(sites, rng.derive(25, "p"))
    before = [(name, arr.copy()) for name, arr in named_params(sites)]
    flat = flatten_params(sites)
    total, _ = count_trainable_params(cfg, mode, 2, 3, bridge_shift)
    assert flat.shape == (total,) and flat.dtype == np.float32 and flat.flags.c_contiguous
    offset = 0
    for (name, arr), (name0, arr0) in zip(named_params(sites), before, strict=True):
        assert name == name0 and arr.shape == arr0.shape and np.array_equal(arr, arr0)
        assert np.shares_memory(arr, flat)
        assert np.array_equal(flat[offset : offset + arr.size], arr0.reshape(-1))  # named_params order
        offset += arr.size
    assert offset == flat.size

    key, site = next(iter(sites.items()))
    arr = site.arrays["text/b"]
    site.set_param("text/b", np.full(arr.shape, 7.0, np.float32))
    assert site.arrays["text/b"] is arr
    assert np.all(flat_views(flat, sites)[f"{key}/text/b"] == 7.0)
    assert np.count_nonzero(flat == 7.0) == arr.size
    with pytest.raises(KeyError):
        site.set_param("text/c", np.zeros(arr.shape, np.float32))
    with pytest.raises(ValueError, match="shape"):
        site.set_param("text/b", np.zeros(arr.size + 1, np.float32))
