"""The encoders against two other statements of what they compute.

- A textbook reference, written from the model's description in the
  README: plain f64 numpy, one input at a time, a loop per block and per
  head, every row of every block, GELU through ``math.erf``, LayerNorm
  with eps inside the square root, a causal mask of -inf, the text read
  at its last token and the image at its class token, and the hooks as
  ``y * a + b`` at the six positions.
- The full-row encoders: a copy of the blocks and the readout as they ran
  before the last block was cut to the readout rows, every row of every
  block and then the readout row, on the same autodiff primitives. The
  pruned encoders' features and tape gradients must match them.
"""

import dataclasses
import math

import numpy as np
import pytest

from mailpp import autodiff as ad
from mailpp import encoder, rng
from mailpp.agents import CouplingMode, build_scaling_map, build_sites, flat_views, named_params
from mailpp.autodiff import Tape, Tensor
from mailpp.encoder import image_forward, init_dual_encoder, text_forward
from mailpp.verify import random_toy_model, randomize_sites, relative_error

TOL = {np.float64: 1e-12, np.float32: 1e-5}
_LAYOUTS = [(mode, False) for mode in CouplingMode]
_LAYOUTS += [(mode, True) for mode in CouplingMode if mode != CouplingMode.IVLU]


def _toy(seed, dtype, L=None):
    """A random toy model; ``L`` overrides its block count."""
    cfg = random_toy_model(seed).cfg
    if L is not None:
        cfg = dataclasses.replace(cfg, L=L)
    return init_dual_encoder(cfg, rng.derive(seed, "reference-weights"), dtype)


def _sites(model, mode, bridge_shift, seed):
    dtype = model.dtype
    sites = build_sites(model.cfg, mode, 2, 4, rng.derive(seed, "reference-sites"), dtype, bridge_shift)
    randomize_sites(sites, rng.derive(seed, "reference-perturb"))
    return sites


def _inputs(cfg, seed, dtype, b=4):
    """``b`` texts of mixed lengths (1 and N_t among them) and ``b`` images."""
    gen = rng.derive(seed, "reference-inputs")
    lengths = [1, cfg.N_t] + [int(n) for n in gen.integers(1, cfg.N_t + 1, size=b - 2)]
    tokens = [gen.integers(0, cfg.vocab_size, size=n) for n in lengths]
    return tokens, gen.standard_normal((b, cfg.N_v, cfg.d_v)).astype(dtype)


# ------------------------------------------------------------------
# the textbook reference


def _gelu(x):
    return np.vectorize(lambda v: 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))))(x)


def _layernorm(x, gamma, beta, eps):
    out = np.empty_like(x)
    for r, v in enumerate(x):
        mu = v.sum() / v.size
        var = ((v - mu) ** 2).sum() / v.size
        out[r] = (v - mu) / math.sqrt(var + eps) * gamma + beta
    return out


def _reference(model, m, item, hooks):
    """One input's feature in f64: a token id sequence for text, (N_v, d_v) patches for an image."""
    cfg = model.cfg
    w = {name: np.asarray(arr, dtype=np.float64) for name, arr in model.arrays.items()}
    p = f"frozen/{m}/"
    if m == "text":
        x, read = w[p + "embed"][item] + w[p + "pos"][: len(item)], len(item) - 1
    else:
        x, read = np.vstack([w[p + "cls"], np.asarray(item, dtype=np.float64)]) + w[p + "pos"], 0
    n, d = x.shape
    dh = d // cfg.n_heads

    def hook(y, block, pos):
        a, b = hooks.get((m, block, pos), (1.0, 0.0))
        return y * a + b

    def lin(v, name):
        return v @ w[name + "/w"].T + w[name + "/b"]

    def ln(v, name):
        return _layernorm(v, w[name + "/gamma"], w[name + "/beta"], cfg.eps)

    for i in range(cfg.L):
        blk = f"{p}block{i}/"
        h = hook(ln(x, blk + "ln1"), i, "1a")
        q, k, v = (lin(h, blk + f"attn/{t}") for t in "qkv")
        ctx = np.empty_like(x)
        for head in range(cfg.n_heads):
            c = slice(head * dh, (head + 1) * dh)
            s = q[:, c] @ k[:, c].T / math.sqrt(dh)
            if m == "text":
                s = s + np.triu(np.full((n, n), -np.inf), 1)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            ctx[:, c] = e / e.sum(axis=1, keepdims=True) @ v[:, c]
        x = x + hook(lin(ctx, blk + "attn/o"), i, "2")
        h2 = hook(ln(x, blk + "ln2"), i, "1b")
        x = x + hook(lin(_gelu(lin(h2, blk + "mlp/fc1")), blk + "mlp/fc2"), i, "3")
    feat = hook(ln(x[read : read + 1], p + "final_ln"), None, "4")
    return hook(lin(feat, p + "proj"), None, "5")[0]


def _f64_hooks(scalings):
    return {key: (a.data.astype(np.float64), b.data.astype(np.float64)) for key, (a, b) in (scalings or {}).items()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode,bridge_shift", _LAYOUTS)
@pytest.mark.parametrize("seed", range(3))
def test_both_encoders_match_the_textbook_reference(seed, mode, bridge_shift, dtype):
    model = _toy(seed, dtype)
    tokens, patches = _inputs(model.cfg, seed, dtype)
    for scalings in (None, build_scaling_map(_sites(model, mode, bridge_shift, seed))):
        hooks = _f64_hooks(scalings)
        want_t = np.stack([_reference(model, "text", t, hooks) for t in tokens])
        want_v = np.stack([_reference(model, "image", p, hooks) for p in patches])
        assert relative_error(text_forward(tokens, model, scalings).data, want_t) <= TOL[dtype]
        assert relative_error(image_forward(patches, model, scalings).data, want_v) <= TOL[dtype]
        assert relative_error(text_forward(tokens[0], model, scalings).data, want_t[0]) <= TOL[dtype]
        assert relative_error(image_forward(patches[0], model, scalings).data, want_v[0]) <= TOL[dtype]


# ------------------------------------------------------------------
# the full-row encoders: every row of every block, then the readout row


def _full_row_blocks_forward(x, model, m, mask, scalings):
    cfg, t = model.cfg, model.arrays
    eps = cfg.eps
    for i in range(cfg.L):
        p = f"frozen/{m}/block{i}/"
        h = ad.layernorm(x, t[p + "ln1/gamma"], t[p + "ln1/beta"], eps)
        h = encoder._apply_hook(h, (m, i, "1a"), scalings)
        q = ad.linear(h, t[p + "attn/q/w"], t[p + "attn/q/b"])
        k = ad.linear(h, t[p + "attn/k/w"], t[p + "attn/k/b"])
        v = ad.linear(h, t[p + "attn/v/w"], t[p + "attn/v/b"])
        ctx = ad.attention_core(q, k, v, cfg.n_heads, mask)
        o = ad.linear(ctx, t[p + "attn/o/w"], t[p + "attn/o/b"])
        o = encoder._apply_hook(o, (m, i, "2"), scalings)
        x = ad.add(x, o)
        h2 = ad.layernorm(x, t[p + "ln2/gamma"], t[p + "ln2/beta"], eps)
        h2 = encoder._apply_hook(h2, (m, i, "1b"), scalings)
        u = ad.linear(h2, t[p + "mlp/fc1/w"], t[p + "mlp/fc1/b"])
        u = ad.gelu(u)
        u = ad.linear(u, t[p + "mlp/fc2/w"], t[p + "mlp/fc2/b"])
        u = encoder._apply_hook(u, (m, i, "3"), scalings)
        x = ad.add(x, u)
    return x


def _full_row_readout(x, index, model, m, scalings):
    t = model.arrays
    p = f"frozen/{m}/"
    feat = ad.row(x, index)
    feat = ad.layernorm(feat, t[p + "final_ln/gamma"], t[p + "final_ln/beta"], model.cfg.eps)
    feat = encoder._apply_hook(feat, (m, None, "4"), scalings)
    feat = ad.linear(feat, t[p + "proj/w"], t[p + "proj/b"])
    feat = encoder._apply_hook(feat, (m, None, "5"), scalings)
    return feat


def _both_paths(monkeypatch, run):
    """``run()`` on the pruned encoders, then on the full-row copy."""
    pruned = run()
    with monkeypatch.context() as mp:
        mp.setattr(
            encoder,
            "_blocks_forward",
            lambda x, index, model, m, mask, scalings: _full_row_readout(
                _full_row_blocks_forward(x, model, m, mask, scalings), index, model, m, scalings
            ),
        )
        mp.setattr(encoder, "_readout", lambda x, model, m, scalings: x)
        return pruned, run()


def _features_and_grads(model, sites, tokens, patches, trials):
    """Both encoders' features and the tape gradients of a fixed weighted sum of them, per trainable name.

    ``trials`` > 0 gives every leaf a leading trial axis of that length.
    """
    flat = np.concatenate([arr.reshape(-1) for _, arr in named_params(sites)])
    if trials:
        flat = flat + 0.05 * rng.derive(trials, "reference-trials").standard_normal((trials, flat.size))
        flat = flat.astype(model.dtype)
    tape = Tape()
    leaves = {name: tape.leaf(piece, name) for name, piece in flat_views(flat, sites).items()}
    scalings = build_scaling_map(sites, leaves)
    feats = [text_forward(tokens, model, scalings), image_forward(patches, model, scalings)]
    gen = rng.derive(0, "reference-loss-weights")
    terms = [ad.reduce_sum(ad.mul(f, Tensor(gen.standard_normal(f.shape).astype(model.dtype)))) for f in feats]
    grads = tape.backward(ad.add(*terms))
    return [f.data for f in feats], {name: grads[leaf.node].data for name, leaf in leaves.items()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("mode,bridge_shift", _LAYOUTS)
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_pruned_encoders_match_the_full_row_encoders(monkeypatch, L, mode, bridge_shift, dtype):
    model = _toy(L, dtype, L=L)
    sites = _sites(model, mode, bridge_shift, L)
    tokens, patches = _inputs(model.cfg, L, dtype)
    for trials in (0, 3):
        (feats, grads), (feats_full, grads_full) = _both_paths(
            monkeypatch, lambda: _features_and_grads(model, sites, tokens, patches, trials)
        )
        lead = (trials,) if trials else ()
        for f, f_full in zip(feats, feats_full):
            assert f.shape == f_full.shape == lead + (len(tokens), model.cfg.d_t) and f.dtype == dtype
            assert relative_error(f, f_full) <= TOL[dtype], trials
        assert list(grads) == list(grads_full)
        last = f"block{L - 1}."
        assert {last + "1b/text/a", last + "3/image/b"} <= set(grads)
        for name in grads:
            assert grads[name].shape == grads_full[name].shape
            assert relative_error(grads[name], grads_full[name]) <= TOL[dtype], (name, trials)
    scalings = build_scaling_map(sites)

    def single():
        return [text_forward(tokens[2], model, scalings).data, image_forward(patches[2], model, scalings).data]

    one = _both_paths(monkeypatch, single)
    for f, f_full in zip(*one):
        assert f.shape == f_full.shape == (model.cfg.d_t,)
        assert relative_error(f, f_full) <= TOL[dtype]


@pytest.mark.parametrize("trials", [(), (3,)])
def test_the_last_blocks_mlp_runs_on_the_readout_rows_only(monkeypatch, trials):
    model = _toy(0, np.float64, L=3)
    cfg = model.cfg
    tokens, patches = _inputs(cfg, 0, np.float64, b=5)
    scalings = None
    if trials:  # hooks with trial axes, which every later activation then carries
        ones = {m: Tensor(np.ones(trials + (cfg.width(m),))) for m in ("text", "image")}
        scalings = {(m, 0, "1a"): (ones[m], ones[m]) for m in ones}
    shapes = []
    gelu = ad.gelu
    monkeypatch.setattr(ad, "gelu", lambda a: (shapes.append(a.shape), gelu(a))[1])
    text_forward(tokens, model, scalings)
    image_forward(patches, model, scalings)
    text_forward(tokens[1], model)
    hidden_t, hidden_v = cfg.mlp_ratio * cfg.d_t, cfg.mlp_ratio * cfg.d_v
    assert shapes == [
        trials + (5, cfg.N_t, hidden_t),
        trials + (5, cfg.N_t, hidden_t),
        trials + (5, hidden_t),
        trials + (5, cfg.N_v + 1, hidden_v),
        trials + (5, cfg.N_v + 1, hidden_v),
        trials + (5, hidden_v),
        (cfg.N_t, hidden_t),
        (cfg.N_t, hidden_t),
        (hidden_t,),
    ]
