"""A toy frozen dual encoder: paired text and image transformer stacks.

Both encoders are pre-norm transformers (LN -> MHSA -> residual,
LN -> MLP -> residual) with GELU MLPs. The text encoder uses a causal
mask and reads its feature from the last token; the image encoder is
bidirectional and reads from the class token, then projects to the text
width so the two feature spaces are comparable by cosine similarity.

Agent hooks can be attached at six positions:

  1a  after the first per-block LayerNorm
  1b  after the second per-block LayerNorm
  2   after the attention output projection
  3   after the second MLP linear
  4   after the final LayerNorm
  5   after the final projection

A forward pass takes an optional ``ScalingMap``: (modality, block | None,
position) -> (a_eff, b_eff). A position found in it is scaled and shifted
per channel (``y * a_eff + b_eff``); every other position passes through.
The vectors are (w,), or (*T, w) with leading trial axes T: one set of
agent values per trial, as the finite-difference oracle evaluates many
perturbed parameter points at once. Then every input is encoded once per
trial and the features gain the leading axes T.

Both forward passes take the whole model, ``text_forward(tokens, model,
scalings=None)`` and ``image_forward(patches, model, scalings=None)``, and
one input or a batch: (N_v, d_v) patches or a (B, N_v, d_v) batch, one id
sequence or a list of them. A text batch is right-padded to its longest
sequence and each row is read at its own last token; the causal mask makes
this exact (see ``text_forward``).

The readout reads one row per input, so the last block computes attention
for that query row alone (against every key and value) and runs the rest
of the block on it: the output projection, hook 2 and the attention
residual, then the MLP half (LN2, hook 1b, fc1, GELU, fc2, hook 3,
residual). That is exact: one query row's attention reads no other query
row, the other steps act on each row by itself, and nothing after them
reads another row. Keys, values and every earlier block run on all rows.

Weights are frozen: plain numpy arrays, never on a tape, never given
gradients, kept in one read-only table, ``DualEncoder.arrays``: checkpoint
name -> array, text then image, each in ``weight_shapes`` order (the one
statement of the layout). Each name says its modality, and each forward
pass reads only its own. Neither the table nor an entry can be rebound.
Building a model checks every weight for NaN/Inf once and names the first
bad one; the passes hand the arrays themselves to ``linear`` and
``layernorm``. An in-place write to a weight shows in the next pass, and a
non-finite value written that way is caught by the finite check on the
output of the primitive that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Literal, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

__all__ = [
    "Modality",
    "Position",
    "BLOCK_POSITIONS",
    "FINAL_POSITIONS",
    "ALL_POSITIONS",
    "EncoderConfig",
    "DualEncoder",
    "ScalingMap",
    "init_dual_encoder",
    "weight_shapes",
    "text_forward",
    "image_forward",
]

Modality = Literal["image", "text"]
Position = str

BLOCK_POSITIONS: tuple[Position, ...] = ("1a", "1b", "2", "3")
FINAL_POSITIONS: tuple[Position, ...] = ("4", "5")
ALL_POSITIONS: tuple[Position, ...] = BLOCK_POSITIONS + FINAL_POSITIONS

PAD_ID = 0  # right-padding id for shorter sequences in a text batch


@dataclass(frozen=True)
class EncoderConfig:
    """Shared dimensions for the paired encoders."""

    L: int = 2
    d_t: int = 32
    d_v: int = 48
    n_heads: int = 4
    N_t: int = 8
    N_v: int = 8  # patch tokens; a class token is prepended internally
    mlp_ratio: int = 4
    eps: float = 1e-5
    vocab_size: int = 64

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.d_t % self.n_heads != 0:
            raise ValueError(f"d_t={self.d_t} not divisible by n_heads={self.n_heads}")
        if self.d_v % self.n_heads != 0:
            raise ValueError(f"d_v={self.d_v} not divisible by n_heads={self.n_heads}")

    def width(self, modality: Modality) -> int:
        return self.d_v if modality == "image" else self.d_t

    def hook_width(self, modality: Modality, pos: Position) -> int:
        """Channel count seen by an agent at a given position."""
        if pos == "5":
            return self.d_t  # both projections land in the text width
        return self.width(modality)


@dataclass(frozen=True)
class DualEncoder:
    """The frozen model: config plus one read-only name -> array table.

    ``arrays`` is keyed by the checkpoint names (``frozen/<m>/embed``,
    ``frozen/<m>/block<i>/attn/q/w``, ...): text first, then image, each in
    ``weight_shapes`` order. Every weight is finite-checked on construction,
    and a NaN/Inf raises ``NonFiniteError``: ``<name>: non-finite value in
    weight``.
    """

    cfg: EncoderConfig
    arrays: Mapping[str, np.ndarray]

    def __post_init__(self):
        for name, arr in self.arrays.items():
            ad._check_finite(arr, name, "weight")
        object.__setattr__(self, "arrays", MappingProxyType(dict(self.arrays)))  # no entry rebinding either

    @property
    def dtype(self) -> np.dtype:
        return self.arrays["frozen/text/pos"].dtype

    def astype(self, dtype) -> "DualEncoder":
        if np.dtype(dtype) == self.dtype:  # as numpy's copy=False: no copy of a model already in dtype
            return self
        return DualEncoder(self.cfg, {name: arr.astype(dtype) for name, arr in self.arrays.items()})

    def frozen_digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name, arr in self.arrays.items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


# ------------------------------------------------------------------
# hooks


HookKey = tuple[Modality, int | None, Position]
# (a_eff, b_eff) per hook; values are Tensors so they can live on a tape
ScalingMap = dict[HookKey, tuple[Tensor, Tensor]]


def _apply_hook(y: Tensor, key: HookKey, scalings: ScalingMap | None) -> Tensor:
    """y * a_eff + b_eff for a hook in ``scalings``; any other position passes through."""
    ab = None if scalings is None else scalings.get(key)
    return y if ab is None else ad.affine(y, *ab)


def _trial_axes(scalings: ScalingMap | None) -> tuple[int, ...]:
    """The leading axes T of the scaling vectors, (*T, w); () for plain (w,) vectors."""
    for a, _ in (scalings or {}).values():
        return a.shape[:-1]
    return ()


# ------------------------------------------------------------------
# layout and initialization


def weight_shapes(cfg: EncoderConfig, modality: Modality) -> dict[str, tuple[int, ...]]:
    """The name and shape of every frozen tensor of one modality, in checkpoint order."""
    m, d, hidden = modality, cfg.width(modality), cfg.mlp_ratio * cfg.width(modality)
    shapes: dict[str, tuple[int, ...]] = {}
    if modality == "text":
        shapes[f"frozen/{m}/embed"] = (cfg.vocab_size, d)
        shapes[f"frozen/{m}/pos"] = (cfg.N_t, d)
    else:
        shapes[f"frozen/{m}/pos"] = (cfg.N_v + 1, d)
        shapes[f"frozen/{m}/cls"] = (d,)

    def lin(prefix: str, d_out: int, d_in: int) -> None:
        shapes[f"{prefix}/w"] = (d_out, d_in)
        shapes[f"{prefix}/b"] = (d_out,)

    for i in range(cfg.L):
        p = f"frozen/{m}/block{i}"
        shapes[f"{p}/ln1/gamma"] = shapes[f"{p}/ln1/beta"] = (d,)
        for tag in ("q", "k", "v", "o"):
            lin(f"{p}/attn/{tag}", d, d)
        shapes[f"{p}/ln2/gamma"] = shapes[f"{p}/ln2/beta"] = (d,)
        lin(f"{p}/mlp/fc1", hidden, d)
        lin(f"{p}/mlp/fc2", d, hidden)
    shapes[f"frozen/{m}/final_ln/gamma"] = shapes[f"frozen/{m}/final_ln/beta"] = (d,)
    lin(f"frozen/{m}/proj", cfg.d_t, d)
    return shapes


# init draws the blocks first, then embed/pos/cls, proj and final_ln; changing
# this order changes every initial weight
_DRAW_RANK = {"embed": 1, "pos": 1, "cls": 1, "proj": 2, "final_ln": 3}  # block<i>: 0
_DRAW_SCALE = {"b": 0.02, "beta": 0.1, "embed": 0.5, "pos": 0.1, "cls": 0.5}


def _draw_weights(cfg: EncoderConfig, modality: Modality, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
    """Random frozen weights of one modality, drawn in ``_DRAW_RANK`` order, kept in ``weight_shapes`` order."""
    shapes = weight_shapes(cfg, modality)

    def draw(name: str) -> np.ndarray:
        shape, leaf = shapes[name], name.rsplit("/", 1)[-1]
        z = rng.standard_normal(shape)
        if leaf == "w":
            return (z / np.sqrt(shape[1])).astype(dtype)
        if leaf == "gamma":  # mildly perturbed so folding tests exercise generic gamma/beta
            return (1.0 + 0.1 * z).astype(dtype)
        return (_DRAW_SCALE[leaf] * z).astype(dtype)

    drawn = {name: draw(name) for name in sorted(shapes, key=lambda n: _DRAW_RANK.get(n.split("/")[2], 0))}
    return {name: drawn[name] for name in shapes}


def init_dual_encoder(cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> DualEncoder:
    """Random frozen weights, the text encoder's drawn first."""
    return DualEncoder(cfg, {**_draw_weights(cfg, "text", rng, dtype), **_draw_weights(cfg, "image", rng, dtype)})


# ------------------------------------------------------------------
# forward passes


def _blocks_forward(
    x: Tensor,
    index: int | np.ndarray,
    model: DualEncoder,
    m: Modality,
    mask: np.ndarray | None,
    scalings: ScalingMap | None,
) -> Tensor:
    cfg, t, eps = model.cfg, model.arrays, model.cfg.eps
    for i in range(cfg.L):
        p = f"frozen/{m}/block{i}/"
        h = ad.layernorm(x, t[p + "ln1/gamma"], t[p + "ln1/beta"], eps)
        h = _apply_hook(h, (m, i, "1a"), scalings)
        q = ad.linear(h, t[p + "attn/q/w"], t[p + "attn/q/b"])
        k = ad.linear(h, t[p + "attn/k/w"], t[p + "attn/k/b"])
        v = ad.linear(h, t[p + "attn/v/w"], t[p + "attn/v/b"])
        last = i == cfg.L - 1  # from its attention on, the last block runs on the readout rows only
        ctx = ad.attention_core(q, k, v, cfg.n_heads, mask, index if last else None)
        o = ad.linear(ctx, t[p + "attn/o/w"], t[p + "attn/o/b"])
        o = _apply_hook(o, (m, i, "2"), scalings)
        if last:
            x = ad.row(x, index)
        x = ad.add(x, o)
        h2 = ad.layernorm(x, t[p + "ln2/gamma"], t[p + "ln2/beta"], eps)
        h2 = _apply_hook(h2, (m, i, "1b"), scalings)
        u = ad.linear(h2, t[p + "mlp/fc1/w"], t[p + "mlp/fc1/b"])
        u = ad.gelu(u)
        u = ad.linear(u, t[p + "mlp/fc2/w"], t[p + "mlp/fc2/b"])
        u = _apply_hook(u, (m, i, "3"), scalings)
        x = ad.add(x, u)
    return x


def _readout(x: Tensor, model: DualEncoder, m: Modality, scalings: ScalingMap | None) -> Tensor:
    t, p = model.arrays, f"frozen/{m}/"
    feat = ad.layernorm(x, t[p + "final_ln/gamma"], t[p + "final_ln/beta"], model.cfg.eps)
    feat = _apply_hook(feat, (m, None, "4"), scalings)
    feat = ad.linear(feat, t[p + "proj/w"], t[p + "proj/b"])
    feat = _apply_hook(feat, (m, None, "5"), scalings)
    return feat


def _token_rows(tokens, cfg: EncoderConfig) -> tuple[list[np.ndarray], bool]:
    """Validated id rows, and whether ``tokens`` was a batch of sequences."""
    if isinstance(tokens, np.ndarray):
        batched = tokens.ndim == 2
    else:
        tokens = list(tokens)
        batched = bool(tokens) and np.ndim(tokens[0]) == 1
    rows = [np.asarray(t, dtype=np.int64) for t in tokens] if batched else [np.asarray(tokens, dtype=np.int64)]
    if not rows:
        raise ValueError("text_forward: empty batch of sequences")
    for toks in rows:
        if toks.ndim != 1 or toks.size == 0:
            raise ValueError("text_forward: tokens must be a non-empty 1-D sequence")
        if toks.size > cfg.N_t:
            raise ValueError(f"text_forward: sequence length {toks.size} exceeds N_t={cfg.N_t}")
        if np.any(toks < 0) or np.any(toks >= cfg.vocab_size):
            raise ValueError("text_forward: token id out of vocabulary")
    return rows, batched


def text_forward(tokens, model: DualEncoder, scalings: ScalingMap | None = None) -> Tensor:
    """Encode token sequences to d_t features, each read from its last token.

    One 1-D sequence gives a (d_t,) feature. A batch (a list of sequences,
    lengths may differ, or a 2-D id array) gives (B, d_t) in one pass:
    shorter rows are right-padded with ``PAD_ID`` and row i is read at
    n_i - 1. Padding is exact, because the causal mask lets no position up
    to n_i - 1 see a later one: its -1e9 makes every padded probability
    exactly 0. Scaling vectors with trial axes T give (*T, [B,] d_t).
    """
    rows, batched = _token_rows(tokens, model.cfg)
    n = max(r.size for r in rows)
    if batched:
        toks = np.full((len(rows), n), PAD_ID, dtype=np.int64)
        for i, r in enumerate(rows):
            toks[i, : r.size] = r
        last = np.array([r.size - 1 for r in rows])
    else:
        toks, last = rows[0], n - 1
    pos = model.arrays["frozen/text/pos"]
    x = model.arrays["frozen/text/embed"][toks] + pos[:n]
    trials = _trial_axes(scalings)
    if trials:
        x = np.broadcast_to(x, trials + x.shape)
        if batched:
            last = np.broadcast_to(last, trials + last.shape)
    x = Tensor(x)
    mask = ad.causal_mask(n, pos.dtype)
    x = _blocks_forward(x, last, model, "text", mask, scalings)
    return _readout(x, model, "text", scalings)


def image_forward(patch_tokens, model: DualEncoder, scalings: ScalingMap | None = None) -> Tensor:
    """Encode pre-tokenized patches to d_t features, read from the class token.

    (N_v, d_v) patches give a (d_t,) feature; a (B, N_v, d_v) batch gives
    (B, d_t) in one pass. Scaling vectors with trial axes T give
    (*T, [B,] d_t).
    """
    cfg = model.cfg
    patches = np.asarray(patch_tokens)
    if patches.ndim not in (2, 3) or patches.shape[-2:] != (cfg.N_v, cfg.d_v):
        raise ValueError(
            f"image_forward: patch tokens must have shape ([B,] {cfg.N_v}, {cfg.d_v}), got {patches.shape}"
        )
    if patches.ndim == 3 and patches.shape[0] == 0:
        raise ValueError("image_forward: empty batch of images")
    pos = model.arrays["frozen/image/pos"]
    stacked = np.empty(_trial_axes(scalings) + patches.shape[:-2] + pos.shape, dtype=pos.dtype)
    stacked[..., 0, :] = model.arrays["frozen/image/cls"]
    stacked[..., 1:, :] = patches
    stacked += pos
    x = Tensor(stacked)
    x = _blocks_forward(x, 0, model, "image", None, scalings)
    return _readout(x, model, "image", scalings)

