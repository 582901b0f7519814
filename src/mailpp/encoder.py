"""A toy frozen dual encoder: paired text and image transformer stacks.

Both encoders are pre-norm transformers (LN -> MHSA -> residual,
LN -> MLP -> residual) with GELU MLPs. The text encoder uses a causal
mask and reads its feature from the last token; the image encoder is
bidirectional and reads from the class token, then projects to the text
width so the two feature spaces are comparable by cosine similarity.

Agent hooks can be attached at five positions:

  1a  after the first per-block LayerNorm
  1b  after the second per-block LayerNorm
  2   after the attention output projection
  3   after the second MLP linear
  4   after the final LayerNorm
  5   after the final projection

Both forward passes take one input or a batch: (N_v, d_v) patches or a
(B, N_v, d_v) batch, one id sequence or a list of them. A text batch is
right-padded to its longest sequence and each row is read at its own last
token; the causal mask makes this exact (see ``text_forward``).

Weights are frozen: they are plain numpy arrays, never registered on a
tape, and never receive gradients. The weight dataclasses are frozen too,
so a field cannot be rebound. Each ``EncoderWeights`` wraps its arrays as
Tensors once (``EncoderWeights.tensors``): read-only, zero-copy views,
finite-checked when first built, that the forward passes index instead of
copying and checking every weight on every call. An in-place write to a
weight array shows through its view; a non-finite value written that way
is caught by the finite check on the output of the primitive that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Literal

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

if TYPE_CHECKING:
    from .agents import AgentLayer

__all__ = [
    "Modality",
    "Position",
    "BLOCK_POSITIONS",
    "FINAL_POSITIONS",
    "ALL_POSITIONS",
    "EncoderConfig",
    "LayerNormParams",
    "AttentionParams",
    "MlpParams",
    "LinearParams",
    "BlockWeights",
    "EncoderWeights",
    "DualEncoder",
    "HookSet",
    "init_encoder_weights",
    "init_dual_encoder",
    "weight_shapes",
    "text_forward",
    "image_forward",
    "classify",
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
        for name in ("L", "d_t", "d_v", "n_heads", "N_t", "N_v", "mlp_ratio", "vocab_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_t % self.n_heads != 0:
            raise ValueError(f"d_t={self.d_t} not divisible by n_heads={self.n_heads}")
        if self.d_v % self.n_heads != 0:
            raise ValueError(f"d_v={self.d_v} not divisible by n_heads={self.n_heads}")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def width(self, modality: Modality) -> int:
        return self.d_v if modality == "image" else self.d_t

    def hook_width(self, modality: Modality, pos: Position) -> int:
        """Channel count seen by an agent at a given position."""
        if pos == "5":
            return self.d_t  # both projections land in the text width
        return self.width(modality)


@dataclass(frozen=True)
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class LinearParams:
    w: np.ndarray  # (d_out, d_in)
    b: np.ndarray  # (d_out,)


@dataclass(frozen=True)
class AttentionParams:
    w_q: LinearParams
    w_k: LinearParams
    w_v: LinearParams
    w_o: LinearParams


@dataclass(frozen=True)
class MlpParams:
    fc1: LinearParams
    fc2: LinearParams


@dataclass(frozen=True)
class BlockWeights:
    ln1: LayerNormParams
    attn: AttentionParams
    ln2: LayerNormParams
    mlp: MlpParams


@dataclass(frozen=True)
class EncoderWeights:
    """Frozen parameters for one modality."""

    modality: Modality
    embed: np.ndarray | None  # text: (vocab, d_t); image: None (patches arrive pre-tokenized)
    pos: np.ndarray  # text: (N_t, d_t); image: (N_v + 1, d_v)
    cls_token: np.ndarray | None  # image only, (d_v,)
    blocks: tuple[BlockWeights, ...]
    final_ln: LayerNormParams
    proj: LinearParams

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))  # no item rebinding either

    @cached_property
    def tensors(self) -> dict[str, Tensor]:
        """``named_tensors()`` as read-only Tensor views, built and checked once."""
        return {name: Tensor.view(arr, name) for name, arr in self.named_tensors()}

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        m = self.modality
        if self.embed is not None:
            yield f"frozen/{m}/embed", self.embed
        yield f"frozen/{m}/pos", self.pos
        if self.cls_token is not None:
            yield f"frozen/{m}/cls", self.cls_token
        for i, blk in enumerate(self.blocks):
            p = f"frozen/{m}/block{i}"
            yield f"{p}/ln1/gamma", blk.ln1.gamma
            yield f"{p}/ln1/beta", blk.ln1.beta
            for tag, lin in (("q", blk.attn.w_q), ("k", blk.attn.w_k), ("v", blk.attn.w_v), ("o", blk.attn.w_o)):
                yield f"{p}/attn/{tag}/w", lin.w
                yield f"{p}/attn/{tag}/b", lin.b
            yield f"{p}/ln2/gamma", blk.ln2.gamma
            yield f"{p}/ln2/beta", blk.ln2.beta
            yield f"{p}/mlp/fc1/w", blk.mlp.fc1.w
            yield f"{p}/mlp/fc1/b", blk.mlp.fc1.b
            yield f"{p}/mlp/fc2/w", blk.mlp.fc2.w
            yield f"{p}/mlp/fc2/b", blk.mlp.fc2.b
        yield f"frozen/{m}/final_ln/gamma", self.final_ln.gamma
        yield f"frozen/{m}/final_ln/beta", self.final_ln.beta
        yield f"frozen/{m}/proj/w", self.proj.w
        yield f"frozen/{m}/proj/b", self.proj.b

    def astype(self, dtype) -> "EncoderWeights":
        def ln(p: LayerNormParams) -> LayerNormParams:
            return LayerNormParams(p.gamma.astype(dtype), p.beta.astype(dtype))

        def lin(p: LinearParams) -> LinearParams:
            return LinearParams(p.w.astype(dtype), p.b.astype(dtype))

        return EncoderWeights(
            modality=self.modality,
            embed=None if self.embed is None else self.embed.astype(dtype),
            pos=self.pos.astype(dtype),
            cls_token=None if self.cls_token is None else self.cls_token.astype(dtype),
            blocks=[
                BlockWeights(
                    ln1=ln(b.ln1),
                    attn=AttentionParams(lin(b.attn.w_q), lin(b.attn.w_k), lin(b.attn.w_v), lin(b.attn.w_o)),
                    ln2=ln(b.ln2),
                    mlp=MlpParams(lin(b.mlp.fc1), lin(b.mlp.fc2)),
                )
                for b in self.blocks
            ],
            final_ln=ln(self.final_ln),
            proj=lin(self.proj),
        )


@dataclass(frozen=True)
class DualEncoder:
    """The frozen model: config plus one EncoderWeights per modality."""

    cfg: EncoderConfig
    text: EncoderWeights
    image: EncoderWeights

    @property
    def dtype(self) -> np.dtype:
        return self.text.pos.dtype

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        yield from self.text.named_tensors()
        yield from self.image.named_tensors()

    def astype(self, dtype) -> "DualEncoder":
        return DualEncoder(self.cfg, self.text.astype(dtype), self.image.astype(dtype))

    def frozen_digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name, arr in self.named_tensors():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


# ------------------------------------------------------------------
# hooks


HookKey = tuple[Modality, int | None, Position]
# (a_eff, b_eff) per hook; values are Tensors so they can live on a tape
ScalingMap = dict[HookKey, tuple[Tensor, Tensor]]


@dataclass
class HookSet:
    """Maps (modality, block index | None, position) to an agent layer."""

    agents: "dict[HookKey, AgentLayer]" = field(default_factory=dict)

    def get(self, key: HookKey):
        return self.agents.get(key)

    def __len__(self) -> int:
        return len(self.agents)

    def validate(self, cfg: EncoderConfig) -> None:
        for (modality, block, pos), agent in self.agents.items():
            if pos in BLOCK_POSITIONS:
                if block is None or not 0 <= block < cfg.L:
                    raise ValueError(f"hook at position {pos} needs a block index in [0, {cfg.L})")
            elif pos in FINAL_POSITIONS:
                if block is not None:
                    raise ValueError(f"hook at position {pos} must not carry a block index")
            else:
                raise ValueError(f"unknown hook position {pos!r}")
            want = cfg.hook_width(modality, pos)
            if agent.a.shape != (want,):
                raise ValueError(
                    f"hook ({modality}, {block}, {pos}): agent width {agent.a.shape[0]} != layer width {want}"
                )


def _apply_hook(
    y: Tensor,
    key: HookKey,
    hooks: HookSet | None,
    scalings: ScalingMap | None,
) -> Tensor:
    if hooks is None:
        return y
    agent = hooks.get(key)
    if agent is None:
        return y
    if scalings is not None and key in scalings:
        a_eff, b_eff = scalings[key]
    else:
        a_eff, b_eff = Tensor(agent.a), Tensor(agent.b)
    return ad.affine(y, a_eff, b_eff)


# ------------------------------------------------------------------
# initialization


def _init_linear(rng: np.random.Generator, d_out: int, d_in: int, dtype) -> LinearParams:
    w = (rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)).astype(dtype)
    b = (0.02 * rng.standard_normal(d_out)).astype(dtype)
    return LinearParams(w, b)


def _init_ln(rng: np.random.Generator, d: int, dtype) -> LayerNormParams:
    # mildly perturbed so folding tests exercise generic gamma/beta
    gamma = (1.0 + 0.1 * rng.standard_normal(d)).astype(dtype)
    beta = (0.1 * rng.standard_normal(d)).astype(dtype)
    return LayerNormParams(gamma, beta)


def init_encoder_weights(
    cfg: EncoderConfig, modality: Modality, rng: np.random.Generator, dtype=np.float32
) -> EncoderWeights:
    d = cfg.width(modality)
    blocks = []
    for _ in range(cfg.L):
        blocks.append(
            BlockWeights(
                ln1=_init_ln(rng, d, dtype),
                attn=AttentionParams(
                    w_q=_init_linear(rng, d, d, dtype),
                    w_k=_init_linear(rng, d, d, dtype),
                    w_v=_init_linear(rng, d, d, dtype),
                    w_o=_init_linear(rng, d, d, dtype),
                ),
                ln2=_init_ln(rng, d, dtype),
                mlp=MlpParams(
                    fc1=_init_linear(rng, cfg.mlp_ratio * d, d, dtype),
                    fc2=_init_linear(rng, d, cfg.mlp_ratio * d, dtype),
                ),
            )
        )
    if modality == "text":
        embed = (0.5 * rng.standard_normal((cfg.vocab_size, d))).astype(dtype)
        pos = (0.1 * rng.standard_normal((cfg.N_t, d))).astype(dtype)
        cls_token = None
        proj = _init_linear(rng, cfg.d_t, d, dtype)
    else:
        embed = None
        pos = (0.1 * rng.standard_normal((cfg.N_v + 1, d))).astype(dtype)
        cls_token = (0.5 * rng.standard_normal(d)).astype(dtype)
        proj = _init_linear(rng, cfg.d_t, d, dtype)
    return EncoderWeights(
        modality=modality,
        embed=embed,
        pos=pos,
        cls_token=cls_token,
        blocks=blocks,
        final_ln=_init_ln(rng, d, dtype),
        proj=proj,
    )


def weight_shapes(cfg: EncoderConfig, modality: Modality) -> dict[str, tuple[int, ...]]:
    """The shape of every frozen tensor of one modality, keyed and ordered as ``named_tensors``."""
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


def init_dual_encoder(cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> DualEncoder:
    return DualEncoder(
        cfg=cfg,
        text=init_encoder_weights(cfg, "text", rng, dtype),
        image=init_encoder_weights(cfg, "image", rng, dtype),
    )


# ------------------------------------------------------------------
# forward passes


def _blocks_forward(
    x: Tensor,
    cfg: EncoderConfig,
    weights: EncoderWeights,
    mask: np.ndarray | None,
    hooks: HookSet | None,
    scalings: ScalingMap | None,
) -> Tensor:
    m = weights.modality
    eps = cfg.eps
    t = weights.tensors
    for i in range(len(weights.blocks)):
        p = f"frozen/{m}/block{i}/"
        h = ad.layernorm(x, t[p + "ln1/gamma"], t[p + "ln1/beta"], eps)
        h = _apply_hook(h, (m, i, "1a"), hooks, scalings)
        q = ad.linear(h, t[p + "attn/q/w"], t[p + "attn/q/b"])
        k = ad.linear(h, t[p + "attn/k/w"], t[p + "attn/k/b"])
        v = ad.linear(h, t[p + "attn/v/w"], t[p + "attn/v/b"])
        ctx = ad.attention_core(q, k, v, cfg.n_heads, mask)
        o = ad.linear(ctx, t[p + "attn/o/w"], t[p + "attn/o/b"])
        o = _apply_hook(o, (m, i, "2"), hooks, scalings)
        x = ad.add(x, o)
        h2 = ad.layernorm(x, t[p + "ln2/gamma"], t[p + "ln2/beta"], eps)
        h2 = _apply_hook(h2, (m, i, "1b"), hooks, scalings)
        u = ad.linear(h2, t[p + "mlp/fc1/w"], t[p + "mlp/fc1/b"])
        u = ad.gelu(u)
        u = ad.linear(u, t[p + "mlp/fc2/w"], t[p + "mlp/fc2/b"])
        u = _apply_hook(u, (m, i, "3"), hooks, scalings)
        x = ad.add(x, u)
    return x


def _readout(
    x: Tensor,
    index: int | np.ndarray,
    cfg: EncoderConfig,
    weights: EncoderWeights,
    hooks: HookSet | None,
    scalings: ScalingMap | None,
) -> Tensor:
    m = weights.modality
    t = weights.tensors
    p = f"frozen/{m}/"
    feat = ad.row(x, index)
    feat = ad.layernorm(feat, t[p + "final_ln/gamma"], t[p + "final_ln/beta"], cfg.eps)
    feat = _apply_hook(feat, (m, None, "4"), hooks, scalings)
    feat = ad.linear(feat, t[p + "proj/w"], t[p + "proj/b"])
    feat = _apply_hook(feat, (m, None, "5"), hooks, scalings)
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


def text_forward(
    tokens,
    cfg: EncoderConfig,
    weights: EncoderWeights,
    hooks: HookSet | None = None,
    scalings: ScalingMap | None = None,
) -> Tensor:
    """Encode token sequences to d_t features, each read from its last token.

    One 1-D sequence gives a (d_t,) feature. A batch (a list of sequences,
    lengths may differ, or a 2-D id array) gives (B, d_t) in one pass:
    shorter rows are right-padded with ``PAD_ID`` and row i is read at
    n_i - 1. Padding is exact, because the causal mask lets no position up
    to n_i - 1 see a later one: its -1e9 makes every padded probability
    exactly 0.
    """
    if weights.modality != "text":
        raise ValueError("text_forward: weights are not text weights")
    rows, batched = _token_rows(tokens, cfg)
    n = max(r.size for r in rows)
    if batched:
        toks = np.full((len(rows), n), PAD_ID, dtype=np.int64)
        for i, r in enumerate(rows):
            toks[i, : r.size] = r
        last = np.array([r.size - 1 for r in rows])
    else:
        toks, last = rows[0], n - 1
    x = Tensor(weights.embed[toks] + weights.pos[:n])
    mask = ad.causal_mask(n, weights.pos.dtype)
    x = _blocks_forward(x, cfg, weights, mask, hooks, scalings)
    return _readout(x, last, cfg, weights, hooks, scalings)


def image_forward(
    patch_tokens,
    cfg: EncoderConfig,
    weights: EncoderWeights,
    hooks: HookSet | None = None,
    scalings: ScalingMap | None = None,
) -> Tensor:
    """Encode pre-tokenized patches to d_t features, read from the class token.

    (N_v, d_v) patches give a (d_t,) feature; a (B, N_v, d_v) batch gives
    (B, d_t) in one pass.
    """
    if weights.modality != "image":
        raise ValueError("image_forward: weights are not image weights")
    patches = patch_tokens.data if isinstance(patch_tokens, Tensor) else np.asarray(patch_tokens)
    if patches.ndim not in (2, 3) or patches.shape[-2:] != (cfg.N_v, cfg.d_v):
        raise ValueError(
            f"image_forward: patch tokens must have shape ([B,] {cfg.N_v}, {cfg.d_v}), got {patches.shape}"
        )
    if patches.ndim == 3 and patches.shape[0] == 0:
        raise ValueError("image_forward: empty batch of images")
    stacked = np.empty(patches.shape[:-2] + weights.pos.shape, dtype=weights.pos.dtype)
    stacked[..., 0, :] = weights.cls_token
    stacked[..., 1:, :] = patches
    stacked += weights.pos
    x = Tensor(stacked)
    x = _blocks_forward(x, cfg, weights, None, hooks, scalings)
    return _readout(x, 0, cfg, weights, hooks, scalings)


def classify(image_feat: Tensor, class_feats: Tensor, temperature: float = 0.07) -> Tensor:
    """Class probabilities from cosine similarities scaled by 1/temperature."""
    if temperature <= 0:
        raise ValueError("classify: temperature must be positive")
    if class_feats.ndim != 2 or image_feat.ndim != 1 or class_feats.shape[1] != image_feat.shape[0]:
        raise ValueError(
            f"classify: image feature {image_feat.shape} incompatible with class features {class_feats.shape}"
        )
    sims = ad.matmul(ad.l2_normalize(class_feats), ad.l2_normalize(image_feat))
    return ad.softmax(ad.scale(sims, 1.0 / temperature), axis=-1)
