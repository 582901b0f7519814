"""Losses, AdamW, synthetic episodes, and the adaptation loop.

The objective is cross-entropy over cosine-similarity logits between
adapted image features and adapted class-text features, plus a
feature-anchoring regularizer per modality that keeps adapted features
close to the frozen model's:

  L = L_ce + lambda * (L_reg_v + L_reg_t)

Only agent / bridge / meta parameters train; the backbone never
receives gradients. The synthetic dataset gives each class an
orthogonal latent prototype (images = prototype + noise per patch
token) and a distinct token sequence, so the task is separable while a
random frozen model stays near chance.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import rng as rngmod
from .agents import CoupledAgentSite, CouplingMode, SiteKey, build_scaling_map, flatten_params, named_params
from .autodiff import NonFiniteError, Tensor
from .encoder import ALL_POSITIONS, DualEncoder, EncoderConfig, Position, ScalingMap, image_forward, text_forward

__all__ = [
    "TrainingConfig",
    "SyntheticDataset",
    "Episode",
    "AdamState",
    "MetricRow",
    "TrainedState",
    "gen_synthetic",
    "sample_few_shot",
    "ce_loss",
    "reg_losses",
    "total_loss",
    "adamw_init",
    "adamw_step",
    "train",
    "evaluate",
    "METRICS_HEADER",
]

METRICS_HEADER = "step,L_ce,L_reg_v,L_reg_t,L,acc"

EVAL_BATCH = 16  # images per image_forward call in evaluate at the default widths, and the least


@dataclass(frozen=True)
class TrainingConfig:
    shots: int = 4
    classes: int = 16
    batch_size: int = 32
    steps: int = 300
    lr: float = 1.5e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    lam: float = 1.0
    temperature: float = 0.07
    mode: CouplingMode = CouplingMode.BIDIRECTIONAL
    rank: int = 4
    d_m: int = 16
    bridge_shift: bool = False
    positions: tuple[Position, ...] = ALL_POSITIONS
    cosine_lr: bool = False

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch_size must be >= 1 and steps >= 0")
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise ValueError("betas must lie in [0, 1)")


# ------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticDataset:
    prototypes: np.ndarray  # (C, d_v) orthonormal latent directions
    images: np.ndarray  # (C, pool, N_v, d_v)
    tokens: list[list[int]]  # one id sequence per class
    base_classes: list[int]
    novel_classes: list[int]
    noise: float
    seed: int

    @property
    def num_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def pool_per_class(self) -> int:
        return self.images.shape[1]


def gen_synthetic(
    C: int,
    k_pool: int,
    noise: float,
    seed: int,
    dims: tuple[int, int],
    text_len: int = 4,
    dtype=np.float32,
) -> SyntheticDataset:
    """Deterministic separable dataset: orthogonal prototypes plus patch noise."""
    n_v, d_v = dims
    if noise < 0:
        raise ValueError("noise must be non-negative")
    if C < 2 or k_pool < 1:
        raise ValueError("need at least 2 classes and 1 sample per class")
    if C > d_v:
        raise ValueError(f"cannot place {C} orthogonal prototypes in {d_v} dimensions")
    if text_len < 2:
        raise ValueError("text_len must be >= 2")
    gen = rngmod.derive(seed, "synthetic")
    # QR of a square Gaussian gives orthonormal rows; keep the first C
    q, _ = np.linalg.qr(gen.standard_normal((d_v, d_v)))
    prototypes = np.ascontiguousarray(q.T[:C]).astype(dtype)
    lifted = (prototypes * np.sqrt(d_v)).astype(dtype)  # O(1) per-channel magnitude
    jitter = gen.standard_normal((C, k_pool, n_v, d_v)).astype(dtype)  # the stream of one draw per class
    images = lifted[:, None, None, :] + float(noise) * jitter
    # class "names": a shared start token then a class-specific id, distinct per class
    tokens = [[1] + [2 + c] * (text_len - 1) for c in range(C)]
    half = C // 2
    return SyntheticDataset(
        prototypes=prototypes,
        images=images,
        tokens=tokens,
        base_classes=list(range(half)),
        novel_classes=list(range(half, C)),
        noise=noise,
        seed=seed,
    )


@dataclass
class Episode:
    """A few-shot task: k train shots per base class, eval pools for base and novel."""

    train_images: np.ndarray  # (n_train, N_v, d_v)
    train_labels: np.ndarray  # (n_train,) indices into base_tokens
    base_eval_images: np.ndarray
    base_eval_labels: np.ndarray
    novel_eval_images: np.ndarray
    novel_eval_labels: np.ndarray
    base_tokens: list[list[int]]
    novel_tokens: list[list[int]]

    @property
    def num_base(self) -> int:
        return len(self.base_tokens)


def sample_few_shot(dataset: SyntheticDataset, k: int, seed: int) -> Episode:
    """Deterministically pick k train shots per base class; the rest is eval."""
    pool = dataset.pool_per_class
    if k > pool:
        raise ValueError(f"k={k} exceeds pool of {pool} samples per class")
    gen = rngmod.derive(seed, "episode")
    base, novel = (np.asarray(c, dtype=np.int64) for c in (dataset.base_classes, dataset.novel_classes))
    order = np.array([gen.permutation(pool) for _ in base], dtype=np.int64).reshape(len(base), pool)

    def split(classes: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The images at (classes[i], idx[i, j]), row by row, each labelled i."""
        images = dataset.images[classes[:, None], idx]
        labels = np.repeat(np.arange(len(classes), dtype=np.int64), idx.shape[1])
        return images.reshape((-1,) + images.shape[2:]), labels

    return Episode(
        *split(base, order[:, :k]),  # train
        *split(base, order[:, k:]),  # base eval
        *split(novel, np.arange(pool)[None, :]),  # novel eval: every pool image
        base_tokens=[dataset.tokens[c] for c in dataset.base_classes],
        novel_tokens=[dataset.tokens[c] for c in dataset.novel_classes],
    )


# ------------------------------------------------------------------
# losses


def _probs(image_feats: Tensor, class_feats: Tensor, temperature: float) -> Tensor:
    """Class probabilities per image row from cosine similarities scaled by 1/temperature."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    sims = ad.matmul(ad.l2_normalize(image_feats), ad.transpose(ad.l2_normalize(class_feats)))
    return ad.softmax(ad.scale(sims, 1.0 / temperature))


def ce_loss(image_feats: Tensor, class_feats: Tensor, labels, temperature: float) -> Tensor:
    """Mean -log p(label | image) over the batch.

    Features are (B, d) and (C, d), or (*T, B, d) and (*T, C, d) with
    leading trial axes T, which give one loss per trial, (*T,).
    """
    lbl = np.asarray(labels, dtype=np.int64)
    if image_feats.ndim < 2 or image_feats.shape[:-2] != class_feats.shape[:-2]:
        raise ValueError(f"ce_loss: feature shapes {image_feats.shape} and {class_feats.shape} do not pair up")
    C = class_feats.shape[-2]
    if np.any(lbl < 0) or np.any(lbl >= C):
        raise ValueError(f"label out of range for {C} classes")
    p = _probs(image_feats, class_feats, temperature)
    return ad.neg(ad.mean(ad.log(ad.pick(p, lbl)), axis=-1))


def _row_similarities(adapted: Tensor, frozen: np.ndarray) -> Tensor:
    frozen_unit = frozen / np.linalg.norm(frozen, axis=-1, keepdims=True)
    return ad.reduce_sum(ad.mul(ad.l2_normalize(adapted), Tensor(frozen_unit)), axis=-1)


def reg_losses(
    adapted_img: Tensor,
    frozen_img: np.ndarray,
    adapted_txt: Tensor,
    frozen_txt: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """Feature-anchoring penalties: 1 - mean cosine(adapted, frozen) per modality.

    Frozen features are (B, d); adapted ones are (B, d), or (*T, B, d) with
    leading trial axes T, which give one penalty per trial, (*T,).
    """
    for adapted, frozen in ((adapted_img, frozen_img), (adapted_txt, frozen_txt)):
        if frozen.ndim != 2 or adapted.shape[adapted.ndim - 2 :] != frozen.shape:
            raise ValueError("adapted/frozen feature shapes must match pairwise")
    one = Tensor(np.asarray(1.0, dtype=adapted_img.data.dtype))
    reg_v = ad.sub(one, ad.mean(_row_similarities(adapted_img, frozen_img), axis=-1))
    reg_t = ad.sub(one, ad.mean(_row_similarities(adapted_txt, frozen_txt), axis=-1))
    return reg_v, reg_t


def total_loss(ce: Tensor, reg_v: Tensor, reg_t: Tensor, lam: float) -> Tensor:
    """L = L_ce + lambda * (L_reg_v + L_reg_t)."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return ad.add(ce, ad.scale(ad.add(reg_v, reg_t), lam))


# ------------------------------------------------------------------
# AdamW


@dataclass
class AdamState:
    """Step count and the first and second moments, flat like the parameters they update."""

    step: int
    m: np.ndarray
    v: np.ndarray


def adamw_init(params: np.ndarray) -> AdamState:
    return AdamState(step=0, m=np.zeros_like(params), v=np.zeros_like(params))


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> tuple[np.ndarray, AdamState]:
    """One decoupled-weight-decay Adam update of a flat parameter vector; pure function of its inputs.

    The update is elementwise, so each element gets the bits it would get
    from the same update applied to its own array.
    """
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    if not np.all(np.isfinite(grads)):
        raise NonFiniteError(f"NaN/Inf gradient at flat index {np.flatnonzero(~np.isfinite(grads))[0]}")
    b1, b2 = betas
    t = state.step + 1
    m = b1 * state.m + (1.0 - b1) * grads
    v = b2 * state.v + (1.0 - b2) * (grads * grads)
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new = params * (1.0 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + eps)
    dtype = params.dtype
    return new.astype(dtype), AdamState(step=t, m=m.astype(dtype), v=v.astype(dtype))


# ------------------------------------------------------------------
# the adaptation loop


@dataclass
class MetricRow:
    step: int
    l_ce: float
    l_reg_v: float
    l_reg_t: float
    l_total: float
    acc: float

    def csv(self) -> str:
        return (
            f"{self.step},{self.l_ce:.10g},{self.l_reg_v:.10g},"
            f"{self.l_reg_t:.10g},{self.l_total:.10g},{self.acc:.6g}"
        )


@dataclass
class TrainedState:
    sites: dict[SiteKey, CoupledAgentSite]
    opt_state: AdamState
    metrics: list[MetricRow]
    final_train_accuracy: float
    feature_drift: tuple[float, float]  # (image, text): 1 - mean cosine to frozen
    steps_run: int


def _feats_text(model: DualEncoder, tokens: Sequence[Sequence[int]], scalings: ScalingMap | None = None) -> Tensor:
    """Per-row text features, one ``text_forward`` pass per sequence.

    ``train`` uses this path because the benchmark pins the default step's
    tape records and encoder calls; this helper goes once the benchmark
    re-pins those counts for a batched step.
    """
    rows = [text_forward(t, model, scalings) for t in tokens]
    return ad.stack_rows(rows)


def _feats_image(model: DualEncoder, images: np.ndarray, scalings: ScalingMap | None = None) -> Tensor:
    """Per-row image features, one ``image_forward`` pass per image.

    Kept for ``train`` for the same reason as ``_feats_text``, and goes
    with it.
    """
    rows = [image_forward(img, model, scalings) for img in images]
    return ad.stack_rows(rows)


def _accuracy(image_feats: np.ndarray, class_feats: np.ndarray, labels: np.ndarray) -> float:
    a = image_feats / np.linalg.norm(image_feats, axis=-1, keepdims=True)
    b = class_feats / np.linalg.norm(class_feats, axis=-1, keepdims=True)
    pred = (a @ b.T).argmax(axis=1)
    return float((pred == labels).mean())


def _image_mlp_width(cfg: EncoderConfig) -> int:
    """One image's MLP hidden activation, (N_v + 1) * mlp_ratio * d_v: the widest array of a pass."""
    return (cfg.N_v + 1) * cfg.mlp_ratio * cfg.d_v


def evaluate(
    model: DualEncoder,
    sites: Mapping[SiteKey, CoupledAgentSite] | None,
    images: np.ndarray,
    labels: np.ndarray,
    tokens: Sequence[Sequence[int]],
) -> float:
    """Classification accuracy with (optionally) hooked forward passes.

    ``labels`` holds one integer class index per image, each in
    ``[0, len(tokens))``; anything else raises ``ValueError``.

    The class texts are encoded in one batched pass and the images in
    batches of ``max(EVAL_BATCH, EVAL_BATCH * F0 // F)`` per ``image_forward``
    call, where F is one image's MLP activation in a block before the last,
    (N_v + 1) * mlp_ratio * d_v, and F0 = 1,728 its value at the defaults. A
    batch's working set grows with images * F, so this keeps it near that of
    16 default-width images however large the pool, while narrow models
    encode a pool in a few calls instead of many overhead-bound ones. At
    L = 1 the last block runs its MLP on the class token alone, so there it
    is an upper bound.
    """
    if np.ndim(images) != 3 or len(images) == 0:
        raise ValueError(f"evaluate: images must be a non-empty (B, N_v, d_v) batch, got shape {np.shape(images)}")
    lbl = np.asarray(labels)
    if lbl.shape != (len(images),) or lbl.dtype.kind not in "iu":
        raise ValueError(
            f"evaluate: labels must be {len(images)} integer class indices, one per image, "
            f"got {lbl.dtype} of shape {lbl.shape}"
        )
    if np.any(lbl < 0) or np.any(lbl >= len(tokens)):
        raise ValueError(f"evaluate: label out of range for {len(tokens)} classes")
    scalings = build_scaling_map(sites) if sites else None
    txt = text_forward(tokens, model, scalings).data
    per_call = max(EVAL_BATCH, EVAL_BATCH * _image_mlp_width(EncoderConfig()) // _image_mlp_width(model.cfg))
    img = np.concatenate(
        [image_forward(images[i : i + per_call], model, scalings).data for i in range(0, len(images), per_call)]
    )
    return _accuracy(img, txt, lbl)


def _mean_drift(adapted: np.ndarray, frozen: np.ndarray) -> float:
    a = adapted / np.linalg.norm(adapted, axis=-1, keepdims=True)
    f = frozen / np.linalg.norm(frozen, axis=-1, keepdims=True)
    return float(1.0 - (a * f).sum(axis=-1).mean())


def train(
    model: DualEncoder,
    sites: dict[SiteKey, CoupledAgentSite],
    cfg: TrainingConfig,
    episode: Episode,
    seed: int = 0,
) -> TrainedState:
    """Adapt the agent parameters on one episode; frozen weights stay untouched.

    The step loop pauses Python's cyclic garbage collector and puts its state
    back when the loop ends or raises. ``Tape.backward`` pops every record, so
    a step leaves no cycle for it to find; a step that raises mid-forward
    leaves its tape as one, which the collector reclaims once it runs again.
    """
    n_train = episode.train_images.shape[0]
    if n_train == 0:
        raise ValueError("episode has no training samples")

    flat = flatten_params(sites)  # the sites' arrays are views into it from here on
    opt = adamw_init(flat)

    # frozen features never change during the episode; compute them once
    frozen_txt = _feats_text(model, episode.base_tokens).data
    frozen_img_all = _feats_image(model, episode.train_images).data

    batch_rng = rngmod.derive(seed, "batches")
    order = np.arange(n_train)
    cursor = n_train  # force a reshuffle on first use

    metrics: list[MetricRow] = []
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for step in range(cfg.steps):
            if cfg.batch_size >= n_train:
                batch_idx = np.arange(n_train)
            else:
                if cursor + cfg.batch_size > n_train:
                    order = batch_rng.permutation(n_train)
                    cursor = 0
                batch_idx = order[cursor : cursor + cfg.batch_size]
                cursor += cfg.batch_size

            lr = cfg.lr
            if cfg.cosine_lr and cfg.steps > 1:
                lr = cfg.lr * 0.5 * (1.0 + np.cos(np.pi * step / (cfg.steps - 1)))

            tape = ad.Tape()
            # leaves view the flat buffer, which is written only after backward
            values = {name: tape.leaf(Tensor.view(arr, name), name) for name, arr in named_params(sites)}
            scalings = build_scaling_map(sites, values)
            try:
                adapted_txt = _feats_text(model, episode.base_tokens, scalings)
                adapted_img = _feats_image(model, episode.train_images[batch_idx], scalings)
                ce = ce_loss(adapted_img, adapted_txt, episode.train_labels[batch_idx], cfg.temperature)
                reg_v, reg_t = reg_losses(adapted_img, frozen_img_all[batch_idx], adapted_txt, frozen_txt)
                loss = total_loss(ce, reg_v, reg_t, cfg.lam)
            except NonFiniteError as e:
                raise NonFiniteError(f"non-finite loss at step {step}: {e}") from e

            acc = _accuracy(adapted_img.data, adapted_txt.data, episode.train_labels[batch_idx])
            try:
                grads = tape.backward(loss)
            except NonFiniteError as e:
                raise NonFiniteError(f"non-finite gradient at step {step}: {e}") from e
            grad = np.concatenate([grads[leaf.node].data.reshape(-1) for leaf in values.values()])
            new, opt = adamw_step(
                flat, grad, opt, lr=lr, betas=cfg.betas, eps=cfg.adam_eps, weight_decay=cfg.weight_decay
            )
            flat[...] = new

            metrics.append(
                MetricRow(
                    step=step,
                    l_ce=ce.item(),
                    l_reg_v=reg_v.item(),
                    l_reg_t=reg_t.item(),
                    l_total=loss.item(),
                    acc=acc,
                )
            )
    finally:
        if collector_was_enabled:
            gc.enable()

    final_scalings = build_scaling_map(sites)
    final_txt = _feats_text(model, episode.base_tokens, final_scalings).data
    final_img = _feats_image(model, episode.train_images, final_scalings).data
    final_acc = _accuracy(final_img, final_txt, episode.train_labels)
    drift = (_mean_drift(final_img, frozen_img_all), _mean_drift(final_txt, frozen_txt))
    return TrainedState(
        sites=sites,
        opt_state=opt,
        metrics=metrics,
        final_train_accuracy=final_acc,
        feature_drift=drift,
        steps_run=cfg.steps,
    )
