"""Agent layers, cross-modal bridges, coupling modes, and exact folding.

An agent layer is a per-channel affine (scaling vector ``a``, shifting
vector ``b``) appended after a frozen LayerNorm or linear layer. At each
insertion position there is one coupled site holding the image agent,
the text agent and, depending on the coupling mode, bridge functions
and a meta-scaling vector:

  ivlu            both agents train independently, no bridges
  text_to_image   a_v_eff = a_v + W_up . W_down . a_t
  image_to_text   a_t_eff = a_t + W_up . W_down . a_v
  bidirectional   a_v_eff = a_v + W_up_v . W_down_v . a_m
                  a_t_eff = a_t + W_up_t . W_down_t . a_m

Bridges start at zero output (W_up = 0), so every mode is exactly
transparent at initialization. ``bridge_shift`` applies the same rule
(``_BRIDGES``) to the shifting vectors with separate bridges (and a
separate meta shift vector in bidirectional mode); it is off by default.

The encoders see the sites only through ``build_scaling_map``: one
(a_eff, b_eff) pair per hook key, (modality, block | None, position).

After training, agents fold exactly into the frozen parameters, the
re-parameterisation of SSF (Lian et al., NeurIPS 2022). ``_FOLDS`` maps
each position to the frozen tensors it folds into (1a -> ln1, 1b -> ln2,
2 -> attn/o, 3 -> mlp/fc2, 4 -> final_ln, 5 -> proj): LayerNorm
gamma' = gamma * a, beta' = beta * a + b; linear rows scale as
W'[i] = a[i] * W[i], bias' = bias * a + b.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import (
    ALL_POSITIONS,
    BLOCK_POSITIONS,
    FINAL_POSITIONS,
    DualEncoder,
    EncoderConfig,
    EncoderWeights,
    Modality,
    Position,
    ScalingMap,
)

__all__ = [
    "CouplingMode",
    "AgentLayer",
    "BridgeFunction",
    "MetaScalingVector",
    "SiteKey",
    "CoupledAgentSite",
    "build_sites",
    "build_scaling_map",
    "fuse_layernorm",
    "fuse_linear",
    "fuse_model",
    "bridge_norm",
    "site_param_count",
    "trainable_param_count",
]


class CouplingMode(str, Enum):
    IVLU = "ivlu"
    TEXT_TO_IMAGE = "text_to_image"
    IMAGE_TO_TEXT = "image_to_text"
    BIDIRECTIONAL = "bidirectional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class AgentLayer:
    """Scaling vector ``a`` (init ones) and shifting vector ``b`` (init zeros)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError(f"agent vectors must be equal-length 1-D, got {self.a.shape} and {self.b.shape}")

    @classmethod
    def identity(cls, dim: int, dtype=np.float32) -> "AgentLayer":
        return cls(a=np.ones(dim, dtype=dtype), b=np.zeros(dim, dtype=dtype))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass
class BridgeFunction:
    """Bottleneck map W_up . W_down (rank r) from a source vector into a target width."""

    w_down: np.ndarray  # (r, in_dim)
    w_up: np.ndarray  # (out_dim, r)

    def __post_init__(self):
        if self.w_down.ndim != 2 or self.w_up.ndim != 2 or self.w_up.shape[1] != self.w_down.shape[0]:
            raise ValueError(f"bridge shapes {self.w_up.shape} / {self.w_down.shape} are inconsistent")
        r = self.rank
        if not 1 <= r <= min(self.in_dim, self.out_dim):
            raise ValueError(f"bridge rank {r} outside [1, min({self.in_dim}, {self.out_dim})]")

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rank: int, rng: np.random.Generator, dtype=np.float32) -> "BridgeFunction":
        if not 1 <= rank <= min(in_dim, out_dim):
            raise ValueError(f"bridge rank {rank} outside [1, min({in_dim}, {out_dim})]")
        w_down = (rng.standard_normal((rank, in_dim)) / np.sqrt(in_dim)).astype(dtype)
        w_up = np.zeros((out_dim, rank), dtype=dtype)
        return cls(w_down=w_down, w_up=w_up)

    @property
    def rank(self) -> int:
        return self.w_down.shape[0]

    @property
    def in_dim(self) -> int:
        return self.w_down.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w_up.shape[0]


@dataclass
class MetaScalingVector:
    a_m: np.ndarray

    def __post_init__(self):
        if self.a_m.ndim != 1:
            raise ValueError("meta-scaling vector must be 1-D")

    @property
    def dim(self) -> int:
        return self.a_m.shape[0]


@dataclass(frozen=True)
class SiteKey:
    """Insertion position: (block index, pos) for in-block sites, (None, pos) for final ones."""

    block: int | None = None
    pos: Position = "4"

    def __post_init__(self):
        if self.pos in BLOCK_POSITIONS:
            if self.block is None:
                raise ValueError(f"position {self.pos} requires a block index")
        elif self.pos in FINAL_POSITIONS:
            if self.block is not None:
                raise ValueError(f"position {self.pos} takes no block index")
        else:
            raise ValueError(f"unknown position {self.pos!r}")

    def __str__(self) -> str:
        return f"block{self.block}.{self.pos}" if self.block is not None else f"final.{self.pos}"

    @classmethod
    def parse(cls, text: str) -> "SiteKey":
        head, _, pos = text.partition(".")
        if head == "final":
            return cls(block=None, pos=pos)
        if head.startswith("block"):
            return cls(block=int(head[5:]), pos=pos)
        raise ValueError(f"bad site key {text!r}")


# The coupling rule: each mode's bridges, as (field, side it adds to, vector
# it reads). The scales couple through (bridge_v, bridge_t, meta/a_m); with
# bridge_shift the shifts couple by the same rule through (shift_bridge_v,
# shift_bridge_t, shift_meta/b_m). A meta vector exists where a bridge reads it.
_BRIDGES: dict[CouplingMode, tuple[tuple[str, Modality, str], ...]] = {
    CouplingMode.IVLU: (),
    CouplingMode.TEXT_TO_IMAGE: (("bridge_v", "image", "text"),),
    CouplingMode.IMAGE_TO_TEXT: (("bridge_t", "text", "image"),),
    CouplingMode.BIDIRECTIONAL: (("bridge_v", "image", "meta"), ("bridge_t", "text", "meta")),
}
_COUPLED_PAIRS = (("", "meta/a_m"), ("shift_", "shift_meta/b_m"))  # (field prefix, meta parameter name)


def _has_meta(mode: CouplingMode) -> bool:
    return any(source == "meta" for _, _, source in _BRIDGES[mode])


@dataclass
class CoupledAgentSite:
    """One insertion position's image agent, text agent, and coupling state."""

    key: SiteKey
    mode: CouplingMode
    image_agent: AgentLayer
    text_agent: AgentLayer
    bridge_v: BridgeFunction | None = None
    bridge_t: BridgeFunction | None = None
    meta: MetaScalingVector | None = None
    bridge_shift: bool = False
    shift_bridge_v: BridgeFunction | None = None
    shift_bridge_t: BridgeFunction | None = None
    shift_meta: MetaScalingVector | None = None

    def __post_init__(self):
        if self.bridge_shift and self.mode == CouplingMode.IVLU:
            raise ValueError("bridge_shift requires a coupled mode")
        for prefix, _ in _COUPLED_PAIRS:
            bridges = _BRIDGES[self.mode] if self.bridge_shift or not prefix else ()
            want = {prefix + field for field, _, _ in bridges}
            if bridges and _has_meta(self.mode):
                want.add(prefix + "meta")
            fields = (prefix + "bridge_v", prefix + "bridge_t", prefix + "meta")
            have = {f for f in fields if getattr(self, f) is not None}
            if have != want:
                raise ValueError(f"{self.mode.value} sites need exactly {sorted(want)}, got {sorted(have)}")
            meta = getattr(self, prefix + "meta")
            dims = {"image": self.image_agent.dim, "text": self.text_agent.dim, "meta": meta and meta.dim}
            for field, side, source in bridges:
                bridge = getattr(self, prefix + field)
                if bridge.in_dim != dims[source] or bridge.out_dim != dims[side]:
                    raise ValueError(
                        f"bridge dims ({bridge.in_dim} -> {bridge.out_dim}) do not match site "
                        f"({dims[source]} -> {dims[side]})"
                    )

    # ---- trainable parameter registry -------------------------------

    def params(self) -> Iterator[tuple[str, np.ndarray]]:
        """Trainable arrays in a fixed, documented order."""
        yield "image/a", self.image_agent.a
        yield "image/b", self.image_agent.b
        yield "text/a", self.text_agent.a
        yield "text/b", self.text_agent.b
        for prefix, meta_name in _COUPLED_PAIRS:  # the shift fields are None without bridge_shift
            if getattr(self, prefix + "meta") is not None:
                yield meta_name, getattr(self, prefix + "meta").a_m
            for field in (prefix + "bridge_v", prefix + "bridge_t"):
                bridge = getattr(self, field)
                if bridge is not None:
                    yield f"{field}/w_up", bridge.w_up
                    yield f"{field}/w_down", bridge.w_down

    def set_param(self, local_name: str, value: np.ndarray) -> None:
        holder, _, leafname = local_name.partition("/")
        targets = {
            "image": self.image_agent,
            "text": self.text_agent,
            "meta": self.meta,
            "bridge_v": self.bridge_v,
            "bridge_t": self.bridge_t,
            "shift_meta": self.shift_meta,
            "shift_bridge_v": self.shift_bridge_v,
            "shift_bridge_t": self.shift_bridge_t,
        }
        obj = targets.get(holder)
        if obj is None:
            raise KeyError(f"site {self.key} has no parameter {local_name!r}")
        attr = {"a": "a", "b": "b", "a_m": "a_m", "b_m": "a_m", "w_up": "w_up", "w_down": "w_down"}[leafname]
        current = getattr(obj, attr)
        if current.shape != value.shape:
            raise ValueError(f"shape mismatch writing {local_name!r}: {value.shape} != {current.shape}")
        setattr(obj, attr, np.ascontiguousarray(value, dtype=current.dtype))

    # ---- effective vectors ------------------------------------------

    def _value(self, values: Mapping[str, Tensor] | None, local_name: str, raw: np.ndarray) -> Tensor:
        if values is not None:
            full = f"{self.key}/{local_name}"
            if full in values:
                return values[full]
        return Tensor(raw)

    def _couple(
        self, values: Mapping[str, Tensor] | None, v: Tensor, t: Tensor, prefix: str, meta_name: str
    ) -> tuple[Tensor, Tensor]:
        """One (image, text) vector pair after the mode's bridges (``_BRIDGES``)."""
        vectors = {"image": v, "text": t}
        if _has_meta(self.mode):
            vectors["meta"] = self._value(values, meta_name, getattr(self, prefix + "meta").a_m)
        out = {"image": v, "text": t}
        for field, side, source in _BRIDGES[self.mode]:
            bridge = getattr(self, prefix + field)
            w_up = self._value(values, f"{prefix}{field}/w_up", bridge.w_up)
            w_down = self._value(values, f"{prefix}{field}/w_down", bridge.w_down)
            out[side] = ad.add(out[side], ad.matmul(w_up, ad.matmul(w_down, vectors[source])))
        return out["image"], out["text"]

    def effective(self, values: Mapping[str, Tensor] | None = None) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """(a_v_eff, a_t_eff, b_v_eff, b_t_eff), on the tape if values are leaves."""
        a_v = self._value(values, "image/a", self.image_agent.a)
        a_t = self._value(values, "text/a", self.text_agent.a)
        b_v = self._value(values, "image/b", self.image_agent.b)
        b_t = self._value(values, "text/b", self.text_agent.b)
        a_v, a_t = self._couple(values, a_v, a_t, *_COUPLED_PAIRS[0])
        if self.bridge_shift:
            b_v, b_t = self._couple(values, b_v, b_t, *_COUPLED_PAIRS[1])
        return a_v, a_t, b_v, b_t


# ------------------------------------------------------------------
# construction


def build_sites(
    cfg: EncoderConfig,
    mode: CouplingMode,
    rank: int,
    d_m: int,
    rng: np.random.Generator,
    dtype=np.float32,
    bridge_shift: bool = False,
    positions: tuple[Position, ...] = ALL_POSITIONS,
) -> dict[SiteKey, CoupledAgentSite]:
    """Freshly initialized sites for every requested position, in canonical order."""
    mode = CouplingMode(mode)
    for p in positions:
        if p not in ALL_POSITIONS:
            raise ValueError(f"unknown position {p!r}")
    if d_m < 1:
        raise ValueError("d_m must be positive")
    keys = [SiteKey(i, p) for i in range(cfg.L) for p in BLOCK_POSITIONS if p in positions]
    keys += [SiteKey(None, p) for p in FINAL_POSITIONS if p in positions]

    sites: dict[SiteKey, CoupledAgentSite] = {}
    for key in keys:
        widths = {"image": cfg.hook_width("image", key.pos), "text": cfg.hook_width("text", key.pos), "meta": d_m}
        coupling = {}
        for prefix, _ in _COUPLED_PAIRS[: 1 + bridge_shift]:
            if _has_meta(mode):
                coupling[prefix + "meta"] = MetaScalingVector(np.ones(d_m, dtype=dtype))
            for field, side, source in _BRIDGES[mode]:
                coupling[prefix + field] = BridgeFunction.init(widths[source], widths[side], rank, rng, dtype)
        sites[key] = CoupledAgentSite(
            key=key,
            mode=mode,
            image_agent=AgentLayer.identity(widths["image"], dtype),
            text_agent=AgentLayer.identity(widths["text"], dtype),
            bridge_shift=bridge_shift,
            **coupling,
        )
    return sites


def build_scaling_map(
    sites: Mapping[SiteKey, CoupledAgentSite], values: Mapping[str, Tensor] | None = None
) -> ScalingMap:
    """Effective (a, b) per hook key, recomputed from current parameters."""
    out: ScalingMap = {}
    for key, site in sites.items():
        a_v, a_t, b_v, b_t = site.effective(values)
        out[("image", key.block, key.pos)] = (a_v, b_v)
        out[("text", key.block, key.pos)] = (a_t, b_t)
    return out


# ------------------------------------------------------------------
# folding


def fuse_layernorm(
    gamma: np.ndarray,
    beta: np.ndarray,
    agent: AgentLayer,
    effective_a: np.ndarray | None = None,
    effective_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """gamma' = gamma * a, beta' = beta * a + b."""
    a = agent.a if effective_a is None else effective_a
    b = agent.b if effective_b is None else effective_b
    if gamma.shape != a.shape or beta.shape != a.shape:
        raise ValueError(f"fuse_layernorm: agent width {a.shape} does not match gamma {gamma.shape}")
    return gamma * a, beta * a + b


def fuse_linear(
    w: np.ndarray,
    bias: np.ndarray,
    agent: AgentLayer,
    effective_a: np.ndarray | None = None,
    effective_b: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row i of W scales by a[i]; bias' = bias * a + b."""
    a = agent.a if effective_a is None else effective_a
    b = agent.b if effective_b is None else effective_b
    if w.ndim != 2 or w.shape[0] != a.shape[0] or bias.shape != a.shape:
        raise ValueError(f"fuse_linear: agent width {a.shape} does not match weight {w.shape}")
    return w * a[:, None], bias * a + b


# position -> (fold, scale tensor, shift tensor), names under frozen/<m>/[block<i>/]
_FOLDS: dict[Position, tuple] = {
    "1a": (fuse_layernorm, "ln1/gamma", "ln1/beta"),
    "1b": (fuse_layernorm, "ln2/gamma", "ln2/beta"),
    "2": (fuse_linear, "attn/o/w", "attn/o/b"),
    "3": (fuse_linear, "mlp/fc2/w", "mlp/fc2/b"),
    "4": (fuse_layernorm, "final_ln/gamma", "final_ln/beta"),
    "5": (fuse_linear, "proj/w", "proj/b"),
}


def _fuse_encoder(
    weights: EncoderWeights, sites: Mapping[SiteKey, CoupledAgentSite], modality: Modality
) -> EncoderWeights:
    arrays = {name: arr.copy() for name, arr in weights.arrays.items()}
    for key, site in sites.items():
        a_v, a_t, b_v, b_t = site.effective(None)
        a, b, agent = (a_v, b_v, site.image_agent) if modality == "image" else (a_t, b_t, site.text_agent)
        fold, scale_name, shift_name = _FOLDS[key.pos]
        p = f"frozen/{modality}/" if key.block is None else f"frozen/{modality}/block{key.block}/"
        arrays[p + scale_name], arrays[p + shift_name] = fold(
            arrays[p + scale_name], arrays[p + shift_name], agent, a.data, b.data
        )
    return EncoderWeights(modality, arrays)


def fuse_model(model: DualEncoder, sites: Mapping[SiteKey, CoupledAgentSite]) -> DualEncoder:
    """Fold every site into the frozen weights; the result shares no array with ``model`` and has no hooks."""
    return DualEncoder(
        cfg=model.cfg,
        text=_fuse_encoder(model.text, sites, "text"),
        image=_fuse_encoder(model.image, sites, "image"),
    )


# ------------------------------------------------------------------
# diagnostics


def bridge_norm(site: CoupledAgentSite, side: Modality) -> float:
    """Scaled norm (100 / sqrt(d)) * ||W_up . W_down . a_m|| of one side's coupling term."""
    if site.mode != CouplingMode.BIDIRECTIONAL or site.meta is None:
        raise ValueError("bridge_norm needs a bidirectional site with a meta vector")
    bridge = site.bridge_v if side == "image" else site.bridge_t
    vec = bridge.w_up @ (bridge.w_down @ site.meta.a_m)
    d = vec.shape[0]
    return float(100.0 / np.sqrt(d) * np.linalg.norm(vec))


def site_param_count(site: CoupledAgentSite) -> int:
    return sum(arr.size for _, arr in site.params())


def trainable_param_count(sites: Mapping[SiteKey, CoupledAgentSite]) -> int:
    """Enumeration-based count: sums the actually registered trainable arrays."""
    return sum(site_param_count(s) for s in sites.values())
