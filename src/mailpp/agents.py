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

A site's trainable state is one table, ``arrays``: local name -> array,
in a fixed order (``image/a``, ``image/b``, ``text/a``, ``text/b``, then
per coupled pair the meta vector and each bridge's ``w_up``/``w_down``,
e.g. ``meta/a_m``, ``bridge_v/w_up``, ``shift_meta/b_m``). Its full name
is ``<site>/<local>`` (``named_params``); checkpoints store it under
``agent/<site>/<local>``. ``set_param`` writes into the stored array in
place, so ``flatten_params`` can make every entry a view into one
contiguous buffer that the optimizer updates as a whole.

That layout is stated once, in ``_local_axes`` (local name, in table
order -> the width each axis takes), and each of its rules has one owner.
``_local_axes`` holds the rule that ``bridge_shift`` needs a coupled mode,
so ``site_shapes`` and a hand-built ``CoupledAgentSite`` both raise it.
``site_shapes`` holds the rest: positions are non-empty, unique and known,
d_m >= 1, and 1 <= rank <= min(in, out) for every bridge at every site.
Each error starts with the field it names, so ``parse_config_doc`` reports
it as ``training.<error>``. A site checks only its name set. The shapes
are ``site_shapes``': ``build_sites`` allocates them and ``unpack_state``
checks every tensor against them. A hand-built site with miswired shapes
fails in the first primitive that combines them (for a bridge, in
``effective()``), with that primitive's shape error.

The encoders see the sites only through ``build_scaling_map``: one
(a_eff, b_eff) pair per hook key, (modality, block | None, position).
When no value a site reads is on a tape (``values`` is None or holds
untaped (K, *shape) trial stacks), ``effective`` computes the coupled
vectors in numpy with the expressions of ``ad.matmul``'s vector path and
of ``ad.add``, so with their bits, and finite-checks each once; an
uncoupled vector is a view checked by its name, as on the tape. Whatever
the primitives would refuse (a non-finite value, mixed dtypes, a shape they
do not take as it is) makes the site replay their chain, which raises the
error that the tape would. ``bridge_norm`` reads its coupling term from
``effective`` too, given zero scales, so it meets the same checks.

After training, agents fold exactly into the frozen parameters.
``fuse_model`` is the encoder's ``fold_scalings`` of the sites'
``build_scaling_map``; the encoder owns the fold rule and the tensors each
position folds into, so a caller that already holds the map folds it
there without recomputing it.
"""

from __future__ import annotations

import math
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
    Modality,
    Position,
    ScalingMap,
    fold_scalings,
)

__all__ = [
    "CouplingMode",
    "SiteKey",
    "CoupledAgentSite",
    "site_shapes",
    "build_sites",
    "build_scaling_map",
    "named_params",
    "flatten_params",
    "flat_views",
    "fuse_model",
    "bridge_norm",
    "trainable_param_count",
]


class CouplingMode(str, Enum):
    IVLU = "ivlu"
    TEXT_TO_IMAGE = "text_to_image"
    IMAGE_TO_TEXT = "image_to_text"
    BIDIRECTIONAL = "bidirectional"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


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
_SIDES = ("image/a", "text/a", "image/b", "text/b")  # the vectors ``effective`` returns, in its order


def _gemv(w: np.ndarray, v: np.ndarray | None) -> np.ndarray | None:
    """``ad.matmul``'s vector path in numpy; None for operands that it does not take as they are."""
    if v is None or w.ndim < 2 or w.shape[:-2] + w.shape[-1:] != v.shape:
        return None
    return (w @ v[..., None])[..., 0]


def _add(x: np.ndarray, y: np.ndarray | None) -> np.ndarray | None:
    """``ad.add`` in numpy on operands of one shape; None for any other pair."""
    return x + y if y is not None and x.shape == y.shape else None


def _has_meta(mode: CouplingMode) -> bool:
    return any(source == "meta" for _, _, source in _BRIDGES[mode])


def _local_axes(mode: CouplingMode, bridge_shift: bool) -> dict[str, tuple[str, ...]]:
    """Every trainable array's local name, in table order -> the width each axis takes.

    A width is ``"image"`` or ``"text"`` (that side's hook width), ``"meta"``
    (d_m) or ``"rank"``; ``site_shapes`` turns the widths into sizes.
    """
    if bridge_shift and mode == CouplingMode.IVLU:
        raise ValueError("bridge_shift requires a coupled mode")
    axes = {"image/a": ("image",), "image/b": ("image",), "text/a": ("text",), "text/b": ("text",)}
    for prefix, meta_name in _COUPLED_PAIRS[: 1 + bridge_shift]:
        if _has_meta(mode):
            axes[meta_name] = ("meta",)
        for field, side, source in _BRIDGES[mode]:
            axes[f"{prefix}{field}/w_up"] = (side, "rank")
            axes[f"{prefix}{field}/w_down"] = ("rank", source)
    return axes


@dataclass
class CoupledAgentSite:
    """One insertion position's trainable arrays: local name -> array (see the module docstring)."""

    key: SiteKey
    mode: CouplingMode
    bridge_shift: bool
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        want = _local_axes(self.mode, self.bridge_shift)
        if self.arrays.keys() != want.keys():
            raise ValueError(f"{self.mode.value} sites need exactly {sorted(want)}, got {sorted(self.arrays)}")
        self.arrays = {name: np.ascontiguousarray(self.arrays[name]) for name in want}

    # ---- trainable parameter registry -------------------------------

    def set_param(self, local_name: str, value: np.ndarray) -> None:
        """Write ``value`` into the stored array in place, cast to its dtype."""
        arr = self.arrays.get(local_name)
        if arr is None:
            raise KeyError(f"site {self.key} has no parameter {local_name!r}")
        if arr.shape != value.shape:
            raise ValueError(f"shape mismatch writing {local_name!r}: {value.shape} != {arr.shape}")
        arr[...] = value

    # ---- effective vectors ------------------------------------------

    def _pairs(self, read, add, matmul) -> list:
        """[a_v, a_t, b_v, b_t] as ``read`` gives them, after the mode's bridges through ``add`` and ``matmul``."""
        out = [read(name) for name in _SIDES]
        for i, (prefix, meta_name) in zip((0, 2), _COUPLED_PAIRS[: 1 + self.bridge_shift]):
            meta = read(meta_name) if meta_name in self.arrays else None  # a meta vector exists where a bridge reads it
            vectors = {"image": out[i], "text": out[i + 1], "meta": meta}
            for field, side, source in _BRIDGES[self.mode]:
                j = i + (side == "text")  # out[j] + W_up . W_down . source
                term = matmul(read(f"{prefix}{field}/w_up"), matmul(read(f"{prefix}{field}/w_down"), vectors[source]))
                out[j] = add(out[j], term)
        return out

    def effective(self, values: Mapping[str, Tensor] | None = None) -> tuple[Tensor, Tensor, Tensor, Tensor]:
        """(a_v_eff, a_t_eff, b_v_eff, b_t_eff), on the tape if values are leaves, else in numpy (module docstring)."""
        prefix = f"{self.key}/"
        given = {n: values[prefix + n] for n in self.arrays if prefix + n in values} if values else {}

        def read(name: str) -> Tensor:  # a given value as it is, else a view of the site's array checked by name
            return given[name] if name in given else Tensor.view(self.arrays[name], prefix + name)

        if all(t.tape is None for t in given.values()):  # off the tape: numpy, where the primitives would agree
            raw = self.arrays | {n: t.data for n, t in given.items()} if given else self.arrays
            dt = raw["image/a"].dtype
            if dt in (np.float32, np.float64) and all(a.dtype == dt and a.flags.c_contiguous for a in raw.values()):
                with np.errstate(all="ignore"):  # a non-finite result warns nothing here: the replay raises for it
                    out = dict(zip(_SIDES, self._pairs(raw.__getitem__, _add, _gemv)))
                if all(x is raw[n] or x is not None and math.isfinite(np.vdot(x, x)) for n, x in out.items()):
                    return tuple([read(n) if x is raw[n] else Tensor._wrap(x) for n, x in out.items()])
        return tuple(self._pairs(read, ad.add, ad.matmul))  # the chain, or its error


# ------------------------------------------------------------------
# construction


def site_shapes(
    cfg: EncoderConfig,
    mode: CouplingMode,
    rank: int,
    d_m: int,
    bridge_shift: bool = False,
    positions: tuple[Position, ...] = ALL_POSITIONS,
) -> dict[SiteKey, dict[str, tuple[int, ...]]]:
    """Every requested site's local name -> shape table, sites in canonical order, names in table order.

    Checks the layout rules (module docstring). Sites with the same (image,
    text) hook widths share one table, sized and rank-checked once.
    """
    mode = CouplingMode(mode)
    if not positions:
        raise ValueError("positions must not be empty")
    if len(set(positions)) != len(positions):
        raise ValueError("positions contains duplicates")
    for p in positions:
        if p not in ALL_POSITIONS:
            raise ValueError(f"positions: unknown position {p!r}")
    if d_m < 1:
        raise ValueError("d_m must be positive")
    if rank < 1:
        raise ValueError("rank must be positive")
    axes = _local_axes(mode, bridge_shift)
    tables: dict[tuple[int, int], dict[str, tuple[int, ...]]] = {}  # (image, text) hook widths -> table
    by_pos: dict[Position, dict[str, tuple[int, ...]]] = {}
    for p in ALL_POSITIONS:  # the sites' order, so the first site to break a rule names it
        if p in positions:
            hooks = cfg.hook_width("image", p), cfg.hook_width("text", p)
            if hooks not in tables:
                widths = {"image": hooks[0], "text": hooks[1], "meta": d_m, "rank": rank}
                for _, side, source in _BRIDGES[mode]:
                    if rank > min(widths[source], widths[side]):
                        raise ValueError(f"rank {rank} outside [1, min({widths[source]}, {widths[side]})]")
                tables[hooks] = {name: tuple([widths[axis] for axis in names]) for name, names in axes.items()}
            by_pos[p] = tables[hooks]
    layout = {SiteKey(i, p): by_pos[p] for i in range(cfg.L) for p in BLOCK_POSITIONS if p in by_pos}
    layout.update({SiteKey(None, p): by_pos[p] for p in FINAL_POSITIONS if p in by_pos})
    return layout


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
    """Freshly initialized sites of the ``site_shapes`` layout.

    Agents start at a = 1, b = 0, meta vectors at 1, every W_up at 0; each
    W_down is drawn with std 1/sqrt(in_dim), site by site in table order.
    """
    mode = CouplingMode(mode)
    sites: dict[SiteKey, CoupledAgentSite] = {}
    for key, shapes in site_shapes(cfg, mode, rank, d_m, bridge_shift, positions).items():
        arrays = {}
        for name, shape in shapes.items():
            kind = name.rsplit("/", 1)[1]
            if kind == "w_down":
                arrays[name] = (rng.standard_normal(shape) / np.sqrt(shape[1])).astype(dtype)
            else:
                arrays[name] = (np.zeros if kind in ("b", "w_up") else np.ones)(shape, dtype=dtype)
        sites[key] = CoupledAgentSite(key=key, mode=mode, bridge_shift=bridge_shift, arrays=arrays)
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
# the one name table and the flat buffer


def named_params(sites: Mapping[SiteKey, CoupledAgentSite]) -> Iterator[tuple[str, np.ndarray]]:
    """Every trainable array as (``<site>/<local>``, array), site by site in table order."""
    for key, site in sites.items():
        for local, arr in site.arrays.items():
            yield f"{key}/{local}", arr


def flat_views(flat: np.ndarray, sites: Mapping[SiteKey, CoupledAgentSite]) -> dict[str, np.ndarray]:
    """``flat``'s last axis cut into one piece per ``named_params`` entry, shaped like it.

    For a 1-D ``flat`` each piece is a view; leading axes stay in front,
    so a (K, n) stack of flat points gives (K, *shape) per name.
    """
    pieces: dict[str, np.ndarray] = {}
    offset = 0
    for name, arr in named_params(sites):
        pieces[name] = flat[..., offset : offset + arr.size].reshape(flat.shape[:-1] + arr.shape)
        offset += arr.size
    if offset != flat.shape[-1]:
        raise ValueError(f"flat_views: {flat.shape[-1]} values for {offset} trainable parameters")
    return pieces


def flatten_params(sites: Mapping[SiteKey, CoupledAgentSite]) -> np.ndarray:
    """Copy every trainable array into one contiguous buffer and make each entry a view of it.

    The buffer is in ``named_params`` order; writing into it writes the
    sites' parameters, and ``set_param`` writes into it.
    """
    named = list(named_params(sites))
    dtypes = {arr.dtype for _, arr in named}
    if len(dtypes) != 1:
        raise ValueError(f"flatten_params needs one dtype across the sites' arrays, got {sorted(map(str, dtypes))}")
    flat = np.concatenate([arr.reshape(-1) for _, arr in named])
    views = iter(flat_views(flat, sites).values())
    for site in sites.values():
        for local in site.arrays:
            site.arrays[local] = next(views)
    return flat


# ------------------------------------------------------------------
# folding


def fuse_model(model: DualEncoder, sites: Mapping[SiteKey, CoupledAgentSite]) -> DualEncoder:
    """Fold every site into the frozen weights: ``fold_scalings`` of the sites' scaling map."""
    return fold_scalings(model, build_scaling_map(sites))


# ------------------------------------------------------------------
# diagnostics


def bridge_norm(site: CoupledAgentSite, side: Modality) -> float:
    """Scaled norm (100 / sqrt(d)) * ||W_up . W_down . a_m|| of one side's coupling term.

    The term is that side's ``effective`` scale with zeros given for both ``a``
    (0 + term is the term), so it is checked, or refused, as ``effective`` checks.
    """
    if site.mode != CouplingMode.BIDIRECTIONAL:
        raise ValueError("bridge_norm needs a bidirectional site with a meta vector")
    zeros = {f"{site.key}/{s}/a": Tensor(np.zeros_like(site.arrays[f"{s}/a"])) for s in ("image", "text")}
    vec = site.effective(zeros)[side == "text"].data
    return float(100.0 / np.sqrt(vec.shape[0]) * np.linalg.norm(vec))


def trainable_param_count(sites: Mapping[SiteKey, CoupledAgentSite]) -> int:
    """Enumeration-based count: sums the actually registered trainable arrays."""
    return sum(arr.size for _, arr in named_params(sites))
