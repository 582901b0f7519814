"""Packing full run state into named tensors and back.

Checkpoints hold the frozen weights, the agent/bridge/meta parameters,
the optimizer moments, and the run configuration (plus seed and step
counter) as one document. Datasets reuse the same container with a
different ``kind`` marker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .agents import CoupledAgentSite, SiteKey, build_sites
from .checkpoint import CheckpointError
from .config import RunConfig, parse_config_doc
from .encoder import (
    AttentionParams,
    BlockWeights,
    DualEncoder,
    EncoderConfig,
    EncoderWeights,
    LayerNormParams,
    LinearParams,
    Modality,
    MlpParams,
    weight_shapes,
)
from .training import AdamState, SyntheticDataset

__all__ = [
    "RestoredState",
    "pack_state",
    "unpack_state",
    "pack_dataset",
    "unpack_dataset",
]


# ------------------------------------------------------------------
# checkpoints


@dataclass
class RestoredState:
    run_cfg: RunConfig
    model: DualEncoder
    sites: dict[SiteKey, CoupledAgentSite] | None
    opt_state: AdamState | None
    seed: int
    step: int
    fused: bool


def pack_state(
    model: DualEncoder,
    sites: dict[SiteKey, CoupledAgentSite] | None,
    opt_state: AdamState | None,
    run_cfg: RunConfig,
    seed: int,
    step: int = 0,
    fused: bool = False,
) -> tuple[dict[str, np.ndarray], dict]:
    tensors: dict[str, np.ndarray] = {}
    for name, arr in model.named_tensors():
        tensors[name] = arr
    if sites is not None:
        for key, site in sites.items():
            for local, arr in site.params():
                tensors[f"agent/{key}/{local}"] = arr
    if opt_state is not None:
        for pname, arr in opt_state.m.items():
            tensors[f"opt/m/{pname}"] = arr
        for pname, arr in opt_state.v.items():
            tensors[f"opt/v/{pname}"] = arr
    doc = {
        "kind": "checkpoint",
        "run_config": run_cfg.to_doc(),
        "seed": int(seed),
        "step": int(step),
        "fused": bool(fused),
        "opt_step": 0 if opt_state is None else int(opt_state.step),
    }
    return tensors, doc


def _fetch(tensors: dict[str, np.ndarray], name: str) -> np.ndarray:
    arr = tensors.get(name)
    if arr is None:
        raise CheckpointError(f"checkpoint is missing tensor {name!r}")
    return arr


def _encoder_from_tensors(cfg: EncoderConfig, modality: Modality, tensors: dict[str, np.ndarray]) -> EncoderWeights:
    m = modality

    def ln(prefix: str) -> LayerNormParams:
        return LayerNormParams(_fetch(tensors, f"{prefix}/gamma"), _fetch(tensors, f"{prefix}/beta"))

    def lin(prefix: str) -> LinearParams:
        return LinearParams(_fetch(tensors, f"{prefix}/w"), _fetch(tensors, f"{prefix}/b"))

    blocks = []
    for i in range(cfg.L):
        p = f"frozen/{m}/block{i}"
        blocks.append(
            BlockWeights(
                ln1=ln(f"{p}/ln1"),
                attn=AttentionParams(
                    w_q=lin(f"{p}/attn/q"),
                    w_k=lin(f"{p}/attn/k"),
                    w_v=lin(f"{p}/attn/v"),
                    w_o=lin(f"{p}/attn/o"),
                ),
                ln2=ln(f"{p}/ln2"),
                mlp=MlpParams(fc1=lin(f"{p}/mlp/fc1"), fc2=lin(f"{p}/mlp/fc2")),
            )
        )
    return EncoderWeights(
        modality=m,
        embed=_fetch(tensors, f"frozen/{m}/embed") if m == "text" else None,
        pos=_fetch(tensors, f"frozen/{m}/pos"),
        cls_token=_fetch(tensors, f"frozen/{m}/cls") if m == "image" else None,
        blocks=blocks,
        final_ln=ln(f"frozen/{m}/final_ln"),
        proj=lin(f"frozen/{m}/proj"),
    )


def _check_layout(tensors: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]], dtype: np.dtype) -> None:
    """Every expected tensor present with its shape and dtype, and no other; reads no data."""
    for name, shape in expected.items():
        arr = _fetch(tensors, name)
        if arr.shape != shape:
            raise CheckpointError(f"tensor {name!r} has shape {arr.shape}; the config needs {shape}")
        if arr.dtype != dtype:
            raise CheckpointError(f"tensor {name!r} is {arr.dtype}; the config's precision needs {dtype}")
    unknown = [name for name in tensors if name not in expected]
    if unknown:
        raise CheckpointError(f"checkpoint has tensor {unknown[0]!r}, which the config does not define")


def unpack_state(tensors: dict[str, np.ndarray], doc: dict) -> RestoredState:
    """Rebuild the run state, after checking every tensor's name, shape and dtype against the config."""
    if doc.get("kind") != "checkpoint":
        raise CheckpointError(f"not a checkpoint container (kind={doc.get('kind')!r})")
    run_cfg = parse_config_doc(doc["run_config"])
    seed = int(doc.get("seed", 0))
    step = int(doc.get("step", 0))
    fused = bool(doc.get("fused", False))
    enc = run_cfg.encoder
    dtype = np.dtype(np.float64 if run_cfg.precision == "f64" else np.float32)

    expected = {**weight_shapes(enc, "text"), **weight_shapes(enc, "image")}
    sites: dict[SiteKey, CoupledAgentSite] | None = None
    has_opt = False
    if not fused:
        t = run_cfg.training
        sites = build_sites(
            enc,
            t.mode,
            t.rank,
            t.d_m,
            rngmod.derive(seed, "restore-sites"),
            dtype,
            t.bridge_shift,
            t.positions,
        )
        params = {f"{key}/{local}": arr.shape for key, site in sites.items() for local, arr in site.params()}
        expected.update({f"agent/{pname}": shape for pname, shape in params.items()})
        has_opt = any(n.startswith("opt/") for n in tensors)
        if has_opt:
            for moment in ("m", "v"):
                expected.update({f"opt/{moment}/{pname}": shape for pname, shape in params.items()})
    _check_layout(tensors, expected, dtype)

    model = DualEncoder(
        cfg=enc,
        text=_encoder_from_tensors(enc, "text", tensors),
        image=_encoder_from_tensors(enc, "image", tensors),
    )
    opt_state: AdamState | None = None
    if sites is not None:
        for key, site in sites.items():
            for local, _ in list(site.params()):
                site.set_param(local, tensors[f"agent/{key}/{local}"])
        if has_opt:
            opt_state = AdamState(
                step=int(doc.get("opt_step", 0)),
                m={pname: tensors[f"opt/m/{pname}"] for pname in params},
                v={pname: tensors[f"opt/v/{pname}"] for pname in params},
            )
    return RestoredState(
        run_cfg=run_cfg,
        model=model,
        sites=sites,
        opt_state=opt_state,
        seed=seed,
        step=step,
        fused=fused,
    )


# ------------------------------------------------------------------
# datasets


def pack_dataset(ds: SyntheticDataset) -> tuple[dict[str, np.ndarray], dict]:
    tensors = {
        "data/prototypes": ds.prototypes,
        "data/images": ds.images,
    }
    doc = {
        "kind": "dataset",
        "tokens": [list(map(int, t)) for t in ds.tokens],
        "base_classes": list(map(int, ds.base_classes)),
        "novel_classes": list(map(int, ds.novel_classes)),
        "noise": float(ds.noise),
        "seed": int(ds.seed),
    }
    return tensors, doc


def unpack_dataset(tensors: dict[str, np.ndarray], doc: dict) -> SyntheticDataset:
    if doc.get("kind") != "dataset":
        raise CheckpointError(f"not a dataset container (kind={doc.get('kind')!r})")
    images = _fetch(tensors, "data/images")
    if images.ndim != 4:
        raise CheckpointError("dataset images tensor must be 4-D (class, pool, tokens, width)")
    return SyntheticDataset(
        prototypes=_fetch(tensors, "data/prototypes"),
        images=images,
        tokens=[list(map(int, t)) for t in doc.get("tokens", [])],
        base_classes=list(map(int, doc.get("base_classes", []))),
        novel_classes=list(map(int, doc.get("novel_classes", []))),
        noise=float(doc.get("noise", 0.0)),
        seed=int(doc.get("seed", 0)),
    )
