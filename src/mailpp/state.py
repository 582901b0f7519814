"""Packing full run state into named tensors and back.

Checkpoints hold the frozen weights, the agent/bridge/meta parameters,
the optimizer moments, and the run configuration (plus seed and step
counter) as one document. Datasets reuse the same container with a
different ``kind`` marker.

The frozen weights are stored under their ``DualEncoder.arrays`` names,
so packing reads the model's one table as it is, and unpacking selects
the ``weight_shapes`` names of both modalities from the loaded tensors,
after checking them, without copying. The trainable arrays are stored as
``agent/<site>/<local>`` in ``named_params`` order, and the optimizer's
flat moments as ``opt/m/<site>/<local>`` and ``opt/v/<site>/<local>``,
cut in the same order; unpacking writes the arrays into freshly built
sites and concatenates the moments back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .agents import CoupledAgentSite, SiteKey, flat_views, named_params
from .checkpoint import CheckpointError
from .config import RunConfig, parse_config_doc
from .encoder import DualEncoder, weight_shapes
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
    tensors = dict(model.arrays)
    if sites is not None:
        for name, arr in named_params(sites):
            tensors[f"agent/{name}"] = arr
    if opt_state is not None:
        if sites is None:
            raise ValueError("pack_state: optimizer moments need the sites they belong to")
        for moment, flat in (("m", opt_state.m), ("v", opt_state.v)):
            for name, view in flat_views(flat, sites).items():
                tensors[f"opt/{moment}/{name}"] = view
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

    frozen = {**weight_shapes(enc, "text"), **weight_shapes(enc, "image")}
    expected = dict(frozen)
    sites: dict[SiteKey, CoupledAgentSite] | None = None
    has_opt = False
    if not fused:
        sites = run_cfg.sites(rngmod.derive(seed, "restore-sites"))
        params = {name: arr.shape for name, arr in named_params(sites)}
        expected.update({f"agent/{pname}": shape for pname, shape in params.items()})
        has_opt = any(n.startswith("opt/") for n in tensors)
        if has_opt:
            for moment in ("m", "v"):
                expected.update({f"opt/{moment}/{pname}": shape for pname, shape in params.items()})
    _check_layout(tensors, expected, run_cfg.dtype)

    # the loaded arrays themselves, not copies
    model = DualEncoder(enc, {name: tensors[name] for name in frozen})
    opt_state: AdamState | None = None
    if sites is not None:
        for name, arr in named_params(sites):
            arr[...] = tensors[f"agent/{name}"]
        if has_opt:
            m, v = (np.concatenate([tensors[f"opt/{moment}/{name}"].reshape(-1) for name in params]) for moment in "mv")
            opt_state = AdamState(step=int(doc.get("opt_step", 0)), m=m, v=v)
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
