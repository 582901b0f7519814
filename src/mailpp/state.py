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
cut in the same order. Unpacking checks every tensor once, by name, shape
and dtype, against the config (``_check_layout``; the agent shapes come
from ``site_shapes``, which also checks the layout's rules). It then builds
each site from copies of its tensors (no random draw), which re-checks
only the site's name set, and concatenates the moments back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import CoupledAgentSite, SiteKey, flat_views, named_params, site_shapes
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
    if fused != (sites is None):
        raise ValueError("pack_state: a fused checkpoint carries no sites, and an unfused one needs them")
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


def _field(doc: dict, key: str, kinds: tuple[type, ...] = (int,), what: str = "an integer", default=0):
    """``doc[key]`` (``default`` if absent), whose JSON type must be one of ``kinds``; bool is not an int."""
    value = doc.get(key, default)
    if type(value) not in kinds:
        raise CheckpointError(f"{doc.get('kind')} field {key!r} must be {what}, got {value!r}")
    return value


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
    if "run_config" not in doc:
        raise CheckpointError("checkpoint has no 'run_config'")
    run_cfg = parse_config_doc(doc["run_config"])
    seed, step = _field(doc, "seed"), _field(doc, "step")
    fused = _field(doc, "fused", (bool,), "true or false", False)
    enc = run_cfg.encoder

    frozen = {**weight_shapes(enc, "text"), **weight_shapes(enc, "image")}
    expected = dict(frozen)
    layout = {} if fused else site_shapes(*run_cfg.layout)
    params = {f"{key}/{local}": shape for key, shapes in layout.items() for local, shape in shapes.items()}
    has_opt = not fused and any(n.startswith("opt/") for n in tensors)
    for prefix in ("agent/", "opt/m/", "opt/v/")[: 3 if has_opt else 1]:
        expected.update({prefix + pname: shape for pname, shape in params.items()})
    _check_layout(tensors, expected, run_cfg.dtype)

    # the loaded frozen arrays themselves; the sites get copies they own
    model = DualEncoder(enc, {name: tensors[name] for name in frozen})
    sites: dict[SiteKey, CoupledAgentSite] | None = None
    opt_state: AdamState | None = None
    if not fused:
        t = run_cfg.training
        sites = {
            key: CoupledAgentSite(key, t.mode, t.bridge_shift, {n: tensors[f"agent/{key}/{n}"].copy() for n in shapes})
            for key, shapes in layout.items()
        }
        if has_opt:
            m, v = (np.concatenate([tensors[f"opt/{moment}/{name}"].reshape(-1) for name in params]) for moment in "mv")
            opt_state = AdamState(step=_field(doc, "opt_step"), m=m, v=v)
    return RestoredState(
        run_cfg=run_cfg, model=model, sites=sites, opt_state=opt_state, seed=seed, step=step, fused=fused
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


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(i) is int for i in value)


def unpack_dataset(tensors: dict[str, np.ndarray], doc: dict) -> SyntheticDataset:
    """Rebuild a dataset, after checking its class axes, token lists, disjoint class lists and noise."""
    if doc.get("kind") != "dataset":
        raise CheckpointError(f"not a dataset container (kind={doc.get('kind')!r})")
    images, prototypes = _fetch(tensors, "data/images"), _fetch(tensors, "data/prototypes")
    if images.ndim != 4:
        raise CheckpointError("dataset images tensor must be 4-D (class, pool, tokens, width)")
    if prototypes.ndim != 2 or prototypes.shape[0] != images.shape[0]:
        raise CheckpointError(f"dataset prototypes {prototypes.shape} do not match images {images.shape}")
    n, tokens = images.shape[0], doc.get("tokens")
    if not isinstance(tokens, list) or len(tokens) != n or not all(map(_is_int_list, tokens)):
        raise CheckpointError(f"dataset field 'tokens' must hold one list of token ids for each of {n} classes")
    classes = {key: doc.get(key, []) for key in ("base_classes", "novel_classes")}
    for key, value in classes.items():
        if not _is_int_list(value) or not all(0 <= c < n for c in value):
            raise CheckpointError(f"dataset field {key!r} must list class indices in [0, {n}), got {value!r}")
        if len(set(value)) != len(value):
            raise CheckpointError(f"dataset field {key!r} repeats a class index, got {value!r}")
    shared = sorted(set(classes["base_classes"]) & set(classes["novel_classes"]))
    if shared:
        raise CheckpointError(f"dataset field 'novel_classes' shares classes {shared} with 'base_classes'")
    return SyntheticDataset(
        prototypes=prototypes,
        images=images,
        tokens=tokens,
        noise=float(_field(doc, "noise", (int, float), "a number", 0.0)),
        seed=_field(doc, "seed"),
        **classes,
    )
