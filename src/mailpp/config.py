"""Run configuration: a strict JSON document with defaults, and the recipe of a run.

``RunConfig`` builds what a run starts from: from the run's seed, the
frozen model (``model``, drawn from the ``frozen-weights`` stream) and the
synthetic dataset (``dataset``); from a generator, fresh agent sites
(``sites``). The CLI and the experiment scripts build runs through these.

The dataclasses are the schema. ``RunConfig`` and its three sections
(``EncoderConfig``, ``TrainingConfig``, ``DataConfig``) state each
field's name, type and default once. At import, ``_SCHEMA`` is built
from their ``dataclasses.fields`` and type hints: per JSON key, the
field, a coercion chosen by the field's type, and the default. Parsing
and ``to_doc`` walk that table. The JSON key is the field name, except
``lambda`` for ``TrainingConfig.lam``, the one alias.

``parse_config_doc`` checks itself only JSON types, unknown and duplicate
keys (so a typo cannot silently fall back to a default) and the rules
across sections. Every other rule belongs to the section's dataclass or,
for the agent-site layout, to ``agents.site_shapes``. Their ValueErrors
start with the field name and are reported as ``<section>.<error>``.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Literal, NamedTuple

import numpy as np

from .agents import build_sites, site_shapes
from .encoder import DualEncoder, EncoderConfig, init_dual_encoder
from .rng import derive
from .training import SyntheticDataset, TrainingConfig, gen_synthetic

__all__ = [
    "DataConfig",
    "RunConfig",
    "parse_config",
    "parse_config_doc",
    "ConfigError",
    "DEFAULT_CONFIG_DOC",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DataConfig:
    pool_per_class: int = 12
    noise: float = 0.1
    text_len: int = 4

    def __post_init__(self):
        if self.pool_per_class < 1:
            raise ValueError("pool_per_class must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.text_len < 2:
            raise ValueError("text_len must be >= 2")


@dataclass(frozen=True)
class RunConfig:
    precision: Literal["f32", "f64"] = "f32"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    data: DataConfig = field(default_factory=DataConfig)
    seed: int | None = None
    out_dir: str | None = None

    @property
    def dtype(self) -> np.dtype:
        """The float dtype of every tensor the run makes."""
        return np.dtype(np.float64 if self.precision == "f64" else np.float32)

    @property
    def layout(self) -> tuple:
        """What places and shapes the agent sites: (encoder, mode, rank, d_m, bridge_shift, positions)."""
        t = self.training
        return self.encoder, t.mode, t.rank, t.d_m, t.bridge_shift, t.positions

    def model(self, seed: int) -> DualEncoder:
        """The frozen model of run ``seed``, in the run's dtype."""
        return init_dual_encoder(self.encoder, derive(seed, "frozen-weights"), self.dtype)

    def dataset(self, seed: int) -> SyntheticDataset:
        """The synthetic dataset of run ``seed``: the config's classes, pool, noise, image shape and text length."""
        enc, data = self.encoder, self.data
        return gen_synthetic(
            self.training.classes, data.pool_per_class, data.noise, seed, (enc.N_v, enc.d_v), data.text_len, self.dtype
        )

    def sites(self, rng: np.random.Generator, dtype=None):
        """Fresh agent sites of this layout, drawn from ``rng``, in ``dtype`` (default: the run's)."""
        enc, mode, rank, d_m, bridge_shift, positions = self.layout
        dtype = self.dtype if dtype is None else dtype
        return build_sites(enc, mode, rank, d_m, rng, dtype, bridge_shift, positions)

    def to_doc(self) -> dict:
        """The JSON document: enums as their values, tuples as lists, a ``None`` seed or out_dir left out."""
        return _to_doc(self)


# ------------------------------------------------------------------
# the schema, derived from the dataclasses


def _typed(what: str, ok: Callable[[Any], bool], convert: Callable[[Any], Any] | None = None):
    """A coercion that takes the JSON values ``ok`` accepts and says ``<path> must be <what>`` of the rest."""

    def coerce(value, path):
        if not ok(value):
            raise ConfigError(f"{path} must be {what}")
        return value if convert is None else convert(value)

    return coerce


def _list_of(kinds, length: int | None = None) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and length in (None, len(v)) and all(isinstance(x, kinds) for x in v)


_COERCIONS = {
    int: _typed("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: _typed("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), float),
    bool: _typed("true or false", lambda v: isinstance(v, bool)),
    str: _typed("a string", lambda v: isinstance(v, str)),
    tuple[float, float]: _typed("a pair of numbers", _list_of((int, float), 2), lambda v: (float(v[0]), float(v[1]))),
    tuple[str, ...]: _typed("a list of strings", _list_of(str), tuple),
}


def _coercion(hint) -> Callable[[Any, str], Any]:
    """The check and conversion of a JSON value for a field typed ``hint``."""
    if dataclasses.is_dataclass(hint):
        is_object = _typed("an object", lambda v: isinstance(v, dict))
        return lambda value, path: _read(is_object(value, path), hint, path)
    if isinstance(hint, type) and issubclass(hint, Enum):
        choices = [m.value for m in hint]

        def member(value, path):
            if _COERCIONS[str](value, path) not in choices:
                raise ConfigError(f"{path} must be one of {choices}, got {value!r}")
            return hint(value)

        return member
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Literal:  # the value is checked, not its type: `"precision": 3` is no choice either
        return _typed(" or ".join(map(repr, args)), lambda v: v in args)
    if origin is types.UnionType and args[1] is type(None):  # `X | None`
        inner = _coercion(args[0])
        return lambda value, path: None if value is None else inner(value, path)
    return _COERCIONS[hint]


class _Field(NamedTuple):
    name: str  # the dataclass field
    coerce: Callable[[Any, str], Any]  # (JSON value, path) -> field value, or ConfigError naming the path
    default: Any  # a section's default is its table of field defaults


_ALIASES = {"lam": "lambda"}  # field -> JSON key


def _schema(cls) -> dict[str, _Field]:
    """JSON key -> field of one dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    table = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            default = vars(default)
        table[_ALIASES.get(f.name, f.name)] = _Field(f.name, _coercion(hints[f.name]), default)
    return table


_SCHEMA = {cls: _schema(cls) for cls in (EncoderConfig, TrainingConfig, DataConfig, RunConfig)}


def _read(section: dict, cls, path: str) -> dict:
    """Field name -> value of one section: unknown keys rejected, present values coerced, the rest defaulted."""
    table = _SCHEMA[cls]
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {key!r}" + (f" in section {path!r}" if path else ""))
    return {
        f.name: f.coerce(section[key], f"{path}.{key}" if path else key) if key in section else f.default
        for key, f in table.items()
    }


def _to_doc(obj) -> dict:
    doc = {}
    for key, f in _SCHEMA[type(obj)].items():
        value = getattr(obj, f.name)
        if value is None:
            continue
        if type(value) in _SCHEMA:
            value = _to_doc(value)
        elif isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        doc[key] = value
    return doc


def _build(path: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueErrors re-raised as ConfigErrors prefixed with ``<path>.``."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e


DEFAULT_CONFIG_DOC = RunConfig().to_doc()


# ------------------------------------------------------------------
# parsing


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, filling defaults."""
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    return parse_config_doc(doc)


def parse_config_doc(doc) -> RunConfig:
    """Validate an already-decoded configuration document."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    raw = _read(doc, RunConfig, "")
    encoder = _build("encoder", EncoderConfig, **raw["encoder"])
    training = _build("training", TrainingConfig, **raw["training"])
    data = _build("data", DataConfig, **raw["data"])
    run = RunConfig(**{**raw, "encoder": encoder, "training": training, "data": data})
    _build("training", site_shapes, *run.layout)

    # cross-section consistency
    if training.classes + 2 > encoder.vocab_size:
        raise ConfigError(
            f"encoder.vocab_size {encoder.vocab_size} too small for training.classes {training.classes}"
            " (needs classes + 2 token ids)"
        )
    if training.classes > encoder.d_v:
        raise ConfigError(f"training.classes {training.classes} exceeds encoder.d_v {encoder.d_v} prototypes")
    if data.text_len > encoder.N_t:
        raise ConfigError(f"data.text_len {data.text_len} exceeds encoder.N_t {encoder.N_t}")
    if training.shots > data.pool_per_class:
        raise ConfigError(f"training.shots {training.shots} exceeds data.pool_per_class {data.pool_per_class}")
    return run
