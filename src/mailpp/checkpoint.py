"""Named-tensor binary checkpoints.

Layout (all integers little-endian):

  magic   8 bytes  b"MAILCKPT"
  version u32
  count   u32      number of tensors
  tensor records, each:
      name_len u16, name UTF-8
      dtype    u8   (0 = f32, 1 = f64)
      rank     u8
      dims     rank x u32
      data     raw little-endian values, C order
  config  u32 length + UTF-8 JSON document

Round trips are bitwise: tensors are stored exactly and the config
document is serialized canonically (sorted keys). A save writes a temp file
in the destination directory and renames it over the destination, so the
path holds either its old bytes or the complete new file, never a partial
one. Loading rejects any malformed file with ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import uuid
from typing import Mapping

import numpy as np

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint", "CheckpointError"]

MAGIC = b"MAILCKPT"
VERSION = 1

_DTYPE_TAGS = {np.dtype("float32"): 0, np.dtype("float64"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(ValueError):
    pass


def config_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, tensors: Mapping[str, np.ndarray], config_doc: dict) -> None:
    """Write tensors plus an embedded config document."""
    names = list(tensors)
    if len(set(names)) != len(names):
        raise CheckpointError("tensor names must be unique")
    parts = [MAGIC, struct.pack("<II", VERSION, len(names))]
    for name in names:
        arr = np.asarray(tensors[name])
        if not arr.flags.c_contiguous:  # ascontiguousarray would promote 0-d to 1-d
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        raw_name = name.encode("utf-8")
        if not 0 < len(raw_name) < 65536:
            raise CheckpointError(f"tensor name {name!r} has invalid length")
        if arr.ndim > 255:
            raise CheckpointError(f"tensor {name!r} has too many dimensions")
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<BB", _DTYPE_TAGS[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        parts.append(le.tobytes(order="C"))
    cfg = config_bytes(config_doc)
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    blob = b"".join(parts)
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"  # same directory, so the rename stays on one filesystem
    try:
        with open(tmp, "xb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError(f"truncated file while reading {what}")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors and the embedded config document back, byte-exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointError("bad magic: not a checkpoint file")
    version = r.u32("version")
    if version > VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (newest known: {VERSION})")
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        name_len = r.u16(f"name length of tensor {i}")
        try:
            name = r.take(name_len, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"name of tensor {i} is not UTF-8: {e}") from e
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        tag = r.u8(f"dtype of tensor {name!r}")
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"tensor {name!r} has unknown dtype tag {tag}")
        rank = r.u8(f"rank of tensor {name!r}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of tensor {name!r}"))
        dtype = _TAG_DTYPES[tag]
        # Python ints: a size from a corrupt header cannot wrap around, so
        # take() compares the true size with the bytes that remain.
        raw = r.take(math.prod(dims) * dtype.itemsize, f"values of tensor {name!r}")
        try:
            arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        except ValueError as e:  # e.g. more axes than numpy supports
            raise CheckpointError(f"tensor {name!r} has unsupported shape: {e}") from e
        arr = arr.astype(dtype.newbyteorder("="), copy=True)
        tensors[name] = arr
    cfg_len = r.u32("config length")
    cfg_raw = r.take(cfg_len, "config document")
    if r.off != len(blob):
        raise CheckpointError(f"{len(blob) - r.off} trailing bytes after config document")
    try:
        doc = json.loads(cfg_raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt embedded config: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"embedded config is a JSON {type(doc).__name__}, not an object")
    return tensors, doc
