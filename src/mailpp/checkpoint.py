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
document is serialized canonically (sorted keys). A save goes through
``write_atomic``, as the CLI's CSV files do: a temp file in the destination
directory, renamed over it, so the path holds its old bytes or the whole new
file. A load reads each header field in place after a bounds check and
copies each tensor once, into an aligned, writable, native-order array of
its own; it rejects any malformed file with ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import uuid
from typing import Mapping

import numpy as np

__all__ = ["MAGIC", "VERSION", "save_checkpoint", "load_checkpoint", "write_atomic", "CheckpointError"]

MAGIC = b"MAILCKPT"
VERSION = 1

# dtype -> (tag, stored dtype); tag -> (stored dtype, native dtype)
_DTYPE_TAGS = {np.dtype("float32"): (0, np.dtype("<f4")), np.dtype("float64"): (1, np.dtype("<f8"))}
_TAG_DTYPES = {tag: (le, le.newbyteorder("=")) for tag, le in _DTYPE_TAGS.values()}


class CheckpointError(ValueError):
    pass


def config_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path`` and rename it over ``path``."""
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"  # same directory, so the rename stays on one filesystem
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, tensors: Mapping[str, np.ndarray], config_doc: dict) -> None:
    """Write tensors plus an embedded config document."""
    names = list(tensors)
    if len(set(names)) != len(names):
        raise CheckpointError("tensor names must be unique")
    parts = [MAGIC, struct.pack("<II", VERSION, len(names))]
    for name in names:
        arr = np.asarray(tensors[name])
        if arr.dtype not in _DTYPE_TAGS:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        tag, le = _DTYPE_TAGS[arr.dtype]
        raw = name.encode("utf-8")
        if not 0 < len(raw) < 65536:
            raise CheckpointError(f"tensor name {name!r} has invalid length")
        if arr.ndim > 255:
            raise CheckpointError(f"tensor {name!r} has too many dimensions")
        parts.append(struct.pack(f"<H{len(raw)}sBB{arr.ndim}I", len(raw), raw, tag, arr.ndim, *arr.shape))
        parts.append(np.asarray(arr, le, order="C"))  # a 0-d stays 0-d; join reads its buffer uncopied
    cfg = config_bytes(config_doc)
    parts += [struct.pack("<I", len(cfg)), cfg]
    write_atomic(path, b"".join(parts))


def _truncated(what: str) -> CheckpointError:
    return CheckpointError(f"truncated file while reading {what}")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read tensors and the embedded config document back, byte-exact."""
    with open(path, "rb") as fh:
        blob = fh.read()
    # each field's end is checked in Python ints, which cannot wrap, before it is read
    end = len(blob)
    if not blob.startswith(MAGIC):
        raise _truncated("magic") if end < len(MAGIC) else CheckpointError("bad magic: not a checkpoint file")
    if end < 12:
        raise _truncated("version")
    version = struct.unpack_from("<I", blob, 8)[0]
    if version > VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} (newest known: {VERSION})")
    if end < 16:
        raise _truncated("tensor count")
    tensors: dict[str, np.ndarray] = {}
    off = 16
    for i in range(struct.unpack_from("<I", blob, 12)[0]):
        if off + 2 > end:
            raise _truncated(f"name length of tensor {i}")
        start, off = off + 2, off + 2 + struct.unpack_from("<H", blob, off)[0]
        if off > end:
            raise _truncated(f"name of tensor {i}")
        try:
            name = blob[start:off].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"name of tensor {i} is not UTF-8: {e}") from e
        if name in tensors:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        if off >= end:
            raise _truncated(f"dtype of tensor {name!r}")
        if blob[off] not in _TAG_DTYPES:
            raise CheckpointError(f"tensor {name!r} has unknown dtype tag {blob[off]}")
        if off + 1 >= end:
            raise _truncated(f"rank of tensor {name!r}")
        (le, native), rank = _TAG_DTYPES[blob[off]], blob[off + 1]
        start, off = off + 2, off + 2 + 4 * rank
        if off > end:
            raise _truncated(f"dims of tensor {name!r}")
        dims = struct.unpack_from(f"<{rank}I", blob, start)
        start, off = off, off + math.prod(dims) * le.itemsize
        if off > end:
            raise _truncated(f"values of tensor {name!r}")
        try:  # a view of the file's bytes, then the one copy: aligned, writable, its own memory
            tensors[name] = np.ndarray(dims, le, blob, start).astype(native)
        except ValueError as e:  # e.g. more axes than numpy supports
            raise CheckpointError(f"tensor {name!r} has unsupported shape: {e}") from e
    if off + 4 > end:
        raise _truncated("config length")
    start, off = off + 4, off + 4 + struct.unpack_from("<I", blob, off)[0]
    if off > end:
        raise _truncated("config document")
    if off != end:
        raise CheckpointError(f"{end - off} trailing bytes after config document")
    try:
        doc = json.loads(blob[start:off].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt embedded config: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError(f"embedded config is a JSON {type(doc).__name__}, not an object")
    return tensors, doc
