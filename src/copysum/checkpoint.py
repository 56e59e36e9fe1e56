"""Binary array container: name -> (shape, float64 values), losslessly.

Layout (little-endian): magic ``CSUM``, u32 format version, u32 metadata
byte length, metadata JSON (sorted keys), u32 entry count, then per entry
u16 name length, utf-8 name, u8 reserved flags (written as 0, skipped on
read), u8 ndim, u32 dims, raw float64 data.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError

MAGIC = b"CSUM"
FORMAT_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], metadata: dict | None = None) -> None:
    meta_bytes = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(arrays)))
        for name, values in arrays.items():
            name = name.encode("utf-8")
            arr = np.asarray(values, dtype="<f8")  # keeps 0-d shapes intact
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<BB", 0, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back; returns ({name: float64 array}, metadata).

    A file that is not a whole container raises ``ContractError`` naming it.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ContractError(f"{path}: not a parameter checkpoint")
    try:
        return _parse(raw, path)
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContractError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc


def _parse(raw: bytes, path) -> tuple[dict[str, np.ndarray], dict]:
    version, meta_len = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise ContractError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    metadata = json.loads(raw[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    (count,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, offset)
        offset += 2
        name = raw[offset : offset + name_len].decode("utf-8")
        offset += name_len
        _, ndim = struct.unpack_from("<BB", raw, offset)  # the flag byte is reserved
        offset += 2
        shape = struct.unpack_from(f"<{ndim}I", raw, offset)
        offset += 4 * ndim
        n = math.prod(shape)
        if offset + 8 * n > len(raw):
            raise ContractError(
                f"{path}: truncated checkpoint: {name!r} needs {8 * n} bytes at offset "
                f"{offset}, the file has {len(raw)}"
            )
        try:
            values = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape)
        except ValueError as exc:  # more axes, or larger axes, than numpy holds
            raise ContractError(f"{path}: corrupt checkpoint: {name!r} ({exc})") from exc
        offset += 8 * n
        arrays[name] = values.copy()
    return arrays, metadata
