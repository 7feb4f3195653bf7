"""Bitwise-exact payload codec for the process-parallel tile exchange.

Workers and the coordinator never pickle tile *data* — numeric payloads
cross the process boundary as raw native-precision bytes, produced by
the same :mod:`repro.tiles.serialize` codecs the out-of-core store uses
for spill segments (FP64/FP32/FP16 native dtypes, FP8 as 1-byte E4M3
codes).  Those codecs are exact
inverses of each other, which is what makes ``execution="process"``
bitwise identical to the serial drain: a tile decoded in a worker is
the same array of floats the coordinator held, down to the last bit.

Three payload kinds plus a pickle escape hatch:

``tile``
    :class:`~repro.tiles.tile.Tile` — encoded payload bytes + small
    (precision, encoded dtype, shape, coords) metadata.
``array``
    ``numpy.ndarray`` — contiguous raw bytes + (dtype, shape).
``none``
    ``None`` — zero bytes (released throttle rows, sync tokens).
``pickle``
    Anything else (e.g. the Build operand context) via pickle.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.precision.formats import Precision
from repro.tiles.serialize import decode_payload, encode_payload
from repro.tiles.tile import Tile

__all__ = [
    "KIND_ARRAY",
    "KIND_NONE",
    "KIND_PICKLE",
    "KIND_TILE",
    "decode_obj",
    "encode_obj",
]

KIND_NONE = "none"
KIND_TILE = "tile"
KIND_ARRAY = "array"
KIND_PICKLE = "pickle"

def encode_obj(obj: object) -> tuple[str, dict, bytes]:
    """Encode one task input/output as ``(kind, meta, raw bytes)``."""
    if obj is None:
        return KIND_NONE, {}, b""
    if isinstance(obj, Tile):
        raw = np.ascontiguousarray(encode_payload(obj.data, obj.precision))
        meta = {
            "precision": obj.precision.value,
            "dtype": raw.dtype.str,
            "shape": tuple(obj.data.shape),
            "coords": obj.coords,
        }
        return KIND_TILE, meta, raw.tobytes()
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return KIND_ARRAY, {"dtype": arr.dtype.str,
                            "shape": tuple(arr.shape)}, arr.tobytes()
    return KIND_PICKLE, {}, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode_obj(kind: str, meta: dict, buf: bytes) -> object:
    """Exact inverse of :func:`encode_obj`."""
    if kind == KIND_NONE:
        return None
    if kind == KIND_TILE:
        precision = Precision(meta["precision"])
        raw = np.frombuffer(buf, dtype=np.dtype(meta["dtype"]))
        raw = raw.reshape(meta["shape"])
        coords = meta["coords"]
        data = decode_payload(raw, precision)
        # decoded from the format's own bytes: on its grid by construction
        return Tile._on_grid(data, precision,
                             tuple(coords) if coords is not None else None)
    if kind == KIND_ARRAY:
        arr = np.frombuffer(buf, dtype=np.dtype(meta["dtype"]))
        # frombuffer views are read-only; a consumer may write (a Build
        # row's on_complete fills the diagonal), so take ownership.
        return arr.reshape(meta["shape"]).copy()
    if kind == KIND_PICKLE:
        return pickle.loads(buf)
    raise ValueError(f"unknown payload kind {kind!r}")
