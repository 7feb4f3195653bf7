"""Mixed-precision (de)serialization of tiles and tile matrices.

The fitted-model artifacts persist the Cholesky factor exactly as the
session holds it in memory: a :class:`~repro.tiles.matrix.TileMatrix`
whose tiles each carry their own storage precision.  Two properties
drive the on-disk format:

* **Native bytes per tile.**  Each tile is written in the byte width of
  its declared precision — 8/4/2 bytes per element for FP64/FP32/FP16
  (IEEE ``float16``; in memory FP16 is float32 on its grid) and
  **1 byte** for FP8, which NumPy cannot represent natively and which
  is therefore encoded to its E4M3 bit codes.  An
  adaptive-FP8 model's artifact is consequently about 4x smaller than
  the same model under a uniform FP32 plan — the on-disk footprint
  mirrors the in-memory precision mosaic the paper's Fig. 4 shows.

* **Bitwise round-trips.**  Tile payloads are *already quantized* to
  their precision's value grid (see :class:`~repro.tiles.tile.Tile`),
  so encoding to native bytes loses nothing: ``decode(encode(x)) == x``
  exactly, element for element, including NaNs.  A loaded model
  therefore predicts bit-for-bit identically to the session that
  exported it.

The module offers two layers:

``encode_payload`` / ``decode_payload``
    Array-level codec between the in-memory representation (the dtype
    :class:`~repro.precision.formats.FormatSpec` stores values in) and
    the native on-disk array.
``pack_tile_matrix`` / ``unpack_tile_matrix``
    Flatten a ``TileMatrix`` into a dict of named arrays plus a JSON
    metadata blob, for embedding into a larger ``.npz`` archive (the
    fitted-model artifact packs the factor alongside the weight panel).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.precision.formats import FP8_E4M3_MAX, Precision
from repro.tiles.layout import TileLayout
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile

__all__ = [
    "encode_payload",
    "decode_payload",
    "encode_fp8",
    "decode_fp8",
    "pack_tile_matrix",
    "unpack_tile_matrix",
    "meta_to_array",
    "meta_from_array",
    "write_archive",
    "resolve_archive_path",
]

#: Archive format marker, bumped on incompatible layout changes.
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# FP8 bit codec
# ----------------------------------------------------------------------
def _e4m3_values() -> np.ndarray:
    """The float32 value of each of the 256 E4M3 codes, by code."""
    codes = np.arange(256)
    field, mant = (codes >> 3) & 0xF, codes & 0x7
    # subnormals are multiples of 2**-9; a normal code is
    # (1 + mant/8) * 2**(field - 7) = (8 + mant) * 2**(field - 10)
    mag = np.where(field == 0, mant * 2.0 ** -9,
                   (8 + mant) * 2.0 ** (field - 10))
    values = np.where(codes & 0x80, -mag, mag)
    # S.1111.111 is E4M3's only NaN pattern: both signs decode to the
    # canonical quiet NaN
    values[(codes & 0x7F) == 0x7F] = np.nan
    return values.astype(np.float32)


#: Decode table: the float32 value of every E4M3 code, built once.
_E4M3_VALUES = _e4m3_values()


def encode_fp8(values: np.ndarray) -> np.ndarray:
    """Encode FP8 E4M3 grid values to their 1-byte bit codes.

    ``values`` must already lie on the E4M3 value grid (the invariant
    every FP8 tile payload satisfies); grid membership is what makes
    the encoding exact.  NaNs encode as 0x7F, whatever their sign.
    """
    x = np.asarray(values, dtype=np.float32)
    mag = np.abs(x)
    if np.isinf(mag).any():
        # ``quantize`` saturates infinities to +-max_finite, so an inf
        # here means unquantized input; encoding it would corrupt silently
        raise ValueError("infinite value is not on the fp8_e4m3 grid; "
                         "quantize before encoding")
    if (mag > FP8_E4M3_MAX).any():  # False for NaN
        # 480 would take S.1111.111, E4M3's NaN, if unchecked
        raise ValueError("value outside the fp8_e4m3 range; quantize "
                         "before encoding")
    # a normal code is the float32 exponent, rebased from bias 127 to 7,
    # over the top three mantissa bits; a subnormal one counts steps of
    # 2**-9 (the branch not taken may wrap, or cast NaN: both discarded)
    with np.errstate(invalid="ignore", over="ignore"):
        normal = (mag.view(np.uint32) >> np.uint32(20)) - np.uint32(120 << 3)
        subnormal = (mag * np.float32(2.0 ** 9)).astype(np.uint32)
    codes = np.where(mag < np.float32(2.0 ** -6), subnormal, normal)
    codes |= (x.view(np.uint32) >> np.uint32(24)) & np.uint32(0x80)
    nan = np.isnan(mag)
    if nan.any():
        codes = np.where(nan, np.uint32(0x7F), codes)
    return codes.astype(np.uint8)


def decode_fp8(codes: np.ndarray) -> np.ndarray:
    """Decode FP8 E4M3 bit codes back to the float32 grid representation."""
    return np.take(_E4M3_VALUES, np.asarray(codes, dtype=np.uint8))


# ----------------------------------------------------------------------
# per-precision payload codec
# ----------------------------------------------------------------------
def encode_payload(data: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Convert an in-memory tile payload to its native on-disk array.

    The result's itemsize equals ``precision.bytes_per_element``, so the
    serialized artifact's footprint reflects the precision mosaic.
    """
    precision = Precision.from_string(precision)
    if precision is Precision.FP64:
        return np.asarray(data, dtype=np.float64)
    if precision is Precision.FP32:
        return np.asarray(data, dtype=np.float32)
    if precision is Precision.FP16:
        return np.asarray(data, dtype=np.float16)  # exact: on FP16's grid
    if precision is Precision.FP8_E4M3:
        return encode_fp8(data)
    if precision is Precision.INT8:
        return np.asarray(data, dtype=np.int8)
    if precision is Precision.INT32:
        return np.asarray(data, dtype=np.int32)
    raise ValueError(f"unsupported precision {precision}")


def decode_payload(raw: np.ndarray, precision: Precision | str) -> np.ndarray:
    """Invert :func:`encode_payload` back to the in-memory representation."""
    precision = Precision.from_string(precision)
    if precision is Precision.FP64:
        return np.asarray(raw, dtype=np.float64)
    if precision is Precision.FP32:
        return np.asarray(raw, dtype=np.float32)
    if precision is Precision.FP16:
        return np.asarray(raw, dtype=np.float16).astype(np.float32)
    if precision is Precision.FP8_E4M3:
        return decode_fp8(raw)
    if precision is Precision.INT8:
        return np.asarray(raw, dtype=np.int8)
    if precision is Precision.INT32:
        return np.asarray(raw, dtype=np.int32)
    raise ValueError(f"unsupported precision {precision}")


# ----------------------------------------------------------------------
# archive plumbing shared with the fitted-model artifacts
# ----------------------------------------------------------------------
def meta_to_array(meta: dict) -> np.ndarray:
    """JSON metadata as a uint8 array (``.npz`` archives hold arrays only)."""
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def meta_from_array(arr: np.ndarray) -> dict:
    """Inverse of :func:`meta_to_array`."""
    return json.loads(bytes(np.asarray(arr, dtype=np.uint8).tobytes())
                      .decode("utf-8"))


def write_archive(path: str | Path, arrays: dict[str, np.ndarray],
                  compress: bool = False) -> Path:
    """Write named arrays to an ``.npz`` file (suffix appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    saver = np.savez_compressed if compress else np.savez
    saver(path, **arrays)
    return path


def resolve_archive_path(path: str | Path) -> Path:
    """Resolve a possibly suffix-less archive path for loading."""
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        return path.with_suffix(".npz")
    return path


# ----------------------------------------------------------------------
# TileMatrix <-> named-array dict
# ----------------------------------------------------------------------


def pack_tile_matrix(matrix: TileMatrix, prefix: str = "",
                     lower_only: bool = False) -> dict[str, np.ndarray]:
    """Flatten a ``TileMatrix`` into named arrays for an ``.npz`` archive.

    Returns ``{f"{prefix}meta": <json bytes>, f"{prefix}t{i}_{j}": raw}``
    with one natively-encoded array per *stored* tile (symmetric
    matrices persist only the lower triangle; unmaterialized tiles —
    implicit zeros — are skipped entirely).

    ``lower_only`` additionally drops strictly-upper tiles of a
    non-symmetric matrix: triangular factors are lower by contract, but
    the factorization workspace may have materialized upper tiles as
    zeros, and persisting those would double a factor artifact's size.
    Skipped tiles read back as implicit zeros.
    """
    tiles_meta = []
    arrays: dict[str, np.ndarray] = {}
    for (i, j) in matrix._iter_stored():
        if lower_only and j > i:
            continue  # zero by the (lower-)triangular contract
        if not matrix.has_tile_data(i, j):
            continue  # implicit zero tile: nothing to store
        # get_tile faults spilled tiles of a store-backed matrix back in
        # one at a time (bitwise), so packing stays under the budget
        tile = matrix.get_tile(i, j)
        key = f"{prefix}t{i}_{j}"
        arrays[key] = encode_payload(tile.data, tile.precision)
        tiles_meta.append({"i": i, "j": j, "precision": tile.precision.value})
    meta = {
        "format_version": FORMAT_VERSION,
        "rows": matrix.layout.rows,
        "cols": matrix.layout.cols,
        "tile_size": matrix.layout.tile_size,
        "symmetric": matrix.symmetric,
        "default_precision": matrix.default_precision.value,
        "tiles": tiles_meta,
    }
    arrays[f"{prefix}meta"] = meta_to_array(meta)
    return arrays


def unpack_tile_matrix(arrays, prefix: str = "", store=None) -> TileMatrix:
    """Rebuild a ``TileMatrix`` from :func:`pack_tile_matrix` arrays.

    ``arrays`` is any mapping from names to arrays — a plain dict or an
    open ``numpy.lib.npyio.NpzFile``.

    With ``store`` (a :class:`~repro.store.TileStore`) the matrix comes
    back **store-backed and fully spilled**: each tile's native bytes
    stream from the archive straight into a spill segment without ever
    being resident, and fault in lazily on first access.  Opening a
    large artifact this way costs near-zero resident tile bytes — the
    serving registry's budget then reflects what is actually in memory.
    """
    meta = meta_from_array(arrays[f"{prefix}meta"])
    if meta.get("format_version", 0) > FORMAT_VERSION:
        raise ValueError(
            f"tile archive written by a newer format "
            f"(version {meta['format_version']} > {FORMAT_VERSION})")
    layout = TileLayout(rows=int(meta["rows"]), cols=int(meta["cols"]),
                        tile_size=int(meta["tile_size"]))
    out = TileMatrix(layout,
                     precision=Precision.from_string(meta["default_precision"]),
                     symmetric=bool(meta["symmetric"]))
    if store is not None:
        out.attach_store(store)
    for entry in meta["tiles"]:
        i, j = int(entry["i"]), int(entry["j"])
        precision = Precision.from_string(entry["precision"])
        raw = arrays[f"{prefix}t{i}_{j}"]
        if store is not None:
            # NpzFile members load lazily, so peak memory here is one
            # encoded tile; the bytes land spilled, not resident
            out._binding.adopt((i, j), raw, precision)
            continue
        payload = decode_payload(raw, precision)
        out._tiles[(i, j)] = Tile._on_grid(payload, precision, (i, j))
    return out
