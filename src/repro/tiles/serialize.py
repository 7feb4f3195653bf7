"""Mixed-precision (de)serialization of tiles and tile matrices.

The fitted-model artifacts persist the Cholesky factor exactly as the
session holds it in memory: a :class:`~repro.tiles.matrix.TileMatrix`
whose tiles each carry their own storage precision.  Two properties
drive the on-disk format:

* **Native bytes per tile.**  Each tile is written in the byte width of
  its declared precision — 8/4/2 bytes per element for FP64/FP32/FP16
  (IEEE ``float16``; in memory FP16 is float32 on its grid), 2 bytes
  for BF16 (the upper half of the float32 bit pattern) and
  **1 byte** for the FP8 formats, which NumPy cannot represent natively
  and which are therefore encoded to their E4M3/E5M2 bit codes.  An
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

from repro.precision.formats import Precision
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

# (mantissa_bits, exponent_bits, exponent_bias, min_normal_exponent)
_FP8_CODEC_PARAMS = {
    Precision.FP8_E4M3: (3, 4, 7, -6),
    Precision.FP8_E5M2: (2, 5, 15, -14),
}


# ----------------------------------------------------------------------
# FP8 bit codec
# ----------------------------------------------------------------------
def encode_fp8(values: np.ndarray,
               variant: Precision = Precision.FP8_E4M3) -> np.ndarray:
    """Encode FP8-grid float values to their 1-byte bit codes.

    ``values`` must already lie on the FP8 value grid (the invariant
    every FP8 tile payload satisfies); grid membership is what makes
    the encoding exact.  NaNs map to the format's NaN encoding.
    """
    if variant not in _FP8_CODEC_PARAMS:
        raise ValueError(f"{variant} is not an FP8 format")
    mbits, ebits, bias, min_normal_exp = _FP8_CODEC_PARAMS[variant]
    x = np.asarray(values, dtype=np.float64)
    if np.any(np.isinf(x)):
        # ``quantize`` saturates infinities to +-max_finite, so an inf
        # here means unquantized input; encoding it as 0 (or as the
        # E5M2 reserved inf pattern) would corrupt silently
        raise ValueError(
            f"infinite value is not on the {variant.value} grid; quantize "
            "before encoding")
    codes = np.zeros(x.shape, dtype=np.uint8)

    sign = np.signbit(x)
    nan = np.isnan(x)
    v = np.abs(x)
    nonzero = np.isfinite(x) & (v > 0.0)
    subnormal = nonzero & (v < 2.0 ** min_normal_exp)
    normal = nonzero & ~subnormal

    if np.any(subnormal):
        # spacing below the normal range is 2**(min_normal_exp - mbits)
        mant = np.rint(v[subnormal] * 2.0 ** (mbits - min_normal_exp))
        codes[subnormal] = mant.astype(np.uint8)

    if np.any(normal):
        frac, exp2 = np.frexp(v[normal])          # v = frac * 2**exp2, frac in [0.5, 1)
        exp = exp2.astype(np.int64) - 1
        mant = np.rint((frac * 2.0 - 1.0) * (1 << mbits)).astype(np.int64)
        carry = mant >> mbits                      # defensive: off-grid inputs
        exp = exp + carry
        mant = mant & ((1 << mbits) - 1)
        field = exp + bias
        max_field = (1 << ebits) - 1
        if variant is Precision.FP8_E5M2:
            # exponent field 31 is reserved for inf/NaN in E5M2
            max_field -= 1
        if np.any(field < 0) or np.any(field > max_field):
            raise ValueError(
                f"value outside the {variant.value} range; quantize before "
                "encoding")
        if variant is Precision.FP8_E4M3 and np.any(
                (field == max_field) & (mant == (1 << mbits) - 1)):
            # S.1111.111 is E4M3's NaN: a finite value rounding there
            # (e.g. 480) is off-grid, not representable
            raise ValueError(
                f"value outside the {variant.value} range; quantize before "
                "encoding")
        codes[normal] = ((field << mbits) | mant).astype(np.uint8)

    if np.any(nan):
        # E4M3: S.1111.111; E5M2: S.11111.01 (a quiet-NaN pattern)
        nan_code = (((1 << ebits) - 1) << mbits) | ((1 << mbits) - 1) \
            if variant is Precision.FP8_E4M3 else \
            ((((1 << ebits) - 1) << mbits) | 0b01)
        codes[nan] = nan_code

    codes[sign & ~nan] |= np.uint8(0x80)
    return codes


def decode_fp8(codes: np.ndarray,
               variant: Precision = Precision.FP8_E4M3) -> np.ndarray:
    """Decode FP8 bit codes back to the float32 grid representation."""
    if variant not in _FP8_CODEC_PARAMS:
        raise ValueError(f"{variant} is not an FP8 format")
    mbits, ebits, bias, min_normal_exp = _FP8_CODEC_PARAMS[variant]
    c = np.asarray(codes, dtype=np.uint8)
    sign = np.where((c & 0x80) != 0, -1.0, 1.0)
    field = ((c >> mbits) & ((1 << ebits) - 1)).astype(np.int64)
    mant = (c & ((1 << mbits) - 1)).astype(np.float64)

    sub = field == 0
    out = np.empty(c.shape, dtype=np.float64)
    out[sub] = mant[sub] * 2.0 ** (min_normal_exp - mbits)
    norm = ~sub
    out[norm] = (1.0 + mant[norm] / (1 << mbits)) * np.exp2(
        (field[norm] - bias).astype(np.float64))

    if variant is Precision.FP8_E4M3:
        # exponent field 15 with mantissa 0b111 is the only NaN pattern
        nan = (field == (1 << ebits) - 1) & (mant == (1 << mbits) - 1)
    else:
        # E5M2 reserves exponent 31: mantissa 0 is inf, otherwise NaN
        reserved = field == (1 << ebits) - 1
        out[reserved & (mant == 0)] = np.inf
        nan = reserved & (mant != 0)
    out[nan] = np.nan
    return (sign * out).astype(np.float32)


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
    if precision is Precision.BF16:
        # bf16 payloads live in float32 with a zero lower half: keep the
        # upper 16 bits of the bit pattern
        x32 = np.ascontiguousarray(data, dtype=np.float32)
        return (x32.view(np.uint32) >> np.uint32(16)).astype(np.uint16)
    if precision in (Precision.FP8_E4M3, Precision.FP8_E5M2):
        return encode_fp8(np.asarray(data, dtype=np.float32), precision)
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
    if precision is Precision.BF16:
        u32 = np.ascontiguousarray(raw, dtype=np.uint16).astype(np.uint32)
        return (u32 << np.uint32(16)).view(np.float32)
    if precision in (Precision.FP8_E4M3, Precision.FP8_E5M2):
        return decode_fp8(raw, precision)
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
