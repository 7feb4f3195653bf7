"""One precision ladder: the paper's formats and no other.

The solver computes in FP64, FP32, FP16, FP8 E4M3 and INT8 (with INT32
as the integer accumulator).  No other format can be named: neither
as a ``Precision``, nor by a string alias, nor in the metadata of a
tile archive, which fails to load with the same ``ValueError`` as any
unknown name.
"""

import json

import numpy as np
import pytest

from repro.precision.formats import Precision
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import pack_tile_matrix, unpack_tile_matrix

RETIRED = ["bf16", "bfloat16", "e5m2", "fp8_e5m2"]


def test_the_ladder_is_the_papers():
    assert set(Precision) == {Precision.FP64, Precision.FP32, Precision.FP16,
                              Precision.FP8_E4M3, Precision.INT8,
                              Precision.INT32}


@pytest.mark.parametrize("name", RETIRED)
def test_a_retired_name_is_unknown(name):
    with pytest.raises(ValueError, match="unknown precision"):
        Precision.from_string(name)


@pytest.mark.parametrize("field", ["default_precision", "tile"])
@pytest.mark.parametrize("name", RETIRED)
def test_an_archive_naming_a_retired_format_fails_to_load(name, field):
    dense = np.arange(64, dtype=np.float64).reshape(8, 8)
    arrays = pack_tile_matrix(TileMatrix.from_dense(dense, 4, Precision.FP32))
    meta = json.loads(bytes(arrays["meta"].tobytes()).decode())
    if field == "tile":
        meta["tiles"][0]["precision"] = name
    else:
        meta["default_precision"] = name
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with pytest.raises(ValueError, match="unknown precision"):
        unpack_tile_matrix(arrays)
