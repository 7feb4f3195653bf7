"""One container for every emulated format.

FP16 and FP8 tiles are float32 on their format's grid in memory.
The 2-byte IEEE half type is a wire format only: ``np.float16`` is named
in ``src/repro`` by the payload codec, which writes and reads FP16's
2-byte bytes, and by the grid rounding, which accepts a float16 input.
A second in-memory container cannot come back without editing the list
below.
"""

import ast

import numpy as np

from repro.precision.formats import Precision
from tests.runtime.test_one_drain import _sites


def test_float16_is_named_by_the_codec_and_the_rounding_only():
    def names_float16(node):
        if isinstance(node, ast.Attribute):
            return node.attr in ("float16", "half")
        return isinstance(node, ast.ImportFrom) \
            and any(a.name in ("float16", "half") for a in node.names)
    assert _sites(names_float16) == [
        "precision/fp8.py:_round_to_grid",  # a float16 input rounds in float32
        "tiles/serialize.py:encode_payload",
        "tiles/serialize.py:decode_payload",
    ]


def test_every_emulated_format_is_float32_in_memory():
    native = (Precision.FP32, Precision.FP64)
    emulated = {p for p in Precision if p.spec.is_float and p not in native}
    assert emulated == {Precision.FP16, Precision.FP8_E4M3}
    assert {p.numpy_dtype for p in emulated} == {np.dtype(np.float32)}
