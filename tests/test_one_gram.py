"""One blocked integer Gram, exact: the streamed INT8 SNP Gram and the
INT32 distance assembly, on the one Build route.

``distance/build.py::snp_gram`` is the only place that walks the SNP
axis in ``snp_block`` columns — the Build, the Predict,
``squared_euclidean_gemm`` and RR's ``XᵀX`` (on ``Gᵀ``) all call it.  Each step casts only its block
and accumulates exactly in INT32, so the streamed Gram equals one
unblocked ``integer_backend("int64")`` product, and the INT32 assembly
of ``D = d₁ + d₂ − 2G`` equals the float64 one bit for bit.  It is the
only Gram: no kernel, SNP precision or Gram variant is selectable.
"""

import ast
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance import build
from repro.distance.build import (SNP_BLOCK, SNP_VARIANT, KernelBuilder,
                                  compute_kernel_rows, snp_gram)
from repro.distance.euclidean import (squared_euclidean_direct,
                                      squared_euclidean_gemm)
from repro.distance.kernels import gaussian_kernel
from repro.gwas.config import RRConfig
from repro.gwas.session import RRSession
from repro.precision.formats import Precision
from repro.precision.gemm import QuantizedOperand, gemm_mixed, integer_backend
from tests.runtime.test_one_drain import SRC, _sites

#: ns relative to the block B: one SNP, B−1, B, B+1 and 3B+5
NS_CASES = (lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1,
            lambda b: 3 * b + 5)


def _panel(seed, rows, ns, extremes):
    rng = np.random.default_rng(seed)
    lo, hi = (-128, 128) if extremes else (0, 3)
    return rng.integers(lo, hi, size=(rows, ns)).astype(np.int8)


def _int64_reference(q1, q2, rs, cs):
    with integer_backend("int64"):
        return gemm_mixed(q1[rs, :], q2[cs, :], variant=SNP_VARIANT,
                          transb=True)


@st.composite
def gram_cases(draw):
    """A panel, the block, and rows × columns of a cross, a symmetric
    band (columns up to the band's end, its own rows last) or a whole
    symmetric Gram."""
    block = draw(st.sampled_from([2, 5, 16]))
    ns = draw(st.sampled_from(NS_CASES))(block)
    n = draw(st.integers(1, 24))
    g = _panel(draw(st.integers(0, 2 ** 16)), n, ns, draw(st.booleans()))
    kind = draw(st.sampled_from(["cross", "band", "whole"]))
    if kind == "cross":
        m = draw(st.integers(0, n))
        return g[:m], g[m:], block, slice(0, m), slice(0, n - m), kind
    r0 = draw(st.integers(0, n - 1))
    r1 = draw(st.integers(r0 + 1, n))
    rows = (slice(r0, r1), slice(0, r1)) if kind == "band" else (
        slice(0, n), slice(0, n))
    return g, g, block, *rows, kind


@given(gram_cases())
@settings(max_examples=150, deadline=None)
def test_streamed_gram_equals_the_int64_reference(case):
    g1, g2, block, rs, cs, kind = case
    q1 = QuantizedOperand(g1, Precision.INT8)
    q2 = q1 if kind != "cross" else QuantizedOperand(g2, Precision.INT8)
    gram = snp_gram(q1, q2, block, rs, cs)
    assert gram.dtype == np.int32
    assert np.array_equal(gram, _int64_reference(q1, q2, rs, cs))
    # the int64 backend streams to the same integers
    with integer_backend("int64"):
        assert np.array_equal(snp_gram(q1, q2, block, rs, cs), gram)


@given(gram_cases(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_int32_assembly_is_bitwise_the_float64_assembly(case, confounders):
    g1, g2, block, rs, cs, kind = case
    symmetric = kind != "cross"
    rng = np.random.default_rng(g1.size)
    c1 = rng.standard_normal((len(g1), 2)) if confounders else None
    c2 = c1 if symmetric or c1 is None else rng.standard_normal((len(g2), 2))
    builder = KernelBuilder(gamma=2.0 ** -14, tile_size=8, snp_block=block)
    ctx = builder._prepare_operands(g1, g2, c1, c2, symmetric=symmetric)
    assert ctx.d1.dtype == ctx.d2.dtype == np.int32
    wide = dataclasses.replace(ctx, d1=ctx.d1.astype(np.float64),
                               d2=ctx.d2.astype(np.float64))
    k32 = compute_kernel_rows(ctx, builder.gamma, block, rs, cs)
    k64 = compute_kernel_rows(wide, builder.gamma, block, rs, cs)
    assert np.array_equal(k32, k64)
    if not confounders:
        # and both are exp(−γ·D) of the exact distances
        exact = squared_euclidean_direct(g1[rs], g2[cs])
        assert np.array_equal(k32, gaussian_kernel(exact, builder.gamma))


@pytest.mark.parametrize("ns, int32", [(32767, True), (32768, False),
                                       (33100, False)])
def test_the_assembly_falls_back_to_float64_at_the_exactness_edge(ns,
                                                                  int32):
    """INT8 extremes: (128 + 128)²·ns < 2³¹ holds up to ns = 32767.
    Past the edge the distances are summed in float64 and stay exact —
    at ns = 33100 the −128 row and the 127 row are 255²·33100 > 2³¹
    apart, which an INT32 sum would wrap."""
    g = np.array([[-128] * ns, [127] * ns, [0, 1] * (ns // 2) + [5] * (ns % 2)],
                 dtype=np.int8)
    builder = KernelBuilder(gamma=2.0 ** -32, tile_size=2)
    ctx = builder._prepare_operands(g, g, None, None, symmetric=True)
    assert (ctx.d1.dtype == np.int32) is int32
    exact = squared_euclidean_direct(g)
    k = compute_kernel_rows(ctx, builder.gamma, builder.snp_block,
                            slice(0, 3), slice(0, 3))
    assert np.array_equal(k, gaussian_kernel(exact, builder.gamma))
    assert np.array_equal(squared_euclidean_gemm(g), exact)


@pytest.mark.parametrize("ns, calls", [(16, 1), (17, 4)])
def test_a_gram_within_one_block_is_one_gemm_mixed_call(monkeypatch, ns,
                                                        calls):
    """Up to snp_block SNPs a symmetric band is one product; past it each
    block is an off-diagonal product plus the band's own ``a @ a.T``."""
    seen = []

    def spy(a, b, **kw):
        seen.append((a.shape, b.shape, a is b))
        return gemm_mixed(a, b, **kw)

    monkeypatch.setattr(build, "gemm_mixed", spy)
    q = QuantizedOperand(_panel(1, 12, ns, False), Precision.INT8)
    snp_gram(q, q, 16, slice(8, 12), slice(0, 12))
    assert len(seen) == calls
    if calls > 1:
        assert [same for *_, same in seen] == [False, True, False, True]


def test_the_snp_axis_is_blocked_in_one_function():
    def blocks_snps(node):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) == "range" \
            and any(isinstance(arg, ast.Name) and arg.id == "snp_block"
                    for arg in node.args)
    assert _sites(blocks_snps) == ["distance/build.py:snp_gram"]


def test_a_gemm_operation_count_is_defined_once():
    """``2·m·n·k`` is written in ``gemm_flop_count`` alone; every ledger
    entry of a product calls it."""
    def two_m_n_k(node):
        factors = 0
        while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            factors += 1
            node = node.left
        return factors == 3 and isinstance(node, ast.Constant) \
            and node.value == 2
    assert _sites(two_m_n_k) == ["precision/gemm.py:gemm_flop_count"]


#: the knobs of the retired second kernel and float SNP Gram
RETIRED_KNOBS = {"kernel_type", "snp_precision", "confounder_precision",
                 "normalize_gamma", "artifact_compress"}


def test_no_kernel_or_gram_knob_is_declared():
    """No field, attribute, parameter or property of ``src/repro`` is
    named after a retired knob (``KRRConfig.from_dict`` still reads them
    from old artifacts, as strings)."""
    def declares(node):
        if isinstance(node, ast.arg):
            return node.arg in RETIRED_KNOBS
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name in RETIRED_KNOBS
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            return any(getattr(t, "id", getattr(t, "attr", None))
                       in RETIRED_KNOBS for t in targets)
        return False
    assert _sites(declares) == []


def test_the_gram_takes_no_variant_argument():
    tree = ast.parse((SRC / "distance" / "build.py").read_text())
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    for name in ("snp_gram", "compute_kernel_rows"):
        args = functions[name].args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            assert "variant" not in arg.arg
            assert "GemmVariant" not in ast.dump(arg)


def test_the_int8_gram_variant_is_named_in_one_function():
    """Every INT8 Gram of the library — the Build's, the Predict's and
    RR's ``XᵀX`` — is a :func:`snp_gram` call."""
    def names_it(node):
        return isinstance(node, ast.Name) and node.id == "SNP_VARIANT" \
            and isinstance(node.ctx, ast.Load)
    assert set(_sites(names_it)) == {"distance/build.py:snp_gram"}


@pytest.mark.parametrize("extremes", [False, True])
@pytest.mark.parametrize("rows", NS_CASES)
def test_rr_snp_block_is_the_int64_product(rows, extremes):
    """RR's SNP×SNP block of ``XᵀX`` is :func:`snp_gram` on ``Gᵀ``: the
    individual axis is the blocked one, so cohorts of one, ``B − 1``,
    ``B``, ``B + 1`` and ``3B + 5`` individuals take the one-product
    and the streamed paths, bitwise the unblocked int64 ``GᵀG``."""
    g = _panel(5, rows(SNP_BLOCK), 3, extremes)
    session = RRSession(RRConfig(execution="serial"))
    gram = session._gram(g, np.empty((len(g), 0)))
    q = QuantizedOperand(g.T, Precision.INT8)
    assert np.array_equal(gram, _int64_reference(q, q, slice(0, 3),
                                                 slice(0, 3)))
    assert session.runtime.ledger["build"].flops_by_precision == {
        Precision.INT8: 2.0 * 3 * 3 * len(g)}
