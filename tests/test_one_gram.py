"""One blocked integer Gram, exact: the streamed INT8 SNP Gram is the
distance accumulator, on the one Build route.

``distance/build.py::snp_gram`` is the only place that walks the SNP
axis in ``snp_block`` columns — the Build, the Predict,
``squared_euclidean_gemm`` and RR's ``XᵀX`` (on ``Gᵀ``) all call it.
Its accumulator starts at ``d₁ + d₂`` (zero for a plain Gram) and each
step casts only its block and adds ``−2·A·Bᵀ`` into it in place, in the
narrowest float that the bound ``(max|a| + max|b|)²·ns`` proves exact.
So the streamed result equals one unblocked ``integer_backend("int64")``
product, and the kernel assembled from it equals the float64 assembly
of ``D = d₁ + d₂ − 2G`` bit for bit.  It is the only Gram: no kernel,
SNP precision or Gram variant is selectable.
"""

import ast

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
from repro.precision.gemm import (QuantizedOperand, gemm_mixed,
                                  integer_backend, integer_gemm_dtype,
                                  syrk_mixed)
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


def _exact_distances(q1, q2, rs, cs):
    """``d₁ + d₂ − 2G`` in int64, from the unblocked int64 Gram."""
    d1 = np.einsum("ij,ij->i", q1.array, q1.array, dtype=np.int64)
    d2 = np.einsum("ij,ij->i", q2.array, q2.array, dtype=np.int64)
    return (d1[rs, None] + d2[None, cs]
            - 2 * _int64_reference(q1, q2, rs, cs).astype(np.int64))


def _norms(q1, q2):
    return tuple(np.einsum("ij,ij->i", q.array, q.array, dtype=np.int64)
                 .astype(np.float64) for q in (q1, q2))


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


@given(gram_cases(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_streamed_gram_equals_the_int64_reference(case, with_norms):
    g1, g2, block, rs, cs, kind = case
    q1 = QuantizedOperand(g1, Precision.INT8)
    q2 = q1 if kind != "cross" else QuantizedOperand(g2, Precision.INT8)
    norms = _norms(q1, q2) if with_norms else None
    acc = snp_gram(q1, q2, block, rs, cs, norms)
    # the narrowest float that (max|a| + max|b|)²·ns proves exact
    top = q1.max_abs() + q2.max_abs()
    assert acc.dtype == integer_gemm_dtype(top, top, g1.shape[1])
    want = (_exact_distances(q1, q2, rs, cs) if with_norms
            else _int64_reference(q1, q2, rs, cs))
    assert np.array_equal(acc, want)
    # the int64 backend streams to the same integers
    with integer_backend("int64"):
        assert np.array_equal(snp_gram(q1, q2, block, rs, cs, norms), acc)


@given(gram_cases(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_the_accumulator_assembly_is_bitwise_the_float64_assembly(
        case, confounders):
    """The kernel read from the (float32) accumulator equals the kernel
    of ``D = d₁ + d₂ − 2G`` summed in float64, confounder term and all."""
    g1, g2, block, rs, cs, kind = case
    symmetric = kind != "cross"
    rng = np.random.default_rng(g1.size)
    c1 = rng.standard_normal((len(g1), 2)) if confounders else None
    c2 = c1 if symmetric or c1 is None else rng.standard_normal((len(g2), 2))
    builder = KernelBuilder(gamma=2.0 ** -14, tile_size=8, snp_block=block)
    ctx = builder._prepare_operands(g1, g2, c1, c2, symmetric=symmetric)
    assert ctx.d1.dtype == ctx.d2.dtype == np.float64
    got = compute_kernel_rows(ctx, builder.gamma, block, rs, cs)
    dist = _exact_distances(ctx.q1, ctx.q2, rs, cs).astype(np.float64)
    if confounders:
        gram_c = gemm_mixed(ctx.qc1[rs, :], ctx.qc2[cs, :],
                            variant=build.CONF_VARIANT, transb=True)
        dist = np.maximum(dist + ((ctx.e1[rs, None] + ctx.e2[None, cs])
                                  - 2.0 * gram_c), 0.0)
    assert np.array_equal(got, gaussian_kernel(dist, builder.gamma))
    if not confounders:
        # and it is exp(−γ·D) of the directly summed distances
        exact = squared_euclidean_direct(g1[rs], g2[cs])
        assert np.array_equal(got, gaussian_kernel(exact, builder.gamma))


@pytest.mark.parametrize("ns, dtype", [(255, np.float32), (256, np.float64),
                                       (301, np.float64)])
def test_the_accumulator_widens_to_float64_at_the_exactness_edge(ns, dtype):
    """INT8 extremes: (128 + 128)²·ns < 2²⁴ holds up to ns = 255.  Past
    the edge the distances accumulate in float64 and stay exact — at
    ns = 301 the −128 row and the 127 row are 255²·301 = 19 572 525
    apart, an odd integer past 2²⁴ that float32 would round."""
    g = np.array([[-128] * ns, [127] * ns, [0, 1] * (ns // 2) + [5] * (ns % 2)],
                 dtype=np.int8)
    builder = KernelBuilder(gamma=2.0 ** -32, tile_size=2)
    ctx = builder._prepare_operands(g, g, None, None, symmetric=True)
    rows = slice(0, 3)
    acc = snp_gram(ctx.q1, ctx.q2, builder.snp_block, rows, rows,
                   (ctx.d1, ctx.d2))
    assert acc.dtype == dtype
    exact = squared_euclidean_direct(g)
    assert np.array_equal(acc, exact)
    k = compute_kernel_rows(ctx, builder.gamma, builder.snp_block, rows,
                            rows)
    assert np.array_equal(k, gaussian_kernel(exact, builder.gamma))
    assert np.array_equal(squared_euclidean_gemm(g), exact)


@pytest.mark.parametrize("rs, ns, calls", [
    (slice(8, 12), 16, ["gemm"]),
    (slice(0, 12), 16, ["syrk"]),
    (slice(8, 12), 17, ["gemm", "syrk", "gemm", "syrk"]),
])
def test_each_block_adds_into_one_accumulator(monkeypatch, rs, ns, calls):
    """Up to snp_block SNPs a symmetric band is one full-width product (a
    whole symmetric Gram one ``?syrk``); past it each block is an
    off-diagonal ``?gemm`` plus the band's own ``?syrk``.  Every product
    is a ``precision/gemm.py`` call that adds into a view of the one
    accumulator the Gram returns."""
    seen = []

    def spy(kind, fn):
        def call(*args, **kw):
            seen.append((kind, kw["c"], kw["beta"]))
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(build, "gemm_mixed", spy("gemm", gemm_mixed))
    monkeypatch.setattr(build, "syrk_mixed", spy("syrk", syrk_mixed))
    q = QuantizedOperand(_panel(1, 12, ns, False), Precision.INT8)
    cs = slice(0, 12)
    acc = snp_gram(q, q, 16, rs, cs, _norms(q, q))
    assert [kind for kind, *_ in seen] == calls
    assert all(beta == 1.0 and np.shares_memory(c, acc)
               for _, c, beta in seen)
    assert np.array_equal(acc, _exact_distances(q, q, rs, cs))


def test_the_snp_axis_is_blocked_in_one_function():
    def blocks_snps(node):
        return isinstance(node, ast.Call) \
            and getattr(node.func, "id", None) == "range" \
            and any(isinstance(arg, ast.Name) and arg.id == "snp_block"
                    for arg in node.args)
    assert _sites(blocks_snps) == ["distance/build.py:snp_gram"]


def test_the_norm_sum_is_formed_in_one_function():
    """The outer sum ``d₁[rows, None] + d₂[None, cols]`` — the norm part
    of every squared distance (the SNP accumulator's preload and the
    confounder term) — is written once, in ``_norm_sum``; the kernel
    assembly and ``squared_euclidean_gemm`` reach it through it."""
    def broadcast(node):
        return isinstance(node, ast.Subscript) \
            and isinstance(node.slice, ast.Tuple) \
            and any(isinstance(e, ast.Constant) and e.value is None
                    for e in node.slice.elts)

    def outer_sum(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = [node.left, node.right]
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) == "add":
            operands = node.args[:2]
        else:
            return False
        return len(operands) == 2 and all(map(broadcast, operands))
    assert _sites(outer_sum) == ["distance/build.py:_norm_sum"]


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
