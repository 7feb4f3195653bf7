"""Tile-native mixed-precision preconditioned conjugate gradients.

The hyperparameter sweeps of the paper's GWAS workflow solve
``(K + alpha*I) w = y`` for a whole grid of regularizations against
*one* kernel matrix.  The direct path pays one tiled Cholesky
factorization per alpha — O(n^3/3) each — even though the operator
changes only on its diagonal.  This module implements the factor-once
alternative of ROADMAP item 4b:

* factorize ``K + alpha_ref*I`` **once** in the session's low-precision
  tile mosaic (the existing :func:`~repro.linalg.cholesky.cholesky`),
* then solve every other alpha with preconditioned CG, using that
  factor as the preconditioner (applied by the existing tiled
  :func:`~repro.linalg.solve.solve_cholesky` in the working precision)
  while the residuals and search directions iterate in FP64.

Because ``M = L L^T ~= K + alpha_ref*I``, the preconditioned operator
``M^{-1}(K + alpha*I)`` has eigenvalues ``(lam + alpha)/(lam +
alpha_ref)`` clustered within ``[min(1, a/a_ref), max(1, a/a_ref)]`` —
CG converges in a handful of iterations for any alpha near the
reference, each iteration costing O(n^2) instead of O(n^3).

The kernel matvec runs entirely on the TileMatrix/Runtime stack: one
task per tile *row* (``acc = alpha*v_i + sum_j K[i,j] @ v_j``), each a
:class:`CgMatvecSpec` descriptor that the serial, threaded and process
backends (and the runtime-less inline loop) all run, so they agree
bit for bit, with ``tile_deps`` declared per stored tile so store-backed
kernels stay within their residency budget.  The per-row accumulation
order is fixed (ascending ``j``), which makes the whole convergence
history deterministic across execution modes, worker counts and store
budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.linalg.cholesky import CholeskyResult
from repro.linalg.kernels import gemm_flops
from repro.linalg.solve import solve_cholesky
from repro.precision.formats import Precision
from repro.runtime.runtime import Runtime
from repro.runtime.task import AccessMode, BodySpec, TaskSpec, TileInput
from repro.tiles.matrix import TileMatrix
from repro.tiles.tile import Tile

__all__ = ["CGResult", "cg_solve", "kernel_matvec"]


@dataclass
class CGResult:
    """Solution and convergence history of one preconditioned CG solve.

    Attributes
    ----------
    x:
        FP64 solution panel (one column per right-hand side).
    iterations:
        Matvec count actually performed.
    converged:
        True when every column's relative residual reached ``tol``.
    residual_norms:
        Per-iteration maximum (over columns) of the relative residual
        ``||b_j - A x_j|| / ||b_j||`` — recorded *before* the
        iteration's update, so ``residual_norms[0]`` is 1.0 for a zero
        initial guess.  Deterministic across execution modes.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


# ----------------------------------------------------------------------
# the DAG matvec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CgMatvecSpec(BodySpec):
    """One tile row of the kernel matvec: ``alpha*v_i + sum_j K[i,j] @ v_j``.

    Receives the full FP64 vector/panel (plus the unwritten output
    handle's payload) and the row's *stored* kernel tiles, in ascending
    column order.  The loop order (ascending ``j``) and operation order
    (``acc = acc + tile @ block``) are the bitwise contract of the CG
    convergence history.

    ``transposes[j]`` marks a symmetric upper-triangle column: its
    stored lower tile is multiplied through a transposed no-copy view —
    the same F-ordered float64 layout ``get_tile``'s mirrored copy would
    expose, so the BLAS call (and therefore the result) is bitwise
    unchanged while the per-access tile copy disappears from the
    iteration critical path.
    """

    alpha: float
    row_start: int
    row_stop: int
    transposes: tuple = ()

    def run(self, v: np.ndarray, _out, *tiles: Tile) -> np.ndarray:
        acc = self.alpha * v[self.row_start:self.row_stop]
        c0 = 0
        for j, tile in enumerate(tiles):
            t64 = tile.float64_values()
            if j < len(self.transposes) and self.transposes[j]:
                t64 = t64.T
            width = t64.shape[1]
            acc = acc + t64 @ v[c0:c0 + width]
            c0 += width
        return acc


def kernel_matvec(kernel: TileMatrix, v: np.ndarray, alpha: float = 0.0,
                  runtime: Runtime | None = None,
                  phase: str = "solve") -> np.ndarray:
    """``(K + alpha*I) @ v`` on a tiled kernel, in FP64.

    With ``runtime`` the product is inserted as one :class:`CgMatvecSpec`
    task per tile row — each reads the full FP64 vector handle and the
    row's stored kernel tiles (``TileInput``s read per execution, and
    declared via ``tile_deps`` so store-backed kernels pin and fault
    tiles under their budget).  Without a runtime the same descriptors
    run inline on the caller's thread.  Both paths are bitwise
    identical.
    """
    if kernel.shape[0] != kernel.shape[1]:
        raise ValueError("kernel_matvec requires a square kernel matrix")
    v = np.asarray(v, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    if v.shape[0] != kernel.shape[0]:
        raise ValueError("vector rows must match the kernel order")
    layout = kernel.layout
    nt = layout.tile_rows
    nrhs = v.shape[1]

    def row(i: int) -> tuple[CgMatvecSpec, list[tuple[int, int]]]:
        """Row ``i``'s descriptor and the stored tiles it consumes."""
        rs = layout.tile_slice(i, 0)[0]
        keys = [kernel._stored_key(i, j) for j in range(nt)]
        return (CgMatvecSpec(float(alpha), rs.start, rs.stop,
                             transposes=tuple(t for _, t in keys)),
                [key for key, _ in keys])

    if runtime is None:
        out = np.vstack([
            spec.run(v, None, *(kernel.get_tile(*key) for key in keys))
            for spec, keys in map(row, range(nt))])
        return out[:, 0] if squeeze else out

    binding = kernel._binding
    with runtime.dag("cgmv", store=kernel.store) as ns:
        v_handle = runtime.register_data(f"{ns}v", payload=v)
        out_handles = []
        for i in range(nt):
            spec, keys = row(i)
            rows = spec.row_stop - spec.row_start
            h = runtime.register_data(f"{ns}y({i})", shape=(rows, nrhs))
            out_handles.append(h)
            runtime.insert_task(
                "cg_matvec",
                (v_handle, AccessMode.READ),
                (h, AccessMode.WRITE),
                flops=gemm_flops(rows, nrhs, layout.cols) + rows * nrhs,
                precision=Precision.FP64, tag=(i,),
                tile_deps=(() if binding is None
                           else tuple((binding, key) for key in keys)),
                spec=TaskSpec(spec, mode="both",
                              aux=tuple(TileInput(kernel, key)
                                        for key in keys)),
            )
        runtime.run(phase=phase)
        out = np.vstack([h.payload for h in out_handles])
    return out[:, 0] if squeeze else out


# ----------------------------------------------------------------------
# preconditioned CG
# ----------------------------------------------------------------------
def cg_solve(
    kernel: TileMatrix,
    rhs: np.ndarray,
    alpha: float,
    preconditioner: CholeskyResult | TileMatrix | None = None,
    tol: float = 1e-8,
    max_iterations: int = 200,
    precision: Precision | str = Precision.FP32,
    runtime: Runtime | None = None,
    phase: str = "solve",
    x0: np.ndarray | None = None,
) -> CGResult:
    """Solve ``(K + alpha*I) X = B`` by tiled preconditioned CG.

    Parameters
    ----------
    kernel:
        The (symmetric positive semi-definite) tiled kernel ``K`` —
        *without* the diagonal shift; ``alpha`` is applied analytically
        inside the matvec, which is what lets one kernel serve the
        whole regularization grid.
    rhs:
        Right-hand side vector or panel (FP64).
    preconditioner:
        Tiled Cholesky factor of ``K + alpha_ref*I`` (any storage
        precision — the session passes its low-precision mosaic
        factor), applied with the tiled
        :func:`~repro.linalg.solve.solve_cholesky` in ``precision``.
        ``None`` runs unpreconditioned CG.
    tol:
        Convergence threshold on the relative residual
        ``||b - A x|| / ||b||``, per column; the solve converges when
        every column is below it.
    precision:
        Working precision of the preconditioner application (the
        triangular solves); the CG recurrences themselves stay FP64.
    runtime:
        Session runtime: each matvec inserts a per-tile-row task DAG
        whose FP64 flops land in ``runtime.ledger[phase]``.  The preconditioner
        sweeps run inline either way (see below).
    x0:
        Optional warm-start guess (same shape as ``rhs``).  For shifted
        systems the previous shift's solution leaves only the residual
        ``(alpha_prev - alpha)·x_prev``, typically cutting several
        iterations off a regularization sweep; costs one extra matvec
        to form the initial residual.  ``None`` starts from zero.

    Multiple right-hand sides run as simultaneous independent
    recurrences (per-column scalars, one shared matvec per iteration).
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    precision = Precision.from_string(precision)
    b = np.asarray(rhs, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    if b.shape[0] != kernel.shape[0]:
        raise ValueError("right-hand side rows must match the kernel order")

    factor: TileMatrix | None
    if isinstance(preconditioner, CholeskyResult):
        factor = preconditioner.factor
    else:
        factor = preconditioner

    # The preconditioner sweeps run *inline* (no task DAG): a CG
    # iteration applies them once per iteration on the critical path,
    # where per-task scheduling overhead would swamp the O(n^2) BLAS
    # work — and the inline tiled solve is bitwise identical to the
    # tasked one (the solver test suite asserts exactly that), so the
    # convergence history does not depend on this choice.  Only the
    # matvecs go through the runtime, carrying the tallied CG flops.
    def apply_preconditioner(r: np.ndarray) -> np.ndarray:
        if factor is None:
            return r
        return np.asarray(
            solve_cholesky(factor, r, precision=precision),
            dtype=np.float64)

    norm_b = np.linalg.norm(b, axis=0)
    scale = np.where(norm_b > 0, norm_b, 1.0)

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()  # b - A @ 0
    else:
        x = np.asarray(x0, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape != b.shape:
            raise ValueError("x0 must match the right-hand side shape")
        x = x.copy()
        r = b - kernel_matvec(kernel, x, alpha=alpha, runtime=runtime,
                              phase=phase)
    p = None
    rho_prev = None
    residual_norms: list[float] = []
    converged = False
    iterations = 0

    for _ in range(max_iterations):
        rel = np.linalg.norm(r, axis=0) / scale
        residual_norms.append(float(rel.max()))
        if bool(np.all(rel <= tol)):
            converged = True
            break
        z = apply_preconditioner(r)
        rho = np.einsum("ij,ij->j", r, z)
        if p is None:
            p = z.copy()
        else:
            beta = np.where(rho_prev != 0.0, rho / rho_prev, 0.0)
            p = z + beta[None, :] * p
        q = kernel_matvec(kernel, p, alpha=alpha, runtime=runtime,
                          phase=phase)
        pq = np.einsum("ij,ij->j", p, q)
        gamma = np.where(pq != 0.0, rho / pq, 0.0)
        x = x + gamma[None, :] * p
        r = r - gamma[None, :] * q
        rho_prev = rho
        iterations += 1
    else:
        rel = np.linalg.norm(r, axis=0) / scale
        residual_norms.append(float(rel.max()))
        converged = bool(np.all(rel <= tol))

    return CGResult(
        x=x[:, 0] if squeeze else x,
        iterations=iterations,
        converged=converged,
        residual_norms=residual_norms,
    )
