"""Tile-native mixed-precision preconditioned conjugate gradients.

The hyperparameter sweeps of the paper's GWAS workflow solve
``(K + alpha*I) w = y`` for a whole grid of regularizations against
*one* kernel matrix.  The direct path pays one tiled Cholesky
factorization per alpha — O(n^3/3) each — even though the operator
changes only on its diagonal.  This module implements the factor-once
alternative:

* factorize ``K + alpha_ref*I`` **once** in the session's low-precision
  tile mosaic (the existing :func:`~repro.linalg.cholesky.cholesky`),
* then solve every other alpha with preconditioned CG, using that
  factor as the preconditioner (applied by the existing tiled
  :func:`~repro.linalg.solve.solve_cholesky` in the working precision)
  while the residuals and search directions iterate in FP64.

The shifted systems differ only in a per-column scalar, so the whole
alpha axis rides **one** PCG: ``alpha`` may carry one shift per
right-hand-side column, every column runs its own recurrence in
lockstep, and each iteration streams the kernel and the factor once for
the whole panel instead of once per alpha.  A column that has met the
tolerance takes no further update and leaves the panel, so late
iterations get narrower.

Because ``M = L L^T ~= K + alpha_ref*I``, the preconditioned operator
``M^{-1}(K + alpha*I)`` has eigenvalues ``(lam + alpha)/(lam +
alpha_ref)`` clustered within ``[min(1, a/a_ref), max(1, a/a_ref)]`` —
CG converges in a handful of iterations for any alpha near the
reference, each iteration costing O(n^2) instead of O(n^3).

The kernel matvec runs entirely on the TileMatrix/Runtime stack: one
task per tile *row* (``acc = v_i*shifts + sum_j K[i,j] @ v_j``), each a
:class:`CgMatvecSpec` descriptor that the serial, threaded and process
backends (and the runtime-less inline loop) all run, so they agree
bit for bit, with ``tile_deps`` declared per stored tile so store-backed
kernels stay within their residency budget.  The per-row accumulation
order is fixed (ascending ``j``) and a column retires on its own
residual alone, which makes the whole convergence history deterministic
across execution modes, worker counts and store budgets.
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
        Matvec count actually performed — the maximum of
        ``column_iterations``.
    converged:
        True when every column's relative residual reached ``tol``.
    residual_norms:
        Per-iteration maximum (over columns) of the relative residual
        ``||b_j - A x_j|| / ||b_j||`` — recorded *before* the
        iteration's update, so ``residual_norms[0]`` is 1.0 for a zero
        initial guess; a retired column counts with the residual it
        retired at.  Deterministic across execution modes.
    column_iterations:
        Updates each column took before it met ``tol`` (or the iteration
        limit) and left the panel.
    column_converged:
        Which columns reached ``tol``.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    column_iterations: np.ndarray | None = None
    column_converged: np.ndarray | None = None

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


# ----------------------------------------------------------------------
# the DAG matvec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CgMatvecSpec(BodySpec):
    """One tile row of the kernel matvec: ``v_i*shifts + sum_j K[i,j] @ v_j``.

    ``shifts`` holds one diagonal shift per panel column, or a single
    one for them all (a tuple, so the descriptor hashes and pickles).
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

    shifts: tuple
    row_start: int
    row_stop: int
    transposes: tuple = ()

    def run(self, v: np.ndarray, _out, *tiles: Tile) -> np.ndarray:
        acc = v[self.row_start:self.row_stop] * np.array(self.shifts)[None, :]
        c0 = 0
        for j, tile in enumerate(tiles):
            t64 = tile.float64_values()
            if j < len(self.transposes) and self.transposes[j]:
                t64 = t64.T
            width = t64.shape[1]
            acc = acc + t64 @ v[c0:c0 + width]
            c0 += width
        return acc


def _shifts(alpha, columns: int) -> tuple:
    """``alpha`` as validated per-column shifts: one, or one per column."""
    shifts = np.asarray(alpha, dtype=np.float64)
    if shifts.ndim > 1 or (shifts.ndim == 1 and shifts.size != columns):
        raise ValueError(
            f"alpha must be a scalar or one shift per right-hand-side column "
            f"({columns}), got shape {shifts.shape}")
    if not np.all(np.isfinite(shifts) & (shifts >= 0)):
        raise ValueError("alpha must be finite and non-negative")
    return tuple(shifts.ravel().tolist())


def kernel_matvec(kernel: TileMatrix, v: np.ndarray,
                  alpha: float | np.ndarray = 0.0,
                  runtime: Runtime | None = None,
                  phase: str = "solve") -> np.ndarray:
    """``K @ v + v * alpha`` on a tiled kernel, in FP64.

    ``alpha`` is a scalar — ``(K + alpha*I) @ v`` — or one shift per
    column of ``v``.  With ``runtime`` the product is inserted as one
    :class:`CgMatvecSpec` task per tile row — each reads the full FP64
    vector handle and the row's stored kernel tiles (``TileInput``s read
    per execution, and declared via ``tile_deps`` so store-backed
    kernels pin and fault tiles under their budget).  Without a runtime
    the same descriptors run inline on the caller's thread.  Both paths
    are bitwise identical.
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
    shifts = _shifts(alpha, nrhs)

    def row(i: int) -> tuple[CgMatvecSpec, list[tuple[int, int]]]:
        """Row ``i``'s descriptor and the stored tiles it consumes."""
        rs = layout.tile_slice(i, 0)[0]
        keys = [kernel._stored_key(i, j) for j in range(nt)]
        return (CgMatvecSpec(shifts, rs.start, rs.stop,
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
    alpha: float | np.ndarray,
    preconditioner: CholeskyResult | TileMatrix | None = None,
    tol: float = 1e-8,
    max_iterations: int = 200,
    precision: Precision | str = Precision.FP32,
    runtime: Runtime | None = None,
    phase: str = "solve",
    x0: np.ndarray | None = None,
    r0: np.ndarray | None = None,
) -> CGResult:
    """Solve ``(K + alpha_j*I) x_j = b_j`` by tiled preconditioned CG.

    Parameters
    ----------
    kernel:
        The (symmetric positive semi-definite) tiled kernel ``K`` —
        *without* the diagonal shift; ``alpha`` is applied analytically
        inside the matvec, which is what lets one kernel serve the
        whole regularization grid.
    rhs:
        Right-hand side vector or panel (FP64).
    alpha:
        The diagonal shift: a scalar, or one shift per right-hand-side
        column — a regularization path is the phenotype panel repeated
        once per alpha, solved as one panel.
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
        systems a neighbouring shift's solution leaves only the residual
        ``(alpha_ref - alpha)·x_ref``, typically cutting several
        iterations off a regularization sweep; costs one extra matvec
        to form the initial residual.  ``None`` starts from zero.
    r0:
        The residual ``b - A x0`` when the caller already holds it
        (same shape as ``rhs``; needs ``x0``): a path warm-started from
        one reference solution shares a single ``K @ x_ref`` among all
        its shifts instead of paying the full-width matvec here.

    Every column runs its own recurrence (per-column scalars) in
    lockstep over one shared matvec and one preconditioner sweep per
    iteration.  A column that has met ``tol`` takes no further update
    and leaves the panel, so its solution is what it was at the
    iteration it converged and later iterations get narrower.
    """
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
    ncols = b.shape[1]
    shifts = np.broadcast_to(_shifts(alpha, ncols), (ncols,))

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
        return solve_cholesky(factor, r, precision=precision)

    def panel(name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 1:
            value = value[:, None]
        if value.shape != b.shape:
            raise ValueError(f"{name} must match the right-hand side shape")
        return value.copy()

    norm_b = np.linalg.norm(b, axis=0)
    scale = np.where(norm_b > 0, norm_b, 1.0)

    if r0 is not None and x0 is None:
        raise ValueError("r0 is the residual of x0: pass both or neither")
    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()  # b - A @ 0
    else:
        x = panel("x0", x0)
        r = panel("r0", r0) if r0 is not None else b - kernel_matvec(
            kernel, x, alpha=shifts, runtime=runtime, phase=phase)

    # ``x``, ``r``, ``p`` and ``rho_prev`` hold the *active* columns
    # only — ``cols`` names them; a retired column's solution moves to
    # ``solution`` and is never touched again
    solution = np.empty_like(b)
    cols = np.arange(ncols)
    rel = np.empty(ncols)
    column_iterations = np.zeros(ncols, dtype=np.intp)
    p = None
    rho_prev = None
    residual_norms: list[float] = []

    for iteration in range(max_iterations + 1):
        rel[cols] = np.linalg.norm(r, axis=0) / scale[cols]
        residual_norms.append(float(rel.max()))
        # out of iterations, everything retires as it stands
        active = (rel[cols] > tol) & (iteration < max_iterations)
        if not active.all():
            solution[:, cols[~active]] = x[:, ~active]
            cols, x, r = cols[active], x[:, active], r[:, active]
            if p is not None:
                p, rho_prev = p[:, active], rho_prev[active]
            if cols.size == 0:
                break
        z = apply_preconditioner(r)
        rho = np.einsum("ij,ij->j", r, z)
        if p is None:
            p = z.copy()
        else:
            beta = np.where(rho_prev != 0.0, rho / rho_prev, 0.0)
            p = z + beta[None, :] * p
        q = kernel_matvec(kernel, p, alpha=shifts[cols], runtime=runtime,
                          phase=phase)
        pq = np.einsum("ij,ij->j", p, q)
        gamma = np.where(pq != 0.0, rho / pq, 0.0)
        x = x + gamma[None, :] * p
        r = r - gamma[None, :] * q
        rho_prev = rho
        column_iterations[cols] += 1

    column_converged = rel <= tol
    return CGResult(
        x=solution[:, 0] if squeeze else solution,
        iterations=int(column_iterations.max(initial=0)),
        converged=bool(column_converged.all()),
        residual_norms=residual_norms,
        column_iterations=column_iterations,
        column_converged=column_converged,
    )
