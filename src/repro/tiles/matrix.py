"""Tiled matrix container with a per-tile precision mosaic.

``TileMatrix`` is the central data structure of the reproduction: the
kernel matrix ``K``, the Cholesky factor, and the phenotype/weight
panels are all held as tile grids.  The container supports

* construction from / conversion to dense NumPy arrays,
* a per-tile precision map (the "mosaic" of the adaptive rule),
* symmetric storage (only the lower triangle held explicitly),
* memory-footprint accounting per precision,
* per-tile access used by the tiled algorithms in ``repro.linalg``, and
* optional out-of-core backing (:meth:`TileMatrix.attach_store`): a
  :class:`~repro.store.TileStore` spills tiles (farthest next use
  inside a drain, least recently used outside) to native-precision
  segment files under a residency budget, and tile
  access transparently faults spilled tiles back in — bit for bit, so
  a budgeted run computes exactly what a fully-resident run computes.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from typing import Callable, Iterator

import numpy as np

from repro.precision.formats import Precision
from repro.tiles.layout import TileLayout
from repro.tiles.tile import Tile, retile

PrecisionMap = Mapping[tuple[int, int], Precision] | Callable[[int, int], Precision] | Precision


def _resolve_precision(pmap: PrecisionMap, i: int, j: int) -> Precision:
    if isinstance(pmap, Precision):
        return pmap
    if callable(pmap):
        return Precision.from_string(pmap(i, j))
    return Precision.from_string(pmap[(i, j)])


class TileMatrix:
    """A matrix stored as a grid of :class:`~repro.tiles.tile.Tile`.

    Parameters
    ----------
    layout:
        Tile-grid geometry.
    precision:
        Default precision for tiles that are not covered by an explicit
        per-tile map.
    symmetric:
        When True only the lower-triangular tiles are stored; reads of
        upper tiles return the transpose of the mirrored lower tile.
    """

    def __init__(
        self,
        layout: TileLayout,
        precision: Precision | str = Precision.FP64,
        symmetric: bool = False,
    ) -> None:
        if symmetric and layout.rows != layout.cols:
            raise ValueError("symmetric TileMatrix requires a square matrix")
        self.layout = layout
        self.default_precision = Precision.from_string(precision)
        self.symmetric = symmetric
        self._tiles: dict[tuple[int, int], Tile] = {}
        # Guards lazy tile materialization and grid mutation: reads of
        # an unmaterialized tile *write* a zero tile into the grid, so
        # concurrent task bodies (the threaded runtime) need the grid
        # dict to mutate atomically.  Payload arrays themselves are
        # never shared mutably — set_tile replaces tile objects.
        # Store-backed matrices additionally take the store lock first
        # (store lock -> grid lock is the subsystem's one lock order).
        self._grid_lock = threading.Lock()
        # out-of-core backing (see attach_store); None = fully resident
        self._binding = None

    # ------------------------------------------------------------------
    # out-of-core backing
    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`~repro.store.TileStore`, or ``None``."""
        return self._binding.store if self._binding is not None else None

    def attach_store(self, store) -> "TileMatrix":
        """Back this matrix with an out-of-core tile store.

        Tiles become budget-managed: the store may spill tiles to disk
        in their native storage precision and :meth:`get_tile` faults
        them back in on access (bitwise — spilled payloads are exact).
        Attaching a matrix that is already over the store's budget
        spills immediately.
        """
        if self._binding is not None:
            if self._binding.store is store:
                return self
            raise RuntimeError(
                "matrix is already attached to a different TileStore")
        self._binding = store.bind(self)
        return self

    def detach_store(self) -> "TileMatrix":
        """Fault every spilled tile in and return to plain residency."""
        if self._binding is not None:
            self._binding.detach()
        return self

    def has_tile_data(self, i: int, j: int) -> bool:
        """True when tile ``(i, j)`` holds data (resident *or* spilled).

        Tiles that were never written read as implicit zeros and report
        False — the distinction serialization and the Frobenius norm
        rely on to skip them.
        """
        key, _ = self._stored_key(i, j)
        if key in self._tiles:
            return True
        return self._binding is not None and self._binding.has_data(key)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        tile_size: int,
        precision: PrecisionMap = Precision.FP64,
        symmetric: bool = False,
    ) -> "TileMatrix":
        """Build a tiled copy of a dense matrix.

        ``precision`` may be a single :class:`Precision`, a mapping
        ``{(i, j): Precision}``, or a callable ``(i, j) -> Precision``.
        """
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2D array")
        layout = TileLayout(rows=dense.shape[0], cols=dense.shape[1], tile_size=tile_size)
        default = precision if isinstance(precision, Precision) else Precision.FP64
        out = cls(layout, precision=default, symmetric=symmetric)
        tiles = layout.iter_lower_tiles() if symmetric else layout.iter_tiles()
        for i, j in tiles:
            rs, cs = layout.tile_slice(i, j)
            p = _resolve_precision(precision, i, j)
            out._tiles[(i, j)] = Tile(dense[rs, cs], precision=p, coords=(i, j))
        return out

    @classmethod
    def empty(
        cls,
        rows: int,
        cols: int,
        tile_size: int,
        precision: Precision | str = Precision.FP64,
        symmetric: bool = False,
    ) -> "TileMatrix":
        """Tile container with *no* tiles materialized.

        This is the streaming-Build entry point: the Build phase creates
        an empty container and :meth:`set_tile`\\ s finished tiles into it
        one by one, so no full dense staging array ever exists.  Tiles
        that are read before being written materialize as zeros.
        """
        layout = TileLayout(rows=rows, cols=cols, tile_size=tile_size)
        return cls(layout, precision=Precision.from_string(precision),
                   symmetric=symmetric)

    @classmethod
    def zeros(
        cls,
        rows: int,
        cols: int,
        tile_size: int,
        precision: Precision | str = Precision.FP64,
        symmetric: bool = False,
    ) -> "TileMatrix":
        """All-zero tiled matrix (tiles materialize lazily on access)."""
        return cls.empty(rows, cols, tile_size, precision, symmetric=symmetric)

    # ------------------------------------------------------------------
    # shape info
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.layout.rows, self.layout.cols)

    @property
    def tile_size(self) -> int:
        return self.layout.tile_size

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.layout.grid_shape

    # ------------------------------------------------------------------
    # tile access
    # ------------------------------------------------------------------
    def _stored_key(self, i: int, j: int) -> tuple[tuple[int, int], bool]:
        """Return the stored tile key and whether a transpose is needed."""
        self.layout._check(i, j)
        if self.symmetric and j > i:
            return (j, i), True
        return (i, j), False

    def get_tile(self, i: int, j: int) -> Tile:
        """Return tile ``(i, j)``.

        For symmetric matrices, upper-triangle reads return a transposed
        *copy* of the stored lower tile, adopted (no rounding).  On a
        store-backed matrix a spilled tile faults back in from its
        segment file (evicting other tiles as the budget requires)
        before being returned.
        """
        key, transpose = self._stored_key(i, j)
        tile = self._tiles.get(key)
        if tile is not None:
            if self._binding is not None:
                # lock-free recency bump: resident reads must count as
                # "use", or a hot panel tile consumed by many trailing
                # updates would age into the LRU victim
                self._binding.note_use(key)
        else:
            if self._binding is not None:
                # fault-in (or zero-materialization) under the store
                # lock, so it cannot race an eviction of the same key
                tile = self._binding.load(key)
            else:
                with self._grid_lock:
                    tile = self._tiles.get(key)
                    if tile is None:
                        shape = self.layout.tile_shape(*key)
                        tile = Tile(np.zeros(shape),
                                    precision=self.default_precision,
                                    coords=key)
                        self._tiles[key] = tile
        if transpose:
            return Tile._on_grid(tile.data.copy().T, tile.precision, (i, j))
        return tile

    def set_tile(self, i: int, j: int, data: "np.ndarray | Tile",
                 precision: Precision | str | None = None) -> None:
        """Overwrite tile ``(i, j)`` (writes to upper mirror the lower).

        An array is rounded to ``precision`` (default: the tile's
        current one).  A :class:`Tile` is stored as it is — payload
        shared, no rounding — when ``precision`` is its own or omitted,
        its payload being on that grid already; at any other precision
        it is rounded like an array.
        """
        key, transpose = self._stored_key(i, j)
        if precision is not None:
            precision = Precision.from_string(precision)
        if isinstance(data, Tile):
            if precision is None:
                precision = data.precision
            if transpose:
                data = Tile._on_grid(data.data.T, data.precision)
        else:
            data = np.asarray(data).T if transpose else np.asarray(data)
        expected = self.layout.tile_shape(*key)
        if data.shape != expected:
            raise ValueError(
                f"tile {key} expects shape {expected}, got {data.shape}"
            )
        if self._binding is not None:
            # the store resolves the default precision (a spilled tile's
            # precision lives in its slot), enforces the budget and
            # mutates the grid under the store lock
            self._binding.set(key, data, precision)
            return
        with self._grid_lock:
            if precision is None:
                precision = (self._tiles[key].precision if key in self._tiles
                             else self.default_precision)
            self._tiles[key] = retile(data, precision, key)

    def tile_precision(self, i: int, j: int) -> Precision:
        key, _ = self._stored_key(i, j)
        tile = self._tiles.get(key)
        if tile is not None:
            return tile.precision
        if self._binding is not None:
            p = self._binding.tile_precision(key)
            if p is not None:
                return p
        return self.default_precision

    def set_tile_precision(self, i: int, j: int, precision: Precision | str) -> None:
        """Re-quantize one tile to a new storage precision."""
        key, _ = self._stored_key(i, j)
        # set_tile, so the store accounting sees the new footprint: a
        # tile at ``precision`` is re-wrapped, any other is rounded from
        # its own payload (the bits of rounding its float64 values,
        # without the float64 copy)
        self.set_tile(*key, self.get_tile(*key), precision=precision)

    def apply_precision_map(self, pmap: PrecisionMap) -> None:
        """Re-quantize every stored tile according to a precision map."""
        for (i, j) in list(self._iter_stored()):
            self.set_tile_precision(i, j, _resolve_precision(pmap, i, j))

    def _iter_stored(self) -> Iterator[tuple[int, int]]:
        if self.symmetric:
            yield from self.layout.iter_lower_tiles()
        else:
            yield from self.layout.iter_tiles()

    # ------------------------------------------------------------------
    # dense conversion and numerics
    # ------------------------------------------------------------------
    def to_dense(self, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """Materialize the full dense matrix."""
        out = np.zeros(self.shape, dtype=np.float64)
        for i, j in self.layout.iter_tiles():
            rs, cs = self.layout.tile_slice(i, j)
            out[rs, cs] = self.get_tile(i, j).to_float64()
        return out.astype(dtype)

    def norm(self, ord: str | int = "fro") -> float:
        """Matrix norm; the Frobenius norm is computed tile-wise.

        Accumulating ``||A_ij||_F^2`` per stored tile (counting mirrored
        off-diagonal tiles twice for symmetric storage) avoids the dense
        materialization a norm would otherwise pay.
        """
        if ord == "fro":
            return self._frobenius(self._tile_norms())
        return float(np.linalg.norm(self.to_dense(), ord=ord))

    def _tile_norms(self) -> dict[tuple[int, int], float]:
        """``Tile.norm`` of each stored tile holding data, read once
        (get_tile faults a spilled tile in, bitwise, under the budget)."""
        return {key: self.get_tile(*key).norm() for key in self._iter_stored()
                if self.has_tile_data(*key)}

    def _frobenius(self, tile_norms: Mapping[tuple[int, int], float]) -> float:
        """Frobenius norm from the stored tiles' norms (a missing tile is
        zero): squares summed in storage order, which fixes the last
        bit, an off-diagonal tile of symmetric storage twice."""
        total = 0.0
        for i, j in self._iter_stored():
            sq = tile_norms.get((i, j), 0.0) ** 2
            total += sq if (not self.symmetric or i == j) else 2.0 * sq
        return float(np.sqrt(total))

    def nbytes(self) -> int:
        """Total *logical* storage footprint under the precision mosaic.

        Counts every tile holding data at its storage precision whether
        resident or spilled — the mosaic's size, independent of where
        the bytes currently live.  See :meth:`resident_nbytes` for the
        in-memory share of a store-backed matrix.
        """
        if self._binding is not None:
            return self._binding.logical_nbytes()
        return sum(t.nbytes for t in self._tiles.values())

    def resident_nbytes(self) -> int:
        """Bytes currently resident in memory (== :meth:`nbytes` when
        the matrix has no store attached)."""
        if self._binding is not None:
            return self._binding.resident_nbytes()
        return sum(t.nbytes for t in self._tiles.values())

    def footprint_by_precision(self) -> dict[Precision, int]:
        """Bytes stored per precision (used for footprint-reduction reporting)."""
        if self._binding is not None:
            return self._binding.footprint_by_precision()
        out: dict[Precision, int] = {}
        for t in self._tiles.values():
            out[t.precision] = out.get(t.precision, 0) + t.nbytes
        return out

    # ------------------------------------------------------------------
    # diagonal regularization (tile-native, no dense round-trip)
    # ------------------------------------------------------------------
    def add_diagonal(self, alpha: float) -> "TileMatrix":
        """Add ``alpha`` to the matrix diagonal in place.

        Only the diagonal *tiles* are touched — this is how the solver
        sessions regularize ``K + alpha*I`` without copying (or even
        reading) the off-diagonal part of the kernel.  Each diagonal
        tile keeps its storage precision.  Returns ``self`` for
        chaining.
        """
        if self.layout.rows != self.layout.cols:
            raise ValueError("add_diagonal requires a square matrix")
        for d in range(self.layout.tile_rows):
            tile = self.get_tile(d, d)
            data = tile.to_float64()
            k = min(data.shape)
            data[np.arange(k), np.arange(k)] += alpha
            self.set_tile(d, d, data, precision=tile.precision)
        return self

    def shift_diagonal(self, old_alpha: float, new_alpha: float) -> "TileMatrix":
        """Replace a diagonal shift ``old_alpha`` with ``new_alpha`` in place.

        The regularization-boost retry loop of the Associate phase uses
        this to move from ``K + old*I`` to ``K + new*I`` by updating
        only the diagonal tiles, instead of re-copying the matrix per
        attempt.  Returns ``self`` for chaining.
        """
        return self.add_diagonal(new_alpha - old_alpha)

    def copy(self) -> "TileMatrix":
        """Deep copy (store-backed sources produce store-backed copies).

        On a store-backed matrix, tiles stream through one at a time —
        faulted in from the source and immediately subject to eviction
        on the copy — so the copy never exceeds the budget.
        """
        dup = TileMatrix(self.layout, self.default_precision, self.symmetric)
        if self._binding is None:
            dup._tiles = {k: t.copy() for k, t in self._tiles.items()}
            return dup
        dup.attach_store(self.store)
        for key in self._iter_stored():
            if not self.has_tile_data(*key):
                continue
            dup.set_tile(*key, self.get_tile(*key).copy())
        return dup

    def shallow_copy(self) -> "TileMatrix":
        """Copy the tile *grid* while sharing the tile objects.

        :meth:`set_tile` (and therefore :meth:`add_diagonal` /
        :meth:`shift_diagonal`) replaces tile objects rather than
        mutating them, so writes through those paths never propagate to
        the source — copy-on-write at tile granularity.  This is what
        lets the Associate phase regularize ``K + alpha*I`` while
        allocating only new *diagonal* tiles.  In-place tile mutation
        (``Tile.update``/``Tile.convert_``, ``apply_precision_map``)
        would be shared; callers that need those must :meth:`copy`.

        A store-backed source hands the copy its own binding on the
        same store: resident tiles stay shared objects, spill slots are
        shared read-only, and later writes from either matrix diverge.
        """
        dup = TileMatrix(self.layout, self.default_precision, self.symmetric)
        if self._binding is None:
            dup._tiles = dict(self._tiles)
        else:
            dup._binding = self.store.clone_binding(self, dup)
        return dup

    def unpacked_lower(self) -> "TileMatrix":
        """Copy-on-write clone with non-symmetric storage, lower triangle
        only.

        This is the factorization workspace constructor: the tiled
        Cholesky consumes only the lower-triangle tiles, so a symmetric
        kernel hands them over (keeping each tile's storage precision)
        without ever materializing a dense array.  Upper tiles are left
        unmaterialized (they read as zeros).  As in :meth:`shallow_copy`
        no tile moves: resident tile objects (and a store-backed
        kernel's spill slots) are shared read-only, and a write replaces
        the workspace's own tile (into its own segment).  That is sound
        for what a workspace is for — every Cholesky kernel replaces its
        destination tile and never writes an input.
        """
        out = TileMatrix(self.layout, self.default_precision, symmetric=False)
        keys = set(self.layout.iter_lower_tiles())
        if self._binding is None:
            out._tiles = {k: t for k, t in self._tiles.items() if k in keys}
            return out
        out._binding = self.store.clone_binding(self, out, keys=keys)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sym = ", symmetric" if self.symmetric else ""
        return (
            f"TileMatrix({self.shape[0]}x{self.shape[1]}, tile={self.tile_size}, "
            f"grid={self.grid_shape}{sym})"
        )
