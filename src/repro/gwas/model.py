"""Fitted-model artifacts: the predict-side state of a KRR session.

A :class:`FittedModel` is the *immutable* product of the Build and
Associate phases — everything the Predict phase (and the factor-reuse
solves) needs, and nothing else:

* the frozen weight panel ``W`` and phenotype means,
* the effective kernel hyperparameters (γ as actually applied, the
  final — possibly boosted — α, the kernel type),
* the training cohort reference the cross kernel is computed against
  (SNP genotypes and optional confounders: the SNP-panel contract),
* the configuration (tile size, precision plan, SNP input precision),
* the **storage-precision tiled Cholesky factorization**, kept as the
  session holds it — an adaptive-FP8 plan's factor stays an FP8/FP32
  tile mosaic, which is what makes biobank-scale fitted state small
  enough to keep resident (and what the artifact's on-disk footprint
  reflects, via :mod:`repro.tiles.serialize`).

The artifact is data only: it predicts nothing itself and holds no
runtime.  ``KRRSession.export_model()`` produces it;
``KRRSession.from_model()`` reconstitutes a session that predicts and
solves from it, owned (and closed) by its caller — so associate-sweeps
and the serving path share one model shape.  ``save``/``load``
round-trip the artifact through a single ``.npz`` archive with each
tile in its native precision bytes, and a session restored from a
loaded model predicts **bitwise identically** to the in-memory session
that exported it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.gwas.config import KRRConfig
from repro.precision.formats import Precision
from repro.precision.gemm import gemm_flop_count
from repro.tiles.matrix import TileMatrix
from repro.tiles.serialize import (
    meta_from_array,
    meta_to_array,
    pack_tile_matrix,
    resolve_archive_path,
    unpack_tile_matrix,
    write_archive,
)

__all__ = ["FittedModel"]

#: Artifact format marker, bumped on incompatible archive changes.
ARTIFACT_FORMAT = "repro-fitted-krr"
ARTIFACT_VERSION = 1


def _frozen(array: np.ndarray | None) -> np.ndarray | None:
    """Read-only view-copy enforcing the artifact's immutability."""
    if array is None:
        return None
    out = np.array(array, copy=True)
    out.flags.writeable = False
    return out


class FittedModel:
    """Immutable predict-side artifact of a fitted :class:`KRRSession`.

    Construct via :meth:`KRRSession.export_model` or :meth:`load`; the
    constructor itself is considered internal.  All array attributes
    are read-only; the tiled factor must be treated as frozen too.

    Attributes
    ----------
    config:
        The :class:`~repro.gwas.config.KRRConfig` the model was fitted
        under (runtime knobs cleared — serving resolves concurrency
        from the serving host).
    gamma, alpha:
        Effective kernel bandwidth (after SNP-count normalization) and
        the final regularization (after any boost retries).
    weights:
        ``(n_train, n_phenotypes)`` float64 weight panel.
    y_means:
        Per-phenotype training means added back onto predictions.
    factor:
        Lower-triangular tiled Cholesky factor of ``K + alpha*I`` in
        its storage-precision mosaic (used by a restored session's
        ``solve_additional_phenotypes``).
    training_genotypes, training_confounders:
        The training cohort the cross kernel is computed against.
    """

    def __init__(
        self,
        config: KRRConfig,
        gamma: float,
        alpha: float,
        weights: np.ndarray,
        y_means: np.ndarray,
        factor: TileMatrix,
        training_genotypes: np.ndarray,
        training_confounders: np.ndarray | None = None,
    ) -> None:
        # serving never inherits the training host's runtime knobs
        # (concurrency *and* memory budget resolve on the serving host)
        if (config.workers is not None or config.execution is not None
                or config.store_budget_bytes is not None
                or config.store_dir is not None):
            config = config.with_options(workers=None, execution=None,
                                         store_budget_bytes=None,
                                         store_dir=None)
        self.config = config
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.weights = _frozen(np.asarray(weights, dtype=np.float64))
        self.y_means = _frozen(np.asarray(y_means, dtype=np.float64))
        self.factor = factor
        self.training_genotypes = _frozen(np.asarray(training_genotypes))
        self.training_confounders = _frozen(
            None if training_confounders is None
            else np.asarray(training_confounders, dtype=np.float64))
        if self.weights.shape[0] != self.training_genotypes.shape[0]:
            raise ValueError(
                "weights must have one row per training individual")

    # ------------------------------------------------------------------
    # shape / footprint introspection
    # ------------------------------------------------------------------
    @property
    def n_train(self) -> int:
        return self.training_genotypes.shape[0]

    @property
    def n_snps(self) -> int:
        return self.training_genotypes.shape[1]

    @property
    def n_phenotypes(self) -> int:
        return self.weights.shape[1]

    def resident_bytes(self) -> int:
        """In-memory footprint: precision-aware tile bytes + dense panels.

        This is the quantity the serving registry's LRU budget evicts
        by — an adaptive-FP8 model is cheaper to keep resident than the
        same cohort under a uniform FP32 plan, and a **store-backed**
        model (:meth:`load` with a ``store``) counts only the factor
        tiles actually faulted in, not the full on-disk mosaic.
        """
        total = self.factor.resident_nbytes()
        total += self.weights.nbytes + self.y_means.nbytes
        total += self.training_genotypes.nbytes
        if self.training_confounders is not None:
            total += self.training_confounders.nbytes
        return int(total)

    def footprint_by_precision(self) -> dict[Precision, int]:
        """Tile bytes per storage precision of the factor mosaic."""
        return self.factor.footprint_by_precision()

    def predict_flops(self, rows: int) -> float:
        """Operation count of predicting ``rows`` individuals.

        Linear in the cohort size: the cross-kernel Gram against the
        training panel plus the ``K_test @ W`` GEMM.  The service uses
        this for exact per-request attribution inside shared
        micro-batches.
        """
        fl = gemm_flop_count(rows, self.n_train, self.n_snps)
        if self.training_confounders is not None:
            fl += gemm_flop_count(rows, self.n_train,
                                  self.training_confounders.shape[1])
        return fl + gemm_flop_count(rows, self.n_train, self.n_phenotypes)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path, compress: bool = False) -> Path:
        """Write the artifact to ``path`` (``.npz`` appended if missing).

        Every factor tile is stored in its native precision bytes (see
        :mod:`repro.tiles.serialize`), so the file size reflects the
        precision mosaic, uncompressed by default; ``compress=True``
        trades save/load time for size.
        """
        meta = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "config": self.config.to_dict(),
            "gamma": self.gamma,
            "alpha": self.alpha,
            "has_confounders": self.training_confounders is not None,
        }
        arrays: dict[str, np.ndarray] = {
            "meta_json": meta_to_array(meta),
            "weights": np.asarray(self.weights),
            "y_means": np.asarray(self.y_means),
            "training_genotypes": np.asarray(self.training_genotypes),
        }
        if self.training_confounders is not None:
            arrays["training_confounders"] = np.asarray(
                self.training_confounders)
        arrays.update(pack_tile_matrix(self.factor, prefix="factor/",
                                       lower_only=True))
        return write_archive(path, arrays, compress=compress)

    @classmethod
    def load(cls, path: str | Path, store=None) -> "FittedModel":
        """Load an artifact written by :meth:`save` (bitwise faithful).

        With ``store`` (a :class:`~repro.store.TileStore`) the factor
        opens **store-backed and fully spilled**: its tiles stream from
        the archive straight into a spill segment and fault in lazily
        on first use, so the loaded model's :meth:`resident_bytes`
        reflects only what is actually in memory — which is how a
        serving registry keeps many more fitted cohorts addressable
        than fit its resident budget.  Faulted tiles decode the exact
        bytes the exporting session held, so predictions and factor
        reuse stay bitwise identical.
        """
        path = resolve_archive_path(path)
        with np.load(path, allow_pickle=False) as archive:
            meta = meta_from_array(archive["meta_json"])
            if meta.get("format") != ARTIFACT_FORMAT:
                raise ValueError(
                    f"{path} is not a fitted-model artifact "
                    f"(format={meta.get('format')!r})")
            if meta.get("version", 0) > ARTIFACT_VERSION:
                raise ValueError(
                    f"artifact written by a newer format "
                    f"(version {meta['version']} > {ARTIFACT_VERSION})")
            factor = unpack_tile_matrix(archive, prefix="factor/",
                                        store=store)
            return cls(
                config=KRRConfig.from_dict(meta["config"]),
                gamma=meta["gamma"],
                alpha=meta["alpha"],
                weights=archive["weights"],
                y_means=archive["y_means"],
                factor=factor,
                training_genotypes=archive["training_genotypes"],
                training_confounders=(archive["training_confounders"]
                                      if meta["has_confounders"] else None),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FittedModel(n_train={self.n_train}, n_snps={self.n_snps}, "
            f"phenotypes={self.n_phenotypes}, "
            f"plan={self.config.precision_plan.label()!r}, "
            f"resident={self.resident_bytes()} B)"
        )
