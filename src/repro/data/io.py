"""Dataset (de)serialization.

Datasets are stored as a single compressed ``.npz`` archive so that the
expensive cohort generation (coalescent simulation in particular) can
be cached between benchmark runs.  Fitted-model artifacts save and load
themselves (:meth:`~repro.gwas.model.FittedModel.save` /
:meth:`~repro.gwas.model.FittedModel.load`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.dataset import GWASDataset

__all__ = ["save_dataset", "load_dataset"]


def save_dataset(dataset: GWASDataset, path: str | Path) -> Path:
    """Write a :class:`GWASDataset` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "name": dataset.name,
        "phenotype_names": dataset.phenotype_names,
        "has_confounders": dataset.confounders is not None,
    }
    arrays = {
        "genotypes": dataset.genotypes,
        "phenotypes": dataset.phenotypes,
        "meta_json": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
    }
    if dataset.confounders is not None:
        arrays["confounders"] = dataset.confounders
    np.savez_compressed(path, **arrays)
    return path


def load_dataset(path: str | Path) -> GWASDataset:
    """Load a :class:`GWASDataset` written by :func:`save_dataset`."""
    path = Path(path)
    if not path.exists() and path.with_suffix(".npz").exists():
        path = path.with_suffix(".npz")
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(bytes(archive["meta_json"].tobytes()).decode("utf-8"))
        genotypes = archive["genotypes"]
        phenotypes = archive["phenotypes"]
        confounders = archive["confounders"] if meta.get("has_confounders") else None
    return GWASDataset(
        genotypes=genotypes,
        phenotypes=phenotypes,
        confounders=confounders,
        phenotype_names=list(meta.get("phenotype_names", [])),
        name=meta.get("name", "loaded"),
    )

