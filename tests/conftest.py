"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# Allow running the tests without installing the package (e.g. straight
# from a source checkout on an offline machine).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def runtime():
    """A default ``Runtime()`` — resolved from ``REPRO_*`` like any other,
    so the CI variants drive the tests that mean *the DAG* through
    their lanes — closed on teardown."""
    from repro.runtime.runtime import Runtime

    rt = Runtime()
    yield rt
    rt.close()


@pytest.fixture(scope="session")
def small_genotypes() -> np.ndarray:
    """A small LD-structured genotype matrix shared across tests."""
    from repro.data.genotypes import simulate_genotypes

    return simulate_genotypes(120, 40, seed=7, maf_low=0.2)


@pytest.fixture(scope="session")
def small_cohort():
    """A small UK-BioBank-like cohort (two diseases) shared across tests."""
    from repro.data.ukb import make_ukb_like_cohort

    return make_ukb_like_cohort(
        n_individuals=260, n_snps=48, seed=11,
        diseases=(("Hypertension", 0.27), ("Asthma", 0.12)),
    )


@pytest.fixture(scope="session")
def spd_matrix(rng) -> np.ndarray:
    """A well-conditioned SPD matrix for linear-algebra tests."""
    a = rng.standard_normal((96, 96))
    return a @ a.T / 96.0 + 2.0 * np.eye(96)


@pytest.fixture(scope="session")
def accuracy_workflow():
    """A GWASWorkflow on a cohort where KRR clearly beats RR (session-cached)."""
    from repro.data.ukb import make_ukb_like_cohort
    from repro.gwas.workflow import GWASWorkflow

    cohort = make_ukb_like_cohort(n_individuals=520, n_snps=64, seed=42)
    return GWASWorkflow(cohort, train_fraction=0.8, seed=0)
