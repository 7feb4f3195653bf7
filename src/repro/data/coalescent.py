"""A simplified coalescent genotype simulator (msprime stand-in).

The paper uses msprime to generate open synthetic cohorts (300K
patients × 40K SNPs) when UK BioBank licensing forbids moving the real
data to Alps.  msprime simulates the exact ancestral recombination
graph; we implement a much simplified — but structurally faithful —
backwards-in-time coalescent per non-recombining segment:

1. For each segment (a run of SNPs inheriting the same tree), a random
   binary coalescent tree over the 2N haplotypes is generated with
   exponential waiting times (Kingman's coalescent).
2. Mutations are dropped on tree branches with probability proportional
   to branch length; every haplotype below the mutated branch carries
   the derived allele.
3. Haplotypes are paired into diploid 0/1/2 genotypes.

This reproduces the two properties the paper's synthetic experiments
need: a realistic (neutral) allele-frequency spectrum — most variants
rare — and strong LD within segments with free recombination between
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CoalescentSimulator", "simulate_coalescent_genotypes"]


@dataclass
class CoalescentSimulator:
    """Kingman-coalescent-with-mutations genotype simulator.

    Parameters
    ----------
    segment_snps:
        Number of SNPs sharing each coalescent tree (a proxy for the
        recombination rate: larger → longer LD blocks).
    seed:
        RNG seed.
    """

    segment_snps: int = 25
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.segment_snps <= 0:
            raise ValueError("segment_snps must be positive")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    def _coalescent_tree(self, n_leaves: int):
        """Simulate one Kingman coalescent tree.

        Returns ``(children, branch_lengths, leaf_sets)`` where
        ``leaf_sets[node]`` is the set of leaf indices below each node
        (represented as a boolean matrix for speed).
        """
        rng = self._rng
        n_nodes = 2 * n_leaves - 1
        # membership[node] = boolean mask over leaves below that node
        membership = np.zeros((n_nodes, n_leaves), dtype=bool)
        membership[np.arange(n_leaves), np.arange(n_leaves)] = True
        node_times = np.zeros(n_nodes)
        branch_lengths = np.zeros(n_nodes)

        active = list(range(n_leaves))
        next_node = n_leaves
        t = 0.0
        while len(active) > 1:
            k = len(active)
            rate = k * (k - 1) / 2.0
            t += rng.exponential(1.0 / rate)
            i, j = rng.choice(len(active), size=2, replace=False)
            a, b = active[i], active[j]
            membership[next_node] = membership[a] | membership[b]
            node_times[next_node] = t
            branch_lengths[a] = t - node_times[a]
            branch_lengths[b] = t - node_times[b]
            # remove a and b, add the new internal node
            active = [x for idx, x in enumerate(active) if idx not in (i, j)]
            active.append(next_node)
            next_node += 1
        # the root's branch length stays 0
        return membership, branch_lengths

    def _segment_haplotypes(self, n_haplotypes: int, n_snps: int) -> np.ndarray:
        """Haplotypes (0/1) for one segment sharing a single tree."""
        membership, branch_lengths = self._coalescent_tree(n_haplotypes)
        total = branch_lengths.sum()
        if total <= 0:
            return np.zeros((n_haplotypes, n_snps), dtype=np.int8)
        probs = branch_lengths / total
        haplos = np.zeros((n_haplotypes, n_snps), dtype=np.int8)
        # drop one mutation per SNP on a branch chosen ∝ its length;
        # conditioning on exactly one mutation per segregating site is the
        # standard infinite-sites simplification
        branches = self._rng.choice(len(branch_lengths), size=n_snps, p=probs)
        for s, br in enumerate(branches):
            haplos[membership[br], s] = 1
        return haplos

    def simulate(self, n_individuals: int, n_snps: int) -> np.ndarray:
        """Return an ``n_individuals × n_snps`` int8 genotype matrix (0/1/2)."""
        if n_individuals <= 0 or n_snps <= 0:
            raise ValueError("dimensions must be positive")
        n_haplotypes = 2 * n_individuals
        genotype_cols: list[np.ndarray] = []
        for start in range(0, n_snps, self.segment_snps):
            width = min(self.segment_snps, n_snps - start)
            haplos = self._segment_haplotypes(n_haplotypes, width)
            genotype_cols.append(
                (haplos[0::2, :] + haplos[1::2, :]).astype(np.int8)
            )
        return np.hstack(genotype_cols)


def simulate_coalescent_genotypes(n_individuals: int, n_snps: int,
                                  segment_snps: int = 25,
                                  seed: int | None = None) -> np.ndarray:
    """Convenience wrapper around :class:`CoalescentSimulator`."""
    sim = CoalescentSimulator(segment_snps=segment_snps, seed=seed)
    return sim.simulate(n_individuals, n_snps)
