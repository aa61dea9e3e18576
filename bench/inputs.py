"""Seeded inputs for the benchmark workloads.

Everything here is built from a ``random.Random(seed)``, so the same seed
gives the same inputs. The Paley design lives here rather than in the
package: the package does not construct it, and the benchmark hands it to the
program as a plain ``BlockDesign``.
"""

from __future__ import annotations

import random


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def paley_blocks(p: int, rng: random.Random) -> list[list[int]]:
    """Blocks of the quadratic-residue difference set design of a prime
    p = 3 (mod 4), a symmetric (p, (p-1)/2, (p-3)/4) design.

    Block t is {q + t : q a nonzero square mod p}; the points are then
    relabelled by a permutation drawn from ``rng``.
    """
    if not is_prime(p) or p % 4 != 3:
        raise ValueError(f"Paley designs need a prime p = 3 (mod 4), got {p}")
    residues = sorted({x * x % p for x in range(1, p)})
    label = list(range(p))
    rng.shuffle(label)
    return [sorted(label[(q + t) % p] for q in residues) for t in range(p)]


def paley_design(gp, p: int, rng: random.Random):
    """The relabelled Paley design as a ``gp.BlockDesign``, checked with
    ``gp.verify_design(., 2)`` before it is used."""
    design = gp.BlockDesign(p, paley_blocks(p, rng))
    report = gp.verify_design(design, 2)
    if not (report.is_t_design[2] and report.is_symmetric
            and report.lambda_observed == (p - 3) // 4
            and design.block_size == (p - 1) // 2):
        raise RuntimeError(f"Paley design for p={p} failed verification: {report}")
    return design


def balanced_partition(k: int, rng: random.Random) -> list[list[int]]:
    """Split the basis indices 0..k-1 into two halves of equal size."""
    if k % 2:
        raise ValueError(f"cannot split {k} bases into equal halves")
    order = list(range(k))
    rng.shuffle(order)
    return [sorted(order[:k // 2]), sorted(order[k // 2:])]


def partition_arg(partition: list[list[int]]) -> str:
    """The CLI's ``--partition`` syntax, e.g. ``0,1,2,3;4,5,6,7``."""
    return ";".join(",".join(str(i) for i in cls) for cls in partition)
