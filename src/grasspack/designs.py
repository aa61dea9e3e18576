"""Block designs: representation, t-design verification, cohesion, complements,
resolvability and affineness, Hadamard matrices, and the 3-designs read off
normalized Hadamard matrices."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from .errors import ConsistencyError, ParameterError, StructuralError, UnsupportedError
from .fields import is_prime
from .numerics import as_int, as_type, lock


def check_block(block, m: int) -> tuple[int, ...]:
    """``block`` as a sorted tuple of integer point labels; raises
    ParameterError unless it is non-empty, repeats no point and lies in
    0..m-1."""
    b = tuple(sorted(as_int(i, "point label") for i in block))
    if not b:
        raise ParameterError("empty block")
    if len(set(b)) != len(b):
        raise ParameterError(f"block {b} repeats a point")
    if b[0] < 0 or b[-1] >= m:
        raise ParameterError(f"block {b} has points outside 0..{m - 1}")
    return b


def _incidence(m: int, blocks) -> np.ndarray:
    """The m x b 0/1 float matrix whose column c marks the points of ``blocks[c]``."""
    sizes = [len(blk) for blk in blocks]
    points = np.fromiter(itertools.chain.from_iterable(blocks), dtype=np.intp, count=sum(sizes))
    inc = np.zeros((m, len(sizes)))
    inc[points, np.repeat(np.arange(len(sizes)), sizes)] = 1.0
    return inc


@dataclass(frozen=True)
class BlockDesign:
    """An ordered multiset of equal-size blocks over the points 0..m-1.

    Duplicate blocks are permitted and counted with multiplicity; order is
    significant (complement-closed families are stored as concatenations with
    positional identity). How blocks meet is read off one matrix:
    ``incidence``, the m x b 0/1 float matrix N, and ``intersections``, the
    int64 N^T N with entries |B_i & B_j|, are read-only and made on first use.
    """

    m: int
    blocks: tuple[tuple[int, ...], ...]
    declared_t: int | None = None
    declared_lambda: int | None = None

    def __init__(self, m: int, blocks, declared_t: int | None = None,
                 declared_lambda: int | None = None):
        m = as_int(m, "m")
        norm = [check_block(blk, m) for blk in blocks]
        if not norm:
            raise ParameterError("a design needs at least one block")
        sizes = {len(b) for b in norm}
        if len(sizes) != 1:
            raise ParameterError(f"blocks must share one cardinality, got sizes {sorted(sizes)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "blocks", tuple(norm))
        object.__setattr__(self, "declared_t",
                           None if declared_t is None else as_int(declared_t, "t"))
        object.__setattr__(self, "declared_lambda",
                           None if declared_lambda is None else as_int(declared_lambda, "lambda"))

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    @cached_property
    def incidence(self) -> np.ndarray:
        return lock(_incidence(self.m, self.blocks))

    @cached_property
    def intersections(self) -> np.ndarray:
        return lock((self.incidence.T @ self.incidence).astype(np.int64))


@dataclass(frozen=True)
class ResolvabilityReport:
    is_resolvable: bool
    parallel_classes: tuple[tuple[int, ...], ...] | None
    is_affine: bool
    cross_intersection: int | None


@dataclass(frozen=True)
class DesignReport:
    is_t_design: dict[int, bool]
    lambda_observed: int | None
    r_observed: int | None
    b: int
    is_symmetric: bool
    cohesion: int | None
    is_resolvable: bool
    is_affine: bool
    parallel_classes: tuple[tuple[int, ...], ...] | None = field(repr=False, default=None)


def _subset_counts(design: BlockDesign, t: int) -> tuple[bool, int | None]:
    """(is constant, common count) of t-subset containment over all C(m,t)
    subsets. The blocks are sorted and of one size l, so one list of C(l, t)
    places picks every t-subset; each is one code in base m where m^t fits."""
    m, l = design.m, design.block_size
    if t > l:
        return True, 0  # no block holds any t-subset: constant zero
    subsets = np.array(design.blocks)[:, list(itertools.combinations(range(l), t))].reshape(-1, t)
    if m ** t < 2 ** 63:
        _, counts = np.unique(np.ravel_multi_index(subsets.T, (m,) * t), return_counts=True)
    else:
        _, counts = np.unique(subsets, axis=0, return_counts=True)
    if len(counts) < comb(m, t):
        return False, None  # some t-subsets covered, others not
    if np.all(counts == counts[0]):
        return True, int(counts[0])
    return False, None


def verify_design(design: BlockDesign, t: int) -> DesignReport:
    """Exhaustively check the t-design property for every level 1..t.

    Containment of every t-subset is counted with block multiplicity; the
    per-point replication, symmetry (b == m for 2-designs), cohesion, and
    resolvability/affineness are reported alongside.
    """
    if t < 1:
        raise ParameterError(f"t must be >= 1, got {t}")
    if t > design.m:
        raise ParameterError(f"t={t} exceeds the point count {design.m}")
    counts = [_subset_counts(design, tt) for tt in range(1, t + 1)]  # (ok, count) per level
    is_t = {tt: ok for tt, (ok, _) in enumerate(counts, 1)}
    res = resolvability(design) if is_t.get(2, False) else ResolvabilityReport(False, None, False, None)
    return DesignReport(
        is_t_design=is_t,
        lambda_observed=counts[-1][1],
        r_observed=counts[0][1],
        b=design.b,
        is_symmetric=bool(is_t.get(2, False) and design.b == design.m),
        cohesion=cohesion(design) if design.b >= 2 else None,
        is_resolvable=res.is_resolvable,
        is_affine=res.is_affine,
        parallel_classes=res.parallel_classes,
    )


def cohesion(design: BlockDesign) -> int:
    """Largest intersection of two block positions: max of the strict upper triangle of N^T N."""
    if design.b < 2:
        raise ParameterError("cohesion needs at least 2 blocks")
    return int(np.triu(design.intersections, 1).max())


def is_cohesive(design: BlockDesign, bound: Fraction | int) -> bool:
    """Exact rational check cohesion(design) <= bound (no floats involved)."""
    return Fraction(cohesion(design)) <= Fraction(bound)


def complement_design(design: BlockDesign) -> BlockDesign:
    """Blocks replaced by their complements in 0..m-1, order preserved.

    A symmetric (m, l, lam) input yields a symmetric (m, m-l, m-2l+lam) output.
    """
    if design.block_size == design.m:
        raise ParameterError("blocks already cover every point; complement is empty")
    return BlockDesign(design.m, [np.flatnonzero(c == 0).tolist() for c in design.incidence.T])


def resolvability(design: BlockDesign) -> ResolvabilityReport:
    """Search for a partition of the blocks into parallel classes (disjoint
    blocks covering all points); when found, affineness requires a constant
    cross-class intersection, and Bose's bound b >= m + r - 1 must then hold
    with equality. Disjointness and cross-class intersections are read off
    ``design.intersections``."""
    m, l, b = design.m, design.block_size, design.b
    if l == m:
        # complete blocks: trivially resolvable, outside Bose/affine scope
        classes = tuple((i,) for i in range(b))
        return ResolvabilityReport(True, classes, False, None)
    if m % l != 0:
        return ResolvabilityReport(False, None, False, None)
    per_class = m // l
    if b % per_class != 0:
        return ResolvabilityReport(False, None, False, None)
    meets = (design.intersections > 0).tolist()

    def complete_class(partial: list[int], unused: set[int]):
        if len(partial) == per_class:
            yield tuple(partial)
            return
        after = partial[-1]
        for i in sorted(unused):
            if i <= after or any(meets[j][i] for j in partial):
                continue
            partial.append(i)
            yield from complete_class(partial, unused - {i})
            partial.pop()

    def partition(unused: set[int]) -> tuple[tuple[int, ...], ...] | None:
        if not unused:
            return ()
        pivot = min(unused)
        for cls in complete_class([pivot], unused - {pivot}):
            rest = partition(unused - set(cls))
            if rest is not None:
                return (cls,) + rest
        return None

    classes = partition(set(range(b)))
    if classes is None:
        return ResolvabilityReport(False, None, False, None)
    label = np.argsort(np.concatenate(classes)) // per_class  # the class of each block
    cross = set(design.intersections[label[:, None] != label].tolist())
    # affine needs an actual constant cross-class intersection; a single
    # parallel class has no cross pairs and does not qualify
    is_affine = len(cross) == 1
    cross_val = cross.pop() if is_affine else None
    if is_affine:
        ok2, _ = _subset_counts(design, 2)
        r_ok, r = _subset_counts(design, 1)
        if ok2 and r_ok and b != design.m + r - 1:
            raise ConsistencyError(
                f"affine design violates the b = m + r - 1 equality: b={b}, m={design.m}, r={r}")
    return ResolvabilityReport(True, classes, is_affine, cross_val)


@dataclass(frozen=True)
class HadamardMatrix:
    """A +-1 matrix H with H @ H.T = order * I, checked in exact integers."""

    order: int
    entries: np.ndarray

    def __init__(self, entries):
        h = np.asarray(entries, dtype=np.int64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ParameterError(f"expected a square matrix, got shape {h.shape}")
        if not np.all(np.abs(h) == 1):
            raise ParameterError("entries must all be +1 or -1")
        n = h.shape[0]
        if not np.array_equal(h @ h.T, n * np.eye(n, dtype=np.int64)):
            raise ParameterError("H @ H.T != order * I; not a Hadamard matrix")
        h = h.copy()
        h.setflags(write=False)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "entries", h)


_H1 = np.array([[1]], dtype=np.int64)
_H2 = np.array([[1, 1], [1, -1]], dtype=np.int64)


def _paley_type1(q: int) -> np.ndarray:
    # q prime, q = 3 mod 4: H = I + S with S skew built from the quadratic character
    residues = {(x * x) % q for x in range(1, q)}

    def chi(x: int) -> int:
        x %= q
        if x == 0:
            return 0
        return 1 if x in residues else -1

    n = q + 1
    s = np.zeros((n, n), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                s[i, j] = chi(j - i)
    return s + np.eye(n, dtype=np.int64)


def gen_hadamard(order: int) -> HadamardMatrix:
    """Hadamard matrix of the requested order via Sylvester doubling, the
    quadratic-residue (skew) construction for prime q = order-1 with
    q = 3 mod 4, and Kronecker products of reachable factors.

    Unreachable orders raise UnsupportedError; such matrices can still be
    imported from JSON.
    """
    if order < 1:
        raise ParameterError(f"order must be positive, got {order}")

    def build(n: int, seen: frozenset) -> np.ndarray | None:
        if n == 1:
            return _H1
        if n == 2:
            return _H2
        if n % 4 != 0 or n in seen:
            return None
        if n % 2 == 0:  # Sylvester doubling first: powers of 2 stay Sylvester
            hb = build(n // 2, seen | {n})
            if hb is not None:
                return np.kron(_H2, hb)
        if is_prime(n - 1) and (n - 1) % 4 == 3:
            return _paley_type1(n - 1)
        for a in range(3, int(n ** 0.5) + 1):
            if n % a:
                continue
            ha = build(a, seen | {n})
            if ha is None:
                continue
            hb = build(n // a, seen | {n})
            if hb is not None:
                return np.kron(ha, hb)
        return None

    h = build(order, frozenset())
    if h is None:
        raise UnsupportedError(
            f"no built-in Hadamard construction reaches order {order}; "
            "import a matrix via JSON instead")
    return HadamardMatrix(h)


def hadamard_to_3design(h: HadamardMatrix) -> BlockDesign:
    """Blocks read off a Hadamard matrix of order 4t after normalizing its
    last row to +1 by column negation.

    Each of the first 4t-1 rows contributes its +1 positions and its -1
    positions, giving 2(4t-1) blocks of size 2t; any two non-complementary
    blocks meet in exactly t points. The positive rows come first, followed
    by their complements in the same row order.
    """
    n = h.order
    if n < 4 or n % 4 != 0:
        raise ParameterError(f"need order 4t >= 4, got {n}")
    mat = h.entries * h.entries[-1]  # negate columns whose last entry is -1
    blocks = [np.flatnonzero(row == sign).tolist() for sign in (1, -1) for row in mat[:-1]]
    return BlockDesign(n, blocks, declared_t=3, declared_lambda=n // 4 - 1)


def design_rebase(design: BlockDesign) -> tuple[int, BlockDesign]:
    """Re-declare a symmetric (m, l, lam) design over m' = m + (m-l)/(l-1)
    points, under which every pairwise block intersection equals l^2/m'.

    Requires (m-l)/(l-1) to be an integer; the identity lam * m' = l^2 is
    verified exactly before returning.
    """
    m, l = design.m, design.block_size
    report = verify_design(design, 2)
    if not report.is_t_design[2] or not report.is_symmetric:
        raise ParameterError("input must be a symmetric 2-design")
    if (m - l) % (l - 1) != 0:
        raise ParameterError(f"(m-l)/(l-1) = {m - l}/{l - 1} is not an integer")
    m_prime = m + (m - l) // (l - 1)
    lam = report.lambda_observed
    if lam is None or lam * m_prime != l * l:
        raise ConsistencyError(
            f"lambda * m' = {lam} * {m_prime} != l^2 = {l * l}")
    return m_prime, BlockDesign(m_prime, design.blocks)


def complementary_halves(design: BlockDesign) -> BlockDesign:
    """From a complement-closed block family, keep one block per complementary
    pair: the one containing point 0. Two blocks of size l are complements
    when they are disjoint and 2l = m; each block in turn is paired with the
    first later unpaired complement, or StructuralError names it."""
    disjoint = ((design.intersections == 0) & (2 * design.block_size == design.m)).tolist()
    remaining = list(range(design.b))
    chosen = []
    while remaining:
        i = remaining.pop(0)
        j = next((k for k in remaining if disjoint[i][k]), None)
        if j is None:
            raise StructuralError(f"block {design.blocks[i]} has no complement in the family")
        remaining.remove(j)
        chosen.append(i if design.incidence[0, i] else j)
    return BlockDesign(design.m, [design.blocks[i] for i in sorted(chosen)])


def design_to_json(design: BlockDesign) -> dict:
    obj: dict = {"m": design.m, "blocks": [list(b) for b in design.blocks]}
    if design.declared_t is not None:
        obj["t"] = design.declared_t
    if design.declared_lambda is not None:
        obj["lambda"] = design.declared_lambda
    return obj


def design_from_json(obj: dict) -> BlockDesign:
    as_type(obj, dict, "design")
    blocks = [as_type(b, list, "block") for b in as_type(obj["blocks"], list, "blocks")]
    return BlockDesign(obj["m"], blocks, declared_t=obj.get("t"),
                       declared_lambda=obj.get("lambda"))


def hadamard_to_json(h: HadamardMatrix) -> dict:
    return {"order": h.order, "rows": [[int(x) for x in row] for row in h.entries]}


def hadamard_from_json(obj: dict) -> HadamardMatrix:
    as_type(obj, dict, "Hadamard matrix")
    h = HadamardMatrix(obj["rows"])
    if h.order != as_int(obj["order"], "order"):
        raise ParameterError(f"declared order {obj['order']} != actual {h.order}")
    return h
