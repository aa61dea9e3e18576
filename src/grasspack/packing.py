"""Packings of coordinate projections built from MUB families and block
designs, their coherence on the embedded sphere, and certification of
optimality, tightness, and orthoplex geometry.

A packing built from a family of MUBs and cohesive block designs keeps every
pairwise embedded inner product at or below zero; once it also has more than
d+1 elements, the orthoplex-regime bound certifies it as optimally spread.
With exactly 2d elements occupying antipodal pairs it is a maximal
orthoplectic fusion frame, and in the constant-rank case the underlying block
family is equivalent to a normalized Hadamard matrix.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction

import numpy as np

from .designs import BlockDesign, HadamardMatrix, complementary_halves, is_cohesive
from .embedding import EmbeddingSpace, build_space, embed, embedding_dim
from .errors import (ConsistencyError, DegenerateRankError, DimensionMismatchError,
                     HypothesisError, ParameterError, StructuralError)
from .mubs import Basis, MubFamily, mub_capacity
from .numerics import (DEFAULT_TOL, Field, Tolerance, as_int, check_field,
                       is_projection, lock, matrix_from_json, matrix_rank,
                       matrix_to_json)

Provenance = "tuple[int, tuple[int, ...]] | str"  # (basis index, block) or "imported"
IMPORTED = "imported"


@dataclass(frozen=True)
class Projection:
    """A Hermitian idempotent with cached rank and source bookkeeping.

    ``provenance`` is ``(basis_index, block)`` for coordinate projections and
    the string ``"imported"`` otherwise.

    ``basis`` and ``block`` are set only by ``coordinate_projection`` (they are
    not ``__init__`` parameters), so when ``basis`` is not None the stored
    matrix is exactly ``U[:, block] @ U[:, block]^*`` with ``U = basis.matrix``.
    The trace Gram relies on this to read ``tr(P_i P_j)`` off the basis
    overlaps. Every other projection, imported ones and spatial complements
    included, has ``basis`` and ``block`` None.
    """

    matrix: np.ndarray
    rank: int
    provenance: Provenance = IMPORTED
    basis: Basis | None = dataclass_field(default=None, repr=False, compare=False)
    block: tuple[int, ...] | None = dataclass_field(default=None, repr=False,
                                                    compare=False)

    def __init__(self, matrix, rank: int | None = None,
                 provenance: Provenance = IMPORTED, tol: Tolerance = DEFAULT_TOL):
        mat = np.asarray(matrix, dtype=np.complex128)
        check = is_projection(mat, tol)
        if not check.ok:
            raise ParameterError(f"not a projection: {check.failure}")
        if rank is not None and rank != check.rank:
            raise ParameterError(f"declared rank {rank} != inferred rank {check.rank}")
        object.__setattr__(self, "matrix", lock(mat))
        object.__setattr__(self, "rank", check.rank)
        object.__setattr__(self, "provenance", provenance)

    @property
    def basis_index(self) -> int | None:
        return self.provenance[0] if isinstance(self.provenance, tuple) else None


@dataclass(frozen=True)
class HypothesisRecord:
    """Outcome of the construction-hypothesis checks recorded on a packing.

    Failures do not block construction; certification refuses to run on a
    packing whose record is not ok.
    """

    ok: bool
    failures: tuple[str, ...] = ()
    candidate_maximal: bool = False


@dataclass(frozen=True)
class Packing:
    m: int
    field: Field
    elements: tuple[Projection, ...]
    hypotheses: HypothesisRecord = HypothesisRecord(ok=True)
    mode: str = "manual"

    def __post_init__(self) -> None:
        check_field(self.field)
        for p in self.elements:
            if p.matrix.shape != (self.m, self.m):
                raise DimensionMismatchError(
                    f"element of shape {p.matrix.shape} in an m={self.m} packing")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def ranks(self) -> np.ndarray:
        return np.array([p.rank for p in self.elements], dtype=np.int64)

    @property
    def rank_profile(self) -> tuple[tuple[int, int], ...]:
        """Pairs (count, rank) sorted by rank."""
        counts = Counter(p.rank for p in self.elements)
        return tuple((counts[l], l) for l in sorted(counts))

    @property
    def mixture(self) -> int:
        return len({p.rank for p in self.elements})


def coordinate_projection(basis: Basis, block, basis_index: int | None = None) -> Projection:
    """Projection onto the span of the basis vectors indexed by ``block``;
    the result remembers ``basis`` and the sorted block."""
    idx = tuple(sorted(as_int(j, "point label") for j in block))
    if not idx:
        raise ParameterError("empty block")
    if len(set(idx)) != len(idx) or idx[0] < 0 or idx[-1] >= basis.m:
        raise ParameterError(f"block {idx} is not a subset of 0..{basis.m - 1}")
    cols = basis.matrix[:, list(idx)]
    mat = cols @ cols.conj().T
    prov = (basis_index, idx) if basis_index is not None else IMPORTED
    proj = Projection(mat, rank=len(idx), provenance=prov)
    object.__setattr__(proj, "basis", basis)
    object.__setattr__(proj, "block", idx)
    return proj


def build_mixed_packing(mubs: MubFamily, designs: list[BlockDesign],
                        partition: list) -> Packing:
    """Coordinate projections of every design's blocks in every basis of its
    partition class, ordered by (design, basis, block position).

    Hypotheses recorded (never blocking): each block family must be
    l^2/m-cohesive (exact rational check) and the total count must exceed
    d+1. A packing with failures is built but tagged uncertifiable.
    """
    s = len(designs)
    if len(partition) != s:
        raise ParameterError(f"{s} designs but {len(partition)} partition classes")
    if s > mubs.k:
        raise ParameterError(f"{s} designs exceed the {mubs.k} available bases")
    classes = [tuple(sorted(as_int(k, "basis index") for k in cls)) for cls in partition]
    used = [k for cls in classes for k in cls]
    if len(set(used)) != len(used):
        raise ParameterError("partition classes overlap")
    if used and (min(used) < 0 or max(used) >= mubs.k):
        raise ParameterError(f"basis indices must lie in 0..{mubs.k - 1}")
    m = mubs.m
    for dsgn in designs:
        if dsgn.m != m:
            raise ParameterError(f"design over {dsgn.m} points does not match m={m}")

    elements: list[Projection] = []
    for dsgn, cls in zip(designs, classes):
        for k in cls:
            for blk in dsgn.blocks:
                elements.append(coordinate_projection(mubs.bases[k], blk, k))

    failures: list[str] = []
    for i, dsgn in enumerate(designs):
        l = dsgn.block_size
        if dsgn.b >= 2 and not is_cohesive(dsgn, Fraction(l * l, m)):
            failures.append(
                f"design {i} is not {l}^2/{m}-cohesive")
    d = embedding_dim(m, mubs.field)
    total = sum(dsgn.b * len(cls) for dsgn, cls in zip(designs, classes))
    if total <= d + 1:
        failures.append(f"only {total} elements; need more than d+1 = {d + 1}")
    record = HypothesisRecord(ok=not failures, failures=tuple(failures))
    return Packing(m, mubs.field, tuple(elements), record, mode="mixed")


def build_orthoplex_packing(mubs: MubFamily, halves: BlockDesign) -> Packing:
    """Coordinate projections of S and its blockwise complement S^c in every
    basis, for a block family S whose distinct blocks all meet in exactly
    l^2/m points.

    The intersection condition is checked exactly (m |J & J'| = l^2) and its
    violation raises HypothesisError naming the offending pair. When
    |S| = m-1 and the family of bases is maximal, the result is tagged as a
    candidate maximal orthoplectic fusion frame with 2(m-1) k = 2d elements.
    """
    m = mubs.m
    if halves.m != m:
        raise ParameterError(f"design over {halves.m} points does not match m={m}")
    l = halves.block_size
    if l >= m:
        raise ParameterError("blocks cover every point; complements are empty")
    for (i, a), (j, b) in itertools.combinations(enumerate(halves.blocks), 2):
        inter = len(set(a) & set(b))
        if m * inter != l * l:
            raise HypothesisError(
                f"blocks {i} and {j} meet in {inter} points; need l^2/m = {l * l}/{m}")
    full_pts = set(range(m))
    all_blocks = list(halves.blocks) + [
        tuple(sorted(full_pts - set(b))) for b in halves.blocks]
    elements = [
        coordinate_projection(mubs.bases[k], blk, k)
        for k in range(mubs.k)
        for blk in all_blocks
    ]
    d = embedding_dim(m, mubs.field)
    n = 2 * halves.b * mubs.k
    failures: list[str] = []
    if n <= d + 1:
        failures.append(f"only {n} elements; need more than d+1 = {d + 1}")
    candidate = halves.b == m - 1 and mubs.k == mub_capacity(m, mubs.field)
    record = HypothesisRecord(ok=not failures, failures=tuple(failures),
                              candidate_maximal=candidate)
    return Packing(m, mubs.field, tuple(elements), record, mode="orthoplex")


@dataclass(frozen=True)
class PairClassSummary:
    count: int
    max_inner: float


@dataclass(frozen=True)
class CoherenceReport:
    """Largest pairwise embedded inner product and where it is attained."""

    mu_embedded: float
    argmax_pair: tuple[int, int]
    achievers: tuple[int, ...]
    pair_classes: dict[str, PairClassSummary]
    n: int
    mu_raw: float | None = None  # max tr(P_i P_j), constant-rank packings only


def _trace_gram(packing: Packing) -> np.ndarray:
    """G[i, j] = tr(P_i P_j).

    When every element is a coordinate projection (``basis`` set, as for the
    mixed and orthoplex builders), G is factored through the basis overlaps
    by ``_basis_trace_gram``. Otherwise (imported packings, spatial
    complements, hand-made projections) it is the real Gram matrix of the
    vectorized Hermitian matrices, which never looks at a basis.
    """
    if all(p.basis is not None for p in packing.elements):
        return _basis_trace_gram(packing.m, packing.elements)
    mats = np.stack([p.matrix for p in packing.elements])
    v = mats.reshape(packing.n, -1)
    return v.real @ v.real.T + v.imag @ v.imag.T


def _basis_trace_gram(m: int, elements: tuple[Projection, ...]) -> np.ndarray:
    """G = C^T W C for coordinate projections P_i = U_a[:, J] U_a[:, J]^*.

    With the k distinct bases (grouped by object identity) stacked as
    U = [U_1 ... U_k], W = |U^* U|^2 entrywise and C is the 0/1 incidence of
    element i's block in the rows of its basis, so
    G[i, j] = 1_J^T |U_a^* U_b|^2 1_K. This is the identity
    tr(P_i P_j) = ||U_a[:, J]^* U_b[:, K]||_F^2 and holds for any stored U; it
    does not assume the bases are orthonormal or unbiased.

    Elements are taken in basis-group order, so C is block diagonal. Only the
    blocks W_ab with a <= b are formed, with W_aa halved, so that
    G = H + H^T for H = C^T W_upper C; each loop runs once per basis and no
    n x m^2 array is built.
    """
    n = len(elements)
    first_seen = {id(p.basis): p.basis for p in elements}
    slot = {key: a for a, key in enumerate(first_seen)}
    group = np.array([slot[id(p.basis)] for p in elements])
    bases = list(first_seen.values())
    k = len(bases)
    order = np.argsort(group, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=k))))
    sizes = np.array([elements[i].rank for i in order])
    points = np.fromiter(itertools.chain.from_iterable(elements[i].block for i in order),
                         dtype=np.intp, count=int(sizes.sum()))
    inc = np.zeros((m, n))  # inc[:, s_a:e_a] is group a's diagonal block of C
    inc[points, np.repeat(np.arange(n), sizes)] = 1.0

    u = np.concatenate([b.matrix for b in bases], axis=1)
    uh = u.conj().T
    x = np.zeros((n, k * m))  # C^T W_upper, with W_aa halved
    for a in range(k):
        s, e = starts[a], starts[a + 1]
        z = uh[a * m:(a + 1) * m] @ u[:, a * m:]
        w = z.real * z.real + z.imag * z.imag
        w[:, :m] *= 0.5
        x[s:e, a * m:] = inc[:, s:e].T @ w
    gram = np.zeros((n, n))
    for b in range(k):
        s, e = starts[b], starts[b + 1]
        h = x[:e, b * m:(b + 1) * m] @ inc[:, s:e]  # H[:e, s:e]; H is zero below
        gram[:e, s:e] += h
        gram[s:e, :e] += h.T
    if np.any(order != np.arange(n)):
        out = np.empty_like(gram)
        out[np.ix_(order, order)] = gram
        gram = out
    return gram


def _embedded_gram(packing: Packing) -> tuple[np.ndarray, np.ndarray]:
    """(e, g): the embedded Gram c_i c_j (g_ij - r_i r_j / m), built in place,
    and the trace Gram g."""
    m = packing.m
    ranks = packing.ranks
    if np.any(ranks == 0) or np.any(ranks == m):
        raise DegenerateRankError("rank-0 or full-rank element cannot be embedded")
    g = _trace_gram(packing)
    c = np.sqrt(m / (ranks * (m - ranks)))
    e = np.outer(ranks.astype(np.float64), ranks)
    e /= m
    np.subtract(g, e, out=e)
    e *= np.outer(c, c)
    return e, g


def _report_from_grams(packing: Packing, e: np.ndarray, g: np.ndarray,
                       tol: Tolerance) -> CoherenceReport:
    """The report of the Grams from ``_embedded_gram``, whose diagonals it
    sets to -inf in place instead of masking copies."""
    n = packing.n
    np.fill_diagonal(e, -np.inf)
    np.fill_diagonal(g, -np.inf)
    i, j = divmod(int(np.argmax(e)), n)
    mu = float(e[i, j])
    argmax_pair = (min(i, j), max(i, j))
    attain = (e >= mu - tol.eps_abs).any(axis=1)
    achievers = tuple(int(x) for x in np.flatnonzero(attain))

    basis_ids = np.array(
        [-1 if p.basis_index is None else p.basis_index for p in packing.elements])
    ranks = packing.ranks
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    known = (basis_ids[:, None] >= 0) & (basis_ids[None, :] >= 0)
    same_basis = basis_ids[:, None] == basis_ids[None, :]
    same_rank = ranks[:, None] == ranks[None, :]
    pair_classes: dict[str, PairClassSummary] = {}
    for bname, bmask in (("same_basis", known & same_basis),
                         ("cross_basis", known & ~same_basis),
                         ("unknown_basis", ~known)):
        for rname, rmask in (("same_rank", same_rank), ("cross_rank", ~same_rank)):
            mask = upper & bmask & rmask
            count = int(mask.sum())
            if count:
                pair_classes[f"{bname}/{rname}"] = PairClassSummary(
                    count, float(e[mask].max()))

    mu_raw = float(g.max()) if packing.mixture == 1 else None
    return CoherenceReport(mu, argmax_pair, achievers, pair_classes, n, mu_raw)


def _coherence_pass(packing: Packing, tol: Tolerance) -> tuple[CoherenceReport, np.ndarray]:
    """The only builder of a CoherenceReport, returned with the embedded Gram
    (diagonal -inf) that the orthoplex check reads; no report stores it."""
    if packing.n < 2:
        raise ParameterError("coherence and certification need at least 2 elements")
    e, g = _embedded_gram(packing)
    return _report_from_grams(packing, e, g, tol), e


def coherence(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> CoherenceReport:
    """All n(n-1)/2 pairwise embedded inner products via the trace identity;
    reports the maximum, the elements attaining it (within eps_abs), and a
    per-pair-class summary.

    The trace Gram of a packing whose elements all come from
    ``coordinate_projection`` (the builders' output) is factored through the
    basis overlaps; any other packing, such as one read by
    ``packing_from_json`` or made by ``spatial_complement``, uses the dense
    Gram of its matrices. ``certify`` keeps the same report as
    ``Certificate.coherence``.
    """
    return _coherence_pass(packing, tol)[0]


class CertStatus(str, Enum):
    OPTIMAL_ORTHOPLEX = "OptimalOrthoplexRegime"
    OPTIMAL_SIMPLEX = "OptimalSimplexRegime"
    MAXIMAL_ORTHOPLEX = "MaximalOrthoplex"
    NOT_CERTIFIED = "NotCertified"


@dataclass(frozen=True)
class Certificate:
    status: CertStatus
    n: int
    d: int
    mu_embedded: float
    is_tight: bool
    tight_constant: float
    details: dict
    coherence: CoherenceReport = dataclass_field(compare=False, repr=False)


def _orthoplex_pattern(e: np.ndarray, tol: Tolerance) -> tuple[bool, tuple[tuple[int, int], ...], float]:
    """Check that the embedded Gram matrix is an orthoplex Gram: a perfect
    matching of antipodal pairs with all other inner products zero."""
    n = e.shape[0]
    antipodal = e <= (-1.0 + tol.eps_abs)
    np.fill_diagonal(antipodal, False)
    if not np.all(antipodal.sum(axis=1) == 1):
        return False, (), float("nan")
    partner = np.argmax(antipodal, axis=1)
    if not np.array_equal(partner[partner], np.arange(n)):
        return False, (), float("nan")
    pairs = tuple((int(i), int(partner[i])) for i in range(n) if i < partner[i])
    rest = ~antipodal
    np.fill_diagonal(rest, False)
    worst = float(np.abs(e[rest]).max()) if rest.any() else 0.0
    return worst <= tol.eps_abs, pairs, worst


def _check_space(packing: Packing, space: EmbeddingSpace) -> None:
    if space.m != packing.m or space.field != packing.field:
        raise DimensionMismatchError(
            f"space for (m={space.m}, {space.field}) does not match packing "
            f"(m={packing.m}, {packing.field})")


def certify(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Apply the certification ladder.

    With n > d+1 and maximum embedded inner product <= 0 (within eps_abs) the
    orthoplex-regime bound is met, so the packing is optimally spread; if
    moreover n = 2d and the inner products split into d antipodal pairs with
    zeros elsewhere, the packing is a maximal orthoplectic fusion frame. With
    the maximum equal to -1/(n-1) the simplex bound is met. Anything else is
    reported NotCertified: the ladder only ever proves optimality, never
    disproves it. The coherence report it reads is kept as ``.coherence``.
    """
    if not packing.hypotheses.ok:
        raise HypothesisError(
            "packing is tagged with hypothesis failures: "
            + "; ".join(packing.hypotheses.failures))
    rep, e = _coherence_pass(packing, tol)
    n = packing.n
    d = embedding_dim(packing.m, packing.field)
    mu = rep.mu_embedded
    tight, constant = check_tightness(packing, tol)

    details: dict = {"embedded_simplex_bound": -1.0 / (n - 1)}
    if rep.mu_raw is not None:
        l = int(packing.ranks[0])
        m = packing.m
        details["raw_coherence"] = rep.mu_raw
        details["raw_simplex_bound"] = (n * l * l - m * l) / (m * (n - 1))
        details["raw_orthoplex_bound"] = l * l / m

    status = CertStatus.NOT_CERTIFIED
    if n > d + 1 and mu <= tol.eps_abs:
        status = CertStatus.OPTIMAL_ORTHOPLEX
        details["embedded_orthoplex_bound"] = 0.0
        if n == 2 * d:
            ok, pairs, _ = _orthoplex_pattern(e, tol)
            if ok:
                status = CertStatus.MAXIMAL_ORTHOPLEX
                details["antipodal_pairs"] = len(pairs)
    elif abs(mu + 1.0 / (n - 1)) <= tol.eps_abs:
        status = CertStatus.OPTIMAL_SIMPLEX

    return Certificate(status, n, d, mu, tight, constant, details, rep)


def check_tightness(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the summed projections equal a multiple of the identity; the
    multiple tr(F)/m = (sum of ranks)/m is returned either way."""
    m = packing.m
    f = np.zeros((m, m), dtype=np.complex128)
    for p in packing.elements:
        f = f + p.matrix
    constant = float(np.trace(f).real) / m
    dev = float(np.abs(f - constant * np.eye(m)).max())
    return dev <= tol.eps_abs, constant


def spatial_complement(packing: Packing) -> Packing:
    """The packing of complementary projections I - P, order preserved.

    Every embedded vector flips sign, so all pairwise embedded inner products
    (and the packing constant) are preserved.
    """
    m = packing.m
    eye = np.eye(m)
    out = []
    for p in packing.elements:
        if p.rank >= m:
            raise DegenerateRankError("full-rank element has an empty complement")
        if isinstance(p.provenance, tuple):
            k, blk = p.provenance
            prov = (k, tuple(sorted(set(range(m)) - set(blk))))
        else:
            prov = p.provenance
        out.append(Projection(eye - p.matrix, rank=m - p.rank, provenance=prov))
    return Packing(m, packing.field, tuple(out), packing.hypotheses, mode="complement")


@dataclass(frozen=True)
class OrthoplexReport:
    passes: bool
    reason: str | None
    n: int
    d: int
    antipodal_pairs: tuple[tuple[int, int], ...]
    max_offdiag_dev: float


def verify_orthoplex_geometry(packing: Packing, space: EmbeddingSpace | None = None,
                              tol: Tolerance = DEFAULT_TOL) -> OrthoplexReport:
    """Materialize the embedded coordinates and verify the orthoplex pattern:
    n = 2d, a perfect antipodal pairing, zeros elsewhere, and each antipodal
    pair realized by complementary subspaces (trace 0, ranks summing to m)."""
    if space is None:
        space = build_space(packing.m, packing.field)
    _check_space(packing, space)
    d = space.d
    n = packing.n
    if n != 2 * d:
        return OrthoplexReport(False, f"n != 2d ({n} != {2 * d})", n, d, (), float("nan"))
    coords = np.stack([embed(p.matrix, space, tol=tol).coords for p in packing.elements])
    gram = coords @ coords.T
    ok, pairs, worst = _orthoplex_pattern(gram, tol)
    if not ok:
        return OrthoplexReport(False, "embedded vectors do not form an orthoplex",
                               n, d, pairs, worst)
    for i, j in pairs:
        pi, pj = packing.elements[i], packing.elements[j]
        tr = float(np.sum(pi.matrix * pj.matrix.conj()).real)
        if tr > tol.eps_abs or pi.rank + pj.rank != packing.m:
            return OrthoplexReport(
                False,
                f"antipodal pair ({i},{j}) is not a complementary subspace pair",
                n, d, pairs, worst)
    return OrthoplexReport(True, None, n, d, pairs, worst)


def span_of_achievers(packing: Packing, report: CoherenceReport,
                      certificate: Certificate | None = None,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[int, bool]:
    """Dimension of the span of all subspaces attaining the packing constant.

    The achievers' projections sum to a positive semidefinite matrix whose
    range is their span, so the dimension returned is the numerical rank of
    that sum (``matrix_rank``: threshold ``eps_abs`` times its largest column
    norm). For an optimally spread packing with n >= m this span must be all
    of F^m; on uncertified packings the result is informative only.
    """
    if packing.n < packing.m:
        raise ParameterError(f"need n >= m, got n={packing.n} < m={packing.m}")
    if certificate is not None and certificate.status is CertStatus.NOT_CERTIFIED:
        raise ParameterError("packing is not certified as optimally spread")
    if not report.achievers:
        return 0, False
    rank = matrix_rank(sum(packing.elements[i].matrix for i in report.achievers), tol)
    return rank, rank == packing.m


def extract_hadamard(packing: Packing, design: BlockDesign,
                     tol: Tolerance = DEFAULT_TOL) -> HadamardMatrix:
    """Recover the Hadamard matrix behind a constant-rank maximal orthoplectic
    packing built from a complement-closed block family.

    One block is chosen per complementary pair (the one containing point 0);
    row i of the output is +1 exactly on that block, and the last row is all
    +1. The result is verified in exact integer arithmetic; failure would
    contradict the construction and raises ConsistencyError.
    """
    m = packing.m
    ranks = set(int(r) for r in packing.ranks)
    if len(ranks) != 1 or m % 2 != 0 or ranks != {m // 2}:
        raise StructuralError(
            f"need constant rank m/2 = {m // 2 if m % 2 == 0 else m / 2}, got ranks {sorted(ranks)}")
    if design.m != m:
        raise StructuralError(f"design over {design.m} points does not match m={m}")
    if design.b != 2 * (m - 1):
        raise StructuralError(f"need 2(m-1) = {2 * (m - 1)} blocks, got {design.b}")
    halves = complementary_halves(design)  # raises StructuralError if not closed
    geometry = verify_orthoplex_geometry(packing, tol=tol)
    if not geometry.passes:
        raise StructuralError(f"packing is not a maximal orthoplex: {geometry.reason}")
    h = -np.ones((m, m), dtype=np.int64)
    for i, blk in enumerate(halves.blocks):
        h[i, list(blk)] = 1
    h[m - 1, :] = 1
    try:
        return HadamardMatrix(h)
    except ParameterError as exc:  # cannot happen for a verified orthoplex
        raise ConsistencyError(f"extracted matrix is not Hadamard: {exc}") from exc


def packing_to_json(packing: Packing) -> dict:
    prov = []
    for p in packing.elements:
        if isinstance(p.provenance, tuple):
            prov.append({"basis": p.provenance[0], "block": list(p.provenance[1])})
        else:
            prov.append(p.provenance)
    return {
        "m": packing.m,
        "field": packing.field,
        "mode": packing.mode,
        "elements": [matrix_to_json(p.matrix, packing.field) for p in packing.elements],
        "provenance": prov,
        "hypotheses": {
            "ok": packing.hypotheses.ok,
            "failures": list(packing.hypotheses.failures),
            "candidate_maximal": packing.hypotheses.candidate_maximal,
        },
    }


def packing_from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> Packing:
    m = as_int(obj["m"], "m")
    field = check_field(obj["field"])
    prov_list = obj.get("provenance") or [IMPORTED] * len(obj["elements"])
    if len(prov_list) != len(obj["elements"]):
        raise ParameterError("provenance list does not match element count")
    elements = []
    for idx, (mj, pv) in enumerate(zip(obj["elements"], prov_list)):
        mat = matrix_from_json(mj)
        provenance = ((as_int(pv["basis"], "basis index"), tuple(pv["block"]))
                      if isinstance(pv, dict) else IMPORTED)
        try:
            elements.append(Projection(mat, provenance=provenance, tol=tol))
        except ParameterError as exc:
            raise ParameterError(f"element {idx}: {exc}") from exc
    hyp = obj.get("hypotheses", {})
    record = HypothesisRecord(
        ok=bool(hyp.get("ok", True)),
        failures=tuple(hyp.get("failures", ())),
        candidate_maximal=bool(hyp.get("candidate_maximal", False)),
    )
    return Packing(m, field, tuple(elements), record, mode=obj.get("mode", "imported"))


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "status": cert.status.value,
        "n": cert.n,
        "d": cert.d,
        "mu_embedded": cert.mu_embedded,
        "is_tight": cert.is_tight,
        "tight_constant": cert.tight_constant,
        "details": cert.details,
    }
