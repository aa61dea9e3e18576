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

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .designs import (BlockDesign, HadamardMatrix, _incidence, _supports, check_block,
                      complement_design, complementary_halves, is_cohesive)
from .embedding import (_SEPARATOR, _coordinates, _sphere_rank, _vector_text, _write_texts,
                        build_space, embed, embedding_dim, sphere_radius_sq, write_embedded_code)
from .errors import (ConsistencyError, DegenerateRankError, DimensionMismatchError,
                     HypothesisError, ParameterError, StructuralError)
from .mubs import MubFamily, _differences, mub_capacity, mubs_from_json, mubs_to_json
from .numerics import (DEFAULT_TOL, REAL, Field, Tolerance, as_int, as_type, check_field,
                       is_projection, lock, matrix_from_json, matrix_rank,
                       matrix_to_json)


@dataclass(frozen=True, eq=False)
class Projection:
    """A Hermitian idempotent with its rank.

    A coordinate projection (made only by ``coordinate_projection``) is
    stored as its MUB ``family``, ``basis_index`` a and sorted ``block`` J
    alone; ``matrix`` is formed anew and read-only on each read, and the
    exact coherence pass, tightness and the achiever span never form it. On
    a basis a >= 1 of a quadratic-phase family it is P[x, y] = w^t s_J[c],
    read off one table per block (``_phase_entries``, ``_phase_classes``):
    U_J U_J^* in exact arithmetic, with equal bits in entries of one class
    and l/q exactly on the diagonal. Otherwise it is ``U[:, J] @ U[:, J]^*``,
    ``U = family.bases[a]``. Every other projection, ones read from dense
    matrices included, is the dense matrix it was checked with and nothing
    else: ``family``, ``basis_index`` and ``block`` are None. Equality is
    identity.
    """

    rank: int
    family: MubFamily | None = dataclass_field(default=None, repr=False)
    basis_index: int | None = None
    block: tuple[int, ...] | None = dataclass_field(default=None, repr=False)
    _dense: np.ndarray | None = dataclass_field(default=None, repr=False)

    def __init__(self, matrix, rank: int | None = None, tol: Tolerance = DEFAULT_TOL):
        mat = np.asarray(matrix, dtype=np.complex128)
        check = is_projection(mat, tol)
        if not check.ok:
            raise ParameterError(f"not a projection: {check.failure}")
        if rank is not None and rank != check.rank:
            raise ParameterError(f"declared rank {rank} != inferred rank {check.rank}")
        self.__dict__.update(rank=check.rank, _dense=lock(mat))  # family etc. stay None

    @property
    def m(self) -> int:
        """The dimension of the ambient space."""
        return self.family.m if self.family is not None else self._dense.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if self.family is None:
            return self._dense
        family, a = self.family, self.basis_index
        if family.phases is not None and a > 0:
            mat = _phase_entries(family, self.block)[_phase_classes(family, a)]
        else:  # a phase family's standard basis is read without forming its bases
            u = family.bases[a] if family.phases is None else np.eye(family.m, dtype=complex)
            cols = u[:, list(self.block)]
            mat = cols @ cols.conj().T
        mat.setflags(write=False)
        return mat


def _phase_entries(family: MubFamily, block: tuple[int, ...]) -> np.ndarray:
    """The values w^t s_J[c] of a phase element on the block J at t q + c,
    (t, c) in Z_p x GF(q): s_J[c] = q^-1 sum_{b in J} w^E[0, c, b], summed in
    block order, its parts divided apart so that s_J[0] = l/q exactly."""
    (p, expo), q = family.phases, family.m
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    s = sum(omega[expo[0, :, b]] for b in block)
    s.real /= q
    s.imag /= q
    return (omega[:, None] * s).ravel()


def _phase_classes(family: MubFamily, a: int) -> np.ndarray:
    """The class t q + c of each entry (x, y) of a phase element on basis a >= 1: t =
    E[a-1, x, 0] - E[a-1, y, 0] mod p in intp (uint8 would wrap), c = x - y in GF(q)."""
    (p, expo), q = family.phases, family.m
    squares = expo[a - 1, :, 0].astype(np.intp)  # tr((a-1) x^2)
    return (squares[:, None] - squares) % p * q + _differences(q)


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
class _BlockTable:
    """Coordinate projections of one ``family``: element i is the distinct block
    ``blocks[ids[i]]`` of basis ``labels[i]``, blocks numbered in order of first
    use by the builders and in file order by ``packing_from_json``; the B
    distinct blocks have the m x B 0/1 ``incidence`` N and the int64 ``meet`` =
    N^T N, read-only (sizes on its diagonal). What the exact path reads is
    kept once formed: ``exact`` (``_exact_values``) and the tightness verdict."""

    family: MubFamily
    labels: np.ndarray
    ids: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    incidence: np.ndarray
    meet: np.ndarray

    @cached_property
    def exact(self) -> _ExactValues:
        return _exact_values(self)

    @cached_property
    def evenly_covered(self) -> bool:  # every basis covers each point equally often
        cover = _coverage(self)
        return bool(np.all(cover == cover[:, :1]))


def _table(family: MubFamily, labels, ids, blocks, inc) -> _BlockTable:
    """The block table of checked, distinct ``blocks`` with incidence ``inc``, N^T N formed."""
    inc = lock(inc)
    return _BlockTable(family, lock(labels), lock(ids), tuple(blocks), inc,
                       lock((inc.T @ inc).astype(np.int64)))


@dataclass(frozen=True, eq=False, init=False)
class Packing:
    """Projections of F^m, F = ``field``. Construction raises unless every
    element is m x m and over F: a coordinate projection's family has that
    field, and under "R" a dense element's imaginary parts are exactly zero,
    as ``matrix_to_json`` requires. Equality is identity. The builders,
    ``spatial_complement`` and ``packing_from_json`` make a packing of one MUB
    family as its block table, with the same checks, and form ``elements``
    from it only when they are first read."""

    m: int
    field: Field
    hypotheses: HypothesisRecord
    mode: str

    def __init__(self, m: int, field: Field, elements: tuple[Projection, ...],
                 hypotheses: HypothesisRecord = HypothesisRecord(ok=True),
                 mode: str = "manual"):
        check_field(field)
        for i, p in enumerate(elements):
            if p.m != m:
                raise DimensionMismatchError(f"element of size {p.m} in an m={m} packing")
            if p.family is not None and p.family.field != field:
                raise ParameterError(
                    f"element {i} is over {p.family.field}, the packing over {field}")
            if field == REAL and p.family is None and np.any(p.matrix.imag != 0.0):
                raise ParameterError(
                    f"element {i} of a real-tagged packing has nonzero imaginary parts")
        self.__dict__.update(m=m, field=field, elements=tuple(elements), hypotheses=hypotheses,
                             mode=mode)

    @cached_property
    def elements(self) -> tuple[Projection, ...]:
        """The elements, formed on first read when the packing was made as its block table."""
        t = self._block_table
        return tuple(_coordinate(t.family, a, t.blocks[i])
                     for a, i in zip(t.labels.tolist(), t.ids.tolist()))

    @property
    def n(self) -> int:
        return len(self.ranks)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Each element's rank, read-only: diag(N^T N)[ids] for a block table."""
        t = self._block_table
        return lock(np.diagonal(t.meet)[t.ids] if t is not None else
                    np.array([p.rank for p in self.elements], dtype=np.int64))

    @property
    def rank_profile(self) -> tuple[tuple[int, int], ...]:
        """Pairs (count, rank) sorted by rank."""
        ranks, counts = np.unique(self.ranks, return_counts=True)
        return tuple(zip(counts.tolist(), ranks.tolist()))

    @property
    def mixture(self) -> int:
        return len(self.rank_profile)

    @cached_property
    def _block_table(self) -> _BlockTable | None:
        """The block table of coordinate projections of one family, else None."""
        family = _family(self.elements)
        if family is None:
            return None
        distinct: dict = {}
        ids = [distinct.setdefault(p.block, len(distinct)) for p in self.elements]
        return _table(family, _basis_labels(self.elements), np.array(ids, dtype=np.int64),
                      list(distinct), _incidence(family.m, list(distinct)))


def _table_packing(m: int, field: Field, table: _BlockTable, hypotheses: HypothesisRecord,
                   mode: str) -> Packing:
    """The packing of ``table``'s elements (at least one), checked as ``Packing`` checks them."""
    if table.family.m != m:
        raise DimensionMismatchError(f"element of size {table.family.m} in an m={m} packing")
    if table.family.field != field:
        raise ParameterError(f"element 0 is over {table.family.field}, the packing over {field}")
    packing = object.__new__(Packing)  # a frozen instance's fields, set once
    packing.__dict__.update(m=m, field=field, hypotheses=hypotheses, mode=mode,
                            _block_table=table)
    return packing


def coordinate_projection(family: MubFamily, basis_index: int, block) -> Projection:
    """Projection onto the vectors ``block`` of basis ``basis_index`` of
    ``family``, stored as that triple (block sorted); its rank is the block
    size. The family checked its bases when it was made, so the projection
    needs no check of its own."""
    return _coordinate(family, _basis_index(family, basis_index), check_block(block, family.m))


def _basis_index(family: MubFamily, index) -> int:
    """``index`` as an int in 0..k-1, else ParameterError."""
    k = as_int(index, "basis index")
    if not 0 <= k < family.k:
        raise ParameterError(f"basis index {k} outside 0..{family.k - 1}")
    return k


def _basis_indices(family: MubFamily, indices) -> tuple[int, ...]:
    """``indices`` sorted, checked at once when all are plain ints in range, else
    each by ``_basis_index``, so that the same error is raised."""
    ks = list(indices)
    if not (all(type(k) is int for k in ks) and 0 <= min(ks, default=0)
            and max(ks, default=0) < family.k):
        ks = [_basis_index(family, k) for k in ks]
    return tuple(sorted(ks))


def _coordinate(family: MubFamily, k: int, block: tuple[int, ...]) -> Projection:
    """``coordinate_projection`` of a checked basis index and sorted block."""
    proj = object.__new__(Projection)  # a frozen instance's fields, set once
    proj.__dict__.update(rank=len(block), family=family, basis_index=k, block=block)
    return proj


def _from_runs(family: MubFamily, runs, record: HypothesisRecord, mode: str) -> Packing:
    """The packing of each checked block of ``blocks`` on each basis of ``bases``,
    basis by basis, for (bases, blocks, incidence) in ``runs`` in turn, made as its
    block table: one label and block id per element, by np.repeat and np.tile of the
    run's distinct block ids; a block's column of N is its first use's in ``incidence``."""
    distinct: dict = {}
    labels, ids, columns = [], [], []
    for bases, blocks, inc in runs:
        if len(bases):
            seen = len(distinct)
            run = np.array([distinct.setdefault(b, len(distinct)) for b in blocks], dtype=np.int64)
            top = np.maximum.accumulate(np.concatenate(([seen - 1], run)))  # rises at a first use
            columns.append(inc[:, top[1:] > top[:-1]])
            labels.append(np.repeat(np.array(bases, dtype=np.int64), len(blocks)))
            ids.append(np.tile(run, len(bases)))
    if not labels:
        return Packing(family.m, family.field, (), record, mode)
    table = _table(family, np.concatenate(labels), np.concatenate(ids), list(distinct),
                   np.hstack(columns))
    return _table_packing(family.m, family.field, table, record, mode)


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
    classes = [_basis_indices(mubs, cls) for cls in partition]
    used = [k for cls in classes for k in cls]
    if len(set(used)) != len(used):
        raise ParameterError("partition classes overlap")
    m = mubs.m
    for dsgn in designs:
        if dsgn.m != m:
            raise ParameterError(f"design over {dsgn.m} points does not match m={m}")

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
    return _from_runs(mubs, [(cls, dsgn.blocks, dsgn.incidence)
                             for dsgn, cls in zip(designs, classes)], record, "mixed")


def build_orthoplex_packing(mubs: MubFamily, halves: BlockDesign) -> Packing:
    """Coordinate projections of S and its blockwise complement S^c in every
    basis, for a block family S whose distinct blocks all meet in exactly
    l^2/m points.

    The intersection condition m |J & J'| = l^2 is checked exactly on
    ``halves.intersections``; its first violation raises HypothesisError. When
    |S| = m-1 and the family of bases is maximal, the result is tagged as a
    candidate maximal orthoplectic fusion frame with 2(m-1) k = 2d elements.
    """
    m = mubs.m
    if halves.m != m:
        raise ParameterError(f"design over {halves.m} points does not match m={m}")
    l = halves.block_size
    if l >= m:
        raise ParameterError("blocks cover every point; complements are empty")
    meet = halves.intersections
    bad = np.triu(m * meet != l * l, 1)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), halves.b)
        raise HypothesisError(
            f"blocks {i} and {j} meet in {meet[i, j]} points; need l^2/m = {l * l}/{m}")
    d = embedding_dim(m, mubs.field)
    n = 2 * halves.b * mubs.k
    failures: list[str] = []
    if n <= d + 1:
        failures.append(f"only {n} elements; need more than d+1 = {d + 1}")
    candidate = halves.b == m - 1 and mubs.k == mub_capacity(m, mubs.field)
    record = HypothesisRecord(ok=not failures, failures=tuple(failures),
                              candidate_maximal=candidate)
    rest = complement_design(halves)
    return _from_runs(mubs, [(range(mubs.k), halves.blocks + rest.blocks,
                              np.hstack((halves.incidence, rest.incidence)))], record, "orthoplex")


@dataclass(frozen=True)
class PairClassSummary:
    count: int
    max_inner: float


@dataclass(frozen=True)
class CoherenceReport:
    """Largest pairwise embedded inner product and where it is attained.

    ``argmax_pair`` is the first pair (i, j), i < j, in row-major order of the
    Gram whose value is within ``eps_abs`` of ``mu_embedded`` (exactly equal
    to it on the exact path), so rounding noise does not pick among exact
    ties and a packing and its copy read from dense matrices report the same pair.
    ``achievers`` are the elements of such pairs.

    ``method`` is ``"exact"`` when the values were read off block
    intersections over a family of MUBs and ``"numeric"`` when they come from
    a float trace Gram; ``mub_dev`` bounds the deviation of the packing's
    bases from a MUB family: 0.0 when the family's exponent table proves it a
    set of MUBs (``MubFamily.exact_verdict``), otherwise as read off the
    family's ``deviations`` (None unless every element is a coordinate
    projection of one family).
    """

    mu_embedded: float
    argmax_pair: tuple[int, int]
    achievers: tuple[int, ...]
    pair_classes: dict[str, PairClassSummary]
    n: int
    mu_raw: float | None = None  # max tr(P_i P_j), constant-rank packings only
    method: str = "numeric"
    mub_dev: float | None = None


def _trace_gram(packing: Packing) -> np.ndarray:
    """G[i, j] = tr(P_i P_j): the real Gram matrix of the vectorized
    Hermitian matrices, formed from the stacked n x m x m element matrices.
    The numeric pass reads it, and the tests use it as the reference."""
    mats = np.stack([p.matrix for p in packing.elements])
    v = mats.reshape(packing.n, -1)
    return v.real @ v.real.T + v.imag @ v.imag.T


def _family(elements) -> MubFamily | None:
    """The one MUB family that all elements are coordinate projections of, or None."""
    family = elements[0].family if elements else None
    return family if family is not None and all(p.family is family for p in elements) else None


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(packing: Packing, task: str, d: int | None = None, dense: bool = True) -> None:
    """Raise ParameterError before ``task`` allocates more than the machine has: the
    numeric pass (``d`` None) holds three n x n float arrays and n complex m x m
    matrices, the geometry pass n x d float coordinates (twice for ``dense`` elements,
    whose stacked vectors are copied once), an n x n float Gram and an n x n boolean mask."""
    n, m = packing.n, packing.m
    need = 24 * n * n + 16 * n * m * m if d is None else 8 * (1 + dense) * n * d + 9 * n * n
    have = _physical_memory()
    if need > have:
        raise ParameterError(
            f"{task} for n={n}, m={m} needs at least {need} bytes, "
            f"more than the {have} bytes of physical memory")


def _embedded_gram(packing: Packing) -> tuple[np.ndarray, np.ndarray]:
    """(e, g): the embedded Gram c_i c_j (g_ij - r_i r_j / m), built in place,
    and the trace Gram g."""
    _check_memory(packing, "the numeric coherence pass")
    m = packing.m
    ranks = packing.ranks
    g = _trace_gram(packing)
    c = np.sqrt(m / (ranks * (m - ranks)))
    e = np.outer(ranks.astype(np.float64), ranks)
    e /= m
    np.subtract(g, e, out=e)
    e *= np.outer(c, c)
    return e, g


def _report_from_grams(packing: Packing, e: np.ndarray, g: np.ndarray,
                       tol: Tolerance, mub_dev: float | None) -> CoherenceReport:
    """The report of the Grams from ``_embedded_gram``, whose diagonals it
    sets to -inf in place instead of masking copies."""
    n = packing.n
    np.fill_diagonal(e, -np.inf)
    np.fill_diagonal(g, -np.inf)
    mu = float(e.max())
    hit = e >= mu - tol.eps_abs
    i, j = divmod(int(np.argmax(hit)), n)  # the first pair within eps_abs of mu
    argmax_pair = (min(i, j), max(i, j))
    achievers = tuple(int(x) for x in np.flatnonzero(hit.any(axis=1)))

    labels, ranks = _basis_labels(packing.elements), packing.ranks
    cls = _pair_class(labels[:, None], ranks[:, None], labels, ranks)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    pair_classes: dict[str, PairClassSummary] = {}
    for c, name in enumerate(_PAIR_CLASSES):
        mask = upper & (cls == c)
        count = int(mask.sum())
        if count:
            pair_classes[name] = PairClassSummary(count, float(e[mask].max()))

    mu_raw = float(g.max()) if packing.mixture == 1 else None
    return CoherenceReport(mu, argmax_pair, achievers, pair_classes, n, mu_raw,
                           "numeric", mub_dev)


def _basis_labels(elements) -> np.ndarray:
    """Each element's basis index, -1 where it has none."""
    return np.array([-1 if p.basis_index is None else p.basis_index for p in elements],
                    dtype=np.int64)


_PAIR_CLASSES = tuple(f"{b}/{r}" for b in ("same_basis", "cross_basis", "unknown_basis")
                         for r in ("same_rank", "cross_rank"))


def _pair_class(label_i, rank_i, label_j, rank_j) -> np.ndarray:
    """Index into _PAIR_CLASSES of each pair (broadcast), by basis index (a
    dense element's -1 makes the pair "unknown_basis") and rank, as int8 so
    that an n x n class array stays small."""
    basis_class = np.where((label_i >= 0) & (label_j >= 0), label_i != label_j, np.int8(2))
    return 2 * basis_class + (rank_i != rank_j)


@dataclass(frozen=True)
class _ExactValues:
    """Each element's largest embedded inner product ``peaks``, their maximum,
    the report's other values, and n/2 antipodal pairs for an orthoplex Gram, else None."""

    peaks: np.ndarray
    mu: float
    argmax_pair: tuple[int, int]
    pair_classes: dict[str, PairClassSummary]
    mu_raw: float | None
    antipodal_pairs: int | None


def _exact_values(table: _BlockTable) -> _ExactValues:
    """The values of ``_exact_pass`` that no tolerance enters, formed once per
    table as ``table.exact``.

    Over MUBs tr(P_i P_j) is |J & K| for two blocks of one basis and
    |J||K|/m across bases, so every cross-basis embedded inner product is 0
    and a same-basis pair has num / sqrt(den) with num = m|J & K| - |J||K|
    and den = |J|(m-|J|)|K|(m-|K|). Each pattern, the block ids of one basis
    in order (one design in a partition class), takes its L x L block of
    N^T N, each entry coded by the places of |J| and |K| among the distinct
    block sizes and |J & K|; the few codes present (one bincount) are ordered
    exactly by the Fraction num|num|/den, and only the reported numbers are
    rounded to floats. Peaks are row maxima; pair classes are counted off
    each pattern's rank histogram times the bases that carry it. The
    orthoplex check is decided on blocks, row by row: each element has exactly
    one complementary block in its basis (its antipode), and every other
    same-basis pair has num = 0.
    """
    labels, ids, meet = table.labels, table.ids, table.meet
    m, n, sizes = table.family.m, len(labels), np.diagonal(meet)
    crossed = bool(np.any(labels != labels[0]))  # some pair lies across two bases
    # sorted by basis, stably so each keeps increasing indices; basis a's run is
    # order[s:e], and its pattern is numbered by the bytes of the run's ids
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels)))).tolist()
    raw, w, patterns = ids[order].tobytes(), ids.itemsize, {}
    runs = {a: (s, e, patterns.setdefault(raw[w * s:w * e], len(patterns)))
            for a, (s, e) in enumerate(zip(bounds, bounds[1:])) if e > s}
    seqs = [np.frombuffer(key, dtype=ids.dtype) for key in patterns]

    present = np.bincount(sizes, minlength=m + 1) > 0  # every block is used
    size_of, place = np.flatnonzero(present), np.cumsum(present) - 1
    kinds, cells = len(size_of), len(size_of) ** 2 * (m + 1)  # distinct sizes, codes
    codes, hist = [], []  # per pattern: (place |J| * kinds + place |K|) * (m + 1) + |J & K|
    for seq in seqs:
        at = place[sizes[seq]]
        code = (at[:, None] * kinds + at) * (m + 1) + meet[seq][:, seq]
        np.fill_diagonal(code, cells)  # no pair: one past every code
        codes.append(code)
        hist.append(np.bincount(at, minlength=kinds))  # the pattern's rank histogram
    found = np.flatnonzero(np.bincount(np.concatenate([c.ravel() for c in codes]),
                                       minlength=cells + 1)[:cells])
    places, common = np.divmod(found, m + 1)
    ra, rb = size_of[places // kinds], size_of[places % kinds]
    as_float = {Fraction(0): 0.0}  # exact value num|num|/den -> num / sqrt(den)
    exact = []
    for a, b, c in zip(ra.tolist(), rb.tolist(), common.tolist()):
        nu, den = m * c - a * b, a * (m - a) * b * (m - b)
        exact.append(Fraction(nu * abs(nu), den))
        as_float.setdefault(exact[-1], nu / math.sqrt(den))
    ordered = sorted(as_float)
    rank_of = {v: r for r, v in enumerate(ordered)}
    floats = np.array([as_float[v] for v in ordered])
    key_of = np.full(cells + 1, -1)
    key_of[found] = [rank_of[v] for v in exact]
    zero = rank_of[Fraction(0)] if crossed else -1  # cross-basis pairs, if any
    keys = [key_of[code] for code in codes]

    peaks = [np.maximum(key.max(axis=1), zero) for key in keys]  # as ranks
    best = np.empty(n, dtype=np.int64)
    best[order] = np.concatenate([peaks[p] for _, _, p in runs.values()])
    top = int(best.max())
    i = int(np.argmax(best == top))  # the first row of the Gram that attains mu
    s, e, p = runs[labels[i]]  # i's run; its row of the pattern's keys names its partners
    run = order[s:e]
    partners = run[keys[p][np.searchsorted(run, i)] == top].tolist()
    if top == zero:
        partners.append(np.flatnonzero(labels != labels[i])[0])

    # pairs per class, from each pattern's rank histogram and the bases carrying it
    hist, carriers = np.array(hist), np.bincount([p for _, _, p in runs.values()])
    sq, length = (hist * hist).sum(axis=1), hist.sum(axis=1)
    within = carriers @ np.column_stack((sq - length, length * length - sq)) // 2
    total = int(((carriers @ hist) ** 2).sum())  # sum over sizes of (elements of that size)^2
    count = [*within, *(np.array([total - n, n * n - total]) // 2 - within), 0, 0]
    tied = ra == rb
    tops = [int(key_of[found[tied]].max(initial=-1)), int(key_of[found[~tied]].max(initial=-1)),
            zero, zero]  # every cross-basis value is zero
    pair_classes = {name: PairClassSummary(int(count[c]), float(floats[tops[c]]))
                    for c, name in enumerate(_PAIR_CLASSES) if count[c]}

    mu_raw = None
    if kinds == 1:  # tr is |J & K| within a basis and l^2/m across
        traces = [Fraction(int(common.max()))] if common.size else []
        mu_raw = float(max(traces + ([Fraction(int(size_of[0]) ** 2, m)] if crossed else [])))

    comp = (common == 0) & (ra + rb == m)  # a complementary pair of blocks
    is_comp = np.zeros(cells + 1, dtype=bool)
    is_comp[found[comp]] = True
    antipodal = n // 2 if not np.any((m * common - ra * rb)[~comp]) and all(
        np.all(is_comp[code].sum(axis=1) == 1) for code in codes) else None
    return _ExactValues(lock(floats[best]), float(floats[top]), (i, int(min(partners))),
                        pair_classes, mu_raw, antipodal)


def _exact_pass(packing: Packing, mub_dev: float,
                tol: Tolerance) -> tuple[CoherenceReport, Callable]:
    """The report read off the table's shared ``exact``, achievers (within
    ``eps_abs`` of mu) picked, and the orthoplex check ``certify`` runs when n = 2d."""
    v = packing._block_table.exact
    achievers = tuple(np.flatnonzero(v.peaks >= v.mu - tol.eps_abs).tolist())
    return (CoherenceReport(v.mu, v.argmax_pair, achievers, dict(v.pair_classes), packing.n,
                            v.mu_raw, "exact", mub_dev), lambda: v.antipodal_pairs)


def _coherence_pass(packing: Packing, tol: Tolerance) -> tuple[CoherenceReport, Callable]:
    """The only builder of a CoherenceReport, returned with the orthoplex
    check ``certify`` runs when n = 2d: a callable giving the number of
    antipodal pairs when the inner products form an orthoplex Gram (a
    perfect antipodal matching, zeros elsewhere), and None otherwise.

    A packing of coordinate projections of one ``MubFamily`` takes the exact
    pass with ``mub_dev`` 0.0 when the family's ``exact_verdict`` is true: its
    elements are (E, basis, block), so the ideal family is the one certified.
    Otherwise it takes it when the bases it uses are MUBs to within what
    cannot move any embedded inner product by more than ``eps_abs``. The
    trace identity tr(P_i P_j) = 1_J^T W_ab 1_K holds for W = |U^* U|^2
    entrywise, whose MUB values are E_aa = I and E_ab = 1/m. ``family.deviations`` (which
    ``verify_mubs`` reports) over the bases used gives the largest entry
    delta of |U_a^* U_a - I| and the largest of |W_ab - 1/m| over a != b;
    |W_aa - I| <= 2 delta + delta^2, so ``mub_dev``, the larger of the two,
    bounds max |W - E|. Each trace is then within |J||K| mub_dev of its MUB value
    and each embedded inner product c_i c_j (tr - r_i r_j / m) within
    m sqrt(r_i r_j / ((m - r_i)(m - r_j))) mub_dev <= mub_dev max_l m l / (m - l),
    l over the ranks present; the exact pass runs when that bound is at most
    ``eps_abs``. Every other packing takes the numeric pass over the dense
    float trace Gram.
    """
    if packing.n < 2:
        raise ParameterError("coherence and certification need at least 2 elements")
    m, ranks = packing.m, packing.ranks
    if np.any(ranks == 0) or np.any(ranks == m):
        raise DegenerateRankError("rank-0 or full-rank element cannot be embedded")
    mub_dev = None
    table = packing._block_table
    family = None if table is None else table.family
    if family is not None and family.exact_verdict:
        return _exact_pass(packing, 0.0, tol)
    if family is not None:
        used = np.flatnonzero(np.bincount(table.labels))
        dev = family.deviations[np.ix_(used, used)]
        delta = float(np.diagonal(dev).max())
        mub_dev = max(float(dev.max()), 2 * delta + delta * delta)  # delta <= 2 delta + delta^2
        top = int(ranks.max())
        if mub_dev * m * top / (m - top) <= tol.eps_abs:
            return _exact_pass(packing, mub_dev, tol)
    e, g = _embedded_gram(packing)

    def antipodal_pairs() -> int | None:  # after the report is built, so e is scratch
        ok, pairs, _ = _orthoplex_pattern(e, tol)
        return len(pairs) if ok else None

    return _report_from_grams(packing, e, g, tol, mub_dev), antipodal_pairs


def coherence(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> CoherenceReport:
    """All n(n-1)/2 pairwise embedded inner products via the trace identity;
    reports the maximum, the elements attaining it (within eps_abs), and a
    per-pair-class summary.

    A packing of coordinate projections of one MUB family (the builders'
    output and its spatial complement) is read exactly off its block
    intersections (``report.method == "exact"``), with no n x n array, also
    when read back from its JSON, which is its block table. Any other packing,
    such as one of dense matrices or one built on bases that are not MUBs,
    takes the dense Gram of its matrices (``"numeric"``).
    ``certify`` keeps the same report as ``Certificate.coherence``.
    The exact values are formed once per packing and shared with ``certify``,
    ``check_tightness`` and ``span_of_achievers``; a call picks the achievers
    at its ``eps_abs``. The numeric path keeps nothing, its Grams included.
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
    matching of antipodal pairs with all other inner products zero. ``e`` is
    scratch: its diagonal and partner entries are overwritten with 0."""
    n = e.shape[0]
    antipodal = e <= (-1.0 + tol.eps_abs)
    np.fill_diagonal(antipodal, False)
    if not np.all(antipodal.sum(axis=1) == 1):
        return False, (), float("nan")
    partner = np.argmax(antipodal, axis=1)
    if not np.array_equal(partner[partner], np.arange(n)):
        return False, (), float("nan")
    pairs = tuple((int(i), int(partner[i])) for i in range(n) if i < partner[i])
    np.fill_diagonal(e, 0.0)
    e[np.arange(n), partner] = 0.0
    worst = float(np.maximum(e.max(), -e.min()))
    return worst <= tol.eps_abs, pairs, worst


def certify(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Apply the certification ladder.

    With n > d+1 and maximum embedded inner product <= 0 (within eps_abs) the
    orthoplex-regime bound is met, so the packing is optimally spread; if
    moreover n = 2d and the inner products split into d antipodal pairs with
    zeros elsewhere, the packing is a maximal orthoplectic fusion frame. With
    the maximum equal to -1/(n-1) the simplex bound is met. Anything else is
    reported NotCertified: the ladder only ever proves optimality, never
    disproves it. The coherence report it reads is kept as ``.coherence``;
    on its exact path the antipodal pairs are complementary blocks of one
    basis, found without any embedded inner product.
    """
    if not packing.hypotheses.ok:
        raise HypothesisError(
            "packing is tagged with hypothesis failures: "
            + "; ".join(packing.hypotheses.failures))
    rep, antipodal_pairs = _coherence_pass(packing, tol)
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
            pairs = antipodal_pairs()
            if pairs is not None:
                status = CertStatus.MAXIMAL_ORTHOPLEX
                details["antipodal_pairs"] = pairs
    elif abs(mu + 1.0 / (n - 1)) <= tol.eps_abs:
        status = CertStatus.OPTIMAL_SIMPLEX

    return Certificate(status, n, d, mu, tight, constant, details, rep)


def check_tightness(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the summed projections equal a multiple of the identity; the
    multiple tr(F)/m = (sum of ranks)/m is returned either way.

    Under a true ``exact_verdict`` it is tight exactly when every basis a
    covers each point equally often: with c_a its coverage, c_a = mean 1 + v_a,
    F = sum_a U_a diag(c_a) U_a^* is cI plus sum_a T_a, T_a = U_a diag(v_a) U_a^*.
    Over MUBs tr(T_a T_b) = (sum v_a)(sum v_b) / m = 0 for a != b, so the
    Hilbert-Schmidt norm of sum_a T_a squared is sum_a |v_a|^2, 0 iff every
    v_a is. Otherwise F, summed in floats, must be within ``eps_abs`` of cI.
    """
    m = packing.m
    constant = int(packing.ranks.sum()) / m
    table = packing._block_table
    if table is not None and table.family.exact_verdict:
        return table.evenly_covered, constant
    f = _summed_projections(packing)
    dev = float(np.abs(f - constant * np.eye(m)).max())
    return dev <= tol.eps_abs, constant


def _summed_projections(packing: Packing, picked=slice(None)) -> np.ndarray:
    """The sum of the projections ``picked`` (an index array or a slice) selects.

    When each is a coordinate projection of one family the sum is
    U_a diag(cov_a) U_a^* summed over the bases a in use, where cov_a[x]
    counts the picked blocks of basis a that contain point x (``_coverage``);
    no element matrix is formed and no MUB property is assumed. Otherwise it
    is the plain sum of the matrices.
    """
    table = packing._block_table
    if table is None:  # the picked elements may still be of one family
        els = tuple(packing.elements[i] for i in np.arange(packing.n)[picked].tolist())
        if _family(els) is None:
            return sum(p.matrix for p in els)
        table, picked = Packing(packing.m, packing.field, els)._block_table, slice(None)
    cover = _coverage(table, picked)
    f = np.zeros((packing.m, packing.m), dtype=np.complex128)
    for a in np.flatnonzero(cover.any(axis=1)):
        u = table.family.bases[a]
        f += (u * cover[a]) @ u.conj().T
    return f


def _coverage(table: _BlockTable, picked: slice | np.ndarray = slice(None)) -> np.ndarray:
    """The k x m float array whose row a counts, for each point, the blocks
    of basis a among the elements ``picked`` that contain it."""
    k, b = table.family.k, len(table.meet)
    counts = np.bincount(table.labels[picked] * b + table.ids[picked], minlength=k * b)
    return counts.reshape(k, b) @ table.incidence.T


def spatial_complement(packing: Packing) -> Packing:
    """The packing of complementary projections I - P, order preserved.

    Every embedded vector flips sign, so all pairwise embedded inner products
    (and the packing constant) are preserved. A coordinate projection
    (family, k, J) maps to (family, k, J^c), so complements keep the exact pass;
    a dense element maps to the dense matrix I - P. A block table maps to
    the table of the complementary blocks, same labels and ids, with
    incidence 1 - N and intersections m - |J| - |K| + |J & K|.
    """
    m, table = packing.m, packing._block_table
    if table is not None:
        sizes = np.diagonal(table.meet)
        if np.any(sizes >= m):
            raise DegenerateRankError("full-rank element has an empty complement")
        inc = lock(1.0 - table.incidence)
        rests = _BlockTable(table.family, table.labels, table.ids, _supports(inc), inc,
                            lock(m - sizes[:, None] - sizes + table.meet))
        return _table_packing(m, packing.field, rests, packing.hypotheses, "complement")
    out = []
    for p in packing.elements:
        if p.rank >= m:
            raise DegenerateRankError("full-rank element has an empty complement")
        if p.family is not None:
            out.append(_coordinate(p.family, p.basis_index,
                                   tuple(sorted(set(range(m)) - set(p.block)))))
        else:
            out.append(Projection(np.eye(m) - p.matrix, rank=m - p.rank))
    return Packing(m, packing.field, tuple(out), packing.hypotheses, mode="complement")


@dataclass(frozen=True)
class OrthoplexReport:
    passes: bool
    reason: str | None
    n: int
    d: int
    antipodal_pairs: tuple[tuple[int, int], ...]
    max_offdiag_dev: float


def verify_orthoplex_geometry(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> OrthoplexReport:
    """Materialize the embedded coordinates and verify the orthoplex pattern: n = 2d, a
    perfect antipodal pairing, zeros elsewhere, and each antipodal pair realized by
    complementary subspaces (trace 0, ranks summing to m). A block table's coordinates are
    one product per basis (``_table_coordinates``; its family checked its bases), a dense
    element's ``embed`` of its matrix; the antipodal traces are read off the coordinates at
    once: tr(P_i P_j) = <v_i, v_j> sqrt(r_i (m-r_i) r_j (m-r_j)) / m + r_i r_j / m."""
    space = build_space(packing.m, packing.field)
    m, d, n = packing.m, space.d, packing.n
    if n != 2 * d:
        return OrthoplexReport(False, f"n != 2d ({n} != {2 * d})", n, d, (), float("nan"))
    table = packing._block_table
    _check_memory(packing, "the orthoplex geometry pass", d, dense=table is None)
    coords = (_table_coordinates(table, space) if table is not None else
              np.stack([embed(p.matrix, space, tol=tol).coords for p in packing.elements]))
    ok, pairs, worst = _orthoplex_pattern(coords @ coords.T, tol)
    if not ok:
        return OrthoplexReport(False, "embedded vectors do not form an orthoplex",
                               n, d, pairs, worst)
    i, j = np.array(pairs).T
    ri, rj = packing.ranks[i], packing.ranks[j]
    radii = np.sqrt(ri * (m - ri) * rj * (m - rj)) / m  # the two sphere radii's product
    tr = np.einsum("ij,ij->i", coords[i], coords[j]) * radii + ri * rj / m
    bad = np.flatnonzero((tr > tol.eps_abs) | (ri + rj != m))
    if bad.size:
        return OrthoplexReport(False, f"antipodal pair ({i[bad[0]]},{j[bad[0]]}) is not a "
                                      f"complementary subspace pair", n, d, pairs, worst)
    return OrthoplexReport(True, None, n, d, pairs, worst)


def _table_coordinates(table: _BlockTable, space) -> np.ndarray:
    """The n x d coordinates ``embed`` reads off the table's elements, one product per
    basis a: U = ``family.bases[a]``, the d x m rows sqrt(2) Re(U[j] conj U[k]), then (over
    C) -sqrt(2) Im(U[j] conj U[k]) for the pairs (j, k), then helmert |U|^2, times the
    incidence columns of basis a's blocks, each divided by its sphere radius."""
    m, (j, k), labels, ids = space.m, space.pairs, table.labels, table.ids
    _sphere_rank(int(table.meet.max()), m)  # the largest block; none is empty
    radius = np.sqrt(sphere_radius_sq(m, np.diagonal(table.meet)))
    coords = np.empty((len(labels), space.d))
    for a, u in enumerate(table.family.bases):  # a basis that no element uses fills no row
        w = np.sqrt(2.0) * u[j] * u[k].conj()
        y = np.concatenate([w.real] + ([] if space.field == REAL else [-w.imag])
                           + [space.helmert @ (u * u.conj()).real])
        mine = np.flatnonzero(labels == a)
        coords[mine] = (y @ table.incidence[:, ids[mine]] / radius[ids[mine]]).T
    return coords


def _write_code(fp, packing: Packing, tol: Tolerance = DEFAULT_TOL) -> int:
    """``write_embedded_code`` of ``embed(p.matrix, space, i, tol)`` for each element p,
    in the same bytes; return the count. No phase family's (a, J) is embedded: for a >= 1
    its text is a gather of J's texts (``_phase_code``, held until J's last element) by the
    classes of basis a's pairs (``_phase_classes``), for a = 0 it is read off diag(1_J)."""
    space = build_space(packing.m, packing.field)
    table = packing._block_table
    if table is None or table.family.phases is None:
        return write_embedded_code(fp, space, (embed(p.matrix, space, i, tol)
                                               for i, p in enumerate(packing.elements)))
    return _write_texts(fp, space.d, _phase_texts(table, space))


def _phase_texts(table: _BlockTable, space):
    """The text of each element of a phase family's block table, in order."""
    family, ids, (p, _), q = table.family, table.ids.tolist(), table.family.phases, space.m
    last = {b: i for i, b in enumerate(ids)}  # each block's last element
    codes, basis, sep = {}, None, _SEPARATOR.encode()
    for i, (a, b) in enumerate(zip(table.labels.tolist(), ids)):
        block = table.blocks[b]
        if a == 0:  # A = diag(1_J) - l/q, exact zeros off the diagonal, as embed reads it
            l, zeros = _sphere_rank(len(block), q), np.zeros(len(space.pairs[0]), complex)
            coords = _coordinates(zeros, zeros, (table.incidence[:, b] - l / q).astype(complex),
                                  space, l)
            yield _vector_text(_SEPARATOR.join(map(float.__repr__, coords.tolist())), l)
        else:
            if a != basis:  # where _phase_code holds each coordinate of basis a
                basis, pairs = a, _phase_classes(family, a)[space.pairs]
                index = np.concatenate([pairs, p * q + pairs, 2 * p * q + np.arange(q - 1)])
            if b not in codes:
                codes[b] = _phase_code(family, block, space)
            yield _vector_text(sep.join(codes[b][index].tolist()).decode(), len(block))
        if last[b] == i:
            codes.pop(b, None)


def _phase_code(family: MubFamily, block: tuple[int, ...], space) -> np.ndarray:
    """The texts, in a fixed-width bytes array, of the phase elements' coordinates on
    ``block``: for each class u = t q + c, the real and then the imaginary pair coordinate
    ``embed`` reads off an entry of class u and its mirror (-t, -c), then the m - 1 Helmert
    coordinates of the diagonal l/q. A class and its mirror have pair coordinates of
    bit-equal magnitude (IEEE sums commute, x - y = -(y - x)), so each text is its own
    sign and the ``float.__repr__`` of the first one's magnitude."""
    (p, _), q, l = family.phases, family.m, _sphere_rank(len(block), family.m)
    entries, pq = _phase_entries(family, block), p * q
    mirror = (((-np.arange(p)) % p * q)[:, None] + _differences(q)[0]).ravel()  # -t, 0 - c
    coords = _coordinates(entries, entries[mirror], np.full(q, entries[0] - l / q), space, l)
    first = np.minimum(np.arange(pq), mirror)  # the coordinate of equal magnitude that comes first
    first = np.concatenate([first, pq + first, 2 * pq + np.arange(q - 1)])
    own = first == np.arange(len(first))
    texts = np.array(list(map(float.__repr__, np.abs(coords[own]).tolist())),
                     dtype="S")[(np.cumsum(own) - 1)[first]]
    return np.where(np.signbit(coords), np.char.add(b"-", texts), texts)


def span_of_achievers(packing: Packing, report: CoherenceReport,
                      certificate: Certificate | None = None,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[int, bool]:
    """Dimension of the span of all subspaces attaining the packing constant.

    The achievers' projections sum to a positive semidefinite matrix whose
    range is their span, so the dimension returned is the numerical rank of
    that sum (``matrix_rank``: the number of its singular values above
    ``eps_abs`` times its largest column norm). On a block table whose
    achievers on some one basis a cover every point no sum is formed: that
    basis's term U_a diag(c_a) U_a^*, every c_a[x] >= 1, is positive
    definite, so the span is F^m. For an optimally spread
    packing with n >= m this span must be all of F^m; on uncertified packings
    the result is informative only.
    """
    if packing.n < packing.m:
        raise ParameterError(f"need n >= m, got n={packing.n} < m={packing.m}")
    if certificate is not None and certificate.status is CertStatus.NOT_CERTIFIED:
        raise ParameterError("packing is not certified as optimally spread")
    if not report.achievers:
        return 0, False
    table, picked = packing._block_table, np.asarray(report.achievers, dtype=np.intp)
    if table is not None and np.any(np.all(_coverage(table, picked) > 0, axis=1)):
        return packing.m, True
    rank = matrix_rank(_summed_projections(packing, picked), tol)
    return rank, rank == packing.m


def extract_hadamard(packing: Packing, design: BlockDesign,
                     tol: Tolerance = DEFAULT_TOL) -> HadamardMatrix:
    """Recover the Hadamard matrix behind a constant-rank maximal orthoplectic
    packing built from a complement-closed block family.

    It needs coordinate projections of one MUB family (dense matrices name
    no block that could be checked), constant rank m/2, the design's blocks
    on the first element's basis and the ``certify`` status MAXIMAL_ORTHOPLEX;
    each failure raises StructuralError, and certify's HypothesisError passes
    through. No coordinates are formed. The rows are 2 N^T - 1, N the
    incidence of ``complementary_halves(design)``, then all +1; the result is
    checked in exact integers, and failure raises ConsistencyError.
    """
    table = packing._block_table
    if table is None:
        raise StructuralError("Hadamard extraction needs a packing of coordinate "
                              "projections of one MUB family")
    m = packing.m
    ranks = set(int(r) for r in packing.ranks)
    if len(ranks) != 1 or m % 2 != 0 or ranks != {m // 2}:
        raise StructuralError(
            f"need constant rank m/2 = {m // 2 if m % 2 == 0 else m / 2}, got ranks {sorted(ranks)}")
    if design.m != m:
        raise StructuralError(f"design over {design.m} points does not match m={m}")
    if design.b != 2 * (m - 1):
        raise StructuralError(f"need 2(m-1) = {2 * (m - 1)} blocks, got {design.b}")
    basis = table.labels[0]
    if set(design.blocks) != {table.blocks[i] for i in table.ids[table.labels == basis].tolist()}:
        raise StructuralError(f"the design's blocks are not the packing's blocks on basis {basis}")
    halves = complementary_halves(design)  # raises StructuralError if not closed
    status = certify(packing, tol).status
    if status is not CertStatus.MAXIMAL_ORTHOPLEX:
        raise StructuralError(f"packing is not a maximal orthoplex: certified {status.value}")
    h = np.vstack([2 * halves.incidence.T - 1, np.ones(m)]).astype(np.int64)
    try:
        return HadamardMatrix(h)
    except ParameterError as exc:  # cannot happen for a certified orthoplex
        raise ConsistencyError(f"extracted matrix is not Hadamard: {exc}") from exc


def packing_to_json(packing: Packing) -> dict:
    """The version-3 packing JSON. A packing of one MUB family is its block
    table: the family (``mubs_to_json``), the table's ``"blocks"`` in its
    order, and one ``[basis, block id]`` pair per element; any other has
    ``"family": null`` and one dense matrix per element."""
    table, hyp = packing._block_table, packing.hypotheses
    obj = {"version": 3, "m": packing.m, "field": packing.field, "mode": packing.mode,
           "hypotheses": {"ok": hyp.ok, "failures": list(hyp.failures),
                          "candidate_maximal": hyp.candidate_maximal}}
    if table is None:
        return dict(obj, family=None, elements=[matrix_to_json(p.matrix, packing.field)
                                                for p in packing.elements])
    return dict(obj, family=mubs_to_json(table.family), blocks=[list(b) for b in table.blocks],
                elements=np.column_stack((table.labels, table.ids)).tolist())


def _each(items: list, read: Callable, what: str) -> list:
    """``read`` of each item; a ParameterError is prefixed with ``what`` and the item's index."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(read(item))
        except ParameterError as exc:
            raise ParameterError(f"{what} {i}: {exc}") from exc
    return out


def _read_table(family: MubFamily, raw_blocks, pairs: list) -> _BlockTable:
    """The block table of version-3 ``"blocks"`` and ``"elements"``: each block
    checked once, as ``coordinate_projection`` checks it, none repeated and
    each used; the pairs checked as a whole, at least one, each two JSON
    integers (no bools or floats), a basis in 0..k-1 and a block id in 0..B-1."""
    blocks = _each(as_type(raw_blocks, list, "blocks"),
                   lambda b: check_block(as_type(b, list, "block"), family.m), "block")
    if len(set(blocks)) < len(blocks):  # find the first repeat, on this path only
        i = next(i for i, b in enumerate(blocks) if b in blocks[:i])
        raise ParameterError(f"block {i} repeats block {blocks.index(blocks[i])}")
    if not pairs or not all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int
                            for p in pairs):
        raise ParameterError("elements must be one or more [basis, block id] pairs of integers")
    pairs = np.array(pairs, dtype=object)  # Python ints: a huge one cannot overflow
    bad = ((pairs < 0) | (pairs >= [family.k, len(blocks)])).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ParameterError(f"element {i}: {pairs[i].tolist()} is not a basis in "
                             f"0..{family.k - 1} and a block id in 0..{len(blocks) - 1}")
    labels, ids = pairs.astype(np.int64).T
    unused = np.flatnonzero(np.bincount(ids, minlength=len(blocks)) == 0)
    if unused.size:
        raise ParameterError(f"block {unused[0]} is used by no element")
    return _table(family, labels, ids, blocks, _incidence(family.m, blocks))


def packing_from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> Packing:
    """Read ``packing_to_json`` output, version 3 only: another version or a
    missing key raises ParameterError naming it. A packing with a family is
    made as its block table (``_read_table``) and takes the exact pass; with
    ``"family": null`` the elements are dense matrices, for the numeric pass."""
    obj = as_type(obj, dict, "packing")
    version = obj.get("version", 1)  # a version-1 file has no "version" key
    if as_int(version, "packing version") != 3:
        raise ParameterError(f"packing version {version} is not read, only version 3 "
                             f"(make the file again with grasspack build)")
    hyp = as_type(obj["hypotheses"], dict, "hypotheses")
    failures = as_type(hyp["failures"], list, "failures")
    record = HypothesisRecord(
        as_type(hyp["ok"], bool, "hypotheses.ok"),
        tuple(as_type(f, str, "a hypothesis failure") for f in failures),
        as_type(hyp["candidate_maximal"], bool, "hypotheses.candidate_maximal"))
    m, field = as_int(obj["m"], "m"), check_field(obj["field"])
    mode, items = as_type(obj["mode"], str, "mode"), as_type(obj["elements"], list, "elements")
    if obj["family"] is not None:
        table = _read_table(mubs_from_json(obj["family"]), obj["blocks"], items)
        return _table_packing(m, field, table, record, mode)
    elements = _each(items, lambda e: Projection(matrix_from_json(e), tol=tol), "element")
    return Packing(m, field, tuple(elements), record, mode=mode)


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
