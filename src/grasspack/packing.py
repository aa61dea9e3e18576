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
from dataclasses import dataclass, field as dataclass_field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

import numpy as np

from .designs import (BlockDesign, HadamardMatrix, _incidence, _supports, check_block,
                      complement_design, complementary_halves, is_cohesive)
from .embedding import (_SEPARATOR, _coordinates, _coords_text, _projection_coordinates,
                        _sphere_rank, _vector_text, _write_texts, build_space, embedding_dim,
                        sphere_radius_sq)
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
    distinct blocks have the m x B 0/1 ``incidence`` N and the int64 ``sizes``,
    and ``known`` pairs a basis with the intersections |J & K| of the blocks it
    holds, in id order, as a builder read them off its designs' N^T N. What the
    exact path reads is kept once formed, none of it depending on a tolerance:
    the ``patterns``, one ``squares`` entry per pattern (so a B x B array is
    kept only when one pattern holds every block), ``exact``
    (``_exact_values``), the tightness verdict, the MUB deviation bound
    ``mub_dev`` and a float family's ``tight_dev``. All arrays are read-only.
    The numeric path's Gram is never kept."""

    family: MubFamily
    labels: np.ndarray
    ids: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    incidence: np.ndarray
    sizes: np.ndarray
    known: tuple[tuple[int, np.ndarray], ...] = ()

    @cached_property
    def patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """(each basis's pattern id, the block-count row of each pattern), read-only:
        bases that hold each block equally often share a pattern, so no two rows are
        equal, and an unused basis holds the zero row. The rows of block counts are
        sorted as bytes and split where they change, with no pass over the bases in Python."""
        nb = len(self.sizes)
        counts = np.bincount(self.labels * nb + self.ids,
                             minlength=self.family.k * nb).reshape(-1, nb)
        order = counts.view(np.dtype((np.void, counts.itemsize * nb))).ravel().argsort()
        ranked = counts[order]
        new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
        pattern = np.empty_like(order)
        pattern[order] = new.cumsum() - 1
        return lock(pattern), lock(ranked[new])

    @cached_property
    def squares(self) -> tuple[np.ndarray, ...]:
        """Each pattern's int64 intersections |J & K| of the blocks its row holds, in id
        order, read-only: a ``known`` square where one of its bases has one, else formed
        from the pattern's incidence columns."""
        pattern, rows = self.patterns
        squares = {int(pattern[a]): square for a, square in self.known}
        for p, row in enumerate(rows):
            if p not in squares:
                cols = self.incidence[:, row.nonzero()[0]]
                squares[p] = lock((cols.T @ cols).astype(np.int64))
        return tuple(squares[p] for p in range(len(rows)))

    @cached_property
    def exact(self) -> _ExactValues:
        return _exact_values(self)

    @cached_property
    def evenly_covered(self) -> bool:  # every basis covers each point equally often
        cover = self.patterns[1] @ self.incidence.T
        return bool(np.all(cover == cover[:, :1]))

    @cached_property
    def mub_dev(self) -> float:  # bounds max |W - E| over the bases in use (_coherence_pass)
        if self.family.exact_verdict:  # the ideal family is the one certified
            return 0.0
        used = np.flatnonzero(np.bincount(self.labels))
        dev = self.family.deviations[np.ix_(used, used)]
        delta = float(np.diagonal(dev).max())
        return max(float(dev.max()), 2 * delta + delta * delta)  # delta <= 2 delta + delta^2

    @cached_property
    def tight_dev(self) -> float:  # max |F - cI|, c = (sum of ranks) / m (check_tightness)
        m = self.family.m
        constant = int(self.sizes[self.ids].sum()) / m
        return float(np.abs(_summed_projections(self) - constant * np.eye(m)).max())


def _table(family: MubFamily, labels, ids, blocks, inc, known=()) -> _BlockTable:
    """The block table of checked, distinct ``blocks`` with incidence ``inc`` and a
    builder's read-only ``known`` squares."""
    inc = lock(inc)
    return _BlockTable(family, lock(labels), lock(ids), tuple(blocks), inc,
                       lock(inc.sum(axis=0).astype(np.int64)), tuple(known))


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
        """Each element's rank, read-only: sizes[ids] for a block table."""
        t = self._block_table
        return lock(t.sizes[t.ids] if t is not None else
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
        family = self.elements[0].family if self.elements else None
        if family is None or any(p.family is not family for p in self.elements):
            return None
        distinct: dict = {}
        ids = [distinct.setdefault(p.block, len(distinct)) for p in self.elements]
        labels = np.array([p.basis_index for p in self.elements], dtype=np.int64)
        return _table(family, labels, np.array(ids, dtype=np.int64), list(distinct),
                      _incidence(family.m, list(distinct)))


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
    basis by basis, for (bases, blocks, incidence, meet) in ``runs`` in turn, made as
    its block table: one label and block id per element, by np.repeat and np.tile of
    the run's distinct block ids; a block's column of N is its first use's in
    ``incidence``, and the square of the run's bases is ``meet`` (the blocks'
    intersections) at each distinct block's first place in the run."""
    distinct: dict = {}
    labels, ids, columns, known = [], [], [], []
    for bases, blocks, inc, meet in runs:
        if len(bases):
            seen = len(distinct)
            run = np.array([distinct.setdefault(b, len(distinct)) for b in blocks], dtype=np.int64)
            top = np.maximum.accumulate(np.concatenate(([seen - 1], run)))  # rises at a first use
            new = top[1:] > top[:-1]
            columns.append(inc[:, new])
            labels.append(np.repeat(np.array(bases, dtype=np.int64), len(blocks)))
            ids.append(np.tile(run, len(bases)))
            if not new.all():  # a block used before: the run's blocks in id order
                first = np.unique(run, return_index=True)[1]
                meet = lock(meet.take(first, 0).take(first, 1))
            known.append((bases[0], meet))
    if not labels:
        return Packing(family.m, family.field, (), record, mode)
    table = _table(family, np.concatenate(labels), np.concatenate(ids), list(distinct),
                   np.hstack(columns), known)
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
    return _from_runs(mubs, [(cls, dsgn.blocks, dsgn.incidence, dsgn.intersections)
                             for dsgn, cls in zip(designs, classes)], record, "mixed")


def build_orthoplex_packing(mubs: MubFamily, halves: BlockDesign) -> Packing:
    """Coordinate projections of S and its blockwise complement S^c in every
    basis, for a block family S whose distinct blocks all meet in exactly
    l^2/m points.

    The intersection condition m |J & J'| = l^2 is checked exactly on
    ``halves.intersections`` M; its first violation raises HypothesisError. The
    blocks then meet as |J & K^c| = l - M and |J^c & K^c| = m - 2l + M. When
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
    b = halves.b
    square = np.empty((2 * b, 2 * b), dtype=np.int64)
    square[:b, :b], square[b:, b:] = meet, m - 2 * l + meet
    square[:b, b:] = square[b:, :b] = l - meet
    return _from_runs(mubs, [(range(mubs.k), halves.blocks + rest.blocks,
                              np.hstack((halves.incidence, rest.incidence)), lock(square))],
                      record, "orthoplex")


@dataclass(frozen=True)
class PairClassSummary:
    count: int
    max_inner: float


@dataclass(frozen=True)
class CoherenceReport:
    """Largest pairwise embedded inner product and where it is attained.

    ``argmax_pair`` is the first pair (i, j), i < j, in row-major order of the
    Gram whose value is ``mu_embedded``: exactly on the exact path, whose report
    is the block table's alone, the same at every ``eps_abs``, and within
    ``eps_abs`` on the numeric path, so rounding noise does not pick among exact
    ties. ``achievers`` are the elements of such pairs, in order, as a read-only
    int64 index array (``_indices``) that iterates as Python ints. Reports are
    equal when their fields are, the achievers compared by value.

    ``method`` is ``"exact"`` when the values were read off block
    intersections over a family of MUBs and ``"numeric"`` when they come from
    the float Gram of ``embed``'s vectors; ``mub_dev`` bounds the deviation of
    the packing's bases from a MUB family: 0.0 when the family's exponent
    table proves it a set of MUBs (``MubFamily.exact_verdict``), otherwise as
    read off the family's ``deviations`` (None unless every element is a
    coordinate projection of one family).
    """

    mu_embedded: float
    argmax_pair: tuple[int, int]
    achievers: np.ndarray
    pair_classes: dict[str, PairClassSummary]
    n: int
    mu_raw: float | None = None  # max tr(P_i P_j), constant-rank packings only
    method: str = "numeric"
    mub_dev: float | None = None

    def __eq__(self, other):
        if type(other) is not CoherenceReport:
            return NotImplemented
        mine, theirs = dict(vars(self)), dict(vars(other))
        return np.array_equal(mine.pop("achievers"), theirs.pop("achievers")) and mine == theirs


class _Indices(np.ndarray):
    """An index array that iterates as Python ints, so that ``list(report.achievers)``
    is JSON as it stands, and reads as a plain array."""

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self) -> str:
        return repr(self.view(np.ndarray))


def _indices(picked: np.ndarray) -> np.ndarray:
    """The read-only int64 achievers array of the indices ``picked``, with no copy."""
    out = picked.astype(np.int64, copy=False).view(_Indices)
    out.setflags(write=False)
    return out


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(packing: Packing, task: str, d: int) -> None:
    """Raise ParameterError before ``task`` allocates more than the machine has: the numeric
    and the geometry pass each hold at most 8 n d + 9 n^2 bytes, n x d float coordinates in
    R^``d``, their n x n float Gram and one n x n boolean mask, and arrays of length n."""
    n, m = packing.n, packing.m
    need = 8 * n * d + 9 * n * n
    have = _physical_memory()
    if need > have:
        raise ParameterError(
            f"{task} for n={n}, m={m} needs at least {need} bytes, "
            f"more than the {have} bytes of physical memory")


def _embedded_coordinates(packing: Packing, space) -> np.ndarray:
    """The n x d array of each element's ``_projection_coordinates`` at the rank it was
    checked with, bit-equal to ``embed(p.matrix)``."""
    coords = np.empty((packing.n, space.d))
    for i, (p, rank) in enumerate(zip(packing.elements, packing.ranks.tolist())):
        coords[i] = _projection_coordinates(p.matrix, space, rank)
    return coords


def _embedded_gram(packing: Packing) -> np.ndarray:
    """The n x n Gram of the embedded coordinates, sized against memory first; the
    coordinates are freed once it is formed."""
    space = build_space(packing.m, packing.field)
    _check_memory(packing, "the numeric coherence pass", space.d)
    coords = _embedded_coordinates(packing, space)
    return coords @ coords.T


def _report_from_gram(packing: Packing, e: np.ndarray, tol: Tolerance,
                      mub_dev: float | None) -> CoherenceReport:
    """The report of the Gram from ``_embedded_gram``, whose diagonal it sets to -inf in
    place; it holds arrays of length n only, and reads each pair from both its rows."""
    n, m, ranks = packing.n, packing.m, packing.ranks
    np.fill_diagonal(e, -np.inf)
    peaks = e.max(axis=1)
    mu = float(peaks.max())
    achievers = np.flatnonzero(peaks >= mu - tol.eps_abs)
    i = int(achievers[0])  # the first row, and its first column, within eps_abs of mu
    j = int(np.argmax(e[i] >= mu - tol.eps_abs))

    table = packing._block_table  # only a block table's elements have basis classes
    labels = table.labels if table is not None else np.full(n, -1)
    top, count = np.full(len(_PAIR_CLASSES), -np.inf), np.zeros(len(_PAIR_CLASSES), np.int64)
    cell = (labels + 1) * m + ranks  # one value >= 1 per (basis, rank): rank 0 is refused
    starts = np.flatnonzero(np.diff(cell, prepend=0)).tolist()  # of runs of equal cells
    for s, t in zip(starts, starts[1:] + [n]):  # a run sees one class per column
        cls = _pair_class(labels[s], ranks[s], labels, ranks)
        count += (t - s) * np.bincount(cls, minlength=len(_PAIR_CLASSES))
        count[cls[s]] -= t - s  # no element pairs with itself
        np.maximum.at(top, cls, e[s:t].max(axis=0))
    pair_classes = {name: PairClassSummary(int(count[c]) // 2, float(top[c]))
                    for c, name in enumerate(_PAIR_CLASSES) if count[c]}

    l = int(ranks[0])  # with one rank, tr(P_i P_j) = l(m-l)/m <v_i, v_j> + l^2/m
    mu_raw = sphere_radius_sq(m, l) * mu + l * l / m if packing.mixture == 1 else None
    return CoherenceReport(mu, (min(i, j), max(i, j)), _indices(achievers),
                           pair_classes, n, mu_raw, "numeric", mub_dev)


_PAIR_CLASSES = tuple(f"{b}/{r}" for b in ("same_basis", "cross_basis", "unknown_basis")
                         for r in ("same_rank", "cross_rank"))


def _pair_class(label_i, rank_i, label_j, rank_j) -> np.ndarray:
    """Index into _PAIR_CLASSES of each pair (broadcast), by basis label (the
    -1 of an element outside a block table makes the pair "unknown_basis") and
    rank, as int8 so that an n x n class array stays small."""
    basis_class = np.where((label_i >= 0) & (label_j >= 0), label_i != label_j, np.int8(2))
    return 2 * basis_class + (rank_i != rank_j)


@dataclass(frozen=True)
class _ExactValues:
    """The exact pass's report, its mu as ``top`` = num|num|/den, a Fraction (a reduced
    pair of Python ints), and whether every same-basis value is zero or -1
    (complementary blocks), as in an orthoplex Gram."""

    report: CoherenceReport
    top: Fraction
    flat: bool


def _exact_values(table: _BlockTable) -> _ExactValues:
    """The one exact report of ``table`` and its top value, formed once as ``table.exact``.

    Over MUBs tr(P_i P_j) is |J & K| for two blocks of one basis and
    |J||K|/m across bases, so every cross-basis embedded inner product is 0
    and a same-basis pair has num / sqrt(den) with num = m|J & K| - |J||K|
    and den = |J|(m-|J|)|K|(m-|K|). Bases that hold each block equally often
    share a pattern (``table.patterns``), whose pairs are its square of
    intersections (``table.squares``). Each square is coded, each entry by the
    places of |J| and |K| among the distinct block sizes and |J & K|; its
    diagonal is a pair only for a block held twice. The few codes present are
    ordered exactly by num|num|/den as Fractions, and only the reported numbers
    are rounded to floats. A block's peak in a pattern is its row maximum,
    which each element of the pattern's bases reads, and whose rank is mu's
    is an achiever; pair classes are counted, in Python ints, off each
    pattern's rank histogram times the bases that carry it.
    """
    labels, ids, sizes = table.labels, table.ids, table.sizes
    m, n, nb = table.family.m, len(labels), len(sizes)
    pattern, rows = table.patterns
    size_of = sorted(set(sizes.tolist()))
    kinds, span = len(size_of), m + 1
    cells = kinds * kinds * span  # codes (place |J| * kinds + place |K|) * span + |J & K|
    place = np.array(size_of).searchsorted(sizes)
    present = np.zeros(cells + 1, dtype=bool)
    subs, hists, twice = [], [], rows.max() > 1  # a block held twice on a basis pairs with itself
    for row, square in zip(rows, table.squares):
        s = row.nonzero()[0]
        held, at = row.take(s), place.take(s)
        sub = square + ((at * (kinds * span))[:, None] + at * span)
        sub.ravel()[::len(s) + 1][held < 2 if twice else ...] = cells  # no pair: past every code
        present[sub] = True
        subs.append((s, sub))
        hists.append(np.bincount(at.repeat(held), minlength=kinds).tolist())  # ranks
    found = present[:cells].nonzero()[0]
    carriers = np.bincount(pattern).tolist()
    crossed = sum(w for w, h in zip(carriers, hists) if any(h)) > 1  # bases in use

    as_float = {Fraction(0): 0.0}  # exact value num|num|/den -> num / sqrt(den)
    exact, commons, tied, flat = [], [], [], True
    for c in found.tolist():
        pair, common = divmod(c, span)
        a, b = size_of[pair // kinds], size_of[pair % kinds]
        nu, den = m * common - a * b, a * (m - a) * b * (m - b)
        exact.append(Fraction(nu * abs(nu), den))
        as_float.setdefault(exact[-1], nu / math.sqrt(den))
        commons.append(common)
        tied.append(a == b)
        flat = flat and (nu == 0 or (common == 0 and a + b == m))  # zero, or complementary
    ordered = sorted(as_float)
    rank_of = {v: r for r, v in enumerate(ordered)}
    floats = [as_float[v] for v in ordered]
    keys = [rank_of[v] for v in exact]
    zero = rank_of[0] if crossed else -1  # cross-basis pairs, if any
    key_of = np.full(cells + 1, -1)
    key_of[found] = keys

    peak, floor = np.full((len(rows), nb), -1), np.maximum(key_of, zero)
    for p, (s, sub) in enumerate(subs):
        peak[p, s] = floor.take(sub).max(axis=1, initial=-1)  # as ranks
    top = int(peak.max())
    achievers = np.flatnonzero((peak == top).ravel()[pattern[labels] * nb + ids])
    i = int(achievers[0])  # the first row of the Gram that attains mu
    s, sub = subs[pattern[labels[i]]]
    hit = np.zeros(nb, dtype=bool)  # the blocks i meets at mu on its basis
    hit[s] = key_of[sub[s.searchsorted(ids[i])]] == top
    hit = hit[ids]
    hit[i] = False
    same = labels == labels[i]
    j = int((hit & same if top != zero else hit | ~same).argmax())

    # pairs per class, from each pattern's rank histogram and the bases carrying it
    within, totals = [0, 0], [0] * kinds
    for w, h in zip(carriers, hists):
        sq, length = sum(x * x for x in h), sum(h)
        within[0] += w * (sq - length) // 2
        within[1] += w * (length * length - sq) // 2
        totals = [t + w * x for t, x in zip(totals, h)]
    total = sum(t * t for t in totals)  # sum over sizes of (elements of that size)^2
    count = [*within, (total - n) // 2 - within[0], (n * n - total) // 2 - within[1], 0, 0]
    tops = [-1, -1, zero, zero]  # every cross-basis value is zero
    for k, t in zip(keys, tied):
        tops[not t] = max(tops[not t], k)
    pair_classes = {name: PairClassSummary(count[c], floats[tops[c]])
                    for c, name in enumerate(_PAIR_CLASSES) if count[c]}

    mu_raw = None
    if kinds == 1:  # tr is |J & K| within a basis and l^2/m across
        l2, c = size_of[0] ** 2, max(commons, default=0)
        mu_raw = l2 / m if crossed and l2 > c * m else float(c)
    report = CoherenceReport(floats[top], (i, j), _indices(achievers), pair_classes, n, mu_raw,
                             "exact", table.mub_dev)
    return _ExactValues(report, ordered[top], flat)


def _exact_pass(packing: Packing) -> tuple[CoherenceReport, bool, bool, Callable]:
    """The table's ``exact`` report, each call with its own ``pair_classes``, and its
    verdicts, decided exactly on mu = num / sqrt(den) as ``top`` = num|num|/den: the
    orthoplex regime num <= 0, the simplex bound num|num| (n-1)^2 = -den, and the
    orthoplex check ``certify`` runs when n = 2d. That check is decided on blocks:
    every same-basis value zero or complementary leaves no block held twice, and
    a block has at most one complement, so each element has exactly one antipode
    (the complementary block in its basis) when each row of each square has a zero."""
    table = packing._block_table
    v = table.exact

    def antipodal_pairs() -> int | None:
        if v.flat and all(np.count_nonzero(sq == 0) == len(sq) for sq in table.squares):
            return v.report.n // 2
        return None

    return (replace(v.report, pair_classes=dict(v.report.pair_classes)), v.top <= 0,
            v.top * (v.report.n - 1) ** 2 == -1, antipodal_pairs)


def _coherence_pass(packing: Packing,
                    tol: Tolerance) -> tuple[CoherenceReport, bool, bool, Callable]:
    """The only builder of a CoherenceReport, returned with the pass's own
    verdicts for ``certify``, in integers on the exact pass and within ``eps_abs``
    on the numeric one: mu <= 0, mu = -1/(n-1), and the orthoplex check run when
    n = 2d, a callable giving the number of antipodal pairs when the inner products
    form an orthoplex Gram (a perfect antipodal matching, zeros elsewhere), else None.

    A packing of coordinate projections of one ``MubFamily`` takes the exact
    pass, its ``mub_dev`` 0.0, when the family's ``exact_verdict`` is true: its
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
    ``eps_abs``. Every other packing takes the numeric pass: the float Gram of
    the elements' embedded coordinates, the vectors ``embed`` defines, read at
    the ranks the elements were checked with (no projection check runs again).
    """
    if packing.n < 2:
        raise ParameterError("coherence and certification need at least 2 elements")
    m, ranks, table = packing.m, packing.ranks, packing._block_table
    top = int(ranks.max())
    if ranks.min() == 0 or top == m:  # two reductions: no array of length n
        raise DegenerateRankError("rank-0 or full-rank element cannot be embedded")
    mub_dev = None if table is None else table.mub_dev
    if mub_dev is not None and mub_dev * m * top / (m - top) <= tol.eps_abs:
        return _exact_pass(packing)
    e = _embedded_gram(packing)

    def antipodal_pairs() -> int | None:  # after the report is built, so e is scratch
        ok, pairs, _ = _orthoplex_pattern(e, tol)
        return len(pairs) if ok else None

    rep = _report_from_gram(packing, e, tol, mub_dev)
    mu, eps = rep.mu_embedded, tol.eps_abs
    return rep, mu <= eps, abs(mu + 1.0 / (packing.n - 1)) <= eps, antipodal_pairs


def coherence(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> CoherenceReport:
    """All n(n-1)/2 pairwise embedded inner products; reports the maximum,
    the elements attaining it, and a per-pair-class summary.

    A packing of coordinate projections of one MUB family (the builders'
    output and its spatial complement) is read exactly off its block
    intersections (``report.method == "exact"``), with no n x n array, also
    when read back from its JSON, which is its block table. Any other packing,
    such as one of dense matrices or one built on bases that are not MUBs,
    takes the Gram of its embedded coordinates (``"numeric"``).
    ``certify`` keeps the same report as ``Certificate.coherence``.
    The exact report (achievers the exact ties of mu) depends on no tolerance,
    is formed once per packing and is shared with ``certify``, ``check_tightness``
    and ``span_of_achievers``. The numeric path keeps nothing, its Gram included.
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
    scratch: its diagonal and partner entries are overwritten with 0. Besides
    ``e`` it holds one n x n boolean mask and arrays of length n: exactly one
    antipode per row is n antipodes in all and one at each row's argmax, and
    the worst deviation is never a negative zero."""
    n = e.shape[0]
    antipodal = e <= (-1.0 + tol.eps_abs)
    np.fill_diagonal(antipodal, False)
    partner = np.argmax(antipodal, axis=1)
    if (np.count_nonzero(antipodal) != n or not antipodal[np.arange(n), partner].all()
            or not np.array_equal(partner[partner], np.arange(n))):
        return False, (), float("nan")
    pairs = tuple((int(i), int(partner[i])) for i in range(n) if i < partner[i])
    np.fill_diagonal(e, 0.0)
    e[np.arange(n), partner] = 0.0
    worst = max(0.0, float(e.max()), -float(e.min()))  # max(0.0, -0.0) is 0.0
    return worst <= tol.eps_abs, pairs, worst


def certify(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Apply the certification ladder.

    With n > d+1 and maximum embedded inner product <= 0 the orthoplex-regime
    bound is met, so the packing is optimally spread; if moreover n = 2d and
    the inner products split into d antipodal pairs with zeros elsewhere,
    the packing is a maximal orthoplectic fusion frame. With the maximum
    equal to -1/(n-1) the simplex bound is met. Anything else is reported
    NotCertified: the ladder only ever proves optimality, never disproves
    it. Each comparison is the coherence pass's (``_coherence_pass``): in
    integers on the exact path, whose antipodes are complementary blocks of one
    basis, within ``eps_abs`` on the numeric one. Its report is ``.coherence``.
    """
    if not packing.hypotheses.ok:
        raise HypothesisError(
            "packing is tagged with hypothesis failures: "
            + "; ".join(packing.hypotheses.failures))
    rep, orthoplex_regime, simplex, antipodal_pairs = _coherence_pass(packing, tol)
    n = packing.n
    d = embedding_dim(packing.m, packing.field)
    tight, constant = check_tightness(packing, tol)

    details: dict = {"embedded_simplex_bound": -1.0 / (n - 1)}
    if rep.mu_raw is not None:
        l = int(packing.ranks[0])
        m = packing.m
        details["raw_coherence"] = rep.mu_raw
        details["raw_simplex_bound"] = (n * l * l - m * l) / (m * (n - 1))
        details["raw_orthoplex_bound"] = l * l / m

    status = CertStatus.NOT_CERTIFIED
    if n > d + 1 and orthoplex_regime:
        status = CertStatus.OPTIMAL_ORTHOPLEX
        details["embedded_orthoplex_bound"] = 0.0
        if n == 2 * d:
            pairs = antipodal_pairs()
            if pairs is not None:
                status = CertStatus.MAXIMAL_ORTHOPLEX
                details["antipodal_pairs"] = pairs
    elif simplex:
        status = CertStatus.OPTIMAL_SIMPLEX

    return Certificate(status, n, d, rep.mu_embedded, tight, constant, details, rep)


def check_tightness(packing: Packing, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the summed projections equal a multiple of the identity; the
    multiple tr(F)/m = (sum of ranks)/m is returned either way.

    Under a true ``exact_verdict`` it is tight exactly when every basis a
    covers each point equally often: with c_a its coverage, c_a = mean 1 + v_a,
    F = sum_a U_a diag(c_a) U_a^* is cI plus sum_a T_a, T_a = U_a diag(v_a) U_a^*.
    Over MUBs tr(T_a T_b) = (sum v_a)(sum v_b) / m = 0 for a != b, so the
    Hilbert-Schmidt norm of sum_a T_a squared is sum_a |v_a|^2, 0 iff every
    v_a is. Otherwise F, summed in floats, must be within ``eps_abs`` of cI; a
    block table keeps max |F - cI| as ``tight_dev``, so F is summed once per packing.
    """
    m = packing.m
    constant = int(packing.ranks.sum()) / m
    table = packing._block_table
    if table is not None and table.family.exact_verdict:
        return table.evenly_covered, constant
    dev = table.tight_dev if table is not None else float(
        np.abs(sum(p.matrix for p in packing.elements) - constant * np.eye(m)).max())
    return dev <= tol.eps_abs, constant


def _summed_projections(table: _BlockTable, picked=slice(None)) -> np.ndarray:
    """The sum of the table's projections ``picked`` (an index array or a slice)
    selects: U_a diag(cov_a) U_a^* summed over the bases a in use, where cov_a[x]
    counts the picked blocks of basis a that contain point x (``_coverage``); no
    element matrix is formed and no MUB property is assumed.
    """
    cover = _coverage(table, picked)
    m = table.family.m
    f = np.zeros((m, m), dtype=np.complex128)
    for a in np.flatnonzero(cover.any(axis=1)):
        u = table.family.bases[a]
        f += (u * cover[a]) @ u.conj().T
    return f


def _coverage(table: _BlockTable, picked: slice | np.ndarray = slice(None)) -> np.ndarray:
    """The k x m float array whose row a counts, for each point, the blocks
    of basis a among the elements ``picked`` that contain it."""
    k, b = table.family.k, len(table.sizes)
    counts = np.bincount(table.labels[picked] * b + table.ids[picked], minlength=k * b)
    return counts.reshape(k, b) @ table.incidence.T


def spatial_complement(packing: Packing) -> Packing:
    """The packing of complementary projections I - P, order preserved.

    Every embedded vector flips sign, so all pairwise embedded inner products
    (and the packing constant) are preserved. A block table maps to the table
    of the complementary blocks, same labels and ids, with incidence 1 - N and
    intersections m - |J| - |K| + |J & K|, so complements keep the exact pass.
    Any other packing's elements map to the dense matrices I - P.
    """
    m, table = packing.m, packing._block_table
    if table is not None:
        if np.any(table.sizes >= m):
            raise DegenerateRankError("full-rank element has an empty complement")
        inc = lock(1.0 - table.incidence)
        known = tuple((a, lock(m - sq.diagonal()[:, None] - sq.diagonal() + sq))
                      for a, sq in table.known)  # the diagonal holds the sizes
        rests = _BlockTable(table.family, table.labels, table.ids, _supports(inc), inc,
                            lock(m - table.sizes), known)
        return _table_packing(m, packing.field, rests, packing.hypotheses, "complement")
    out = []
    for p in packing.elements:
        if p.rank >= m:
            raise DegenerateRankError("full-rank element has an empty complement")
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
    one product per basis (``_table_coordinates``; its family checked its bases), others the
    numeric pass's; the antipodal traces are read off their Gram's row minima at once:
    tr(P_i P_j) = <v_i, v_j> sqrt(r_i (m-r_i) r_j (m-r_j)) / m + r_i r_j / m."""
    space = build_space(packing.m, packing.field)
    m, d, n = packing.m, space.d, packing.n
    if n != 2 * d:
        return OrthoplexReport(False, f"n != 2d ({n} != {2 * d})", n, d, (), float("nan"))
    _check_memory(packing, "the orthoplex geometry pass", d)
    table = packing._block_table
    coords = (_table_coordinates(table, space) if table is not None else
              _embedded_coordinates(packing, space))
    e = coords @ coords.T
    del coords
    low = e.min(axis=1)  # where the pattern holds, <v_i, v_j> of i's antipode j
    ok, pairs, worst = _orthoplex_pattern(e, tol)
    if not ok:
        return OrthoplexReport(False, "embedded vectors do not form an orthoplex",
                               n, d, pairs, worst)
    i, j = np.array(pairs).T
    ri, rj = packing.ranks[i], packing.ranks[j]
    radii = np.sqrt(ri * (m - ri) * rj * (m - rj)) / m  # the two sphere radii's product
    tr = low[i] * radii + ri * rj / m
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
    _sphere_rank(int(table.sizes.max()), m)  # the largest block; none is empty
    radius = np.sqrt(sphere_radius_sq(m, table.sizes))
    coords = np.empty((len(labels), space.d))
    for a, u in enumerate(table.family.bases):  # a basis that no element uses fills no row
        w = np.sqrt(2.0) * u[j] * u[k].conj()
        y = np.concatenate([w.real] + ([] if space.field == REAL else [-w.imag])
                           + [space.helmert @ (u * u.conj()).real])
        mine = np.flatnonzero(labels == a)
        coords[mine] = (y @ table.incidence[:, ids[mine]] / radius[ids[mine]]).T
    return coords


def _write_code(fp, packing: Packing) -> int:
    """Write the embedded code of the packing's elements to the text stream ``fp``, one at a
    time; return the count. The bytes are those of ``json.dumps(embedded_code_to_json(space,
    [embed(p.matrix, space) for p in elements]), indent=2, sort_keys=True) + "\\n"``, each
    element read at the rank it was checked with. An element (a, J) of a phase family with
    a >= 1 is not embedded: its text is a gather of J's texts (``_phase_code``, held until
    J's last element) by the classes of basis a's pairs (``_phase_classes``). Every other
    element is formatted from ``_projection_coordinates``."""
    space, table = build_space(packing.m, packing.field), packing._block_table
    phased = table is not None and table.family.phases is not None

    def texts():
        last = {p.block: i for i, p in enumerate(packing.elements)}  # each block's last element
        codes, basis, sep = {}, None, _SEPARATOR.encode()
        for i, (p, rank) in enumerate(zip(packing.elements, packing.ranks.tolist())):
            a, block = p.basis_index, p.block
            if not phased or a == 0:  # a phase family's a = 0 is the matrix diag(1_J)
                coords = _projection_coordinates(p.matrix, space, rank)
                yield _vector_text(_coords_text(coords), rank)
            else:
                if a != basis:  # where _phase_code holds each coordinate of basis a
                    basis, pq = a, p.family.phases[0] * space.m
                    pairs = _phase_classes(p.family, a)[space.pairs]
                    index = np.concatenate([pairs, pq + pairs, 2 * pq + np.arange(space.m - 1)])
                if block not in codes:
                    codes[block] = _phase_code(p.family, block, space)
                yield _vector_text(sep.join(codes[block][index].tolist()).decode(), rank)
            if last[block] == i:
                codes.pop(block, None)

    return _write_texts(fp, space.d, texts())


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
    if not len(report.achievers):
        return 0, False
    table, picked = packing._block_table, np.asarray(report.achievers, dtype=np.intp)
    if table is not None and np.any(np.all(_coverage(table, picked) > 0, axis=1)):
        return packing.m, True
    rank = matrix_rank(_summed_projections(table, picked) if table is not None else
                       sum(packing.elements[i].matrix for i in picked.tolist()), tol)
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
