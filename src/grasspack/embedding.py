"""Isometric embedding of projections onto the unit sphere in the space of
traceless Hermitian (or symmetric) matrices.

A rank-l projection P maps to P - (l/m) I, which lies on a sphere of squared
radius l(m-l)/m; dividing by that radius and reading coordinates in a fixed
orthonormal traceless basis yields a unit vector in R^d with
d = m(m+1)/2 - 1 over R and d = m^2 - 1 over C. The inner product of two
embedded vectors is recoverable from traces alone:

    <v_P, v_Q> = sqrt(m^2 / (lp lq (m-lp)(m-lq))) (tr(PQ) - lp lq / m)

The exact coherence pass of ``packing`` reads that identity off block
intersections; its numeric pass and its orthoplex geometry pass take the
Gram of the coordinates this module forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateRankError, DimensionMismatchError, ParameterError
from .numerics import (COMPLEX, DEFAULT_TOL, REAL, Field, Tolerance, as_int, check_field,
                       is_projection, lock)


def embedding_dim(m: int, field: Field) -> int:
    """Dimension of the traceless Hermitian/symmetric matrix space over F^m."""
    m = as_int(m, "m")
    check_field(field)
    if m < 2:
        raise ParameterError(f"ambient dimension must be >= 2, got {m}")
    return m * (m + 1) // 2 - 1 if field == REAL else m * m - 1


@dataclass(frozen=True)
class EmbeddingSpace:
    """A fixed orthonormal basis of the traceless Hermitian m x m matrices,
    held in closed form.

    Ordering: symmetric pair matrices (E_jk + E_kj)/sqrt(2) for j < k in
    lexicographic order, then (complex only) the antisymmetric pairs
    (-i E_jk + i E_kj)/sqrt(2), then the diagonal matrices
    diag(1,...,1,-h,0,...,0)/sqrt(h(h+1)) for h = 1..m-1. Only the diagonal
    parts are stored, as the (m-1) x m Helmert rows; pair coordinates are
    read straight off the matrix entries, at the read-only ``pairs`` (j, k),
    j < k, in that order.
    """

    m: int
    field: Field
    d: int
    helmert: np.ndarray  # shape (m - 1, m)
    pairs: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=8, typed=True)
def build_space(m: int, field: Field) -> EmbeddingSpace:
    """The space of ``m`` and ``field``, made once per process and returned as the
    same read-only object on every call; a bad argument raises on every call. The
    cache keeps the last 8 spaces asked for, each about 16 m^2 bytes (about two
    embedded vectors)."""
    d = embedding_dim(m, field)
    helmert = np.zeros((m - 1, m))
    for h in range(1, m):
        helmert[h - 1, :h] = 1.0 / np.sqrt(h * (h + 1))
        helmert[h - 1, h] = -h / np.sqrt(h * (h + 1))
    j, k = np.triu_indices(m, 1)
    return EmbeddingSpace(m, field, d, lock(helmert), (lock(j), lock(k)))


@dataclass(frozen=True)
class EmbeddedVector:
    coords: np.ndarray
    source_rank: int
    source_index: int | None = None


def sphere_radius_sq(m: int, rank: int) -> float:
    """Squared radius l(m-l)/m of the traceless image of rank-l projections."""
    return rank * (m - rank) / m


def _checked_rank(p: np.ndarray, m: int, tol: Tolerance) -> int:
    check = is_projection(p, tol)
    if not check.ok:
        raise ParameterError(f"not a projection: {check.failure}")
    return _sphere_rank(check.rank, m)


def _sphere_rank(rank: int, m: int) -> int:
    """``rank``, unless it is 0 or m, whose projections have no sphere image."""
    if rank in (0, m):
        raise DegenerateRankError(f"rank-{rank} projection in dimension {m} has no sphere image")
    return rank


def embed(p, space: EmbeddingSpace, source_index: int | None = None,
          tol: Tolerance = DEFAULT_TOL) -> EmbeddedVector:
    """Unit vector in R^d representing the projection ``p``.

    Subtracts (l/m) I, divides by the sphere radius, and takes coordinates in
    the space's basis, read directly from the matrix entries. Rank 0 and
    rank m are rejected (zero radius).
    """
    p = np.asarray(p, dtype=np.complex128)
    m = space.m
    if p.shape != (m, m):
        raise DimensionMismatchError(f"expected {m}x{m}, got {p.shape}")
    if space.field == REAL and np.any(p.imag != 0.0):
        raise ParameterError("cannot embed a non-real projection in a real space")
    rank = _checked_rank(p, m, tol)
    return EmbeddedVector(lock(_projection_coordinates(p, space, rank)), rank, source_index)


def _projection_coordinates(p: np.ndarray, space: EmbeddingSpace, rank: int) -> np.ndarray:
    """The coordinates ``embed`` reads off the complex m x m projection ``p`` of
    rank ``rank``, which the caller has already checked: no ``is_projection``
    runs here, but rank 0 and m are refused. They are those of A = P - (l/m) I."""
    m = space.m
    a = p - (_sphere_rank(rank, m) / m) * np.eye(m)
    j, k = space.pairs
    return _coordinates(a[j, k], a[k, j], np.diagonal(a), space, rank)


def _coordinates(upper, lower, diagonal, space: EmbeddingSpace, rank: int) -> np.ndarray:
    """The coordinates ``embed`` reads off A = P - (l/m) I, l = ``rank``: the
    pair coordinates of the entries ``upper`` = A[j, k] and ``lower`` =
    A[k, j] (arrays of equal shape, elementwise), then the Helmert
    coordinates of ``diagonal``, A's diagonal, all divided by the sphere
    radius."""
    s = 1.0 / np.sqrt(2.0)
    parts = [(upper * s + lower * s).real]
    if space.field == COMPLEX:
        parts.append((upper * (1j * s) - lower * (1j * s)).real)
    parts.append(np.einsum("i,ki->k", diagonal, space.helmert).real)
    return np.concatenate(parts) / np.sqrt(sphere_radius_sq(space.m, rank))


def embedded_code_to_json(space: EmbeddingSpace, vectors) -> dict:
    """The embedded code as a JSON object. ``grasspack embed`` streams the same
    code, one vector at a time; its bytes must equal this object's
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, which is its reference
    (json writes a finite float with ``float.__repr__`` too)."""
    return {
        "d": space.d,
        "vectors": [
            {"coords": [float(x) for x in v.coords], "rank": v.source_rank}
            for v in vectors
        ],
    }


_SEPARATOR = ",\n        "  # between two coordinates of a vector in the code's text


def _coords_text(coords: np.ndarray) -> str:
    """The ``float.__repr__`` of each entry of the float array ``coords``, joined by
    ``_SEPARATOR``."""
    return _SEPARATOR.join(map(float.__repr__, coords.tolist()))


def _vector_text(coords: str, rank: int) -> str:
    """One vector's text, ``coords`` its coordinates' reprs joined by ``_SEPARATOR``."""
    return f'    {{\n      "coords": [\n        {coords}\n      ],\n      "rank": {rank}\n    }}'


def _write_texts(fp, d: int, texts) -> int:
    """Write the code in R^``d`` of the vectors whose ``_vector_text``s are
    the iterable ``texts`` to the text stream ``fp``, each as it arrives, so
    that no more than one is ever held; return how many."""
    fp.write(f'{{\n  "d": {d},\n  "vectors": [')
    count, sep = 0, "\n"
    for text in texts:
        fp.write(sep + text)
        count, sep = count + 1, ",\n"
    fp.write("\n  ]\n}\n" if count else "]\n}\n")
    return count
