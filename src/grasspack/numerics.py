"""Scalar and matrix foundation: one tolerance policy for every approximate
comparison in the package, Hilbert-Schmidt inner products, projection checks,
orthonormalization, and the JSON matrix encoding."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np
import scipy.linalg

from .errors import DimensionMismatchError, ParameterError, RankDeficiencyError

Field = Literal["R", "C"]
REAL: Field = "R"
COMPLEX: Field = "C"


@dataclass(frozen=True)
class Tolerance:
    """The absolute tolerance ``eps_abs`` used by every approximate
    comparison; it must lie strictly between 0 and 1."""

    eps_abs: float = 1e-9

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_abs < 1.0):
            raise ParameterError(f"need 0 < eps_abs < 1, got eps_abs={self.eps_abs}")


DEFAULT_TOL = Tolerance()


def as_int(x, what: str) -> int:
    """``x`` as a Python int: integers (NumPy's too) pass; bools, floats and
    strings raise ParameterError naming ``what`` instead of being truncated."""
    if isinstance(x, bool):
        raise ParameterError(f"{what} {x!r} is a bool, not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise ParameterError(f"{what} {x!r} is not an integer") from None


def check_field(field: str) -> Field:
    if field not in (REAL, COMPLEX):
        raise ParameterError(f"field must be 'R' or 'C', got {field!r}")
    return field  # type: ignore[return-value]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {m.shape}")
    return m


def lock(a: np.ndarray) -> np.ndarray:
    """Return a read-only view-owning copy; stored arrays are immutable."""
    out = np.array(a)
    out.setflags(write=False)
    return out


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(A @ B*), B* the conjugate transpose.

    Equals the Frobenius inner product sum_ij A_ij conj(B_ij); real for
    Hermitian arguments up to rounding.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a * b.conj()))


class ProjectionCheck(NamedTuple):
    ok: bool
    rank: int
    failure: str | None


def is_projection(p, tol: Tolerance = DEFAULT_TOL) -> ProjectionCheck:
    """Decide whether ``p`` is an orthogonal projection and infer its rank.

    Accepts iff p has only finite entries, is Hermitian and idempotent within
    ``eps_abs`` (max-entry norm) and its trace is within ``eps_abs`` of an
    integer. Never raises on bad data; the failure field names the first
    violated condition.
    """
    p = as_matrix(p)
    if not np.isfinite(p).all():
        return ProjectionCheck(False, 0, "non-finite entries")
    if p.shape[0] != p.shape[1]:
        return ProjectionCheck(False, 0, "not square")
    herm_dev = float(np.abs(p - p.conj().T).max()) if p.size else 0.0
    if herm_dev > tol.eps_abs:
        return ProjectionCheck(False, 0, f"not Hermitian (max dev {herm_dev:.3e})")
    idem_dev = float(np.abs(p @ p - p).max()) if p.size else 0.0
    if idem_dev > tol.eps_abs:
        return ProjectionCheck(False, 0, f"not idempotent (max dev {idem_dev:.3e})")
    tr = float(np.trace(p).real)
    rank = int(round(tr))
    if abs(tr - rank) > tol.eps_abs:
        return ProjectionCheck(False, rank, f"trace {tr} not near an integer")
    return ProjectionCheck(True, rank, None)


def gram_schmidt(vectors, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize ``vectors`` (columns of a matrix, or a sequence of 1-d
    arrays) by modified Gram-Schmidt with one re-orthogonalization pass.

    Raises ``RankDeficiencyError`` when a residual collapses below ``eps_abs``
    relative to the largest input norm, i.e. the inputs are dependent.
    """
    cols = np.asarray(vectors, dtype=np.complex128)
    if cols.ndim != 2:
        raise DimensionMismatchError(f"expected vectors as a 2-d array, got {cols.shape}")
    if not isinstance(vectors, np.ndarray):
        cols = cols.T  # sequence of vectors -> columns
    m, k = cols.shape
    if k > m:
        raise RankDeficiencyError(f"{k} vectors in dimension {m} cannot be independent")
    scale = float(np.linalg.norm(cols, axis=0).max()) if k else 0.0
    out = np.zeros((m, k), dtype=np.complex128)
    for j in range(k):
        v = cols[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= np.vdot(out[:, i], v) * out[:, i]
        nrm = np.linalg.norm(v)
        if nrm < tol.eps_abs * max(scale, 1.0):
            raise RankDeficiencyError(f"vector {j} is dependent on its predecessors")
        out[:, j] = v / nrm
    return out


def matrix_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank by column-pivoted QR with threshold
    eps_abs * (largest column norm)."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    col_scale = float(np.linalg.norm(a, axis=0).max())
    if col_scale == 0.0:
        return 0
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    diag = np.abs(np.diagonal(r))
    return int(np.count_nonzero(diag > tol.eps_abs * col_scale))


def matrix_to_json(a, field: Field = COMPLEX) -> dict:
    """Encode as {"rows", "cols", "re", "im"} with row-major entry lists;
    "im" is omitted for real-tagged matrices (whose imaginary parts must
    vanish exactly)."""
    a = as_matrix(a)
    check_field(field)
    obj = {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in a.real.ravel()],
    }
    if field == REAL:
        if np.any(a.imag != 0.0):
            raise ParameterError("real-tagged matrix has nonzero imaginary parts")
    else:
        obj["im"] = [float(x) for x in a.imag.ravel()]
    return obj


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = as_int(obj["rows"], "rows"), as_int(obj["cols"], "cols")
    re = np.asarray(obj["re"], dtype=np.float64)
    if re.size != rows * cols:
        raise ParameterError(f"'re' has {re.size} entries, expected {rows * cols}")
    a = re.astype(np.complex128)
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=np.float64)
        if im.size != rows * cols:
            raise ParameterError(f"'im' has {im.size} entries, expected {rows * cols}")
        a = a + 1j * im
    return a.reshape(rows, cols)
