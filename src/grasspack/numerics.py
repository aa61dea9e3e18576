"""Scalar and matrix foundation: one tolerance policy for every approximate
comparison in the package, Hilbert-Schmidt inner products, projection checks,
numerical rank, and the JSON matrix encoding."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ParameterError

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


_JSON_KINDS = {dict: "an object", list: "an array", bool: "a boolean", str: "a string"}


class _JsonObject(dict):
    """A JSON object read through ``as_type``, whose missing key raises
    ParameterError naming the key and the object."""

    def __missing__(self, key):
        raise ParameterError(f"{self.what} has no {key!r} key")


def as_type(x, kind: type, what: str):
    """``x`` when it is a ``kind``: ``dict`` for a JSON object, ``list`` for a
    JSON array, ``bool`` for a JSON boolean, ``str`` for a JSON string; an
    object comes back as a ``_JsonObject`` copy named ``what``. The JSON
    readers pass every structural value through it, so a wrong value or a
    missing key raises ParameterError naming it, not an error further in."""
    if not isinstance(x, kind):
        raise ParameterError(f"{what} must be {_JSON_KINDS[kind]}, got {type(x).__name__}")
    if kind is dict:
        x = _JsonObject(x)
        x.what = what
    return x


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


def matrix_rank(a, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: the number of singular values above the threshold
    eps_abs * (largest column norm)."""
    a = as_matrix(a)
    if a.size == 0:
        return 0
    col_scale = float(np.linalg.norm(a, axis=0).max())
    if col_scale == 0.0:
        return 0
    return int(np.linalg.matrix_rank(a, tol=tol.eps_abs * col_scale))


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


def _json_entries(obj: dict, key: str, size: int) -> np.ndarray:
    entries = as_type(obj[key], list, repr(key))
    if not set(map(type, entries)) <= {int, float}:  # JSON numbers; no bools or strings
        raise ParameterError(f"{key!r} holds an entry that is not a number")
    x = np.asarray(entries, dtype=np.float64)
    if x.size != size:
        raise ParameterError(f"{key!r} has {x.size} entries, expected {size}")
    if not np.isfinite(x).all():
        raise ParameterError("non-finite entries")
    return x


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode ``matrix_to_json``'s encoding; raises ParameterError on an entry
    that is not a JSON number, a wrong entry count or a NaN or inf entry."""
    obj = as_type(obj, dict, "matrix")
    rows, cols = as_int(obj["rows"], "rows"), as_int(obj["cols"], "cols")
    a = _json_entries(obj, "re", rows * cols).astype(np.complex128)
    if "im" in obj:
        a = a + 1j * _json_entries(obj, "im", rows * cols)
    return a.reshape(rows, cols)
