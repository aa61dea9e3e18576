"""Generation, import, and verification of mutually unbiased bases.

Complex families for odd prime (power) dimensions come from quadratic phase
functions over the finite field; the small dimensions 2 and 4 are hardcoded.
Real maximal families beyond R^4 and even-characteristic extension fields are
supported through JSON import only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError, UnsupportedError
from .fields import PrimePower, build_field, factor_prime_power, is_prime
from .numerics import (COMPLEX, DEFAULT_TOL, REAL, Field, Tolerance, as_int,
                       check_field, lock, matrix_from_json, matrix_to_json)

_MAX_PRIME = 101
_MAX_PRIME_POWER = 81


@dataclass(frozen=True)
class Basis:
    """An orthonormal basis of F^m; columns of ``matrix`` are the vectors."""

    m: int
    field: Field
    matrix: np.ndarray

    def __init__(self, m: int, field: Field, matrix):
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.shape != (m, m):
            raise ParameterError(f"expected a {m}x{m} matrix, got {mat.shape}")
        check_field(field)
        if not np.all(np.isfinite(mat)):
            raise ParameterError("non-finite entries")
        if field == REAL and np.any(mat.imag != 0.0):
            raise ParameterError("real-tagged basis has nonzero imaginary parts")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "matrix", lock(mat))


@dataclass(frozen=True)
class MubFamily:
    m: int
    field: Field
    bases: tuple[Basis, ...]

    @property
    def k(self) -> int:
        return len(self.bases)


def mub_capacity(m: int, field: Field) -> int:
    """Largest possible number of pairwise unbiased bases: m+1 over C,
    m/2 + 1 over R."""
    return m + 1 if field == COMPLEX else m // 2 + 1


def gen_mubs_prime(p: int) -> MubFamily:
    """The maximal family of p+1 complex MUBs in dimension p (odd prime).

    Basis a has vectors x^(a,b) with components p^(-1/2) w^(a j^2 + b j),
    w = exp(2 pi i / p), the exponent reduced mod p before evaluation; the
    standard basis comes first.
    """
    if not is_prime(p) or p == 2:
        raise ParameterError(f"{p} is not an odd prime")
    if p > _MAX_PRIME:
        raise ParameterError(f"generation is capped at p <= {_MAX_PRIME}")
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    scale = 1.0 / np.sqrt(p)
    j = np.arange(p)
    bases = [Basis(p, COMPLEX, np.eye(p))]
    for a in range(p):
        expo = (a * (j * j)[:, None] + np.outer(j, j)) % p  # row x, column b
        bases.append(Basis(p, COMPLEX, scale * omega[expo]))
    return MubFamily(p, COMPLEX, tuple(bases))


def gen_mubs_prime_power(q: PrimePower | int) -> MubFamily:
    """The maximal family of q+1 complex MUBs for q = p^n, p odd, n >= 2.

    Entries are q^(-1/2) w^(tr(a x^2 + b x)) with tr the field trace down to
    GF(p) and w = exp(2 pi i / p).
    """
    pp = factor_prime_power(q) if isinstance(q, int) else q
    if pp.p == 2:
        raise UnsupportedError(
            "even-characteristic extension fields need Galois-ring phases; "
            "import such a family via JSON instead")
    if pp.n < 2:
        raise ParameterError(f"q = {pp.q} is prime; use gen_mubs_prime")
    if pp.q > _MAX_PRIME_POWER:
        raise ParameterError(f"generation is capped at q <= {_MAX_PRIME_POWER}")
    ft = build_field(pp)
    qq, p = ft.q, ft.p
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    scale = 1.0 / np.sqrt(qq)
    xs = np.arange(qq, dtype=np.int64)
    xsq = ft.mul(xs, xs)
    bases = [Basis(qq, COMPLEX, np.eye(qq))]
    for a in range(qq):
        ax2 = ft.mul(np.full(qq, a, dtype=np.int64), xsq)     # indexed by x
        mat = np.empty((qq, qq), dtype=np.complex128)
        for b in range(qq):
            e = ft.add(ax2, ft.mul(np.full(qq, b, dtype=np.int64), xs))
            mat[:, b] = scale * omega[ft.trace(e)]
        bases.append(Basis(qq, COMPLEX, mat))
    return MubFamily(qq, COMPLEX, tuple(bases))


# Columns of the four bases unbiased to the standard basis of C^4; entries
# are quarter-turn phases divided by 2. Derived as the joint eigenbases of
# the five commuting-operator classes on two qubits.
_C4_PHASES = [
    [[1, 1, 1, 1], [-1, -1, 1, 1], [-1, 1, -1, 1], [1, -1, -1, 1]],
    [[1, 1, 1, 1], [-1j, -1j, 1j, 1j], [-1j, 1j, -1j, 1j], [-1, 1, 1, -1]],
    [[1, 1, 1, 1], [-1, -1, 1, 1], [-1j, 1j, -1j, 1j], [-1j, 1j, 1j, -1j]],
    [[1, 1, 1, 1], [-1j, -1j, 1j, 1j], [-1, 1, -1, 1], [-1j, 1j, 1j, -1j]],
]

_R4_SECOND = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
_R4_THIRD = [[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]]


def gen_mubs_small(m: int, field: Field) -> MubFamily:
    """Hardcoded maximal families: 3 MUBs in C^2, 5 in C^4, 3 in R^4.

    Every family is re-verified on the way out; other (m, field) pairs raise
    UnsupportedError with an import hint.
    """
    check_field(field)
    if (m, field) == (2, COMPLEX):
        s = 1.0 / np.sqrt(2.0)
        bases = (
            Basis(2, COMPLEX, np.eye(2)),
            Basis(2, COMPLEX, s * np.array([[1, 1], [1, -1]])),
            Basis(2, COMPLEX, s * np.array([[1, 1], [1j, -1j]])),
        )
        fam = MubFamily(2, COMPLEX, bases)
    elif (m, field) == (4, COMPLEX):
        bases = [Basis(4, COMPLEX, np.eye(4))]
        for phases in _C4_PHASES:
            bases.append(Basis(4, COMPLEX, 0.5 * np.array(phases, dtype=np.complex128)))
        fam = MubFamily(4, COMPLEX, tuple(bases))
    elif (m, field) == (4, REAL):
        bases = (
            Basis(4, REAL, np.eye(4)),
            Basis(4, REAL, 0.5 * np.array(_R4_SECOND, dtype=float)),
            Basis(4, REAL, 0.5 * np.array(_R4_THIRD, dtype=float)),
        )
        fam = MubFamily(4, REAL, bases)
    else:
        raise UnsupportedError(
            f"no built-in family for (m={m}, field={field}); import one via JSON")
    report = verify_mubs(fam)
    if not report.ok:
        raise ConsistencyError(f"hardcoded family failed verification: {report}")
    return fam


def gen_mubs(m: int, field: Field) -> MubFamily:
    """The built-in maximal family: hardcoded for C^2, C^4 and R^4, quadratic
    phases for odd prime (power) m over C. Other real m and even extension
    dimensions raise UnsupportedError, non-prime-powers ParameterError."""
    check_field(field)
    if (m, field) in ((2, COMPLEX), (4, COMPLEX), (4, REAL)):
        return gen_mubs_small(m, field)
    if field == REAL:
        raise UnsupportedError(f"no built-in real family for m={m}; import required")
    pp = factor_prime_power(m)
    return gen_mubs_prime(m) if pp.n == 1 else gen_mubs_prime_power(pp)


@dataclass(frozen=True)
class MubReport:
    ok: bool
    k: int
    capacity: int
    cardinality_ok: bool
    worst_orthonormality_dev: float
    worst_unbiasedness_dev: float
    failures: tuple[str, ...]

    @property
    def worst_dev(self) -> float:
        return max(self.worst_orthonormality_dev, self.worst_unbiasedness_dev)


def verify_mubs(family: MubFamily, tol: Tolerance = DEFAULT_TOL) -> MubReport:
    """Check orthonormality of every basis and unbiasedness of every pair;
    report worst deviations and flag violations of the cardinality bound."""
    m = family.m
    failures: list[str] = []
    worst_on = 0.0
    eye = np.eye(m)
    for idx, basis in enumerate(family.bases):
        dev = float(np.abs(basis.matrix.conj().T @ basis.matrix - eye).max())
        worst_on = max(worst_on, dev)
        if dev > tol.eps_abs:
            failures.append(f"basis {idx} not orthonormal (dev {dev:.3e})")
    worst_ub = 0.0
    for i in range(family.k):
        for j in range(i + 1, family.k):
            cross = family.bases[i].matrix.conj().T @ family.bases[j].matrix
            dev = float(np.abs(np.abs(cross) ** 2 - 1.0 / m).max())
            worst_ub = max(worst_ub, dev)
            if dev > tol.eps_abs:
                failures.append(f"bases {i},{j} not unbiased (dev {dev:.3e})")
    capacity = mub_capacity(m, family.field)
    cardinality_ok = family.k <= capacity
    if not cardinality_ok:
        failures.append(f"{family.k} bases exceed the {family.field} capacity {capacity}")
    return MubReport(
        ok=not failures,
        k=family.k,
        capacity=capacity,
        cardinality_ok=cardinality_ok,
        worst_orthonormality_dev=worst_on,
        worst_unbiasedness_dev=worst_ub,
        failures=tuple(failures),
    )


def mubs_to_json(family: MubFamily) -> dict:
    return {
        "m": family.m,
        "field": family.field,
        "bases": [matrix_to_json(b.matrix, family.field) for b in family.bases],
    }


def mubs_from_json(obj: dict) -> MubFamily:
    m = as_int(obj["m"], "m")
    field = check_field(obj["field"])
    bases = tuple(Basis(m, field, matrix_from_json(mj)) for mj in obj["bases"])
    if not bases:
        raise ParameterError("a MUB family needs at least one basis")
    return MubFamily(m, field, bases)
