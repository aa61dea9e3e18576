"""Generation, import, and verification of mutually unbiased bases.

Complex families for odd prime (power) dimensions come from quadratic phase
functions over the finite field: one exponent table per order, checked
exactly, in integers, once per process; the small dimensions 2 and 4 are
hardcoded, and each of their families is made and verified once per process.
Real maximal families beyond R^4 and even-characteristic extension fields are
supported through JSON import only.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import ConsistencyError, ParameterError, UnsupportedError
from .fields import PrimePower, build_field, factor_prime_power, is_prime
from .numerics import (COMPLEX, DEFAULT_TOL, REAL, Field, Tolerance, as_int, as_type,
                       check_field, lock, matrix_from_json, matrix_to_json)

_MAX_PRIME = 101
_MAX_PRIME_POWER = 81
_CONSTRUCTION = "quadratic-phases"
_BLOCK_BYTES = 1 << 22  # the largest row block of U^* U that ``deviations`` forms: 4 MiB


@dataclass(frozen=True, eq=False)
class MubFamily:
    """k orthonormal bases of F^m, held as one read-only complex128 array
    ``bases`` of shape (k, m, m): the columns of ``bases[a]`` are the vectors
    of basis a. Equality is identity.

    Construction raises ParameterError unless the bases form a (k, m, m)
    array with k >= 1, every entry is finite, every imaginary part is zero
    when ``field`` is "R", and each basis has max|U_a^* U_a - I| <=
    ``DEFAULT_TOL.eps_abs`` (the message names a). Unbiasedness is measured
    by ``deviations``, once, on first use.

    A quadratic-phase family also keeps ``phases = (p, E)``, E the read-only
    uint8 exponent table shared by every family of its order
    (``_phase_exponents``), and ``exact_verdict`` decides from it whether the
    family is a set of MUBs, in place of the float loop; other families
    have None for both.
    """

    m: int
    field: Field
    bases: np.ndarray
    phases: tuple[int, np.ndarray] | None = dataclass_field(default=None, init=False,
                                                            repr=False)

    def __post_init__(self) -> None:
        m = as_int(self.m, "m")
        check_field(self.field)
        try:
            u = np.array(self.bases, dtype=np.complex128)
        except (TypeError, ValueError):  # ragged, or not numbers
            raise ParameterError(f"bases must form a k x {m} x {m} array") from None
        if u.shape[:1] == (0,):
            raise ParameterError("a MUB family needs at least one basis")
        if u.ndim != 3 or u.shape[1:] != (m, m):
            raise ParameterError(f"bases must form a k x {m} x {m} array, got shape {u.shape}")
        if not np.all(np.isfinite(u)):
            raise ParameterError("non-finite entries")
        if self.field == REAL and np.any(u.imag != 0.0):
            raise ParameterError("real-tagged basis has nonzero imaginary parts")
        for a, ua in enumerate(u):
            dev = float(np.abs(ua.conj().T @ ua - np.eye(m)).max(initial=0.0))
            if dev > DEFAULT_TOL.eps_abs:
                raise ParameterError(f"basis {a} is not orthonormal (max |U*U - I| = {dev:.3e})")
        u.setflags(write=False)
        object.__setattr__(self, "bases", u)

    @property
    def k(self) -> int:
        return len(self.bases)

    @cached_property
    def deviations(self) -> np.ndarray:
        """The k x k read-only array whose entry (i, i) is the largest entry
        of |U_i^* U_i - I| and entry (i, j), i != j, the largest of
        ||U_i^* U_j|^2 - 1/m|. U^* U is formed in row blocks of whole bases:
        bases i..h-1 against bases i..k-1 in one product, with as many bases
        as fit ``_BLOCK_BYTES`` (one at least), so a small family is one product."""
        m, k = self.m, self.k
        upper, diagonal = np.zeros((k, k)), np.zeros(k)
        u = np.concatenate(self.bases, axis=1)
        uh = u.conj().T
        i = 0
        while i < k:
            h = min(k, i + max(1, _BLOCK_BYTES // (16 * m * m * (k - i))))
            z = (uh[i * m:h * m] @ u[:, i * m:]).reshape(h - i, m, k - i, m)
            own = np.arange(h - i)
            diagonal[i:h] = np.abs(z[own, :, own] - np.eye(m)).max(axis=(1, 2))
            upper[i:h, i:] = np.abs(np.abs(z) ** 2 - 1.0 / m).max(axis=(1, 3))
            i = h
        dev = np.triu(upper, 1)
        dev += dev.T  # adds exact zeros
        dev[np.diag_indices(k)] = diagonal
        return lock(dev)

    @cached_property
    def exact_verdict(self) -> bool | None:
        """``_phases_are_mubs`` of the family's order, which reads its table."""
        return None if self.phases is None else _phases_are_mubs(self.m)


def mub_capacity(m: int, field: Field) -> int:
    """Largest possible number of pairwise unbiased bases: m+1 over C,
    m/2 + 1 over R."""
    return m + 1 if field == COMPLEX else m // 2 + 1


@cache
def _phase_exponents(q: int) -> np.ndarray:
    """E[a, x, b] = tr(a x^2 + b x) for a, x, b in GF(q), tr the field trace
    down to GF(p), as one read-only uint8 array per q, shared by every
    family of that order (p <= 101). The trace is additive, so E is
    tr(a x^2) + tr(x b) mod p: two q x q lookups and one uint8 sum, reduced mod p."""
    ft = build_field(q)
    x = np.arange(q)
    square = ft.trace(ft.mul(x[:, None], ft.mul(x, x))).astype(np.uint8)  # [a, x]
    linear = ft.trace(ft.mul(x[:, None], x)).astype(np.uint8)  # [x, b]
    expo = square[:, :, None] + linear  # < 2p <= 202, so no uint8 wraps
    expo -= np.uint8(ft.p) * (expo >= ft.p)
    expo.setflags(write=False)
    return expo


@cache
def _differences(q: int) -> np.ndarray:
    """D[x, y] = x - y in GF(q), read-only intp, read off the field's sum table."""
    ft, x = build_field(q), np.arange(q)
    negative = np.argmax(ft.add(x[:, None], x) == 0, axis=1)  # -y: y + (-y) = 0
    return lock(ft.add(x[:, None], negative).astype(np.intp))


def _quadratic_phases(q: int) -> MubFamily:
    """The q+1 quadratic-phase MUBs of GF(q), q odd (Wootters and Fields):
    the standard basis, then basis a with column b the vector with entries
    q^(-1/2) w^E[a, x, b], x in GF(q), w = exp(2 pi i / p). The family keeps
    (p, E) as ``phases``, E the shared ``_phase_exponents(q)``, and forms its
    bases only when they are read. It is checked by ``exact_verdict``, not
    the float loop: a false one raises."""
    family = object.__new__(_PhaseFamily)
    family.__dict__.update(m=q, field=COMPLEX, phases=(factor_prime_power(q).p,
                                                       _phase_exponents(q)))
    if not family.exact_verdict:
        raise ParameterError(f"the exponent table is not the quadratic phases of GF({q})")
    return family


class _PhaseFamily(MubFamily):
    """A family made by ``_quadratic_phases``. Its exact verdict, tightness and
    JSON read only the table, so ``bases`` is formed from it on first read,
    read-only, all q non-standard bases in one table lookup."""

    @property
    def k(self) -> int:
        return self.m + 1

    @cached_property
    def bases(self) -> np.ndarray:
        (p, expo), q = self.phases, self.m
        omega = np.exp(2j * np.pi * np.arange(p) / p)
        scale = 1.0 / np.sqrt(q)
        bases = np.concatenate([np.eye(q)[None], scale * omega[expo]])
        bases.setflags(write=False)
        return bases


@cache
def _phases_are_mubs(q: int) -> bool:
    """Whether the table E = ``_phase_exponents(q)`` gives q + 1 MUBs, in
    integers, once per q. It is a verdict on the generator's own table, not
    a check of an arbitrary one: it assumes E additive in (a, b) and skips
    the pair (0, 0), so a table changed in one entry of basis 1 can still
    pass. ``Projection.matrix`` relies on the same additivity, which the
    tests pin for every order the generators make. Two columns meet in
    q^-1 S_ab, S_ab = sum_x w^E[a, x, b], for (a, b) their difference.
    With n_t = #{x : E[a, x, b] = t} and c_t = sum_s n_s n_(s+t mod p) (= c_-t),
    |S_ab|^2 = sum_t c_t w^t is the integer N iff c_t is one value for all
    t != 0 and c_0 - c_1 = N; N = q for a != 0 (unbiased) and 0 for a = 0,
    b != 0 (orthonormal). The standard basis is unbiased to every column by
    construction. Every c_t is at most q^2 <= 101^2, so int16 holds it.
    """
    expo, p = _phase_exponents(q), factor_prime_power(q).p
    pairs = q * q  # (a, b) is pair a q + b
    # intp keys: a uint8 E must not set their type (value-based promotion before NumPy 2)
    ab = np.arange(q, dtype=np.intp)[:, None, None] * q + np.arange(q, dtype=np.intp)
    counts = np.bincount((expo.astype(np.intp) * pairs + ab).ravel(), minlength=p * pairs)
    n = counts.reshape(p, pairs).astype(np.int16)  # n[t, pair]
    twice = np.concatenate([n, n])
    c = np.stack([(n * twice[t:t + p]).sum(axis=0, dtype=np.int16)
                  for t in range((p + 1) // 2)])
    norm = np.where(np.arange(pairs) >= q, q, 0)  # N = q for a != 0
    ok = np.all(c[1:] == c[1], axis=0) & (c[0] - c[1] == norm)
    return bool(ok[1:].all())  # pair (0, 0) is a column with itself


def gen_mubs_prime(p: int) -> MubFamily:
    """The maximal family of p+1 complex MUBs in dimension p (odd prime):
    the quadratic phases over GF(p), where the trace is the identity, so
    basis a has columns p^(-1/2) w^(a j^2 + b j) with the exponent reduced
    mod p; the standard basis comes first.
    """
    p = as_int(p, "p")
    if not is_prime(p) or p == 2:
        raise ParameterError(f"{p} is not an odd prime")
    if p > _MAX_PRIME:
        raise ParameterError(f"generation is capped at p <= {_MAX_PRIME}")
    return _quadratic_phases(p)


def gen_mubs_prime_power(q: PrimePower | int) -> MubFamily:
    """The maximal family of q+1 complex MUBs for q = p^n, p odd, n >= 2:
    the quadratic phases over GF(q), with entries q^(-1/2) w^(tr(a x^2 + b x)),
    tr the field trace down to GF(p) and w = exp(2 pi i / p).
    """
    pp = q if isinstance(q, PrimePower) else factor_prime_power(q)
    if pp.p == 2:
        raise UnsupportedError(
            "even-characteristic extension fields need Galois-ring phases; "
            "import such a family via JSON instead")
    if pp.n < 2:
        raise ParameterError(f"q = {pp.q} is prime; use gen_mubs_prime")
    if pp.q > _MAX_PRIME_POWER:
        raise ParameterError(f"generation is capped at q <= {_MAX_PRIME_POWER}")
    return _quadratic_phases(pp.q)


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

_S2 = 1.0 / np.sqrt(2.0)
_SMALL_FAMILIES = {
    (2, COMPLEX): [np.eye(2), _S2 * np.array([[1, 1], [1, -1]]),
                   _S2 * np.array([[1, 1], [1j, -1j]])],
    (4, COMPLEX): [np.eye(4)] + [0.5 * np.array(phases, dtype=np.complex128)
                                 for phases in _C4_PHASES],
    (4, REAL): [np.eye(4), 0.5 * np.array(_R4_SECOND, dtype=float),
                0.5 * np.array(_R4_THIRD, dtype=float)],
}


def gen_mubs_small(m: int, field: Field) -> MubFamily:
    """Hardcoded maximal families: 3 MUBs in C^2, 5 in C^4, 3 in R^4.

    Each family is made and verified once per process and then returned as
    the same read-only object on every call; other (m, field) pairs raise
    UnsupportedError with an import hint, on every call.
    """
    m = as_int(m, "m")
    check_field(field)
    if (m, field) not in _SMALL_FAMILIES:
        raise UnsupportedError(
            f"no built-in family for (m={m}, field={field}); import one via JSON")
    return _small_family(m, field)


@lru_cache(maxsize=None)
def _small_family(m: int, field: Field) -> MubFamily:
    """``gen_mubs_small``'s family, verified; a failure is raised, never kept. The
    cache holds the three families (under 3 KB of bases and deviations)."""
    fam = MubFamily(m, field, _SMALL_FAMILIES[m, field])
    report = verify_mubs(fam)
    if not report.ok:
        raise ConsistencyError(f"hardcoded family failed verification: {report}")
    return fam


def gen_mubs(m: int, field: Field) -> MubFamily:
    """The built-in maximal family: hardcoded for C^2, C^4 and R^4, quadratic
    phases for odd prime (power) m over C. Other real m and even extension
    dimensions raise UnsupportedError, non-prime-powers ParameterError."""
    m = as_int(m, "m")
    check_field(field)
    if (m, field) in _SMALL_FAMILIES:
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
    method: str = "numeric"

    @property
    def worst_dev(self) -> float:
        return max(self.worst_orthonormality_dev, self.worst_unbiasedness_dev)


def verify_mubs(family: MubFamily, tol: Tolerance = DEFAULT_TOL) -> MubReport:
    """Check orthonormality of every basis and unbiasedness of every pair;
    report worst deviations and flag violations of the cardinality bound.

    A family whose exponent table passes ``exact_verdict`` is exactly a set
    of MUBs: ``method`` is ``"exact"``, both worst deviations are 0.0, and no
    float is formed. Any other family is measured (``"numeric"``):
    ``worst_orthonormality_dev`` is the largest entry of |U_i^* U_i - I| and
    ``worst_unbiasedness_dev`` of ||U_i^* U_j|^2 - 1/m| over i < j, read off
    ``family.deviations``, which is computed once per family. This is the
    package's only MUB check; ``packing`` gates its exact pass on the same
    verdict or deviations.
    """
    on, ub, failures, method = [], [], [], "exact"
    if not family.exact_verdict:
        dev, (first, second) = family.deviations, np.triu_indices(family.k, 1)
        on, ub, method = np.diagonal(dev).tolist(), dev[first, second].tolist(), "numeric"
        failures = [f"basis {i} not orthonormal (dev {d:.3e})"
                    for i, d in enumerate(on) if d > tol.eps_abs]
        failures += [f"bases {i},{j} not unbiased (dev {d:.3e})"
                     for i, j, d in zip(first.tolist(), second.tolist(), ub) if d > tol.eps_abs]
    capacity = mub_capacity(family.m, family.field)
    cardinality_ok = family.k <= capacity
    if not cardinality_ok:
        failures.append(f"{family.k} bases exceed the {family.field} capacity {capacity}")
    return MubReport(
        ok=not failures,
        k=family.k,
        capacity=capacity,
        cardinality_ok=cardinality_ok,
        worst_orthonormality_dev=max(on, default=0.0),
        worst_unbiasedness_dev=max(ub, default=0.0),
        failures=tuple(failures),
        method=method,
    )


def mubs_to_json(family: MubFamily) -> dict:
    """A quadratic-phase family as version 3, which names its construction
    (its reader rebuilds the table); any other family in the float form,
    with no "version"."""
    if family.phases is not None:
        return {"version": 3, "m": family.m, "field": family.field,
                "construction": _CONSTRUCTION}
    return {
        "m": family.m,
        "field": family.field,
        "bases": [matrix_to_json(u, family.field) for u in family.bases],
    }


def mubs_from_json(obj: dict) -> MubFamily:
    """Read ``mubs_to_json`` output: the float form (no "version"), or version
    3, whose family is generated again and must pass ``exact_verdict``
    (``_quadratic_phases``). Any other version, the exponent table of version
    2 included, raises ParameterError naming it."""
    obj = as_type(obj, dict, "MUB family")
    m = as_int(obj["m"], "m")
    field = check_field(obj["field"])
    if "version" not in obj:
        return MubFamily(m, field, [matrix_from_json(mj)
                                    for mj in as_type(obj["bases"], list, "bases")])
    if as_int(obj["version"], "MUB family version") != 3:
        raise ParameterError(f"MUB family version {obj['version']} is not read, only version 3 "
                             f"(make the file again with grasspack gen mub)")
    if obj["construction"] != _CONSTRUCTION:
        raise ParameterError(f"a version-3 MUB family needs construction "
                             f"{_CONSTRUCTION!r}, got {obj['construction']!r}")
    if not (2 < m <= _MAX_PRIME and factor_prime_power(m).p != 2 and field == COMPLEX):
        raise ParameterError(f"a phase family needs an odd prime power m <= {_MAX_PRIME} "
                             f"over C, got m = {m} over {field}")
    return _quadratic_phases(m)
