"""Arithmetic in GF(q), q = p^n <= 256 for any prime p, plus the classical
point/line geometries (affine hyperplane cosets, projective planes) used as
block-design sources.

Elements of GF(p^n) are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the polynomial representative (constant term first), reduced
modulo a fixed monic irreducible. A field is a sum table, a product table and
a trace table (``FieldTable``); every operation is a lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MAX_Q = 256
_MAX_GEOMETRY = 1 << 16


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ParameterError(f"{self.p} is not prime")
        if self.n < 1:
            raise ParameterError(f"exponent must be >= 1, got {self.n}")
        if self.p ** self.n > (1 << 31):
            raise ParameterError(f"{self.p}^{self.n} overflows the supported range")

    @property
    def q(self) -> int:
        return self.p ** self.n


def factor_prime_power(q: int) -> PrimePower:
    """Factor q = p^n or raise if q is not a prime power."""
    if q < 2:
        raise ParameterError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            n, rest = 0, q
            while rest % p == 0:
                rest //= p
                n += 1
            if rest != 1:
                raise ParameterError(f"{q} is not a prime power")
            return PrimePower(p, n)
    return PrimePower(q, 1)


def _digits(v: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(v % p)
        v //= p
    return tuple(out)


def _poly_divmod_monic(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den for monic den; coefficients constant-first."""
    rem = list(num)
    while len(rem) >= len(den):
        if rem[-1] == 0:
            rem.pop()
            continue
        c = rem[-1]
        off = len(rem) - len(den)
        for i, d in enumerate(den):
            rem[off + i] = (rem[off + i] - c * d) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _is_irreducible(poly: list[int], p: int) -> bool:
    # monic, degree n: irreducible iff no monic factor of degree 1..n//2
    n = len(poly) - 1
    for d in range(1, n // 2 + 1):
        for w in range(p ** d):
            f = list(_digits(w, p, d)) + [1]
            if not any(_poly_divmod_monic(poly, f, p)):
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over GF(p),
    ordering the lower coefficients (c_0, ..., c_{n-1}) by their base-p
    integer encoding. Returned constant-first including the leading 1."""
    if n == 1:
        return (0, 1)
    for v in range(p ** n):
        cand = list(_digits(v, p, n)) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible of degree {n} over GF({p})")  # unreachable


class FieldTable:
    """GF(q) as three read-only integer tables, built once with NumPy: the
    q x q sum table, the q x q product table (the product of the digit
    polynomials, reduced from the top degree by the monic ``modulus``) and
    the trace of each element, read through the product table.

    Elements are the integers 0..q-1 in the digit encoding described in the
    module docstring. ``add``, ``mul``, ``inv`` and ``trace`` are lookups,
    and raise ParameterError for an element outside 0..q-1; all but ``inv``
    take scalars or arrays and return an int for a 0-d result. The tables
    hold q^2 entries, so q is capped at 256.
    """

    def __init__(self, pp: PrimePower):
        if pp.q > _MAX_Q:
            raise ParameterError(f"table-based arithmetic is capped at q <= {_MAX_Q}")
        self.pp = pp
        p, n, q = pp.p, pp.n, pp.q
        self.modulus = smallest_irreducible(p, n)
        places = p ** np.arange(n, dtype=np.int64)
        digits = np.arange(q, dtype=np.int64)[:, None] // places % p  # [element, degree]
        self._sum = (digits[:, None] + digits) % p @ places

        prod = np.zeros((q, q, 2 * n - 1), dtype=np.int64)  # [a, b, degree]
        for i in range(n):
            prod[:, :, i:i + n] += digits[:, None, i, None] * digits
        for top in range(2 * n - 2, n - 1, -1):  # x^n = -(c_0 + ... + c_{n-1} x^(n-1))
            prod[:, :, top - n:top] -= prod[:, :, top, None] * self.modulus[:n]
        self._product = prod[:, :, :n] % p @ places

        # tr(x) = x + x^p + ... + x^(p^(n-1)) lands in the prime field
        tr, frob = np.zeros(q, dtype=np.int64), np.arange(q)
        for _ in range(n):
            tr = self._sum[tr, frob]
            power = frob
            for _ in range(p - 1):
                power = self._product[power, frob]
            frob = power
        if np.any(tr >= p):
            raise AssertionError(f"trace of {int(np.argmax(tr >= p))} not in the prime field")
        self._trace = tr
        for arr in (self._sum, self._product, self._trace):
            arr.setflags(write=False)

    @property
    def q(self) -> int:
        return self.pp.q

    @property
    def p(self) -> int:
        return self.pp.p

    def _lookup(self, table: np.ndarray, *elements):
        """``table[elements]``; ``np.ravel_multi_index`` refuses elements outside 0..q-1."""
        try:
            out = table.ravel()[np.ravel_multi_index(elements, table.shape)]
        except ValueError:
            raise ParameterError(f"element outside 0..{self.q - 1}") from None
        return int(out) if out.ndim == 0 else out

    def add(self, a, b):
        """a + b from the sum table; accepts scalars or numpy arrays."""
        return self._lookup(self._sum, a, b)

    def mul(self, a, b):
        """a b from the product table; accepts scalars or numpy arrays."""
        return self._lookup(self._product, a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ParameterError("0 has no multiplicative inverse")
        return int(np.argmax(self.mul(a, np.arange(self.q)) == 1))

    def trace(self, x):
        """Field trace tr(x) = x + x^p + ... + x^(p^(n-1)), an element of GF(p)."""
        return self._lookup(self._trace, x)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FieldTable(GF({self.q}), modulus={self.modulus})"


def build_field(pp: PrimePower | int) -> FieldTable:
    """Construct GF(p^n) arithmetic tables for ``pp`` (a PrimePower or an
    integer prime power)."""
    if isinstance(pp, int):
        pp = factor_prime_power(pp)
    return FieldTable(pp)


def field_trace(ft: FieldTable, x: int) -> int:
    if not 0 <= x < ft.q:
        raise ParameterError(f"element {x} outside GF({ft.q})")
    return ft.trace(x)


def enumerate_affine_hyperplanes(p: int, t1: int) -> list[tuple[int, ...]]:
    """All cosets of all (t1-1)-dimensional linear subspaces of GF(p)^t1.

    Points are 0..p^t1-1 in digit encoding. Hyperplanes are deduplicated by
    canonical normal vectors (first nonzero coordinate equal to 1), so the
    output has p (p^t1 - 1)/(p - 1) blocks of p^(t1-1) points each: the
    classical resolvable affine design.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if t1 < 2:
        raise ParameterError(f"dimension must be >= 2, got {t1}")
    m = p ** t1
    if m > _MAX_GEOMETRY:
        raise ParameterError(f"p^t1 = {m} exceeds the supported size {_MAX_GEOMETRY}")
    points = np.array(list(itertools.product(range(p), repeat=t1)), dtype=np.int64)
    blocks: list[tuple[int, ...]] = []
    for w in itertools.product(range(p), repeat=t1):
        if all(x == 0 for x in w):
            continue
        k = next(i for i, x in enumerate(w) if x != 0)
        if w[k] != 1:
            continue
        vals = (points @ np.asarray(w, dtype=np.int64)) % p
        for c in range(p):
            blocks.append(tuple(int(i) for i in np.flatnonzero(vals == c)))
    return blocks


def enumerate_projective_plane(q: PrimePower | int) -> list[tuple[int, ...]]:
    """The q^2+q+1 lines of the projective plane over GF(q), each of size q+1.

    Points are the canonical representatives of 1-dimensional subspaces of
    GF(q)^3 (first nonzero coordinate 1), indexed in lexicographic order;
    lines are zero sets of the same canonical functionals.
    """
    pp = factor_prime_power(q) if isinstance(q, int) else q
    qq = pp.q
    if qq * qq + qq + 1 > _MAX_GEOMETRY:
        raise ParameterError(f"plane of order {qq} exceeds the supported size")
    ft = build_field(pp)
    reps = np.array([(0, 0, 1)] + [(0, 1, z) for z in range(qq)]
                    + [(1, y, z) for y in range(qq) for z in range(qq)], dtype=np.int64)
    x, y, z = reps.T
    lines = []
    for a, b, c in reps.tolist():  # the line a x + b y + c z = 0, read at every point
        value = ft.add(ft.add(ft.mul(a, x), ft.mul(b, y)), ft.mul(c, z))
        lines.append(tuple(np.flatnonzero(value == 0).tolist()))
    return lines
