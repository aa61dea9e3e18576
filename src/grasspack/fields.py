"""Arithmetic in GF(p) and GF(p^n) for odd p, plus the classical point/line
geometries (affine hyperplane cosets, projective planes) used as block-design
sources.

Elements of GF(p^n) are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the polynomial representative (constant term first), reduced
modulo a fixed monic irreducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MAX_Q = 1 << 20
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


def _undigits(coeffs, p: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


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
    """GF(q) with log/antilog multiplication tables and a precomputed trace map.

    Immutable after construction; all methods are pure. Elements are the
    integers 0..q-1 in the digit encoding described in the module docstring.
    """

    def __init__(self, pp: PrimePower):
        if pp.q > _MAX_Q:
            raise ParameterError(f"table-based arithmetic is capped at q <= {_MAX_Q}")
        self.pp = pp
        p, n, q = pp.p, pp.n, pp.q
        self.modulus = smallest_irreducible(p, n)

        def mul_slow(a: int, b: int) -> int:
            da, db = _digits(a, p, n), _digits(b, p, n)
            prod = [0] * (2 * n - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            rem = _poly_divmod_monic(prod, list(self.modulus), p)
            rem += [0] * (n - len(rem))
            return _undigits(rem, p)

        # find a generator, then build exp/log tables
        gen = None
        for g in range(1, q):
            seen = 1
            x = g
            while x != 1:
                x = mul_slow(x, g)
                seen += 1
                if seen > q:
                    raise AssertionError("multiplication is broken")
            if seen == q - 1:
                gen = g
                break
        if gen is None:
            raise AssertionError(f"no generator found for GF({q})")
        self.generator = gen
        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for e in range(q - 1):
            exp[e] = x
            log[x] = e
            x = mul_slow(x, gen)
        self._exp, self._log = exp, log

        # digit place values for vectorized addition
        self._places = p ** np.arange(n, dtype=np.int64)

        # trace: tr(x) = sum_{i<n} x^(p^i), always lands in the prime field
        tr = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            t, x = 0, a
            for _ in range(n):
                t = self.add(t, x)
                x = self._pow_int(x, p)
            if t >= p:
                raise AssertionError(f"trace of {a} not in the prime field")
            tr[a] = t
        self._trace = tr
        for arr in (self._exp, self._log, self._places, self._trace):
            arr.setflags(write=False)

    @property
    def q(self) -> int:
        return self.pp.q

    @property
    def p(self) -> int:
        return self.pp.p

    def add(self, a, b):
        """Digit-wise sum mod p; accepts scalars or numpy arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        da = (a[..., None] // self._places) % self.p
        db = (b[..., None] // self._places) % self.p
        out = (((da + db) % self.p) * self._places).sum(axis=-1)
        return int(out) if out.ndim == 0 else out

    def mul(self, a, b):
        """Product via log/antilog tables; accepts scalars or numpy arrays."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        out = np.where((a == 0) | (b == 0), 0, out)
        return int(out) if out.ndim == 0 else out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ParameterError("0 has no multiplicative inverse")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def _pow_int(self, a: int, e: int) -> int:
        if a == 0:
            return 0
        return int(self._exp[(self._log[a] * e) % (self.q - 1)])

    def trace(self, x):
        """Field trace tr(x) = x + x^p + ... + x^(p^(n-1)), an element of GF(p)."""
        x = np.asarray(x, dtype=np.int64)
        out = self._trace[x]
        return int(out) if out.ndim == 0 else out

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
    ft = build_field(q)
    qq = ft.q
    if qq * qq + qq + 1 > _MAX_GEOMETRY:
        raise ParameterError(f"plane of order {qq} exceeds the supported size")
    reps = [v for v in itertools.product(range(qq), repeat=3)
            if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    lines = []
    for w in reps:
        line = [i for i, x in enumerate(reps)
                if ft.add(ft.add(ft.mul(w[0], x[0]), ft.mul(w[1], x[1])),
                          ft.mul(w[2], x[2])) == 0]
        lines.append(tuple(line))
    return lines
