import itertools

import numpy as np
import pytest

from grasspack.designs import BlockDesign, verify_design
from grasspack.errors import ParameterError
from grasspack.fields import (PrimePower, build_field, enumerate_affine_hyperplanes,
                              enumerate_projective_plane, factor_prime_power,
                              field_trace, is_prime, smallest_irreducible)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 71, 101}
    for n in range(2, 102):
        assert is_prime(n) == (n in primes or all(n % k for k in range(2, n)))
    assert not is_prime(1) and not is_prime(0)


def test_prime_power_validation():
    assert PrimePower(3, 2).q == 9
    with pytest.raises(ParameterError):
        PrimePower(4, 1)
    with pytest.raises(ParameterError):
        PrimePower(3, 0)
    assert factor_prime_power(27) == PrimePower(3, 3)
    assert factor_prime_power(7) == PrimePower(7, 1)
    with pytest.raises(ParameterError):
        factor_prime_power(12)


def test_smallest_irreducible_gf9_gf25():
    # over GF(3): x^2 (v=0) is reducible, x^2+1 (v=1) has no root -> chosen
    assert smallest_irreducible(3, 2) == (1, 0, 1)
    # over GF(5): x^2+1 has root 2, x^2+2 has none -> chosen
    assert smallest_irreducible(5, 2) == (2, 0, 1)


@pytest.mark.parametrize("q", [9, 25, 27, 49, 81])
def test_field_axioms_exhaustive(q):
    ft = build_field(q)
    elems = np.arange(q)
    a = elems[:, None, None]
    b = elems[None, :, None]
    c = elems[None, None, :]
    assert np.array_equal(ft.mul(a, ft.add(b, c)), ft.add(ft.mul(a, b), ft.mul(a, c)))
    assert np.array_equal(ft.mul(ft.mul(a, b), c), ft.mul(a, ft.mul(b, c)))
    assert np.array_equal(ft.add(ft.add(a, b), c), ft.add(a, ft.add(b, c)))
    for x in range(1, q):
        assert ft.mul(x, ft.inv(x)) == 1


def naive_field(q):
    """Sum, product and trace of GF(q) from pure-int polynomial arithmetic
    over the digit encoding: the reference for the tables."""
    pp = factor_prime_power(q)
    p, n = pp.p, pp.n
    modulus = smallest_irreducible(p, n)

    def digits(v):
        return [v // p ** i % p for i in range(n)]

    def value(coeffs):
        return sum(c * p ** i for i, c in enumerate(coeffs))

    def add(a, b):
        return value([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for top in range(2 * n - 2, n - 1, -1):
            c = prod[top]
            for i in range(n + 1):
                prod[top - n + i] -= c * modulus[i]
        return value([c % p for c in prod[:n]])

    def trace(x):
        t, power = 0, x
        for _ in range(n):
            t = add(t, power)
            y = 1
            for _ in range(p):
                y = mul(y, power)
            power = y
        return t

    return add, mul, trace


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 64, 81])
def test_tables_match_naive_arithmetic(q):
    ft = build_field(q)
    add, mul, trace = naive_field(q)
    elems = np.arange(q)
    assert ft.add(elems[:, None], elems).tolist() == [[add(a, b) for b in range(q)]
                                                      for a in range(q)]
    assert ft.mul(elems[:, None], elems).tolist() == [[mul(a, b) for b in range(q)]
                                                      for a in range(q)]
    assert ft.trace(elems).tolist() == [trace(x) for x in range(q)]
    assert isinstance(ft.add(1, 2), int) and isinstance(ft.mul(1, 2), int)
    assert isinstance(ft.trace(1), int)


def test_build_field_is_capped_at_256():
    assert build_field(256).q == 256
    with pytest.raises(ParameterError, match="q <= 256"):
        build_field(257)


@pytest.mark.parametrize("q", [5, 9])
@pytest.mark.parametrize("outside", ["negative", "q"])
def test_lookups_refuse_elements_outside_the_field(q, outside):
    """A negative element would wrap around the tables (in GF(9), -1 read as
    8) and q would overrun them; every lookup raises ParameterError instead,
    for scalars and arrays alike."""
    ft = build_field(q)
    bad = -1 if outside == "negative" else q
    calls = [lambda: ft.add(bad, 0), lambda: ft.add(0, bad), lambda: ft.mul(bad, 1),
             lambda: ft.mul(1, bad), lambda: ft.trace(bad), lambda: ft.inv(bad),
             lambda: ft.add(np.array([0, bad]), 1), lambda: ft.trace(np.array([bad]))]
    for call in calls:
        with pytest.raises(ParameterError, match=rf"element outside 0\.\.{q - 1}"):
            call()
    assert ft.add(q - 1, 0) == ft.mul(q - 1, 1) == q - 1 and ft.trace(q - 1) < ft.p
    assert ft.mul(np.arange(q), 1).tolist() == list(range(q))


def test_gf7_trace_is_identity():
    ft = build_field(PrimePower(7, 1))
    assert field_trace(ft, 5) == 5
    assert all(ft.trace(x) == x for x in range(7))


def test_gf9_trace_by_enumeration():
    # tr(x) = x + x^3: verify linearity and surjectivity exhaustively
    ft = build_field(PrimePower(3, 2))
    assert ft.trace(0) == 0

    def cube(x):
        return ft.mul(x, ft.mul(x, x))

    for x in range(9):
        assert ft.trace(x) == ft.add(x, cube(x))
        for y in range(9):
            assert ft.trace(ft.add(x, y)) == (ft.trace(x) + ft.trace(y)) % 3
    assert {ft.trace(x) for x in range(9)} == {0, 1, 2}


def test_gf9_character_sum_vanishes():
    ft = build_field(9)
    omega = np.exp(2j * np.pi / 3)
    total = sum(omega ** ft.trace(x) for x in range(9))
    assert abs(total) < 1e-12


def test_build_field_rejects_nonprime():
    with pytest.raises(ParameterError):
        build_field(PrimePower(4, 1))


class TestAffineHyperplanes:
    def test_ag22_line_count_and_size(self):
        blocks = enumerate_affine_hyperplanes(2, 2)
        assert len(blocks) == 6
        assert all(len(b) == 2 for b in blocks)
        # every pair of the 4 points appears exactly once: these are all 6 pairs
        assert sorted(blocks) == sorted(itertools.combinations(range(4), 2))

    def test_ag23_count(self):
        blocks = enumerate_affine_hyperplanes(3, 2)
        assert len(blocks) == 12  # 3 (9-1)/2
        assert all(len(b) == 3 for b in blocks)

    def test_dimension_below_minimum(self):
        with pytest.raises(ParameterError):
            enumerate_affine_hyperplanes(2, 1)

    @pytest.mark.parametrize("p,t1", [(2, 2), (3, 2), (2, 3)])
    def test_is_two_design_with_expected_lambda(self, p, t1):
        blocks = enumerate_affine_hyperplanes(p, t1)
        design = BlockDesign(p ** t1, blocks)
        report = verify_design(design, 2)
        assert report.is_t_design[2]
        assert report.lambda_observed == (p ** (t1 - 1) - 1) // (p - 1)


class TestProjectivePlane:
    def test_fano(self):
        lines = enumerate_projective_plane(2)
        assert len(lines) == 7
        assert all(len(L) == 3 for L in lines)
        report = verify_design(BlockDesign(7, lines), 2)
        assert report.is_t_design[2] and report.lambda_observed == 1
        assert report.is_symmetric

    def test_order_three(self):
        lines = enumerate_projective_plane(3)
        assert len(lines) == 13
        assert all(len(L) == 4 for L in lines)

    def test_pairwise_intersection_is_one(self):
        for q in (2, 3, 4, 8):
            lines = enumerate_projective_plane(q)
            assert len(lines) == q * q + q + 1
            for a, b in itertools.combinations(lines, 2):
                assert len(set(a) & set(b)) == 1

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            enumerate_projective_plane(6)

    def test_size_is_checked_before_the_field_is_built(self):
        # GF(257) is above the table cap; the plane-size error comes first
        with pytest.raises(ParameterError, match="plane of order 257"):
            enumerate_projective_plane(257)
