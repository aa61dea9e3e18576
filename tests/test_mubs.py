import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from grasspack.errors import ParameterError, UnsupportedError
from grasspack.mubs import (Basis, MubFamily, gen_mubs, gen_mubs_prime,
                            gen_mubs_prime_power, gen_mubs_small, mub_capacity,
                            mubs_from_json, mubs_to_json, verify_mubs)
from grasspack.numerics import COMPLEX, REAL

DATA = Path(__file__).parent / "data"


def exhaustive_check(family, atol=1e-9):
    """Independent oracle: raw numpy loops over all orthonormality and
    unbiasedness conditions."""
    m = family.m
    for basis in family.bases:
        assert np.allclose(basis.matrix.conj().T @ basis.matrix, np.eye(m), atol=atol)
    for (i, a), (j, b) in itertools.combinations(enumerate(family.bases), 2):
        for x in range(m):
            for y in range(m):
                val = abs(np.vdot(a.matrix[:, x], b.matrix[:, y])) ** 2
                assert abs(val - 1.0 / m) <= atol, (i, j, x, y, val)


class TestPrime:
    def test_p3_all_cross_pairs(self):
        fam = gen_mubs_prime(3)
        assert fam.k == 4
        exhaustive_check(fam)
        assert verify_mubs(fam).ok

    def test_p7_count(self):
        fam = gen_mubs_prime(7)
        assert fam.k == 8
        assert verify_mubs(fam).ok

    def test_p2_rejected(self):
        with pytest.raises(ParameterError):
            gen_mubs_prime(2)

    def test_composite_rejected(self):
        with pytest.raises(ParameterError):
            gen_mubs_prime(9)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_generated_families_are_maximal_and_exact(self, p):
        fam = gen_mubs_prime(p)
        assert fam.k == p + 1 == mub_capacity(p, COMPLEX)
        report = verify_mubs(fam)
        assert report.ok
        assert report.worst_dev < 1e-12  # construction is exact to rounding

    def test_unbiasedness_scales_with_m(self):
        for p in (3, 5, 7):
            fam = gen_mubs_prime(p)
            for a, b in itertools.combinations(fam.bases, 2):
                cross = np.abs(a.matrix.conj().T @ b.matrix) ** 2
                assert np.abs(cross * p - 1).max() <= 1e-9 * p


class TestPrimePower:
    def test_q9(self):
        fam = gen_mubs_prime_power(9)
        assert fam.k == 10
        exhaustive_check(fam)

    def test_q25(self):
        fam = gen_mubs_prime_power(25)
        assert fam.k == 26
        assert verify_mubs(fam).ok

    def test_even_characteristic_unsupported(self):
        with pytest.raises(UnsupportedError):
            gen_mubs_prime_power(8)

    def test_prime_input_redirected(self):
        with pytest.raises(ParameterError):
            gen_mubs_prime_power(7)

    def test_invalid_q(self):
        with pytest.raises(ParameterError):
            gen_mubs_prime_power(12)


class TestSmall:
    def test_qubit_triple(self):
        fam = gen_mubs_small(2, COMPLEX)
        assert fam.k == 3 == mub_capacity(2, COMPLEX)
        exhaustive_check(fam)

    def test_c4_five_bases(self):
        fam = gen_mubs_small(4, COMPLEX)
        assert fam.k == 5 == mub_capacity(4, COMPLEX)
        exhaustive_check(fam)

    def test_r4_triple(self):
        fam = gen_mubs_small(4, REAL)
        assert fam.k == 3 == mub_capacity(4, REAL)
        assert fam.field == REAL
        # all cross moduli squared are exactly 1/4 (integer dot products /2)
        for a, b in itertools.combinations(fam.bases, 2):
            cross = np.abs(a.matrix.conj().T @ b.matrix) ** 2
            assert np.array_equal(cross, np.full((4, 4), 0.25))

    def test_unsupported(self):
        with pytest.raises(UnsupportedError):
            gen_mubs_small(8, REAL)
        with pytest.raises(UnsupportedError):
            gen_mubs_small(3, COMPLEX)


def same_family(a, b):
    return (a.m, a.field, a.k) == (b.m, b.field, b.k) and all(
        np.array_equal(x.matrix, y.matrix) for x, y in zip(a.bases, b.bases))


class TestGenMubs:
    @pytest.mark.parametrize("m, field", [(2, COMPLEX), (4, COMPLEX), (4, REAL)])
    def test_hardcoded(self, m, field):
        assert same_family(gen_mubs(m, field), gen_mubs_small(m, field))

    @pytest.mark.parametrize("p", [3, 5, 7, 31])
    def test_odd_prime(self, p):
        assert same_family(gen_mubs(p, COMPLEX), gen_mubs_prime(p))

    @pytest.mark.parametrize("q", [9, 25, 27])
    def test_odd_prime_power(self, q):
        assert same_family(gen_mubs(q, COMPLEX), gen_mubs_prime_power(q))

    @pytest.mark.parametrize("m, field", [(2, REAL), (3, REAL), (8, REAL), (16, REAL),
                                          (8, COMPLEX)])
    def test_unsupported(self, m, field):
        with pytest.raises(UnsupportedError):
            gen_mubs(m, field)

    @pytest.mark.parametrize("m", [6, 12, 1])
    def test_not_a_prime_power(self, m):
        with pytest.raises(ParameterError):
            gen_mubs(m, COMPLEX)


class TestVerify:
    def test_gen5_worst_deviation(self):
        report = verify_mubs(gen_mubs_prime(5))
        assert report.ok
        assert report.worst_dev < 1e-12

    def test_repeated_identity_fails(self):
        eye = Basis(3, COMPLEX, np.eye(3))
        report = verify_mubs(MubFamily(3, COMPLEX, (eye, eye)))
        assert not report.ok
        assert any("not unbiased" in f for f in report.failures)

    def test_cardinality_bound_flagged(self):
        # four bases claimed real in R^4 exceed the m/2 + 1 = 3 bound
        fam = gen_mubs_small(4, REAL)
        fake = MubFamily(4, REAL, fam.bases + (fam.bases[0],))
        report = verify_mubs(fake)
        assert not report.cardinality_ok
        assert any("capacity" in f for f in report.failures)

    def test_json_round_trip_preserves_report(self, tmp_path):
        fam = gen_mubs_prime(5)
        before = verify_mubs(fam)
        path = tmp_path / "mubs.json"
        path.write_text(json.dumps(mubs_to_json(fam)))
        back = mubs_from_json(json.loads(path.read_text()))
        after = verify_mubs(back)
        assert after.ok == before.ok
        assert abs(after.worst_dev - before.worst_dev) <= 1e-12

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected_on_import(self, bad, part):
        obj = mubs_to_json(gen_mubs_small(2, COMPLEX))
        obj["bases"][1][part][2] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            mubs_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("m", [2.5, 2.0, "2"])
    def test_non_integral_m_rejected_on_import(self, m):
        obj = mubs_to_json(gen_mubs_small(2, COMPLEX))
        obj["m"] = m
        with pytest.raises(ParameterError, match="m "):
            mubs_from_json(json.loads(json.dumps(obj)))

    def test_imported_c8_family(self):
        fam = mubs_from_json(json.loads((DATA / "mubs_c8.json").read_text()))
        assert fam.m == 8 and fam.k == 9 == mub_capacity(8, COMPLEX)
        report = verify_mubs(fam)
        assert report.ok
        assert report.worst_dev < 1e-9
