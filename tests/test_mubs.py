import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack import mubs
from grasspack.errors import ParameterError, UnsupportedError
from grasspack.fields import build_field, is_prime
from grasspack.mubs import (MubFamily, gen_mubs, gen_mubs_prime,
                            gen_mubs_prime_power, gen_mubs_small, mub_capacity,
                            mubs_from_json, mubs_to_json, verify_mubs)
from grasspack.numerics import COMPLEX, REAL, Tolerance, matrix_to_json

from conftest import random_orthonormal, reference_exponents

DATA = Path(__file__).parent / "data"

# every dimension the quadratic-phase generators reach
GENERATED = [q for q in range(3, 102) if is_prime(q)] + [9, 25, 27, 49, 81]


def exhaustive_check(family, atol=1e-9):
    """Independent oracle: raw numpy loops over all orthonormality and
    unbiasedness conditions."""
    m = family.m
    for basis in family.bases:
        assert np.allclose(basis.conj().T @ basis, np.eye(m), atol=atol)
    for (i, a), (j, b) in itertools.combinations(enumerate(family.bases), 2):
        for x in range(m):
            for y in range(m):
                val = abs(np.vdot(a[:, x], b[:, y])) ** 2
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

    @pytest.mark.parametrize("p", [3, 5, 31])
    def test_equals_the_per_basis_formula(self, p):
        """The vectorized generator gives, bit for bit, basis a built alone."""
        omega = np.exp(2j * np.pi * np.arange(p) / p)
        scale = 1.0 / np.sqrt(p)
        j = np.arange(p)
        ref = [np.eye(p)] + [scale * omega[(a * (j * j)[:, None] + np.outer(j, j)) % p]
                             for a in range(p)]
        assert np.array_equal(gen_mubs_prime(p).bases, np.array(ref, dtype=np.complex128))

    def test_unbiasedness_scales_with_m(self):
        for p in (3, 5, 7):
            fam = gen_mubs_prime(p)
            for a, b in itertools.combinations(fam.bases, 2):
                cross = np.abs(a.conj().T @ b) ** 2
                assert np.abs(cross * p - 1).max() <= 1e-9 * p


class TestPrimePower:
    @pytest.mark.parametrize("q", [9, 25, 27])
    def test_equals_the_per_column_formula(self, q):
        """The one-lookup generator gives, bit for bit, each column b built alone."""
        ft = build_field(q)
        omega = np.exp(2j * np.pi * np.arange(ft.p) / ft.p)
        scale = 1.0 / np.sqrt(q)
        xs = np.arange(q, dtype=np.int64)
        xsq = ft.mul(xs, xs)
        ref = [np.eye(q)]
        for a in range(q):
            ax2 = ft.mul(np.full(q, a, dtype=np.int64), xsq)
            mat = np.empty((q, q), dtype=np.complex128)
            for b in range(q):
                e = ft.add(ax2, ft.mul(np.full(q, b, dtype=np.int64), xs))
                mat[:, b] = scale * omega[ft.trace(e)]
            ref.append(mat)
        assert np.array_equal(gen_mubs_prime_power(q).bases, np.array(ref))

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
            cross = np.abs(a.conj().T @ b) ** 2
            assert np.array_equal(cross, np.full((4, 4), 0.25))

    def test_unsupported(self):
        with pytest.raises(UnsupportedError):
            gen_mubs_small(8, REAL)
        with pytest.raises(UnsupportedError):
            gen_mubs_small(3, COMPLEX)

    @pytest.mark.parametrize("m, field", [(2, COMPLEX), (4, COMPLEX), (4, REAL)])
    def test_made_once_per_process(self, m, field):
        """Every call returns the one verified family, read-only."""
        fam = gen_mubs_small(m, field)
        assert gen_mubs_small(m, field) is fam and gen_mubs(m, field) is fam
        assert not fam.bases.flags.writeable and not fam.deviations.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.m = 3

    def test_errors_are_never_kept(self):
        for _ in range(2):
            with pytest.raises(UnsupportedError):
                gen_mubs_small(3, COMPLEX)
            with pytest.raises(ParameterError):  # a float m is refused, not read as 2
                gen_mubs_small(2.0, COMPLEX)
        assert gen_mubs_small(2, COMPLEX).m == 2


def same_family(a, b):
    return (a.m, a.field) == (b.m, b.field) and np.array_equal(a.bases, b.bases)


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


def loop_deviations(family):
    """``deviations`` as one product per basis formed them, kept as the
    reference: basis i read through U_i^* [U_i ... U_{k-1}]."""
    m, k = family.m, family.k
    dev = np.zeros((k, k))
    u = np.concatenate(family.bases, axis=1)
    uh = u.conj().T
    for i in range(k):
        z = uh[i * m:(i + 1) * m] @ u[:, i * m:]
        dev[i, i] = np.abs(z[:, :m] - np.eye(m)).max()
        dev[i, i + 1:] = dev[i + 1:, i] = np.abs(np.abs(z[:, m:]) ** 2 - 1.0 / m).reshape(
            m, k - i - 1, m).max(axis=(0, 2))
    return dev


def verdict(report):
    """A report's verdicts: ok, and each failure without its measured deviation."""
    return report.ok, report.cardinality_ok, [f.split(" (dev")[0] for f in report.failures]


FLOAT_FAMILIES = {
    "C2": lambda: MubFamily(2, COMPLEX, gen_mubs_small(2, COMPLEX).bases),
    "C4": lambda: MubFamily(4, COMPLEX, gen_mubs_small(4, COMPLEX).bases),
    "R4": lambda: MubFamily(4, REAL, gen_mubs_small(4, REAL).bases),
    "c8": lambda: mubs_from_json(json.loads((DATA / "mubs_c8.json").read_text())),
}


class TestVerify:
    @pytest.mark.parametrize("name", sorted(FLOAT_FAMILIES))
    def test_deviations_equal_the_per_basis_loop_bit_for_bit(self, name):
        family = FLOAT_FAMILIES[name]()
        assert np.array_equal(family.deviations, loop_deviations(family))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([3, 5, 7]), st.integers(1, 8), st.sampled_from([COMPLEX, REAL]),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 3000, None]),
           st.sampled_from([1e-9, 0.05, 0.2]))
    def test_random_families_agree_with_the_loop(self, m, k, field, seed, budget, eps):
        """Random imported families, some bases those of the C^m phase family,
        formed in row blocks of one basis, of a few, or of all: the deviations
        agree with the loop's within 1e-15 and verify_mubs gives the same verdicts."""
        rng = np.random.default_rng(seed)
        true = gen_mubs_prime(m).bases if field == COMPLEX else None
        bases = [true[rng.integers(m + 1)] if true is not None and rng.random() < 0.5
                 else random_orthonormal(rng, m, m, field) for _ in range(k)]
        family = MubFamily(m, field, bases)
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(mubs, "_BLOCK_BYTES", budget)
            dev = family.deviations
        ref = loop_deviations(family)
        assert np.abs(dev - ref).max() <= 1e-15 and np.array_equal(dev, dev.T)
        twin = MubFamily(m, field, family.bases)
        twin.__dict__["deviations"] = ref
        tol = Tolerance(eps)
        assert verdict(verify_mubs(family, tol)) == verdict(verify_mubs(twin, tol))

    def test_gen5_worst_deviation(self):
        report = verify_mubs(gen_mubs_prime(5))
        assert report.ok
        assert report.worst_dev < 1e-12

    def test_deviations_are_cached_read_only_and_symmetric(self):
        fam = MubFamily(5, COMPLEX, list(gen_mubs_prime(5).bases))
        dev = fam.deviations
        assert fam.deviations is dev and not dev.flags.writeable
        assert dev.shape == (6, 6) and np.array_equal(dev, dev.T)
        report = verify_mubs(fam)
        assert report.worst_orthonormality_dev == np.diagonal(dev).max()
        assert report.worst_unbiasedness_dev == dev[~np.eye(6, dtype=bool)].max()

    def test_repeated_identity_fails(self):
        report = verify_mubs(MubFamily(3, COMPLEX, (np.eye(3), np.eye(3))))
        assert not report.ok
        assert any("not unbiased" in f for f in report.failures)

    def test_cardinality_bound_flagged(self):
        # four bases claimed real in R^4 exceed the m/2 + 1 = 3 bound
        fam = gen_mubs_small(4, REAL)
        fake = MubFamily(4, REAL, np.concatenate([fam.bases, fam.bases[:1]]))
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

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ParameterError, match="basis 1 is not orthonormal"):
            MubFamily(2, COMPLEX, [np.eye(2), [[1.0, 1.0], [0.0, 1.0]]])
        obj = mubs_to_json(MubFamily(5, COMPLEX, gen_mubs_prime(5).bases))  # float form
        obj["bases"][2]["im"][7] += 1e-6
        with pytest.raises(ParameterError, match="basis 2 is not orthonormal"):
            mubs_from_json(json.loads(json.dumps(obj)))

    def test_imported_c8_family(self):
        fam = mubs_from_json(json.loads((DATA / "mubs_c8.json").read_text()))
        assert fam.m == 8 and fam.k == 9 == mub_capacity(8, COMPLEX)
        report = verify_mubs(fam)
        assert report.ok
        assert report.worst_dev < 1e-9


class TestConstructor:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.sampled_from([COMPLEX, REAL]),
           st.integers(0, 2**32 - 1), st.data())
    def test_checked_read_only_array(self, m, k, field, seed, data):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_orthonormal(rng, m, m, field) for _ in range(k)])
        fam = MubFamily(m, field, stack)
        assert fam.k == k and fam.bases.shape == (k, m, m)
        assert fam.bases.dtype == np.complex128 and not fam.bases.flags.writeable
        assert np.array_equal(fam.bases, stack)
        back = mubs_from_json(json.loads(json.dumps(mubs_to_json(fam))))
        assert (back.m, back.field) == (m, field) and np.array_equal(back.bases, fam.bases)
        a = data.draw(st.integers(0, k - 1))
        x, y = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        stack[a, x, y] += 1e-6
        with pytest.raises(ParameterError, match=f"basis {a} is not orthonormal"):
            MubFamily(m, field, stack)

    def test_size_must_match_the_bases(self):
        with pytest.raises(ParameterError, match="k x 4 x 4"):
            MubFamily(4, REAL, gen_mubs_prime(5).bases)

    def test_complex_entries_rejected_over_r(self):
        with pytest.raises(ParameterError, match="imaginary"):
            MubFamily(2, REAL, gen_mubs_small(2, COMPLEX).bases)

    def test_nan_entry_rejected(self):
        bases = np.array(gen_mubs_small(4, REAL).bases)
        bases[2, 1, 3] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            MubFamily(4, REAL, bases)

    @pytest.mark.parametrize("bases", [[], np.zeros((0, 3, 3))], ids=["list", "array"])
    def test_no_bases_rejected(self, bases):
        with pytest.raises(ParameterError, match="at least one basis"):
            MubFamily(3, COMPLEX, bases)

    @pytest.mark.parametrize("m", [2.0, True, "2"])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ParameterError, match="m "):
            MubFamily(m, COMPLEX, [np.eye(2)])

    def test_ragged_bases_rejected(self):
        with pytest.raises(ParameterError, match="k x 2 x 2"):
            MubFamily(2, COMPLEX, [np.eye(2), np.eye(3)])

    def test_the_family_keeps_a_copy(self):
        stack = np.array(gen_mubs_small(2, COMPLEX).bases)
        fam = MubFamily(2, COMPLEX, stack)
        stack[0] = 0.0
        assert np.array_equal(fam.bases[0], np.eye(2))


class TestExactVerdict:
    @pytest.mark.parametrize("q", GENERATED)
    def test_generated_family_is_exact_and_agrees_with_floats(self, q):
        """Every generated family keeps its read-only uint8 table and passes
        the exact verdict; the float deviations of the same bases agree. At
        q = 101 the bincount keys E q^2 + (a q + b) reach 1,030,300, so the
        verdict holds only if no key was typed by the uint8 table."""
        family = gen_mubs(q, COMPLEX)
        p, expo = family.phases
        assert p == build_field(q).p
        assert expo.dtype == np.uint8 and expo.shape == (q, q, q) and not expo.flags.writeable
        report = verify_mubs(family)
        assert family.exact_verdict is True
        assert report.ok and report.method == "exact" and report.worst_dev == 0.0
        floats = verify_mubs(MubFamily(q, COMPLEX, family.bases))
        assert floats.method == "numeric" and floats.ok and floats.worst_dev < 1e-12

    @pytest.mark.parametrize("q", GENERATED)
    def test_bases_are_those_of_the_int64_lookup(self, q):
        """The uint8 table, tr(a x^2) + tr(x b) mod p, is entry for entry the
        int64 table of the field's add, mul and trace lookups, and the bases
        read through it are, bit for bit, those of the int64 table."""
        family, ft, expo = gen_mubs(q, COMPLEX), build_field(q), reference_exponents(q)
        assert family.phases[1].dtype == np.uint8 and np.array_equal(family.phases[1], expo)
        omega = np.exp(2j * np.pi * np.arange(ft.p) / ft.p)
        ref = np.concatenate([np.eye(q)[None], 1.0 / np.sqrt(q) * omega[expo]])
        assert expo.dtype == np.int64 and np.array_equal(family.bases, ref)

    @pytest.mark.parametrize("q", GENERATED)
    def test_exponents_are_additive(self, q):
        """The two identities ``Projection.matrix`` of a phase element rests on,
        mod p: E[a, x, b] = E[a, x, 0] + E[0, x, b], and E[0, x, b] - E[0, y, b]
        = E[0, x - y, b], x - y read off the sum table (``_differences``)."""
        p, expo = gen_mubs(q, COMPLEX).phases
        e = expo.astype(np.intp)
        assert np.all((e[:, :, :1] + e[:1] - e) % p == 0)
        diff = mubs._differences(q)
        ft = build_field(q)
        assert not diff.flags.writeable and np.all(ft.add(diff, np.arange(q)) == np.arange(q)[:, None])
        assert np.all((e[0][:, None, :] - e[0][None, :, :] - e[0][diff]) % p == 0)

    @pytest.mark.parametrize("q", [3, 9, 71])
    def test_bases_are_formed_on_first_read(self, q):
        """A generated family decides its verdict and writes its JSON from the
        table alone; its bases are formed on first read, once, read-only and
        bit for bit those of the table lookup."""
        family = gen_mubs(q, COMPLEX)
        assert verify_mubs(family).ok and family.k == q + 1 and mubs_to_json(family)
        assert "bases" not in family.__dict__
        (p, expo), bases = family.phases, family.bases
        ref = np.concatenate([np.eye(q)[None], 1.0 / np.sqrt(q)
                              * np.exp(2j * np.pi * np.arange(p) / p)[expo]])
        assert np.array_equal(bases, ref) and not bases.flags.writeable
        assert family.bases is bases and len(bases) == family.k

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 5, 9, 25, 27, 31, 101]), st.data())
    def test_one_changed_exponent_fails(self, q, data):
        """Moving one entry E[a, x, b] to another residue breaks basis a + 1:
        the float check of the bases of the changed table flags it."""
        ft = build_field(q)
        expo = np.array(gen_mubs(q, COMPLEX).phases[1])
        a, x, b = (data.draw(st.integers(0, q - 1)) for _ in range(3))
        expo[a, x, b] = (int(expo[a, x, b]) + data.draw(st.integers(1, ft.p - 1))) % ft.p
        assert not np.array_equal(expo, mubs._phase_exponents(q))
        bases = np.concatenate([np.eye(q)[None], np.exp(2j * np.pi * expo / ft.p) / np.sqrt(q)])
        with pytest.raises(ParameterError, match=f"basis {a + 1} is not orthonormal"):
            MubFamily(q, COMPLEX, bases)

    @pytest.mark.parametrize("q", [3, 9, 71])
    def test_a_phase_family_skips_the_float_loop(self, q, monkeypatch):
        """A generated family is decided by its verdict when it is made: the
        constructor's float loop, which a table-less copy still runs, is not."""
        calls = []
        monkeypatch.setattr(MubFamily, "__post_init__", lambda family: calls.append(family))
        family = gen_mubs(q, COMPLEX)
        assert calls == [] and family.__dict__["exact_verdict"] is True
        assert MubFamily(q, COMPLEX, family.bases).phases is None and len(calls) == 1

    @pytest.mark.parametrize("q", [5, 9, 31])
    def test_the_sums_catch_an_additive_table_that_is_biased(self, q, monkeypatch,
                                                              fresh_phase_caches):
        """With E[a, x, b] = tr(b x) passed off as the field's table, every
        basis is the same Fourier basis: the integer sums refuse it, and no
        family of that order can be made."""
        ft = build_field(q)
        x = np.arange(q)
        fourier = np.broadcast_to(ft.trace(ft.mul(x[:, None], x)), (q, q, q)).astype(np.uint8)
        monkeypatch.setattr(mubs, "_phase_exponents", lambda order: fourier)
        assert mubs._phases_are_mubs(q) is False
        with pytest.raises(ParameterError, match="not the quadratic phases"):
            gen_mubs(q, COMPLEX)

    def test_families_without_a_table_are_measured(self):
        for family in (gen_mubs_small(4, COMPLEX), MubFamily(5, COMPLEX, gen_mubs_prime(5).bases)):
            assert family.phases is None and family.exact_verdict is None
            assert verify_mubs(family).method == "numeric"


class TestPhaseTable:
    @pytest.mark.parametrize("q", [3, 9, 71])
    def test_one_read_only_table_per_order(self, q):
        first, second = gen_mubs(q, COMPLEX), gen_mubs(q, COMPLEX)
        assert first is not second and first.phases[1] is second.phases[1]
        assert first.phases[1] is mubs._phase_exponents(q)
        with pytest.raises(ValueError, match="read-only"):
            first.phases[1][0, 0, 0] = 1

    def test_the_verdict_runs_once_per_order(self, fresh_phase_caches):
        """Generating, writing and reading the families of two orders builds
        each order's table once and decides its verdict once."""
        for _ in range(2):
            for q in (5, 9):
                family = gen_mubs(q, COMPLEX)
                assert verify_mubs(family).method == "exact"
                assert mubs_from_json(mubs_to_json(family)).exact_verdict
        for cached in (mubs._phase_exponents, mubs._phases_are_mubs):
            info = cached.cache_info()
            assert (info.misses, info.currsize) == (2, 2)


class TestPhaseJson:
    @pytest.mark.parametrize("q", GENERATED)
    def test_round_trip_is_bit_identical(self, q):
        """Version 3 names the construction, and its reader generates the
        family again, onto the same table and bases."""
        family = gen_mubs(q, COMPLEX)
        obj = json.loads(json.dumps(mubs_to_json(family)))
        assert obj == {"version": 3, "m": q, "field": "C", "construction": "quadratic-phases"}
        back = mubs_from_json(obj)
        assert back.phases[0] == family.phases[0] and back.phases[1] is family.phases[1]
        assert np.array_equal(back.bases, family.bases) and back.exact_verdict

    @pytest.mark.parametrize("change", [
        {"construction": "quadratic"}, {"construction": None}, {"construction": 3},
        {"m": 8}, {"m": 103}, {"field": "R"}])
    def test_other_version_3_families_are_refused(self, change):
        obj = dict(mubs_to_json(gen_mubs_prime(7)), **change)
        with pytest.raises(ParameterError, match="construction|phase family|prime power"):
            mubs_from_json(obj)

    @pytest.mark.parametrize("key", ["construction", "m", "field"])
    def test_a_version_3_family_needs_every_key(self, key):
        obj = mubs_to_json(gen_mubs_prime(7))
        del obj[key]
        with pytest.raises(ParameterError, match=f"^MUB family has no '{key}' key$"):
            mubs_from_json(obj)

    @pytest.mark.parametrize("m, field", [(2, COMPLEX), (4, COMPLEX), (4, REAL)])
    def test_other_families_keep_the_float_form(self, m, field):
        family = gen_mubs_small(m, field)
        assert mubs_to_json(family) == {
            "m": m, "field": field, "bases": [matrix_to_json(u, field) for u in family.bases]}

    def test_a_float_form_file_of_a_phase_family_still_loads(self):
        family = gen_mubs_prime(7)
        back = mubs_from_json({"m": 7, "field": "C",
                               "bases": [matrix_to_json(u) for u in family.bases]})
        assert back.phases is None and np.array_equal(back.bases, family.bases)
        assert verify_mubs(back).ok

    @pytest.mark.parametrize("version", [1, 2, "3", 3.0, True])
    def test_other_versions_are_refused(self, version):
        """Only version 3 is read: version 2, which wrote the exponent table,
        is refused with its version named, whatever else the file holds."""
        obj = dict(mubs_to_json(gen_mubs_prime(3)), version=version,
                   phases={"p": 3, "exponents": reference_exponents(3).tolist()})
        with pytest.raises(ParameterError, match=f"MUB family version {version!r}"):
            mubs_from_json(obj)
