import json

import numpy as np
import pytest

from grasspack.errors import DimensionMismatchError, ParameterError
from grasspack.numerics import (COMPLEX, REAL, Tolerance, is_projection,
                                matrix_from_json, matrix_rank, matrix_to_json)

from conftest import hs_inner, random_orthonormal, random_projection


def brute_trace_product(a, b):
    """Independent oracle: explicit loop over trace(A @ B*)."""
    m = a.shape[0]
    total = 0.0 + 0.0j
    for i in range(m):
        for j in range(b.shape[0]):
            total += a[i, j] * np.conj(b[i, j])
    return total


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3)

    def test_projection_self_inner_is_rank(self, rng):
        p = random_projection(rng, 5, 2)
        assert hs_inner(p, p) == pytest.approx(2, abs=1e-12)

    def test_two_qubit_lines(self):
        # projections onto span(e0) and span((e0+e1)/sqrt(2)); oracle: direct
        # 2x2 product and trace gives 0.5
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        expected = brute_trace_product(p, q)
        assert expected == pytest.approx(0.5)
        assert hs_inner(p, q) == pytest.approx(expected, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(np.eye(2), np.eye(3))

    def test_nonnegative_and_equals_frobenius_on_hermitian(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            val = hs_inner(h, h)
            assert abs(val.imag) <= 1e-12
            assert val.real >= 0
            assert val.real == pytest.approx(np.linalg.norm(h, "fro") ** 2, rel=1e-12)


class TestIsProjection:
    def test_identity(self):
        ok, rank, _ = is_projection(np.eye(4))
        assert ok and rank == 4

    def test_zero(self):
        ok, rank, _ = is_projection(np.zeros((3, 3)))
        assert ok and rank == 0

    def test_non_idempotent(self):
        ok, _, failure = is_projection(np.diag([1.0, 0.5]))
        assert not ok and "idempotent" in failure

    def test_non_hermitian(self):
        ok, _, failure = is_projection(np.array([[1, 1], [0, 0]], dtype=complex))
        assert not ok and "Hermitian" in failure

    @pytest.mark.parametrize("p", [
        # nan > eps is False: without a finiteness check this passed as rank 1
        [[1, np.nan, 0], [np.nan, 0, 0], [0, 0, 0]],
        # without a finiteness check rounding the NaN trace raised ValueError
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf]),
    ], ids=["off-diagonal-nan", "all-nan", "inf"])
    def test_non_finite_rejected(self, p):
        assert is_projection(p) == (False, 0, "non-finite entries")

    @pytest.mark.parametrize("m,rank", [(3, 1), (5, 2), (6, 5)])
    def test_accepts_exactly_vvstar(self, rng, m, rank):
        v = random_orthonormal(rng, m, rank)
        ok, inferred, _ = is_projection(v @ v.conj().T)
        assert ok and inferred == rank


class TestMatrixRank:
    def test_identity(self):
        assert matrix_rank(np.eye(4)) == 4

    def test_outer_product(self, rng):
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert matrix_rank(np.outer(v, v.conj())) == 1

    def test_complementary_subspaces_fill_f4(self, rng):
        v = random_orthonormal(rng, 4, 2)
        q = np.eye(4) - v @ v.conj().T
        assert matrix_rank(q) == 2
        assert matrix_rank(np.hstack([v, q])) == 4

    def test_matches_column_count_of_vvstar(self, rng):
        for k in range(1, 5):
            v = random_orthonormal(rng, 5, k)
            assert matrix_rank(v @ v.conj().T) == k

    def test_zero(self):
        assert matrix_rank(np.zeros((3, 3))) == 0

    def test_counts_singular_values_above_threshold(self, rng):
        # singular values 1, 1e-8, 1e-10 behind random unitaries; the largest
        # column norm lies in [1/sqrt(3), 1], so eps_abs=1e-9 keeps two
        u = random_orthonormal(rng, 3, 3)
        w = random_orthonormal(rng, 3, 3)
        a = u @ np.diag([1.0, 1e-8, 1e-10]) @ w.conj().T
        assert matrix_rank(a) == 2
        assert matrix_rank(a, Tolerance(eps_abs=1e-7)) == 1


class TestToleranceAndJson:
    def test_tolerance_ordering_enforced(self):
        with pytest.raises(ParameterError):
            Tolerance(eps_abs=2.0)
        with pytest.raises(ParameterError):
            Tolerance(eps_abs=0.0)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    def test_non_integral_shape_rejected(self, key, bad):
        obj = json.loads(json.dumps(matrix_to_json(np.eye(1), REAL)))
        obj[key] = bad
        with pytest.raises(ParameterError, match=key):
            matrix_from_json(obj)

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, key, bad):
        obj = json.loads(json.dumps(matrix_to_json(np.eye(2), COMPLEX)))
        obj[key][1] = bad
        with pytest.raises(ParameterError, match="non-finite entries"):
            matrix_from_json(obj)

    def test_complex_round_trip(self, rng):
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        obj = matrix_to_json(a, COMPLEX)
        assert json.dumps(obj)  # serializable
        back = matrix_from_json(obj)
        assert np.array_equal(back, a)

    def test_real_omits_im(self):
        a = np.eye(2)
        obj = matrix_to_json(a, REAL)
        assert "im" not in obj
        assert np.array_equal(matrix_from_json(obj), a)

    def test_real_tag_rejects_complex(self):
        with pytest.raises(ParameterError):
            matrix_to_json(np.array([[1j]]), REAL)
