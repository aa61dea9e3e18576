import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack.embedding import (EmbeddedVector, _coords_text, _vector_text, _write_texts,
                                 build_space, embed, embedded_code_to_json, embedding_dim,
                                 sphere_radius_sq)
from grasspack.errors import DegenerateRankError, ParameterError
from grasspack.numerics import COMPLEX, REAL

from conftest import (check_image_disjointness, code_json_text, embedded_inner, hs_inner,
                      random_projection)


def reference_basis(m, field):
    """The documented basis as a dense (d, m, m) stack: symmetric pairs
    (E_jk + E_kj)/sqrt(2) for j < k, then (complex only) antisymmetric pairs
    (-i E_jk + i E_kj)/sqrt(2), then diag(1,...,1,-h,0,...,0)/sqrt(h(h+1))."""
    s = 1.0 / np.sqrt(2.0)
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    mats = []
    for j, k in pairs:
        b = np.zeros((m, m), dtype=np.complex128)
        b[j, k] = b[k, j] = s
        mats.append(b)
    if field == COMPLEX:
        for j, k in pairs:
            b = np.zeros((m, m), dtype=np.complex128)
            b[j, k] = -1j * s
            b[k, j] = 1j * s
            mats.append(b)
    for h in range(1, m):
        b = np.zeros((m, m), dtype=np.complex128)
        b[range(h), range(h)] = 1.0 / np.sqrt(h * (h + 1))
        b[h, h] = -h / np.sqrt(h * (h + 1))
        mats.append(b)
    return np.stack(mats)


class TestSpace:
    def test_dimensions(self):
        assert embedding_dim(2, COMPLEX) == 3
        assert embedding_dim(4, COMPLEX) == 15
        assert embedding_dim(16, REAL) == 135
        assert embedding_dim(7, COMPLEX) == 48
        with pytest.raises(ParameterError):
            embedding_dim(1, COMPLEX)

    def test_made_once_per_process(self):
        """Every call returns the one read-only space; a bad m raises each time."""
        space = build_space(8, COMPLEX)
        assert build_space(8, COMPLEX) is space and build_space(8, REAL) is not space
        assert not space.helmert.flags.writeable
        assert not any(a.flags.writeable for a in space.pairs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.m = 3
        for _ in range(2):
            with pytest.raises(ParameterError):
                build_space(1, COMPLEX)

    def test_space_stores_only_helmert_rows(self):
        space = build_space(5, COMPLEX)
        assert space.helmert.shape == (4, 5)
        assert not hasattr(space, "basis")

    @pytest.mark.parametrize("m,field", [(2, COMPLEX), (7, COMPLEX), (31, COMPLEX), (5, REAL)])
    def test_pairs_are_kept_once_and_coordinates_unchanged(self, m, field):
        """The space keeps the read-only pair indices j < k that ``embed`` used
        to form on every call; the coordinates are bit for bit those formed
        with fresh ``triu_indices``."""
        space = build_space(m, field)
        j, k = np.triu_indices(m, 1)
        assert np.array_equal(space.pairs[0], j) and np.array_equal(space.pairs[1], k)
        assert not space.pairs[0].flags.writeable and not space.pairs[1].flags.writeable
        p = random_projection(np.random.default_rng(m), m, m // 2, field)
        a = p - (m // 2 / m) * np.eye(m)
        s = 1.0 / np.sqrt(2.0)
        parts = [(a[j, k] * s + a[k, j] * s).real]
        if field == COMPLEX:
            parts.append((a[j, k] * (1j * s) - a[k, j] * (1j * s)).real)
        parts.append(np.einsum("i,ki->k", np.diagonal(a), space.helmert).real)
        ref = np.concatenate(parts) / np.sqrt(sphere_radius_sq(m, m // 2))
        assert np.array_equal(embed(p, space).coords, ref)

    def test_pauli_basis_for_m2(self):
        basis = reference_basis(2, COMPLEX)
        s = 1 / np.sqrt(2)
        assert np.allclose(basis[0], [[0, s], [s, 0]])          # sigma_x
        assert np.allclose(basis[1], [[0, -1j * s], [1j * s, 0]])  # sigma_y
        assert np.allclose(basis[2], [[s, 0], [0, -s]])          # sigma_z
        # embed reads coordinates in that order: (I + sigma)/2 maps to a unit axis
        space = build_space(2, COMPLEX)
        for axis, b in enumerate(basis):
            v = embed((np.eye(2) + np.sqrt(2) * b) / 2, space)
            assert np.allclose(v.coords, np.eye(3)[axis], atol=1e-12)

    @pytest.mark.parametrize("m,field", [(2, COMPLEX), (3, COMPLEX), (4, COMPLEX),
                                          (3, REAL), (5, REAL)])
    def test_basis_orthonormal_traceless_hermitian(self, m, field):
        basis = reference_basis(m, field)
        assert basis.shape == (build_space(m, field).d, m, m)
        for i in range(len(basis)):
            b = basis[i]
            assert abs(np.trace(b)) <= 1e-12
            assert np.allclose(b, b.conj().T)
            for j in range(i, len(basis)):
                want = 1.0 if i == j else 0.0
                assert hs_inner(b, basis[j]).real == pytest.approx(want, abs=1e-12)

    def test_basis_completeness(self, rng):
        # any traceless Hermitian reconstructs from its coefficients
        for m, field in ((4, COMPLEX), (4, REAL)):
            basis = reference_basis(m, field)
            a = rng.standard_normal((m, m))
            if field == COMPLEX:
                a = a + 1j * rng.standard_normal((m, m))
            a = a + a.conj().T
            a = a - (np.trace(a) / m) * np.eye(m)
            coeff = np.einsum("ij,kij->k", a, basis.conj())
            recon = np.tensordot(coeff, basis, axes=1)
            assert np.abs(recon - a).max() <= 1e-9

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    @pytest.mark.parametrize("m", range(2, 9))
    def test_coords_bit_equal_to_reference_basis(self, rng, m, field):
        space = build_space(m, field)
        basis = reference_basis(m, field)
        for rank in range(1, m):
            p = random_projection(rng, m, rank, field)
            traceless = p - (rank / m) * np.eye(m)
            want = (np.einsum("ij,kij->k", traceless, basis.conj()).real
                    / np.sqrt(sphere_radius_sq(m, rank)))
            assert np.array_equal(embed(p, space).coords, want)


class TestEmbed:
    def test_hand_computed_qubit_example(self):
        # P = diag(1,0): traceless part diag(1/2,-1/2), radius 1/sqrt(2),
        # coordinates (0, 0, 1) in the Pauli/sqrt(2) basis
        space = build_space(2, COMPLEX)
        v = embed(np.diag([1.0, 0.0]), space)
        assert v.source_rank == 1
        assert np.allclose(v.coords, [0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_radius_formula(self, rng, m):
        space = build_space(m, COMPLEX)
        for rank in range(1, m):
            p = random_projection(rng, m, rank)
            traceless = p - (rank / m) * np.eye(m)
            assert hs_inner(traceless, traceless).real == pytest.approx(
                sphere_radius_sq(m, rank), abs=1e-9)
            v = embed(p, space)
            assert np.linalg.norm(v.coords) == pytest.approx(1.0, abs=1e-9)

    def test_reconstruction(self, rng):
        m, rank = 5, 2
        space = build_space(m, COMPLEX)
        p = random_projection(rng, m, rank)
        v = embed(p, space)
        radius = np.sqrt(sphere_radius_sq(m, rank))
        basis = reference_basis(m, COMPLEX)
        recon = np.tensordot(v.coords * radius, basis, axes=1) + (rank / m) * np.eye(m)
        assert np.abs(recon - p).max() <= 1e-9

    def test_degenerate_ranks_rejected(self):
        space = build_space(3, COMPLEX)
        with pytest.raises(DegenerateRankError):
            embed(np.eye(3), space)
        with pytest.raises(DegenerateRankError):
            embed(np.zeros((3, 3)), space)

    def test_non_projection_rejected(self):
        space = build_space(2, COMPLEX)
        with pytest.raises(ParameterError):
            embed(np.diag([1.0, 0.5]), space)

    def test_non_finite_rejected(self):
        space = build_space(3, COMPLEX)
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p[0, 1] = p[1, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            embed(p, space)

    def test_real_space_rejects_complex_data(self, rng):
        space = build_space(3, REAL)
        p = random_projection(rng, 3, 1, field="C")
        assert np.abs(p.imag).max() > 0
        with pytest.raises(ParameterError):
            embed(p, space)


class TestEmbeddedInner:
    def test_self_inner_is_one(self, rng):
        space = build_space(4, COMPLEX)
        p = random_projection(rng, 4, 2)
        assert embedded_inner(p, p, space) == pytest.approx(1.0, abs=1e-9)

    def test_complement_is_antipodal(self, rng):
        space = build_space(5, COMPLEX)
        for rank in (1, 2, 4):
            p = random_projection(rng, 5, rank)
            assert embedded_inner(p, np.eye(5) - p, space) == pytest.approx(-1.0, abs=1e-9)

    def test_hand_computed_qubit_pair(self):
        # tr(PQ) = 1/2, l = 1, m = 2: (2/1) (1/2 - 1/2) = 0
        space = build_space(2, COMPLEX)
        p = np.array([[1, 0], [0, 0]], dtype=complex)
        q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert embedded_inner(p, q, space) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_trace_formula_matches_coordinates(self, rng, m):
        # the central identity: the trace formula agrees with the explicit
        # coordinate dot product for every rank combination
        for field in (COMPLEX, REAL):
            space = build_space(m, field)
            for lp in range(1, m):
                for lq in range(1, m):
                    p = random_projection(rng, m, lp, field)
                    q = random_projection(rng, m, lq, field)
                    via_trace = embedded_inner(p, q, space)
                    via_coords = float(embed(p, space).coords @ embed(q, space).coords)
                    assert via_trace == pytest.approx(via_coords, abs=1e-9)

    def test_equal_rank_specialization(self, rng):
        # tr(PQ) = l^2/m + (l(m-l)/m) <v_P, v_Q> for equal ranks
        m, l = 6, 2
        space = build_space(m, COMPLEX)
        p = random_projection(rng, m, l)
        q = random_projection(rng, m, l)
        tr_pq = hs_inner(p, q).real
        inner = embedded_inner(p, q, space)
        assert tr_pq == pytest.approx(l * l / m + (l * (m - l) / m) * inner, abs=1e-9)

    def test_isometry_with_chordal_distance(self, rng):
        # 2 d_c(P,Q)^2 = |T_l P - T_l Q|_HS^2 with d_c^2 = l - tr(PQ)
        m, l = 5, 2
        for _ in range(10):
            p = random_projection(rng, m, l)
            q = random_projection(rng, m, l)
            dc2 = l - hs_inner(p, q).real
            tp = p - (l / m) * np.eye(m)
            tq = q - (l / m) * np.eye(m)
            diff = hs_inner(tp - tq, tp - tq).real
            assert 2 * dc2 == pytest.approx(diff, abs=1e-9)

    def test_degenerate_rejected(self):
        space = build_space(3, COMPLEX)
        p = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateRankError):
            embedded_inner(p, np.eye(3), space)


class TestDisjointness:
    def test_distinct_ranks_always_separate(self, rng):
        space = build_space(4, COMPLEX)
        for _ in range(200):
            p = random_projection(rng, 4, 1)
            q = random_projection(rng, 4, 2)
            assert check_image_disjointness(p, q, space)

    def test_complement_pair_distance_two(self, rng):
        space = build_space(4, COMPLEX)
        p = random_projection(rng, 4, 1)
        q = np.eye(4) - p
        vp = embed(p, space).coords
        vq = embed(q, space).coords
        assert np.linalg.norm(vp - vq) == pytest.approx(2.0, abs=1e-9)
        assert check_image_disjointness(p, q, space)

    def test_equal_ranks_rejected(self, rng):
        space = build_space(4, COMPLEX)
        p = random_projection(rng, 4, 2)
        q = random_projection(rng, 4, 2)
        with pytest.raises(ParameterError):
            check_image_disjointness(p, q, space)


def test_embedded_code_json(rng):
    space = build_space(3, COMPLEX)
    vectors = [embed(random_projection(rng, 3, 1), space, source_index=i)
               for i in range(4)]
    obj = embedded_code_to_json(space, vectors)
    assert obj["d"] == 8
    assert len(obj["vectors"]) == 4
    assert all(len(v["coords"]) == 8 and v["rank"] == 1 for v in obj["vectors"])


def streamed_text(space, vectors) -> str:
    """The text the code writer of ``grasspack embed`` writes of ``vectors``,
    handed over one at a time."""
    fp = io.StringIO()
    texts = (_vector_text(_coords_text(v.coords), v.source_rank) for v in vectors)
    assert _write_texts(fp, space.d, texts) == len(vectors)
    return fp.getvalue()


# finite float64 values whose repr takes each of its forms: signed zero,
# subnormal, exponent notation at both ends, and integral floats
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-07, -1e-07, 1e-05, 1e16, -1e16,
                  1e15, 1.0, -2.0, 3.0, 2.0 ** 53, 1.7976931348623157e308]


@st.composite
def codes(draw):
    """A space of m = 2..4 over R or C and up to four vectors of its d
    coordinates, each any finite float64, with ranks 1..m-1."""
    space = build_space(draw(st.integers(2, 4)), draw(st.sampled_from([REAL, COMPLEX])))
    coordinate = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                           st.integers(-10 ** 17, 10 ** 17).map(float),
                           st.floats(allow_nan=False, allow_infinity=False))
    vectors = draw(st.lists(st.builds(
        lambda coords, rank: EmbeddedVector(np.array(coords, dtype=np.float64), rank),
        st.lists(coordinate, min_size=space.d, max_size=space.d),
        st.integers(1, space.m - 1)), max_size=4))
    return space, vectors


class TestWriteEmbeddedCode:
    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_bytes_equal_the_reference(self, rng, field, count):
        space = build_space(4, field)
        vectors = [embed(random_projection(rng, 4, 1 + i % 3, field), space, source_index=i)
                   for i in range(count)]
        text = streamed_text(space, vectors)
        assert text == code_json_text(space, vectors)
        if not count:
            assert text == f'{{\n  "d": {space.d},\n  "vectors": []\n}}\n'

    @settings(max_examples=150, deadline=None)
    @given(codes())
    def test_any_finite_coordinates(self, code):
        space, vectors = code
        assert streamed_text(space, vectors) == code_json_text(space, vectors)
