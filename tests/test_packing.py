import dataclasses
import itertools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack.cli import main
from grasspack.designs import (BlockDesign, complement_design, complementary_halves,
                               gen_hadamard, hadamard_to_3design, design_rebase)
from grasspack.embedding import build_space, embed, embedding_dim
from grasspack.errors import (DegenerateRankError, HypothesisError, ParameterError,
                              StructuralError)
from grasspack.fields import build_field, enumerate_projective_plane
from grasspack.mubs import (MubFamily, gen_mubs, gen_mubs_prime, gen_mubs_prime_power,
                            gen_mubs_small, mubs_from_json, verify_mubs)
from grasspack.numerics import (COMPLEX, DEFAULT_TOL, REAL, Tolerance, matrix_rank,
                                matrix_to_json)
from grasspack.packing import (CertStatus, HypothesisRecord, OrthoplexReport, Packing,
                               Projection, _embedded_gram, _orthoplex_pattern, _table_coordinates,
                               build_mixed_packing, build_orthoplex_packing,
                               certificate_to_json, certify, check_tightness,
                               coherence, coordinate_projection, extract_hadamard,
                               packing_from_json, packing_to_json,
                               span_of_achievers, spatial_complement,
                               verify_orthoplex_geometry)

from conftest import (dense_copy, embedded_inner, hs_inner, numeric_report,
                      packing_code_text, random_orthonormal, random_projection)

DATA = Path(__file__).parent / "data"

FANO = BlockDesign(7, enumerate_projective_plane(2))
FANO_C = complement_design(FANO)


def fano_mixed_packing():
    mubs = gen_mubs_prime(7)
    return build_mixed_packing(mubs, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, 6, 7]])


def c4_orthoplex_packing():
    design3 = hadamard_to_3design(gen_hadamard(4))
    halves = complementary_halves(design3)
    return build_orthoplex_packing(gen_mubs_small(4, COMPLEX), halves), design3


class TestCoordinateProjection:
    def test_standard_basis_block(self):
        mubs = gen_mubs_small(4, COMPLEX)
        p = coordinate_projection(mubs, 0, (0, 1))
        assert np.allclose(p.matrix, np.diag([1, 1, 0, 0]))
        assert p.rank == 2
        assert (p.basis_index, p.block) == (0, (0, 1))

    def test_same_basis_trace_is_intersection(self):
        mubs = gen_mubs_prime(5)
        p = coordinate_projection(mubs, 2, (0, 1))
        q = coordinate_projection(mubs, 2, (1, 2))
        assert hs_inner(p.matrix, q.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_fourier_vs_standard_c3(self):
        # |J| = 1, |J'| = 2 across unbiased bases: trace = 1*2/3
        mubs = gen_mubs_prime(3)
        assert np.allclose(np.abs(mubs.bases[1]), 1 / np.sqrt(3))
        p = coordinate_projection(mubs, 0, (0,))
        q = coordinate_projection(mubs, 1, (0, 2))
        assert hs_inner(p.matrix, q.matrix).real == pytest.approx(2 / 3, abs=1e-12)

    def test_remembers_family_index_and_block(self):
        family = gen_mubs_prime(5)
        p = coordinate_projection(family, np.int64(1), (np.int64(3), 1))
        assert p.family is family and p.basis_index == 1 and p.block == (1, 3)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_basis_index_out_of_range(self, index):
        with pytest.raises(ParameterError, match=f"basis index {index} outside 0..5"):
            coordinate_projection(gen_mubs_prime(5), index, (0,))

    @pytest.mark.parametrize("q, a, block", [(5, 3, (4, 0, 2)), (9, 1, (1, 2, 7, 8)),
                                             (9, 7, (0, 5)), (31, 30, tuple(range(0, 31, 2)))])
    def test_matrix_is_formed_read_only_on_read(self, q, a, block):
        """A phase element's matrix is U_J U_J^* to within 1e-15, with l/q
        exactly on its diagonal and equal bits in entries of one class (t, c),
        t = E[a-1, x, 0] - E[a-1, y, 0] mod p and c = x - y in GF(q); its
        Helmert coordinates are all 0.0."""
        family = gen_mubs(q, COMPLEX)
        p = coordinate_projection(family, a, block)
        u = family.bases[a][:, sorted(block)]
        mat = p.matrix
        assert not mat.flags.writeable
        assert np.abs(mat - u @ u.conj().T).max() <= 1e-15
        assert np.all(np.diagonal(mat) == len(block) / q)
        helmert = embed(mat, build_space(q, COMPLEX)).coords[-(q - 1):]
        assert np.all(helmert == 0.0) and not np.any(np.signbit(helmert))
        prime, expo = family.phases
        ft = build_field(q)
        squares = expo[a - 1, :, 0].astype(np.intp)
        seen = {}
        for x, y in itertools.product(range(q), repeat=2):
            diff = next(c for c in range(q) if ft.add(c, y) == x)
            key = ((int(squares[x]) - int(squares[y])) % prime, diff)
            assert seen.setdefault(key, mat[x, y].tobytes()) == mat[x, y].tobytes()

    def test_standard_basis_matrix_is_the_product(self):
        family = gen_mubs_prime(5)
        p = coordinate_projection(family, 0, (4, 0, 2))
        u = family.bases[0][:, [0, 2, 4]]
        assert not p.matrix.flags.writeable
        assert np.array_equal(p.matrix, u @ u.conj().T)

    @pytest.mark.parametrize("label", [1.0, 1.5, "1", True])
    def test_non_integral_label_rejected(self, label):
        with pytest.raises(ParameterError, match="point label"):
            coordinate_projection(gen_mubs_prime(3), 0, (0, label))

    def test_out_of_range(self):
        mubs = gen_mubs_small(2, COMPLEX)
        with pytest.raises(ParameterError):
            coordinate_projection(mubs, 0, (0, 2))
        with pytest.raises(ParameterError):
            coordinate_projection(mubs, 0, ())


class TestProjection:
    def test_non_finite_rejected(self):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p[0, 1] = p[1, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            Projection(p)

    def test_dense_element_is_only_its_matrix(self):
        p = Projection(np.diag([1.0, 1.0, 0.0]))
        assert (p.rank, p.family, p.basis_index, p.block) == (2, None, None, None)
        assert not hasattr(p, "provenance")
        with pytest.raises(TypeError, match="provenance"):
            Projection(np.diag([1.0, 0.0]), provenance=(0, (0,)))

    def test_equality_is_identity(self):
        p = Projection(np.diag([1.0, 0.0]))
        q = Projection(np.diag([0.0, 1.0]))
        assert p == p and p != q
        assert (fano_mixed_packing() == fano_mixed_packing()) is False


class TestBuildMixed:
    def test_fano_plus_complement(self):
        pk = fano_mixed_packing()
        assert pk.n == 56
        assert pk.rank_profile == ((28, 3), (28, 4))
        assert pk.mixture == 2
        assert pk.hypotheses.ok
        assert pk.n > embedding_dim(7, COMPLEX) + 1  # 56 > 49

    def test_trace_identities_exact(self):
        # same basis: tr = |J & J'|; unbiased bases: tr = |J||J'|/m
        pk = fano_mixed_packing()
        m = pk.m
        for i, j in itertools.combinations(range(0, pk.n, 5), 2):
            pi, pj = pk.elements[i], pk.elements[j]
            ki, blki = pi.basis_index, pi.block
            kj, blkj = pj.basis_index, pj.block
            tr = hs_inner(pi.matrix, pj.matrix).real
            if ki == kj:
                assert tr == pytest.approx(len(set(blki) & set(blkj)), abs=1e-9)
            else:
                assert tr == pytest.approx(len(blki) * len(blkj) / m, abs=1e-9)

    def test_single_design_constant_rank(self):
        mubs = gen_mubs_prime(7)
        pk = build_mixed_packing(mubs, [FANO], [list(range(8))])
        assert pk.n == 56 and pk.mixture == 1
        assert pk.hypotheses.ok

    def test_overlapping_partition_rejected(self):
        mubs = gen_mubs_prime(7)
        with pytest.raises(ParameterError):
            build_mixed_packing(mubs, [FANO, FANO_C], [[0, 1], [1, 2]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            build_mixed_packing(gen_mubs_prime(5), [FANO], [[0]])

    def test_build_checks_no_element(self, monkeypatch):
        from grasspack import packing
        calls = []
        check = packing.is_projection

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        mubs = gen_mubs_prime(7)
        monkeypatch.setattr(packing, "is_projection", counting)
        pk = build_mixed_packing(mubs, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert pk.n == 56 and not calls

    def test_build_retains_no_dense_matrices(self):
        import tracemalloc
        m = 31
        plane = BlockDesign(m, enumerate_projective_plane(5))
        mubs = gen_mubs_prime(m)
        tracemalloc.start()
        try:
            pk = build_mixed_packing(mubs, [plane, complement_design(plane)],
                                     [list(range(0, 32, 2)), list(range(1, 32, 2))])
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert pk.n == 992
        assert retained < pk.n * m * m * 16 / 10  # a tenth of the dense stack

    @pytest.mark.parametrize("bad", [1.5, 1.0, "1", True])
    def test_non_integral_basis_index_rejected(self, bad):
        with pytest.raises(ParameterError, match="basis index"):
            build_mixed_packing(gen_mubs_prime(7), [FANO, FANO_C], [[0, bad], [2, 3]])

    def test_non_cohesive_design_tagged_not_blocked(self):
        # blocks meeting in 2 > l^2/m = 9/7 points violate cohesion
        mubs = gen_mubs_prime(7)
        bad = BlockDesign(7, [(0, 1, 2), (0, 1, 3)] * 30)
        pk = build_mixed_packing(mubs, [bad], [list(range(8))])
        assert not pk.hypotheses.ok
        assert any("cohesive" in f for f in pk.hypotheses.failures)
        with pytest.raises(HypothesisError):
            certify(pk)

    def test_small_cardinality_tagged(self):
        mubs = gen_mubs_prime(7)
        pk = build_mixed_packing(mubs, [FANO], [[0]])  # 7 <= d+1 = 49
        assert not pk.hypotheses.ok
        assert any("d+1" in f for f in pk.hypotheses.failures)

    def test_affine_design_family_certifies(self):
        # hyperplane cosets of GF(3)^2 and their complements over the maximal
        # C^9 family: the other infinite construction
        from grasspack.fields import enumerate_affine_hyperplanes
        ag = BlockDesign(9, enumerate_affine_hyperplanes(3, 2))
        pk = build_mixed_packing(gen_mubs_prime_power(9), [ag, complement_design(ag)],
                                 [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]])
        assert pk.n == 120 > embedding_dim(9, COMPLEX) + 1
        assert pk.hypotheses.ok
        cert = certify(pk)
        assert cert.status is CertStatus.OPTIMAL_ORTHOPLEX
        assert cert.is_tight
        # per-basis constants: r = 4 for the hyperplanes, r = 8 for complements
        assert cert.tight_constant == pytest.approx(4 * 5 + 8 * 5, abs=1e-9)


class TestBuildOrthoplex:
    def test_c4_counts_and_tag(self):
        pk, _ = c4_orthoplex_packing()
        assert pk.n == 30 == 2 * embedding_dim(4, COMPLEX)
        assert pk.rank_profile == ((30, 2),)
        assert pk.hypotheses.candidate_maximal

    def test_rebased_fano_accepted(self):
        _, rebased = design_rebase(FANO)
        pk = build_orthoplex_packing(gen_mubs_prime_power(9), rebased)
        assert pk.n == 2 * 7 * 10 == 140
        assert not pk.hypotheses.candidate_maximal  # |S| = 7 != m - 1 = 8
        assert pk.hypotheses.ok

    def test_bad_intersection_named(self):
        # duplicate blocks meet in l^2/m + 1 = 2 points
        mubs = gen_mubs_small(4, COMPLEX)
        with pytest.raises(HypothesisError, match="blocks 0 and 1"):
            build_orthoplex_packing(mubs, BlockDesign(4, [(0, 1), (0, 1)]))
        # disjoint blocks meet in 0 != l^2/m points
        with pytest.raises(HypothesisError):
            build_orthoplex_packing(mubs, BlockDesign(4, [(0, 1), (2, 3)]))

    def test_c2_octahedron(self):
        pk = build_orthoplex_packing(gen_mubs_small(2, COMPLEX), BlockDesign(2, [(0,)]))
        assert pk.n == 6 == 2 * embedding_dim(2, COMPLEX)
        assert pk.hypotheses.candidate_maximal


class TestCoherence:
    def test_antipodal_pair(self, rng):
        p = random_projection(rng, 3, 1)
        pk = Packing(3, COMPLEX, (Projection(p), Projection(np.eye(3) - p)))
        rep = coherence(pk)
        assert rep.mu_embedded == pytest.approx(-1.0, abs=1e-9)

    def test_fano_mixed_packing_constant_zero(self):
        pk = fano_mixed_packing()
        rep = coherence(pk)
        assert rep.mu_embedded == pytest.approx(0.0, abs=1e-9)
        # attained exactly by cross-basis pairs; same-basis pairs sit below
        assert rep.pair_classes["cross_basis/same_rank"].max_inner == pytest.approx(0, abs=1e-9)
        assert rep.pair_classes["cross_basis/cross_rank"].max_inner == pytest.approx(0, abs=1e-9)
        assert rep.pair_classes["same_basis/same_rank"].max_inner == pytest.approx(-1 / 6, abs=1e-9)
        assert "same_basis/cross_rank" not in rep.pair_classes
        # every element pairs with a different basis, so all are achievers
        assert rep.achievers == tuple(range(56))

    def test_orthonormal_basis_packing(self):
        m = 5
        mubs = gen_mubs_prime(5)
        els = tuple(coordinate_projection(mubs, 0, (j,)) for j in range(m))
        rep = coherence(Packing(m, COMPLEX, els))
        assert rep.mu_embedded == pytest.approx(-1 / (m - 1), abs=1e-9)

    def test_raw_coherence_constant_rank(self):
        pk, _ = c4_orthoplex_packing()
        rep = coherence(pk)
        assert rep.mu_raw == pytest.approx(1.0, abs=1e-9)  # l^2/m = 4/4
        assert rep.mu_embedded == pytest.approx(0.0, abs=1e-9)

    def test_mixed_rank_has_no_raw(self):
        rep = coherence(fano_mixed_packing())
        assert rep.mu_raw is None

    def test_argmax_pair_attains_mu(self):
        pk = fano_mixed_packing()
        rep = coherence(pk)
        i, j = rep.argmax_pair
        space = build_space(7, COMPLEX)
        val = embedded_inner(pk.elements[i].matrix, pk.elements[j].matrix, space)
        assert val == pytest.approx(rep.mu_embedded, abs=1e-12)

    def test_vectorized_gram_matches_pairwise_formula(self, rng):
        # the bulk pair scan agrees with the one-pair trace formula everywhere
        from grasspack.packing import _embedded_gram
        m = 5
        space = build_space(m, COMPLEX)
        els = tuple(Projection(random_projection(rng, m, int(r)))
                    for r in rng.integers(1, m, size=12))
        pk = Packing(m, COMPLEX, els)
        e, _ = _embedded_gram(pk)
        for i in range(pk.n):
            for j in range(i + 1, pk.n):
                want = embedded_inner(els[i].matrix, els[j].matrix, space)
                assert e[i, j] == pytest.approx(want, abs=1e-10)


class TestCertify:
    def test_c4_maximal_orthoplex(self):
        pk, _ = c4_orthoplex_packing()
        cert = certify(pk)
        assert cert.status is CertStatus.MAXIMAL_ORTHOPLEX
        assert cert.is_tight
        assert cert.tight_constant == pytest.approx(15.0, abs=1e-9)
        assert cert.details["antipodal_pairs"] == 15

    def test_fano_mixed_orthoplex_regime(self):
        cert = certify(fano_mixed_packing())
        assert cert.status is CertStatus.OPTIMAL_ORTHOPLEX
        assert cert.is_tight
        assert cert.tight_constant == pytest.approx(28.0, abs=1e-9)  # 3*4 + 4*4

    def test_orthonormal_basis_simplex(self):
        mubs = gen_mubs_prime(3)
        els = tuple(coordinate_projection(mubs, 0, (j,)) for j in range(3))
        cert = certify(Packing(3, COMPLEX, els))
        assert cert.status is CertStatus.OPTIMAL_SIMPLEX

    def test_random_packing_not_certified(self, rng):
        els = tuple(Projection(random_projection(rng, 4, 2)) for _ in range(20))
        cert = certify(Packing(4, COMPLEX, els))
        assert cert.status is CertStatus.NOT_CERTIFIED

    def test_constant_rank_bounds_reported(self):
        pk, _ = c4_orthoplex_packing()
        cert = certify(pk)
        n, l, m = 30, 2, 4
        assert cert.details["raw_orthoplex_bound"] == pytest.approx(l * l / m)
        assert cert.details["raw_simplex_bound"] == pytest.approx(
            (n * l * l - m * l) / (m * (n - 1)))
        assert cert.details["raw_coherence"] == pytest.approx(1.0, abs=1e-9)

    def test_tagged_packing_refused(self):
        mubs = gen_mubs_prime(7)
        pk = build_mixed_packing(mubs, [FANO], [[0]])
        with pytest.raises(HypothesisError):
            certify(pk)


class TestTightness:
    def test_single_basis_fano_gives_three_i(self):
        mubs = gen_mubs_prime(7)
        pk = build_mixed_packing(mubs, [FANO], [[0]])
        tight, constant = check_tightness(pk)
        assert tight and constant == pytest.approx(3.0, abs=1e-12)

    def test_complement_pair(self, rng):
        p = random_projection(rng, 4, 1)
        pk = Packing(4, COMPLEX, (Projection(p), Projection(np.eye(4) - p)))
        tight, constant = check_tightness(pk)
        assert tight and constant == pytest.approx(1.0, abs=1e-12)

    def test_single_projection_not_tight(self, rng):
        pk = Packing(4, COMPLEX, (Projection(random_projection(rng, 4, 1)),))
        tight, constant = check_tightness(pk)
        assert not tight
        assert constant == pytest.approx(0.25)


class TestSpatialComplement:
    def test_fano_mixed_swaps_ranks_preserves_mu(self):
        pk = fano_mixed_packing()
        comp = spatial_complement(pk)
        assert comp.rank_profile == ((28, 3), (28, 4))  # 3 and 4 swap roles
        mu0 = coherence(pk).mu_embedded
        mu1 = coherence(comp).mu_embedded
        assert abs(mu0 - mu1) <= 1e-12

    def test_complement_preserves_all_pairwise_inners(self):
        # all embedded vectors negate, so the whole inner-product multiset
        # coincides pairwise (order is preserved)
        from grasspack.packing import _embedded_gram
        pk = fano_mixed_packing()
        e0, _ = _embedded_gram(pk)
        e1, _ = _embedded_gram(spatial_complement(pk))
        assert np.abs(e0 - e1).max() <= 1e-12

    def test_involution(self):
        pk = fano_mixed_packing()
        back = spatial_complement(spatial_complement(pk))
        for a, b in zip(pk.elements, back.elements):
            assert np.abs(a.matrix - b.matrix).max() <= 1e-12
            assert (a.family, a.basis_index, a.block) == (b.family, b.basis_index, b.block)

    def test_dense_element_complement_is_unlabelled(self, rng):
        p = random_projection(rng, 4, 1)
        comp = spatial_complement(Packing(4, COMPLEX, (Projection(p),)))
        (q,) = comp.elements
        assert (q.rank, q.family, q.basis_index, q.block) == (3, None, None, None)
        assert np.abs(q.matrix - (np.eye(4) - p)).max() <= 1e-12

    def test_orthoplex_packing_complement_is_same_set(self):
        pk, _ = c4_orthoplex_packing()
        comp = spatial_complement(pk)
        used = set()
        for c in comp.elements:
            match = next(
                i for i in range(pk.n)
                if i not in used and np.abs(pk.elements[i].matrix - c.matrix).max() <= 1e-12)
            used.add(match)
        assert len(used) == pk.n

    def test_full_rank_rejected(self):
        pk = Packing(3, COMPLEX, (Projection(np.eye(3)),))
        with pytest.raises(DegenerateRankError):
            spatial_complement(pk)


class TestOrthoplexGeometry:
    def test_c4_passes(self):
        pk, _ = c4_orthoplex_packing()
        report = verify_orthoplex_geometry(pk)
        assert report.passes
        assert len(report.antipodal_pairs) == 15
        assert report.max_offdiag_dev <= 1e-9
        # antipodal pairs are complementary subspace pairs
        for i, j in report.antipodal_pairs:
            assert pk.elements[i].rank + pk.elements[j].rank == 4
            tr = hs_inner(pk.elements[i].matrix, pk.elements[j].matrix).real
            assert abs(tr) <= 1e-9

    def test_c2_octahedron_passes(self):
        pk = build_orthoplex_packing(gen_mubs_small(2, COMPLEX), BlockDesign(2, [(0,)]))
        report = verify_orthoplex_geometry(pk)
        assert report.passes and report.n == 6 and report.d == 3

    def test_fano_mixed_fails_cardinality(self):
        report = verify_orthoplex_geometry(fano_mixed_packing())
        assert not report.passes
        assert "n != 2d" in report.reason

    def test_geometry_pass_checks_memory_first(self, monkeypatch):
        """The geometry pass sizes its arrays against physical memory before
        forming coordinates; ``certify`` of the same packing is exact and
        never reaches the guard."""
        from grasspack import packing
        monkeypatch.setattr(packing, "_physical_memory", lambda: 1000)
        pk, design3 = c4_orthoplex_packing()
        with pytest.raises(ParameterError,
                           match="orthoplex geometry pass .* 1000 bytes of physical memory"):
            verify_orthoplex_geometry(pk)
        cert = certify(pk)
        assert cert.status is CertStatus.MAXIMAL_ORTHOPLEX and cert.coherence.method == "exact"
        assert extract_hadamard(pk, design3).order == 4

    @pytest.mark.parametrize("args, need", [
        ((), 2_146_566_240),  # the numeric pass: 3 * 8 n^2 + 16 n m^2
        ((4095, False), 871_989_300),  # a block table: 8 n d + 8 n^2 + n^2
        ((4095, True), 1_140_293_700),  # dense elements: 16 n d + 9 n^2
    ], ids=["numeric", "geometry-table", "geometry-dense"])
    def test_pass_bytes_at_q64(self, args, need, monkeypatch):
        """At q = 64 (m = 64, d = 4095, n = 2d = 8190) the geometry pass asks
        what its arrays take, not the numeric pass's 2.15 GB."""
        from grasspack import packing
        monkeypatch.setattr(packing, "_physical_memory", lambda: need - 1)
        stand_in = dataclasses.make_dataclass("Sizes", ["n", "m"])(8190, 64)
        with pytest.raises(ParameterError, match=f"n=8190, m=64 needs at least {need} bytes, "
                                                 f"more than the {need - 1} bytes"):
            packing._check_memory(stand_in, "a pass", *args)
        monkeypatch.setattr(packing, "_physical_memory", lambda: need)
        packing._check_memory(stand_in, "a pass", *args)

    @pytest.mark.parametrize("dense", [False, True], ids=["table", "dense"])
    def test_geometry_pass_is_sized_by_what_it_holds(self, dense, monkeypatch):
        """The C^4 orthoplex (n = 30, d = 15) needs 8 n d + 9 n^2 = 11700 bytes
        as a block table and 16 n d + 9 n^2 = 15300 as dense elements: one byte
        less is refused, exactly that much passes."""
        from grasspack import packing
        pk = c4_orthoplex_packing()[0]
        pk, need = (dense_copy(pk), 15300) if dense else (pk, 11700)
        monkeypatch.setattr(packing, "_physical_memory", lambda: need - 1)
        with pytest.raises(ParameterError, match=f"needs at least {need} bytes"):
            verify_orthoplex_geometry(pk)
        monkeypatch.setattr(packing, "_physical_memory", lambda: need)
        assert verify_orthoplex_geometry(pk).passes

    def test_maximal_orthoplex_is_tight(self):
        # every verified orthoplex is a tight fusion frame
        for pk in (c4_orthoplex_packing()[0],
                   build_orthoplex_packing(gen_mubs_small(2, COMPLEX),
                                           BlockDesign(2, [(0,)]))):
            assert verify_orthoplex_geometry(pk).passes
            assert check_tightness(pk)[0]


class TestSpanOfAchievers:
    def test_fano_mixed_full_span(self):
        pk = fano_mixed_packing()
        rep = coherence(pk)
        dim, full = span_of_achievers(pk, rep, certify(pk))
        assert dim == 7 and full

    def test_c4_full_span(self):
        pk, _ = c4_orthoplex_packing()
        rep = coherence(pk)
        dim, full = span_of_achievers(pk, rep)
        assert dim == 4 and full

    def test_two_element_complement_pair(self, rng):
        p = random_projection(rng, 2, 1)
        pk = Packing(2, COMPLEX, (Projection(p), Projection(np.eye(2) - p)))
        rep = coherence(pk)
        dim, full = span_of_achievers(pk, rep)
        assert dim == 2 and full

    def test_rank_deficient_span(self):
        # three lines at 120 degrees inside span{e0, e1} of C^3: every pair
        # attains the packing constant, yet together they span only a plane
        els = []
        for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
            u = np.array([np.cos(t), np.sin(t), 0.0])
            els.append(Projection(np.outer(u, u)))
        pk = Packing(3, COMPLEX, tuple(els))
        rep = coherence(pk)
        assert rep.achievers == (0, 1, 2)
        assert span_of_achievers(pk, rep) == (2, False)

    def test_not_certified_rejected_when_certificate_given(self, rng):
        els = tuple(Projection(random_projection(rng, 3, 1)) for _ in range(5))
        pk = Packing(3, COMPLEX, els)
        rep = coherence(pk)
        cert = certify(pk)
        if cert.status is CertStatus.NOT_CERTIFIED:
            with pytest.raises(ParameterError):
                span_of_achievers(pk, rep, cert)

    def test_too_few_elements_rejected(self, rng):
        pk = Packing(4, COMPLEX, (Projection(random_projection(rng, 4, 1)),
                                  Projection(random_projection(rng, 4, 2))))
        rep = coherence(pk)
        with pytest.raises(ParameterError):
            span_of_achievers(pk, rep)

    def test_only_a_covered_basis_skips_the_numeric_rank(self, monkeypatch):
        """Achievers that cover every point on one basis need no sum; the
        first two blocks of each basis, or of one, cover no basis, and the
        rank of their sum is taken."""
        from grasspack import packing
        ranks, rank = [], packing.matrix_rank
        monkeypatch.setattr(packing, "matrix_rank", lambda *a: ranks.append(rank(*a)) or ranks[-1])
        pk = fano_mixed_packing()  # seven blocks on each of the eight bases in turn
        rep = coherence(pk)
        assert span_of_achievers(pk, rep) == (7, True) and ranks == []
        for picked in (tuple(i for i in range(pk.n) if i % 7 < 2), (0, 1), (28, 29)):
            ref = matrix_rank(sum(pk.elements[i].matrix for i in picked), DEFAULT_TOL)
            assert ref == {(0, 1): 5, (28, 29): 6}.get(picked, 7)
            got = span_of_achievers(pk, dataclasses.replace(rep, achievers=picked))
            assert got == (ref, ref == 7) and ranks[-1] == ref
        assert len(ranks) == 3


def parent_hadamard(design):
    """The rows the set-based extraction wrote: +1 on each kept half, then all +1."""
    m = design.m
    h = -np.ones((m, m), dtype=np.int64)
    for i, blk in enumerate(complementary_halves(design).blocks):
        h[i, list(blk)] = 1
    h[m - 1, :] = 1
    return h


ORTHOPLEX_CASES = {
    "c2": lambda: (BUILDER_FIXTURES["c2-octahedron"](), BlockDesign(2, [(0,), (1,)])),
    "c4": c4_orthoplex_packing,
    "c8": lambda: (c8_orthoplex_packing(), hadamard_to_3design(gen_hadamard(8))),
}


FAMILY_REQUIRED = ("^Hadamard extraction needs a packing of coordinate projections "
                   "of one MUB family$")


class TestExtractHadamard:
    @pytest.mark.parametrize("variant", ["built", "imported"])
    @pytest.mark.parametrize("case", sorted(ORTHOPLEX_CASES))
    def test_reads_the_certificate(self, case, variant, monkeypatch):
        """The orthoplex verdict is the certificate's: no geometry pass runs,
        and no element matrix is formed. An imported copy, dense matrices
        whose blocks nothing can check, is refused."""
        from grasspack import packing
        pk, design = ORTHOPLEX_CASES[case]()
        pk = VARIANTS[variant](pk)
        calls = {"geometry": 0, "matrix": 0}
        geometry, matrix = packing.verify_orthoplex_geometry, Projection.matrix.fget

        def counted_geometry(*args, **kwargs):
            calls["geometry"] += 1
            return geometry(*args, **kwargs)

        def counted_matrix(self):
            calls["matrix"] += 1
            return matrix(self)

        monkeypatch.setattr(packing, "verify_orthoplex_geometry", counted_geometry)
        monkeypatch.setattr(Projection, "matrix", property(counted_matrix))
        if variant == "imported":
            with pytest.raises(StructuralError, match=FAMILY_REQUIRED):
                extract_hadamard(pk, design)
        else:
            h = extract_hadamard(pk, design)
            assert np.array_equal(h.entries, parent_hadamard(design))
        assert calls == {"geometry": 0, "matrix": 0}

    def test_not_maximal_names_the_certified_status(self):
        pk, design3 = c4_orthoplex_packing()
        fewer = Packing(4, COMPLEX, pk.elements[:-6])  # the last basis dropped: n = 24 < 2d
        with pytest.raises(StructuralError, match="^packing is not a maximal orthoplex: "
                                                  "certified OptimalOrthoplexRegime$"):
            extract_hadamard(fewer, design3)

    def test_hypothesis_tagged_packing_raises_hypothesis_error(self):
        pk, design3 = c4_orthoplex_packing()
        tagged = Packing(4, COMPLEX, pk.elements, HypothesisRecord(False, ("made up",)))
        with pytest.raises(HypothesisError, match="made up"):
            extract_hadamard(tagged, design3)

    def test_c4_round_trip(self):
        pk, design3 = c4_orthoplex_packing()
        h = extract_hadamard(pk, design3)
        assert h.order == 4
        assert np.array_equal(h.entries @ h.entries.T, 4 * np.eye(4, dtype=int))
        # round trip: the 3-design read back off h matches the original blocks
        # up to order and per-pair orientation
        back = hadamard_to_3design(h)
        assert sorted(back.blocks) == sorted(design3.blocks)

    def test_c8_with_imported_mubs(self):
        mubs = mubs_from_json(json.loads((DATA / "mubs_c8.json").read_text()))
        design3 = hadamard_to_3design(gen_hadamard(8))
        halves = complementary_halves(design3)
        pk = build_orthoplex_packing(mubs, halves)
        assert pk.n == 126 == 2 * embedding_dim(8, COMPLEX)
        cert = certify(pk)
        assert cert.status is CertStatus.MAXIMAL_ORTHOPLEX
        h = extract_hadamard(pk, design3)
        assert h.order == 8
        assert np.array_equal(h.entries @ h.entries.T, 8 * np.eye(8, dtype=int))

    def test_mixed_rank_rejected(self):
        pk = fano_mixed_packing()
        with pytest.raises(StructuralError):
            extract_hadamard(pk, FANO)

    @pytest.mark.parametrize("variant", ["built", "imported"])
    def test_repeated_blocks_rejected(self, variant):
        pk, _ = c4_orthoplex_packing()
        pk = VARIANTS[variant](pk)
        other = BlockDesign(4, [(0, 1), (2, 3), (0, 1), (2, 3), (0, 2), (1, 3)])
        with pytest.raises(StructuralError, match=FAMILY_REQUIRED if variant == "imported"
                           else "^the design's blocks are not the packing's blocks on basis 0$"):
            extract_hadamard(pk, other)

    @pytest.mark.parametrize("variant", ["built", "imported"])
    def test_relabelled_design_rejected(self, variant):
        """Swapping points 0 and 1 of the C^8 3-design changes its block set
        (in C^4 the blocks are all six pairs, which a relabelling keeps). The
        imported copy is refused with either design: its basis 0 is not the
        standard basis, so no block could be read off its matrices."""
        pk = VARIANTS[variant](c8_orthoplex_packing())
        design3 = hadamard_to_3design(gen_hadamard(8))
        swap = {0: 1, 1: 0}
        other = BlockDesign(8, [[swap.get(x, x) for x in blk] for blk in design3.blocks])
        if variant == "imported":
            for design in (other, design3):
                with pytest.raises(StructuralError, match=FAMILY_REQUIRED):
                    extract_hadamard(pk, design)
            return
        with pytest.raises(StructuralError, match="not the packing's blocks"):
            extract_hadamard(pk, other)
        assert extract_hadamard(pk, design3).order == 8


class TestJson:
    def test_packing_round_trip(self):
        pk = fano_mixed_packing()
        obj = packing_to_json(pk)
        text = json.dumps(obj, sort_keys=True)
        back = packing_from_json(json.loads(text))
        assert back.m == pk.m and back.field == pk.field and back.n == pk.n
        for a, b in zip(pk.elements, back.elements):
            assert np.array_equal(a.matrix, b.matrix)
            assert (a.basis_index, a.block) == (b.basis_index, b.block)
        assert back.hypotheses == pk.hypotheses

    def test_malformed_element_reported_with_index(self):
        pk = fano_mixed_packing()
        obj = packing_to_json(dense_copy(pk))
        obj["elements"][3]["re"][0] = 0.7  # break idempotency
        with pytest.raises(ParameterError, match="element 3"):
            packing_from_json(obj)

    def test_nan_entry_rejected(self):
        obj = packing_to_json(dense_copy(fano_mixed_packing()))
        obj["elements"][3]["re"][1] = float("nan")
        with pytest.raises(ParameterError, match="element 3.*non-finite"):
            packing_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("m", [7.5, 7.0, "7"])
    def test_non_integral_m_rejected(self, m):
        obj = packing_to_json(fano_mixed_packing())
        obj["m"] = m
        with pytest.raises(ParameterError, match="m "):
            packing_from_json(json.loads(json.dumps(obj)))

    def test_field_must_match_the_elements(self):
        family = gen_mubs_prime(3)
        pk = Packing(3, COMPLEX, tuple(coordinate_projection(family, a, (x,))
                                       for a in range(3) for x in range(3)))
        with pytest.raises(ParameterError, match="element 0 is over C"):
            Packing(3, REAL, pk.elements)
        obj = packing_to_json(pk)
        obj["field"] = REAL
        with pytest.raises(ParameterError, match="element 0 is over C, the packing over R"):
            packing_from_json(json.loads(json.dumps(obj)))
        obj = packing_to_json(dense_copy(pk))
        obj["field"] = REAL
        with pytest.raises(ParameterError, match="element 4 of a real-tagged packing"):
            packing_from_json(json.loads(json.dumps(obj)))
        real = r4_orthoplex_packing()
        assert packing_from_json(packing_to_json(real)).field == REAL

    def test_certificate_json(self):
        cert = certify(fano_mixed_packing())
        obj = certificate_to_json(cert)
        assert obj["status"] == "OptimalOrthoplexRegime"
        assert obj["n"] == 56 and obj["d"] == 48
        assert "coherence" not in obj
        json.dumps(obj)  # serializable


def paley_packing(p):
    """The quadratic-residue design of a prime p = 3 mod 4 on the even bases
    of C^p and its complement on the odd ones."""
    residues = sorted({x * x % p for x in range(1, p)})
    paley = BlockDesign(p, [[(q + t) % p for q in residues] for t in range(p)])
    return build_mixed_packing(gen_mubs_prime(p), [paley, complement_design(paley)],
                               [list(range(0, p + 1, 2)), list(range(1, p + 1, 2))])


def r4_orthoplex_packing():
    halves = complementary_halves(hadamard_to_3design(gen_hadamard(4)))
    return build_orthoplex_packing(gen_mubs_small(4, REAL), halves)


def c8_orthoplex_packing():
    mubs = mubs_from_json(json.loads((DATA / "mubs_c8.json").read_text()))
    halves = complementary_halves(hadamard_to_3design(gen_hadamard(8)))
    return build_orthoplex_packing(mubs, halves)


BUILDER_FIXTURES = {
    "c2-octahedron": lambda: build_orthoplex_packing(gen_mubs_small(2, COMPLEX),
                                                     BlockDesign(2, [(0,)])),
    "c4-hadamard": lambda: c4_orthoplex_packing()[0],
    "c8-hadamard": c8_orthoplex_packing,
    "fano-m7": fano_mixed_packing,
    "rebased-fano-m9": lambda: build_orthoplex_packing(gen_mubs_prime_power(9),
                                                       design_rebase(FANO)[1]),
    "r4-orthoplex": r4_orthoplex_packing,
    "paley-p19": lambda: paley_packing(19),
}


@st.composite
def coordinate_packings(draw):
    """Coordinate projections of a family of two to four random orthonormal
    bases (not MUBs, so coherence takes the numeric pass) with mixed-size
    blocks, never empty or full, and interleaved basis assignments; the
    first two elements use the first two bases."""
    m = draw(st.integers(2, 6))
    field = draw(st.sampled_from([COMPLEX, REAL]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 4))
    family = MubFamily(m, field, [random_orthonormal(rng, m, m, field) for _ in range(k)])
    picks = draw(st.lists(
        st.tuples(st.integers(0, k - 1),
                  st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1)),
        min_size=2, max_size=14))
    picks[:2] = [(0, picks[0][1]), (1, picks[1][1])]
    return Packing(m, field, tuple(coordinate_projection(family, a, blk) for a, blk in picks))


def assert_unknown_basis_merges(labelled, dense):
    """Each ``unknown_basis/<r>`` summary of the report ``dense`` of a dense
    copy merges the ``same_basis/<r>`` and ``cross_basis/<r>`` summaries of
    the report ``labelled`` of the same Gram with the basis labels: counts
    add, and ``max_inner`` is the larger of the two."""
    assert not any(name.startswith("unknown_basis/") for name in labelled.pair_classes)
    assert all(name.startswith("unknown_basis/") for name in dense.pair_classes)
    for r in ("same_rank", "cross_rank"):
        parts = [labelled.pair_classes[name] for name in (f"same_basis/{r}", f"cross_basis/{r}")
                 if name in labelled.pair_classes]
        merged = dense.pair_classes.get(f"unknown_basis/{r}")
        assert (merged is None) == (not parts)
        if parts:
            assert merged.count == sum(c.count for c in parts)
            assert merged.max_inner == max(c.max_inner for c in parts)


class TestCoordinatePackings:
    @settings(max_examples=60, deadline=None)
    @given(coordinate_packings())
    def test_numeric_pass_matches_dense_copy(self, pk):
        """Over bases that are not MUBs the numeric pass reads the same dense
        Gram with or without the bases attached, so the reports are equal but
        for the pair classes, which the dense copy cannot split by basis."""
        ref = dense_copy(pk)
        assert all((p.family, p.basis_index, p.block) == (None, None, None)
                   for p in ref.elements)
        rep, rep_ref = coherence(pk), coherence(ref)
        assert rep.method == rep_ref.method == "numeric"
        assert rep.mu_embedded == rep_ref.mu_embedded
        assert rep.argmax_pair == rep_ref.argmax_pair
        assert rep.achievers == rep_ref.achievers
        assert_unknown_basis_merges(rep, rep_ref)
        assert rep.mu_raw == rep_ref.mu_raw

    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_builders_agree_with_imported_copy(self, name):
        pk = BUILDER_FIXTURES[name]()
        assert all(p.family is not None for p in pk.elements)
        back = packing_from_json(packing_to_json(dense_copy(pk)))
        assert all(p.family is None for p in back.elements)
        cert, cert_back = certify(pk), certify(back)
        assert cert.status is cert_back.status
        assert cert.is_tight == cert_back.is_tight
        assert cert.tight_constant == cert_back.tight_constant
        assert cert.mu_embedded == pytest.approx(cert_back.mu_embedded, abs=1e-12)
        rep, rep_back, rep_ref = coherence(pk), coherence(back), numeric_report(pk)
        assert rep.achievers == rep_back.achievers
        # rounding noise on the numeric pass does not pick among exact ties
        assert (rep.argmax_pair == rep_back.argmax_pair
                == coherence(spatial_complement(back)).argmax_pair)
        assert ({k: v.count for k, v in rep.pair_classes.items()}
                == {k: v.count for k, v in rep_ref.pair_classes.items()})
        assert_unknown_basis_merges(rep_ref, rep_back)
        assert rep.mu_embedded == pytest.approx(rep_back.mu_embedded, abs=1e-12)

    def test_complement_keeps_the_family_and_import_drops_it(self):
        pk = fano_mixed_packing()
        family = pk.elements[0].family
        flipped = spatial_complement(pk)
        for p, q in zip(pk.elements, flipped.elements):
            assert q.family is family and q.basis_index == p.basis_index
            assert q.block == tuple(sorted(set(range(7)) - set(p.block)))
        back = packing_from_json(json.loads(json.dumps(packing_to_json(dense_copy(pk)))))
        assert all((p.family, p.basis_index, p.block) == (None, None, None)
                   for p in back.elements)

    def test_imported_elements_have_unknown_basis(self):
        """Every pair with a dense element falls in an ``unknown_basis`` class;
        a pair of coordinate projections keeps its basis class."""
        pk = fano_mixed_packing()
        els = [p if i % 2 else Projection(p.matrix) for i, p in enumerate(pk.elements)]
        rep = coherence(Packing(7, COMPLEX, tuple(els)))
        assert rep.method == "numeric"
        want = Counter()
        for a, b in itertools.combinations(els, 2):
            basis = ("unknown_basis" if a.family is None or b.family is None
                     else "same_basis" if a.basis_index == b.basis_index else "cross_basis")
            want[f"{basis}/{'same_rank' if a.rank == b.rank else 'cross_rank'}"] += 1
        assert {k: v.count for k, v in rep.pair_classes.items()} == dict(want)
        assert want["same_basis/same_rank"] and want["cross_basis/cross_rank"]
        assert sum(want.values()) == 56 * 55 // 2


VARIANTS = {
    "built": lambda pk: pk,
    "imported": lambda pk: packing_from_json(packing_to_json(dense_copy(pk))),
    "complement": spatial_complement,
}


def reference_geometry(pk, tol=DEFAULT_TOL) -> OrthoplexReport:
    """The per-element orthoplex geometry pass: ``embed`` of every element's
    matrix, and each antipodal pair's trace formed from its two matrices."""
    space = build_space(pk.m, pk.field)
    n, d = pk.n, space.d
    if n != 2 * d:
        return OrthoplexReport(False, f"n != 2d ({n} != {2 * d})", n, d, (), float("nan"))
    coords = np.stack([embed(p.matrix, space, tol=tol).coords for p in pk.elements])
    ok, pairs, worst = _orthoplex_pattern(coords @ coords.T, tol)
    if not ok:
        return OrthoplexReport(False, "embedded vectors do not form an orthoplex",
                               n, d, pairs, worst)
    for i, j in pairs:
        p, q = pk.elements[i], pk.elements[j]
        if hs_inner(p.matrix, q.matrix).real > tol.eps_abs or p.rank + q.rank != pk.m:
            return OrthoplexReport(False, f"antipodal pair ({i},{j}) is not a complementary "
                                          f"subspace pair", n, d, pairs, worst)
    return OrthoplexReport(True, None, n, d, pairs, worst)


def assert_geometry_is_the_reference(pk, tol=DEFAULT_TOL) -> OrthoplexReport:
    """The geometry report of ``pk`` is the per-element reference's, its
    largest off-pattern deviation within rounding; return it."""
    got, want = verify_orthoplex_geometry(pk, tol), reference_geometry(pk, tol)
    assert (got.passes, got.reason, got.n, got.d, got.antipodal_pairs) == (
        want.passes, want.reason, want.n, want.d, want.antipodal_pairs)
    assert got.max_offdiag_dev == pytest.approx(want.max_offdiag_dev, abs=1e-14, nan_ok=True)
    return got


def assert_table_coordinates_are_embed(pk):
    space = build_space(pk.m, pk.field)
    got = _table_coordinates(pk._block_table, space)
    want = np.stack([embed(p.matrix, space).coords for p in pk.elements])
    assert got.shape == want.shape == (pk.n, space.d)
    assert np.abs(got - want).max() <= 1e-15


GEOMETRY_CASES = {**{case: lambda make=make: make()[0] for case, make in ORTHOPLEX_CASES.items()},
                  "r4": r4_orthoplex_packing}


def not_complementary():
    """Ten elements of R^3 (n = 2d) whose embedded vectors pass the orthoplex
    pattern at eps_abs = 0.51, but whose first antipodal pair is two
    orthogonal lines of basis 0 (ranks 1 + 1 != 3); each other pair is a
    line of a random basis and the plane orthogonal to it."""
    rng = np.random.default_rng(66)
    family = MubFamily(3, REAL, [random_orthonormal(rng, 3, 3, REAL) for _ in range(5)])
    els = [coordinate_projection(family, 0, (0,)), coordinate_projection(family, 0, (1,))]
    els += [coordinate_projection(family, a, b) for b in [(0,), (1, 2)] for a in range(1, 5)]
    return Packing(3, REAL, tuple(els)), Tolerance(0.51)


class TestGeometryOnBlockTables:
    @pytest.mark.parametrize("flip", [False, True], ids=["built", "complement"])
    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_table_coordinates_are_embed(self, name, flip):
        pk = BUILDER_FIXTURES[name]()
        assert_table_coordinates_are_embed(spatial_complement(pk) if flip else pk)

    @settings(max_examples=40, deadline=None)
    @given(coordinate_packings())
    def test_coordinate_packings_coordinates_are_embed(self, pk):
        assert_table_coordinates_are_embed(pk)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("case", sorted(GEOMETRY_CASES))
    def test_orthoplex_report_is_the_per_element_reference(self, case, variant):
        assert assert_geometry_is_the_reference(VARIANTS[variant](GEOMETRY_CASES[case]())).passes

    @pytest.mark.parametrize("variant", ["built", "complement"])
    @pytest.mark.parametrize("case", sorted(GEOMETRY_CASES))
    def test_a_block_table_forms_no_element(self, case, variant, monkeypatch):
        """On a block table the pass forms no element matrix, embeds nothing
        and checks no projection, and ``elements`` stays unformed."""
        from grasspack import embedding, packing
        pk = VARIANTS[variant](GEOMETRY_CASES[case]())

        def refuse(*args, **kwargs):
            raise AssertionError("per-element work on a block table")

        monkeypatch.setattr(Projection, "matrix", property(refuse))
        for module in (packing, embedding):
            monkeypatch.setattr(module, "embed", refuse)
            monkeypatch.setattr(module, "is_projection", refuse)
        assert verify_orthoplex_geometry(pk).passes
        assert "elements" not in pk.__dict__

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_repeated_elements_are_not_an_orthoplex(self, variant):
        """The six elements (a, {0}), twice each on the three bases of C^2,
        have n = 2d but no antipodes."""
        family = gen_mubs_small(2, COMPLEX)
        pk = VARIANTS[variant](Packing(2, COMPLEX, tuple(
            coordinate_projection(family, a, (0,)) for a in (0, 1, 2, 0, 1, 2))))
        report = assert_geometry_is_the_reference(pk)
        assert (report.n, report.reason) == (6, "embedded vectors do not form an orthoplex")

    @pytest.mark.parametrize("variant", ["built", "imported"])
    def test_a_pair_that_is_not_complementary_is_refused(self, variant):
        pk, tol = not_complementary()
        report = assert_geometry_is_the_reference(VARIANTS[variant](pk), tol)
        assert report.reason == "antipodal pair (0,1) is not a complementary subspace pair"
        assert report.antipodal_pairs == ((0, 1), (2, 6), (3, 7), (4, 8), (5, 9))

    def test_a_full_block_has_no_image(self):
        family = gen_mubs_small(2, COMPLEX)
        pk = Packing(2, COMPLEX, tuple(coordinate_projection(family, a, b)
                                       for a in range(3) for b in [(0,), (0, 1)]))
        with pytest.raises(DegenerateRankError, match="rank-2 projection in dimension 2"):
            verify_orthoplex_geometry(pk)


def assert_round_trip(pk):
    """The version-3 JSON of a packing of one family reads back to the same
    family, block table, elements and certificate, and writes back the same
    bytes."""
    text = json.dumps(packing_to_json(pk), sort_keys=True)
    back = packing_from_json(json.loads(text))
    assert (back.m, back.field, back.mode, back.hypotheses) == (
        pk.m, pk.field, pk.mode, pk.hypotheses)
    table, table_back = pk._block_table, back._block_table
    assert table_back.blocks == table.blocks
    assert np.array_equal(table_back.labels, table.labels)
    assert np.array_equal(table_back.ids, table.ids)
    assert ([(p.basis_index, p.block, p.rank) for p in back.elements]
            == [(p.basis_index, p.block, p.rank) for p in pk.elements])
    family, family_back = pk.elements[0].family, back.elements[0].family
    # a real family stores no imaginary parts, so a -0.0 there reads back as 0.0
    stored = (lambda u: u.real) if pk.field == REAL else (lambda u: u)
    assert stored(family_back.bases).tobytes() == stored(family.bases).tobytes()
    assert np.array_equal(family_back.bases, family.bases)
    assert all(p.family is family_back for p in back.elements)
    assert (json.dumps(certificate_to_json(certify(back)), sort_keys=True)
            == json.dumps(certificate_to_json(certify(pk)), sort_keys=True))
    assert coherence(back).method == coherence(pk).method
    assert json.dumps(packing_to_json(back), sort_keys=True) == text


PAIRS = "^elements must be one or more \\[basis, block id\\] pairs of integers$"


class TestJsonVersions:
    @settings(max_examples=40, deadline=None)
    @given(coordinate_packings())
    def test_coordinate_packings_round_trip(self, pk):
        assert_round_trip(pk)

    @pytest.mark.parametrize("flip", [False, True], ids=["built", "complement"])
    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_builders_round_trip_on_the_exact_pass(self, name, flip, tmp_path):
        """A built packing, or its complement, round-trips on the exact pass,
        and ``grasspack embed`` of its file writes the reference bytes of its
        embedded code."""
        pk = BUILDER_FIXTURES[name]()
        pk = spatial_complement(pk) if flip else pk
        assert_round_trip(pk)
        obj = packing_to_json(pk)
        table = pk._block_table
        assert obj["version"] == 3 and obj["blocks"] == [list(b) for b in table.blocks]
        assert obj["elements"] == [[a, i] for a, i in zip(table.labels.tolist(),
                                                          table.ids.tolist())]
        assert coherence(packing_from_json(obj)).method == "exact"
        pack, out = tmp_path / "pk.json", tmp_path / "code.json"
        pack.write_text(json.dumps(obj))
        assert main(["embed", str(pack), "--out", str(out)]) == 0
        assert out.read_text() == packing_code_text(pk)

    def test_a_packing_without_one_family_is_written_dense(self):
        """Half the elements are coordinate projections, so the packing has no
        one family: all are written as dense matrices, with no labels."""
        pk = fano_mixed_packing()
        pk = Packing(7, COMPLEX, tuple(p if i % 2 else Projection(p.matrix)
                                       for i, p in enumerate(pk.elements)))
        obj = packing_to_json(pk)
        assert obj["version"] == 3 and obj["family"] is None and "blocks" not in obj
        assert len(obj["elements"]) == 56
        back = packing_from_json(json.loads(json.dumps(obj)))
        for a, b in zip(pk.elements, back.elements):
            assert np.array_equal(a.matrix, b.matrix)
            assert (b.family, b.basis_index, b.block) == (None, None, None)
        assert coherence(back).method == "numeric"

    @pytest.mark.parametrize("version", [1, 2, "3", 3.0, None, True])
    def test_other_versions_rejected(self, version):
        obj = packing_to_json(fano_mixed_packing())
        obj["version"] = version
        with pytest.raises(ParameterError, match=f"^packing version {version!r}"):
            packing_from_json(obj)

    def test_version_1_and_2_files_are_refused(self):
        """The formats before version 3 are not read, and the message names
        their version: version 1 (dense matrices, no "version" key) and
        version 2 (one {"basis", "block"} object per element)."""
        pk = fano_mixed_packing()
        v1 = packing_to_json(dense_copy(pk))
        del v1["version"], v1["family"]
        v2 = dict(packing_to_json(pk), version=2, elements=[
            {"basis": p.basis_index, "block": list(p.block)} for p in pk.elements])
        del v2["blocks"]
        for version, obj in ((1, v1), (2, v2)):
            with pytest.raises(ParameterError, match=f"^packing version {version} is not read"):
                packing_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("change, match", [
        ({"elements": {3: 5}}, PAIRS),
        ({"elements": {3: {"basis": 1, "block": [0]}}}, PAIRS),
        ({"elements": {3: [1, 0, 0]}}, PAIRS),
        ({"elements": {3: [1]}}, PAIRS),
        ({"elements": {3: [True, 0]}}, PAIRS),
        ({"elements": {3: [1, 1.0]}}, PAIRS),
        ({"elements": {3: [1, "0"]}}, PAIRS),
        ({"elements": {3: [8, 0]}}, "^element 3: \\[8, 0\\] is not a basis in 0..7 and a block id "
                                    "in 0..13$"),
        ({"elements": {3: [-1, 0]}}, "^element 3: \\[-1, 0\\] is not a basis"),
        ({"elements": {3: [1, 14]}}, "^element 3: \\[1, 14\\] is not a basis"),
        ({"elements": {3: [1, -1]}}, "^element 3: \\[1, -1\\] is not a basis"),
        ({"elements": {3: [1, 2**70]}}, "^element 3: \\[1, 1180591620717411303424\\] is not"),
        ({"blocks": {1: "block 0"}}, "^block 1 repeats block 0$"),
        ({"blocks": {1: [5, 3, 1]}}, "^block 1 repeats block 0$"),  # block 0 is [1, 3, 5]
        ({"blocks": {14: [0]}}, "^block 14 is used by no element$"),
        ({"blocks": {2: 5}}, "^block 2: block must be an array"),
        ({"blocks": {2: [0.5, "x"]}}, "^block 2: point label"),
        ({"blocks": {2: ["1", 2]}}, "^block 2: point label"),
        ({"blocks": {2: [True]}}, "^block 2: point label True is a bool"),
        ({"blocks": {2: [1, 1]}}, "^block 2: .*repeats a point"),
        ({"blocks": {2: [3, 7]}}, "^block 2: .*outside 0..6"),
        ({"blocks": {2: []}}, "^block 2: empty block"),
    ])
    def test_malformed_table_rejected(self, change, match):
        """Each listed block is checked, none repeated and each used; the
        pairs are checked as a whole: two JSON integers, in range."""
        obj = packing_to_json(fano_mixed_packing())
        assert obj["blocks"][0] == [1, 3, 5] and len(obj["blocks"]) == 14
        for key, entries in change.items():
            for i, value in entries.items():
                value = obj["blocks"][0] if value == "block 0" else value
                obj[key][i:i + 1] = [value]
        with pytest.raises(ParameterError, match=match):
            packing_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("key", ["blocks", "elements", "family", "mode", "hypotheses"])
    def test_every_written_key_is_required(self, key):
        obj = packing_to_json(fano_mixed_packing())
        del obj[key]
        with pytest.raises(ParameterError, match=f"^packing has no '{key}' key$"):
            packing_from_json(obj)

    def test_a_family_with_no_elements_is_refused(self):
        obj = dict(packing_to_json(fano_mixed_packing()), blocks=[], elements=[])
        with pytest.raises(ParameterError, match=PAIRS):
            packing_from_json(obj)

    def test_each_listed_block_is_checked_once(self, monkeypatch):
        """Reading the Fano m = 7 file checks each of its 14 listed blocks
        once, though its 56 elements use them 56 times."""
        from grasspack import packing
        obj = json.loads(json.dumps(packing_to_json(fano_mixed_packing())))
        calls = []
        check = packing.check_block

        def counting(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(packing, "check_block", counting)
        assert packing_from_json(obj).n == 56
        assert len(calls) == 14


class TestCertificateCoherence:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_certificate_keeps_the_coherence_report(self, name, variant):
        pk = VARIANTS[variant](BUILDER_FIXTURES[name]())
        rep, cert = coherence(pk), certify(pk)
        kept = cert.coherence
        assert kept.mu_embedded == rep.mu_embedded == cert.mu_embedded
        assert kept.argmax_pair == rep.argmax_pair
        assert kept.achievers == rep.achievers
        assert kept.pair_classes == rep.pair_classes
        assert kept.mu_raw == rep.mu_raw
        assert kept.n == rep.n == pk.n

    def test_report_ignored_by_equality_and_repr(self):
        cert = certify(fano_mixed_packing())
        assert "coherence" not in repr(cert)
        assert cert == dataclasses.replace(cert, coherence=None)

    def test_certify_allocation_peak(self):
        import tracemalloc
        pk = paley_packing(19)
        certify(pk)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            certify(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 8 * pk.n ** 2


@st.composite
def mub_packings(draw):
    """Coordinate projections over a random subset of the maximal MUB family
    of C^m, m in {2, 3, 4, 5, 7}, or of R^4, with blocks of mixed sizes
    (never empty or full): either random blocks, or a random partition of
    the points in each chosen basis, which makes a tight packing that the
    orthoplex bounds can certify."""
    m, field = draw(st.sampled_from([(2, COMPLEX), (3, COMPLEX), (4, COMPLEX), (4, REAL),
                                     (5, COMPLEX), (7, COMPLEX)]))
    family = gen_mubs(m, field)
    chosen = draw(st.lists(st.integers(0, family.k - 1), min_size=1, max_size=family.k,
                           unique=True))
    if draw(st.booleans()):
        picks = []
        for a in chosen:
            cuts = [0, *sorted(draw(st.sets(st.integers(1, m - 1), min_size=1))), m]
            points = draw(st.permutations(range(m)))
            picks += [(a, points[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    else:
        picks = draw(st.lists(
            st.tuples(st.sampled_from(chosen),
                      st.sets(st.integers(0, m - 1), min_size=1, max_size=m - 1)),
            min_size=2, max_size=16))
    return Packing(m, field, tuple(coordinate_projection(family, a, blk) for a, blk in picks))


def assert_exact_matches_numeric(pk):
    """The exact pass on ``pk`` and the numeric pass on its dense copy give
    the same certificate and report, up to 1e-12 in every float; the pair
    classes are checked against the numeric pass on ``pk`` itself, which
    keeps the basis labels the dense copy has not."""
    ref = dense_copy(pk)
    cert, cert_ref = certify(pk), certify(ref)
    rep, rep_ref = cert.coherence, cert_ref.coherence
    classes = numeric_report(pk)
    assert (rep.method, rep_ref.method) == ("exact", "numeric")
    assert rep.mub_dev <= 1e-12 and rep_ref.mub_dev is None
    assert cert.status is cert_ref.status
    assert cert.is_tight == cert_ref.is_tight
    assert cert.tight_constant == cert_ref.tight_constant
    assert cert.details.keys() == cert_ref.details.keys()
    assert cert.details.get("antipodal_pairs") == cert_ref.details.get("antipodal_pairs")
    assert rep.achievers == rep_ref.achievers
    assert rep.mu_embedded == pytest.approx(rep_ref.mu_embedded, abs=1e-12)
    assert rep.pair_classes.keys() == classes.pair_classes.keys()
    for name, summary in rep.pair_classes.items():
        assert summary.count == classes.pair_classes[name].count
        assert summary.max_inner == pytest.approx(classes.pair_classes[name].max_inner,
                                                  abs=1e-12)
    assert_unknown_basis_merges(classes, rep_ref)
    if rep.mu_raw is None:
        assert rep_ref.mu_raw is None
    else:
        assert rep.mu_raw == pytest.approx(rep_ref.mu_raw, abs=1e-12)
    i, j = rep.argmax_pair
    assert i < j
    e, _ = _embedded_gram(ref)
    assert e[i, j] == pytest.approx(rep.mu_embedded, abs=1e-12)
    if pk.n >= pk.m:
        assert span_of_achievers(pk, rep) == span_of_achievers(ref, rep_ref)


class TestExactPass:
    @settings(max_examples=80, deadline=None)
    @given(mub_packings())
    def test_matches_numeric_pass(self, pk):
        assert_exact_matches_numeric(pk)

    @pytest.mark.parametrize("p", [7, 19, 31])
    def test_paley_matches_numeric_pass(self, p):
        assert_exact_matches_numeric(paley_packing(p))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_only_built_packings_take_it(self, name, variant):
        rep = coherence(VARIANTS[variant](BUILDER_FIXTURES[name]()))
        assert rep.method == ("numeric" if variant == "imported" else "exact")

    @settings(max_examples=60, deadline=None)
    @given(mub_packings())
    def test_complement_keeps_the_exact_report(self, pk):
        """J -> J^c, K -> K^c keeps num = m|J & K| - |J||K| and den, so
        every reported value but the raw traces is unchanged."""
        flipped = spatial_complement(pk)
        back = spatial_complement(flipped)
        for p, q in zip(pk.elements, back.elements):
            assert (q.family, q.basis_index, q.block) == (p.family, p.basis_index, p.block)
        rep, rep_c = coherence(pk), coherence(flipped)
        assert rep.method == rep_c.method == "exact"
        assert dataclasses.replace(rep_c, mu_raw=rep.mu_raw) == rep

    def test_paley31_values_are_exact(self):
        cert = certify(paley_packing(31))
        assert cert.status is CertStatus.OPTIMAL_ORTHOPLEX
        assert cert.mu_embedded == 0.0
        assert cert.tight_constant == 992 * 31 / 2 / 31 == 496.0 and cert.is_tight
        assert cert.coherence.achievers == tuple(range(992))

    def test_certify_allocates_less_than_one_gram(self):
        import tracemalloc
        pk = paley_packing(31)
        certify(pk)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            cert = certify(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.coherence.method == "exact"
        assert peak < 8 * pk.n ** 2  # one n x n float64 array: 7.9 MB at n = 992

    def test_duplicated_basis_falls_back(self):
        basis = gen_mubs_prime(5).bases[1]
        family = MubFamily(5, COMPLEX, (basis, basis))
        blocks = [(0,), (1, 2), (3, 4), (0, 2, 4)]
        pk = Packing(5, COMPLEX, tuple(coordinate_projection(family, a, blk)
                                       for a in range(2) for blk in blocks))
        rep = coherence(pk)
        assert rep.method == "numeric"
        assert rep.mub_dev == pytest.approx(1 - 1 / 5, abs=1e-12)

    def test_random_orthonormal_bases_fall_back(self, rng):
        family = MubFamily(4, COMPLEX, [random_orthonormal(rng, 4, 4) for _ in range(3)])
        pk = Packing(4, COMPLEX, tuple(coordinate_projection(family, a, blk) for a in range(3)
                                       for blk in [(0,), (1, 2), (0, 1, 3)]))
        assert coherence(pk).method == "numeric"

    def test_perturbed_mub_falls_back(self, rng):
        family = gen_mubs_prime(5)
        noise = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, r = np.linalg.qr(family.bases[2] + 1e-7 * noise)
        phases = np.diagonal(r) / np.abs(np.diagonal(r))
        bent = q * phases
        assert np.abs(bent - family.bases[2]).max() < 1e-6
        bent_family = MubFamily(5, COMPLEX, (family.bases[0], family.bases[1], bent))
        pk = Packing(5, COMPLEX, tuple(coordinate_projection(bent_family, a, blk)
                                       for a in range(3) for blk in [(0,), (1, 2), (0, 3, 4)]))
        rep = coherence(pk)
        assert rep.method == "numeric"
        assert 1e-9 < rep.mub_dev < 1e-5

    @staticmethod
    def count_family_checks(monkeypatch):
        """Count each computation of ``deviations`` and ``exact_verdict`` (by
        the family's k) while the test runs."""
        from functools import cached_property
        calls = {"deviations": [], "exact_verdict": []}
        for name, log in calls.items():
            def counting(family, compute=getattr(MubFamily, name).func, log=log):
                log.append(family.k)
                return compute(family)

            counted = cached_property(counting)
            counted.__set_name__(MubFamily, name)
            monkeypatch.setattr(MubFamily, name, counted)
        return calls

    def test_family_overlaps_are_computed_once(self, monkeypatch):
        """A generated family's verdict is decided once, from its exponent
        table, and no float overlap is formed."""
        calls = self.count_family_checks(monkeypatch)
        family = gen_mubs_prime(7)
        pk = build_mixed_packing(family, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert verify_mubs(family).ok
        assert certify(pk).coherence.method == coherence(pk).method == "exact"
        assert calls == {"deviations": [], "exact_verdict": [8]}

    def test_float_form_family_overlaps_are_computed_once(self, monkeypatch):
        bases = [matrix_to_json(u) for u in gen_mubs_prime(7).bases]  # verdict decided here
        calls = self.count_family_checks(monkeypatch)
        family = mubs_from_json({"m": 7, "field": "C", "bases": bases})
        assert family.phases is None
        pk = build_mixed_packing(family, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, 6, 7]])
        assert verify_mubs(family).ok
        assert certify(pk).coherence.method == coherence(pk).method == "exact"
        assert calls == {"deviations": [8], "exact_verdict": [8]}

    def test_no_element_matrix_is_formed(self, monkeypatch):
        pk = fano_mixed_packing()

        def refuse(self):
            raise AssertionError("an element matrix was formed")

        monkeypatch.setattr(Projection, "matrix", property(refuse))
        cert = certify(pk)
        assert coherence(pk).method == cert.coherence.method == "exact"
        assert check_tightness(pk) == (True, 28.0)
        assert span_of_achievers(pk, cert.coherence, cert) == (7, True)

    def test_numeric_pass_checks_memory_first(self, monkeypatch):
        from grasspack import packing
        monkeypatch.setattr(packing, "_physical_memory", lambda: 10**5)
        pk = fano_mixed_packing()
        with pytest.raises(ParameterError, match=r"\d+ bytes of physical memory"):
            certify(dense_copy(pk))
        assert certify(pk).coherence.method == "exact"  # allocates no n x n array


def parent_orthoplex_pattern(e, tol):
    """The orthoplex check with two n x n masks and a masked copy, kept as the
    reference for ``_orthoplex_pattern``."""
    n = e.shape[0]
    antipodal = e <= (-1.0 + tol.eps_abs)
    np.fill_diagonal(antipodal, False)
    if not np.all(antipodal.sum(axis=1) == 1):
        return False, (), float("nan")
    partner = np.argmax(antipodal, axis=1)
    if not np.array_equal(partner[partner], np.arange(n)):
        return False, (), float("nan")
    pairs = tuple((int(i), int(partner[i])) for i in range(n) if i < partner[i])
    rest = ~antipodal
    np.fill_diagonal(rest, False)
    worst = float(np.abs(e[rest]).max()) if rest.any() else 0.0
    return worst <= tol.eps_abs, pairs, worst


@st.composite
def orthoplex_grams(draw):
    """Embedded Grams near an orthoplex pattern: antipodes on a random
    matching (one element left out when n is odd), a diagonal of 1 or -inf
    (as the numeric pass leaves it), noise of 0 to 1e-3, symmetric or not,
    and sometimes an extra antipode placed on one side only."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    e = np.zeros((n, n))
    for a, b in zip(order[0:n - 1:2], order[1::2]):
        e[a, b] = e[b, a] = -1.0
    e += draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3])) * rng.standard_normal((n, n))
    if draw(st.booleans()):
        e = (e + e.T) / 2
    for _ in range(draw(st.integers(0, 2))):
        i, j = rng.integers(n, size=2)
        e[i, j] = -1.0
    np.fill_diagonal(e, draw(st.sampled_from([1.0, -np.inf])))
    return e


class TestOrthoplexPattern:
    @settings(max_examples=300, deadline=None)
    @given(orthoplex_grams())
    def test_matches_the_masked_copy_reference(self, e):
        ok, pairs, worst = _orthoplex_pattern(e.copy(), DEFAULT_TOL)
        ref_ok, ref_pairs, ref_worst = parent_orthoplex_pattern(e, DEFAULT_TOL)
        assert (ok, pairs) == (ref_ok, ref_pairs)
        assert worst == ref_worst or (np.isnan(worst) and np.isnan(ref_worst))

    def test_keeps_no_masked_copy(self):
        """At n = 2000 the Gram is 32 MB and one n x n boolean 4 MB; the
        second mask and the masked copy took about 72 MB more."""
        import tracemalloc
        n = 2000
        e = np.eye(n)
        evens = np.arange(0, n, 2)
        e[evens, evens + 1] = e[evens + 1, evens] = -1.0
        tracemalloc.start()
        try:
            ok, pairs, worst = _orthoplex_pattern(e, DEFAULT_TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and len(pairs) == n // 2 and worst == 0.0
        assert peak < 8 * 2**20
