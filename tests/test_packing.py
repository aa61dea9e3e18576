import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack.designs import (BlockDesign, complement_design, complementary_halves,
                               gen_hadamard, hadamard_to_3design, design_rebase)
from grasspack.embedding import build_space, embedding_dim
from grasspack.errors import (DegenerateRankError, HypothesisError, ParameterError,
                              StructuralError)
from grasspack.fields import enumerate_projective_plane
from grasspack.mubs import (Basis, gen_mubs_prime, gen_mubs_prime_power, gen_mubs_small,
                            mubs_from_json)
from grasspack.numerics import COMPLEX, REAL, hs_inner
from grasspack.packing import (CertStatus, Packing, Projection, _trace_gram,
                               build_mixed_packing, build_orthoplex_packing,
                               certificate_to_json, certify, check_tightness,
                               coherence, coordinate_projection, extract_hadamard,
                               packing_from_json, packing_to_json,
                               span_of_achievers, spatial_complement,
                               verify_orthoplex_geometry)

from conftest import random_orthonormal, random_projection

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
        p = coordinate_projection(mubs.bases[0], (0, 1), 0)
        assert np.allclose(p.matrix, np.diag([1, 1, 0, 0]))
        assert p.rank == 2
        assert p.provenance == (0, (0, 1))

    def test_same_basis_trace_is_intersection(self):
        mubs = gen_mubs_prime(5)
        b = mubs.bases[2]
        p = coordinate_projection(b, (0, 1), 2)
        q = coordinate_projection(b, (1, 2), 2)
        assert hs_inner(p.matrix, q.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_fourier_vs_standard_c3(self):
        # |J| = 1, |J'| = 2 across unbiased bases: trace = 1*2/3
        mubs = gen_mubs_prime(3)
        standard, fourier = mubs.bases[0], mubs.bases[1]
        assert np.allclose(np.abs(fourier.matrix), 1 / np.sqrt(3))
        p = coordinate_projection(standard, (0,), 0)
        q = coordinate_projection(fourier, (0, 2), 1)
        assert hs_inner(p.matrix, q.matrix).real == pytest.approx(2 / 3, abs=1e-12)

    def test_remembers_basis_and_block(self):
        basis = gen_mubs_prime(5).bases[1]
        p = coordinate_projection(basis, (np.int64(3), 1))
        assert p.basis is basis and p.block == (1, 3)
        assert p.provenance == "imported"

    @pytest.mark.parametrize("label", [1.0, 1.5, "1", True])
    def test_non_integral_label_rejected(self, label):
        basis = gen_mubs_prime(3).bases[0]
        with pytest.raises(ParameterError, match="point label"):
            coordinate_projection(basis, (0, label), 0)

    def test_out_of_range(self):
        mubs = gen_mubs_small(2, COMPLEX)
        with pytest.raises(ParameterError):
            coordinate_projection(mubs.bases[0], (0, 2), 0)
        with pytest.raises(ParameterError):
            coordinate_projection(mubs.bases[0], (), 0)


class TestProjection:
    def test_non_finite_rejected(self):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        p[0, 1] = p[1, 0] = np.nan
        with pytest.raises(ParameterError, match="non-finite"):
            Projection(p)


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
            ki, blki = pi.provenance
            kj, blkj = pj.provenance
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
        els = tuple(coordinate_projection(mubs.bases[0], (j,), 0) for j in range(m))
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
        from grasspack.embedding import embedded_inner
        space = build_space(7, COMPLEX)
        val = embedded_inner(pk.elements[i].matrix, pk.elements[j].matrix, space)
        assert val == pytest.approx(rep.mu_embedded, abs=1e-12)

    def test_vectorized_gram_matches_pairwise_formula(self, rng):
        # the bulk pair scan agrees with the one-pair trace formula everywhere
        from grasspack.embedding import embedded_inner
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
        els = tuple(coordinate_projection(mubs.bases[0], (j,), 0) for j in range(3))
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
            assert a.provenance == b.provenance

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


class TestExtractHadamard:
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


class TestJson:
    def test_packing_round_trip(self):
        pk = fano_mixed_packing()
        obj = packing_to_json(pk)
        text = json.dumps(obj, sort_keys=True)
        back = packing_from_json(json.loads(text))
        assert back.m == pk.m and back.field == pk.field and back.n == pk.n
        for a, b in zip(pk.elements, back.elements):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.provenance == b.provenance
        assert back.hypotheses == pk.hypotheses

    def test_malformed_element_reported_with_index(self):
        pk = fano_mixed_packing()
        obj = packing_to_json(pk)
        obj["elements"][3]["re"][0] = 0.7  # break idempotency
        with pytest.raises(ParameterError, match="element 3"):
            packing_from_json(obj)

    def test_nan_entry_rejected(self):
        obj = packing_to_json(fano_mixed_packing())
        obj["elements"][3]["re"][1] = float("nan")
        with pytest.raises(ParameterError, match="element 3.*non-finite"):
            packing_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("m", [7.5, 7.0, "7"])
    def test_non_integral_m_rejected(self, m):
        obj = packing_to_json(fano_mixed_packing())
        obj["m"] = m
        with pytest.raises(ParameterError, match="m "):
            packing_from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("basis", [2.5, 2.0, "2"])
    def test_non_integral_provenance_basis_rejected(self, basis):
        obj = packing_to_json(fano_mixed_packing())
        obj["provenance"][5]["basis"] = basis
        with pytest.raises(ParameterError, match="basis index"):
            packing_from_json(json.loads(json.dumps(obj)))

    def test_certificate_json(self):
        cert = certify(fano_mixed_packing())
        obj = certificate_to_json(cert)
        assert obj["status"] == "OptimalOrthoplexRegime"
        assert obj["n"] == 56 and obj["d"] == 48
        assert "coherence" not in obj
        json.dumps(obj)  # serializable


def paley19_packing():
    residues = sorted({x * x % 19 for x in range(1, 19)})
    paley = BlockDesign(19, [[(q + t) % 19 for q in residues] for t in range(19)])
    return build_mixed_packing(gen_mubs_prime(19), [paley, complement_design(paley)],
                               [list(range(0, 20, 2)), list(range(1, 20, 2))])


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
    "paley-p19": paley19_packing,
}


@st.composite
def coordinate_packings(draw):
    """Coordinate projections over a few random orthonormal bases with
    mixed-size blocks and interleaved basis assignments. Basis indices are
    drawn from {0, 1}, so distinct Basis objects often share one."""
    m = draw(st.integers(2, 6))
    field = draw(st.sampled_from([COMPLEX, REAL]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    bases = [Basis(m, field, random_orthonormal(rng, m, m, field)) for _ in range(k)]
    labels = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    picks = draw(st.lists(
        st.tuples(st.integers(0, k - 1),
                  st.sets(st.integers(0, m - 1), min_size=1, max_size=m)),
        min_size=2, max_size=14))
    elements = tuple(coordinate_projection(bases[a], blk, labels[a]) for a, blk in picks)
    return Packing(m, field, elements)


def dense_copy(pk):
    """The same matrices with no basis attached, so the Gram takes the dense path."""
    return Packing(pk.m, pk.field, tuple(Projection(p.matrix) for p in pk.elements))


class TestStructuredGram:
    @settings(max_examples=60, deadline=None)
    @given(coordinate_packings())
    def test_matches_dense_gram(self, pk):
        assert all(p.basis is not None for p in pk.elements)
        ref = dense_copy(pk)
        assert all(p.basis is None for p in ref.elements)
        g = _trace_gram(pk)
        assert np.array_equal(g, g.T)
        assert np.abs(g - _trace_gram(ref)).max() <= 1e-12

    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_builders_agree_with_imported_copy(self, name):
        pk = BUILDER_FIXTURES[name]()
        assert all(p.basis is not None for p in pk.elements)
        back = packing_from_json(packing_to_json(pk))
        assert all(p.basis is None for p in back.elements)
        cert, cert_back = certify(pk), certify(back)
        assert cert.status is cert_back.status
        assert cert.is_tight == cert_back.is_tight
        assert cert.tight_constant == cert_back.tight_constant
        assert cert.mu_embedded == pytest.approx(cert_back.mu_embedded, abs=1e-12)
        rep, rep_back = coherence(pk), coherence(back)
        assert rep.achievers == rep_back.achievers
        assert ({k: v.count for k, v in rep.pair_classes.items()}
                == {k: v.count for k, v in rep_back.pair_classes.items()})
        assert rep.mu_embedded == pytest.approx(rep_back.mu_embedded, abs=1e-12)

    def test_never_builds_the_dense_stack(self):
        import tracemalloc
        m = 31
        bases = gen_mubs_prime(m).bases[:2]
        blocks = [(j,) for j in range(m)] + [(j, (j + 1) % m) for j in range(m)]
        pk = Packing(m, COMPLEX, tuple(coordinate_projection(b, blk, a)
                                       for a, b in enumerate(bases) for blk in blocks))
        stack_bytes = pk.n * m * m * 16  # the n x m^2 complex stack of the dense path
        tracemalloc.start()
        try:
            _trace_gram(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes / 2

    def test_complement_and_import_drop_the_basis(self):
        pk = fano_mixed_packing()
        flipped = spatial_complement(pk)
        assert all(p.basis is None and p.block is None for p in flipped.elements)
        back = packing_from_json(packing_to_json(pk))
        assert all(p.basis is None and p.block is None for p in back.elements)


VARIANTS = {
    "built": lambda pk: pk,
    "imported": lambda pk: packing_from_json(packing_to_json(pk)),
    "complement": spatial_complement,
}


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
        pk = paley19_packing()
        certify(pk)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            certify(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 8 * pk.n ** 2
