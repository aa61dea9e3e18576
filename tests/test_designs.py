import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack.designs import (BlockDesign, HadamardMatrix, cohesion,
                               complement_design, complementary_halves,
                               design_from_json, design_rebase, design_to_json,
                               gen_hadamard, hadamard_from_json,
                               hadamard_to_3design, hadamard_to_json, is_cohesive,
                               resolvability, verify_design)
from grasspack.errors import (ConsistencyError, GrasspackError, HypothesisError, ParameterError,
                              StructuralError, UnsupportedError)
from grasspack.fields import enumerate_affine_hyperplanes, enumerate_projective_plane
from grasspack.mubs import MubFamily
from grasspack.numerics import COMPLEX
from grasspack.packing import build_orthoplex_packing

FANO = BlockDesign(7, enumerate_projective_plane(2))
AG22 = BlockDesign(4, enumerate_affine_hyperplanes(2, 2))


def menon_16_6_2():
    """(16, 6, 2) symmetric design from a regular Hadamard matrix of order 16:
    blocks are the -1 positions of each row of R4 (x) R4 with R4 = J - 2I."""
    r4 = np.ones((4, 4), dtype=int) - 2 * np.eye(4, dtype=int)
    r16 = np.kron(r4, r4)
    blocks = [tuple(int(j) for j in np.flatnonzero(row == -1)) for row in r16]
    return BlockDesign(16, blocks)


class TestBlockDesign:
    def test_normalizes_and_validates(self):
        d = BlockDesign(4, [(2, 0), (1, 3)])
        assert d.blocks == ((0, 2), (1, 3))
        with pytest.raises(ParameterError):
            BlockDesign(4, [(0, 4)])
        with pytest.raises(ParameterError):
            BlockDesign(4, [(0, 0)])
        with pytest.raises(ParameterError):
            BlockDesign(4, [(0, 1), (2,)])
        with pytest.raises(ParameterError):
            BlockDesign(4, [])

    @pytest.mark.parametrize("label", [1.5, 1.0, "1", True])
    def test_non_integral_label_rejected(self, label):
        text = json.dumps({"m": 3, "blocks": [[0, label]]})
        with pytest.raises(ParameterError, match="point label"):
            design_from_json(json.loads(text))

    @pytest.mark.parametrize("m", [3.9, 4.0, "4", True])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ParameterError, match="m "):
            design_from_json(json.loads(json.dumps({"m": m, "blocks": [[0, 1]]})))
        with pytest.raises(ParameterError, match="m "):
            BlockDesign(m, [(0, 1)])

    def test_numpy_integer_labels_accepted(self):
        d = BlockDesign(4, [np.array([2, 0]), (np.int64(1), np.int32(3))])
        assert d.blocks == ((0, 2), (1, 3))
        assert all(type(x) is int for blk in d.blocks for x in blk)

    def test_json_round_trip(self):
        d = BlockDesign(7, FANO.blocks, declared_t=2, declared_lambda=1)
        back = design_from_json(design_to_json(d))
        assert back == d

    @pytest.mark.parametrize("key", ["t", "lambda"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "1", True])
    def test_non_integral_declared_parameter_rejected(self, key, bad):
        obj = {"m": 7, "blocks": [list(b) for b in FANO.blocks], "t": 2, "lambda": 1}
        obj[key] = bad
        with pytest.raises(ParameterError, match=f"^{key} "):
            design_from_json(json.loads(json.dumps(obj)))
        with pytest.raises(ParameterError, match=f"^{key} "):
            BlockDesign(7, FANO.blocks, **{f"declared_{key}": bad})

    def test_numpy_integer_declared_parameters_accepted(self):
        d = BlockDesign(7, FANO.blocks, declared_t=np.int64(2), declared_lambda=np.int32(1))
        assert (d.declared_t, d.declared_lambda) == (2, 1)
        assert type(d.declared_t) is int and type(d.declared_lambda) is int
        assert json.dumps(design_to_json(d))


class TestVerifyDesign:
    def test_fano(self):
        report = verify_design(FANO, 2)
        assert report.is_t_design == {1: True, 2: True}
        assert report.lambda_observed == 1
        assert report.r_observed == 3
        assert report.b == 7
        assert report.is_symmetric
        assert report.cohesion == 1

    def test_ag22(self):
        report = verify_design(AG22, 2)
        assert report.is_t_design[2]
        assert report.lambda_observed == 1
        assert report.r_observed == 3
        assert report.b == 6
        assert not report.is_symmetric

    def test_duplicate_blocks_counted_with_multiplicity(self):
        d = BlockDesign(2, [(0, 1), (0, 1)])
        report = verify_design(d, 2)
        assert report.is_t_design[2]
        assert report.lambda_observed == 2
        assert report.b == 2

    def test_counting_identities_on_generated_designs(self):
        # mr = bl always; r(l-1) = lambda(m-1) for 2-designs, as exact integers
        designs = [
            FANO,
            AG22,
            BlockDesign(9, enumerate_affine_hyperplanes(3, 2)),
            BlockDesign(13, enumerate_projective_plane(3)),
            hadamard_to_3design(gen_hadamard(8)),
            menon_16_6_2(),
        ]
        for d in designs:
            report = verify_design(d, 2)
            assert report.is_t_design[2], d
            m, l, b = d.m, d.block_size, d.b
            r, lam = report.r_observed, report.lambda_observed
            assert m * r == b * l
            assert r * (l - 1) == lam * (m - 1)

    def test_non_design_flagged(self):
        d = BlockDesign(4, [(0, 1), (0, 2)])
        report = verify_design(d, 2)
        assert not report.is_t_design[2]
        assert report.lambda_observed is None

    def test_t_out_of_range(self):
        with pytest.raises(ParameterError):
            verify_design(FANO, 0)
        with pytest.raises(ParameterError):
            verify_design(FANO, 8)


class TestCohesion:
    def test_fano_is_one_and_l2_over_m_cohesive(self):
        assert cohesion(FANO) == 1
        assert is_cohesive(FANO, Fraction(9, 7))

    def test_fano_complement(self):
        comp = complement_design(FANO)
        # oracle: complement blocks meet in m - 2l + lambda = 7 - 6 + 1 = 2 points
        assert cohesion(comp) == 2
        assert is_cohesive(comp, Fraction(16, 7))  # 2 <= 16/7

    def test_disjoint_blocks(self):
        assert cohesion(BlockDesign(4, [(0, 1), (2, 3)])) == 0

    def test_single_block_errors(self):
        with pytest.raises(ParameterError):
            cohesion(BlockDesign(3, [(0, 1)]))

    def test_symmetric_design_cohesion_is_lambda(self):
        # symmetric designs meet pairwise in exactly lambda <= l^2/m points
        for d, lam in ((FANO, 1), (menon_16_6_2(), 2),
                       (BlockDesign(13, enumerate_projective_plane(3)), 1)):
            c = cohesion(d)
            assert c == lam
            assert c * d.m <= d.block_size ** 2

    def test_affine_complement_cohesion_bound(self):
        # complement of an affine l^2/m-cohesive design is (m-l)^2/m-cohesive
        for d in (AG22, BlockDesign(9, enumerate_affine_hyperplanes(3, 2))):
            m, l = d.m, d.block_size
            comp = complement_design(d)
            assert m * cohesion(comp) <= (m - l) ** 2


class TestComplement:
    def test_fano_complement_is_7_4_2(self):
        comp = complement_design(FANO)
        report = verify_design(comp, 2)
        assert report.is_t_design[2]
        assert comp.block_size == 4
        assert report.lambda_observed == 2
        assert report.is_symmetric

    def test_single_point(self):
        assert complement_design(BlockDesign(2, [(0,)])).blocks == ((1,),)

    def test_involution(self):
        assert complement_design(complement_design(FANO)).blocks == FANO.blocks

    def test_full_blocks_rejected(self):
        with pytest.raises(ParameterError):
            complement_design(BlockDesign(2, [(0, 1)]))


@st.composite
def block_families(draw):
    """Two to ten random blocks of one size l, 1 <= l < m, over m <= 9 points."""
    m = draw(st.integers(2, 9))
    l = draw(st.integers(1, m - 1))
    blocks = draw(st.lists(st.permutations(range(m)).map(lambda pts: pts[:l]),
                           min_size=2, max_size=10))
    return BlockDesign(m, blocks)


TWO_DESIGNS = {
    "fano": FANO,
    "pg23": BlockDesign(13, enumerate_projective_plane(3)),
    "ag23": BlockDesign(9, enumerate_affine_hyperplanes(3, 2)),
    "hadamard8": hadamard_to_3design(gen_hadamard(8)),
}


@st.composite
def two_designs(draw):
    """One to three relabelled copies of one 2-design, concatenated: all
    l-subsets of m <= 6 points, or one of TWO_DESIGNS."""
    name = draw(st.sampled_from(["complete", *sorted(TWO_DESIGNS)]))
    if name == "complete":
        m = draw(st.integers(2, 6))
        source = BlockDesign(m, itertools.combinations(range(m), draw(st.integers(1, m - 1))))
    else:
        source = TWO_DESIGNS[name]
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.permutations(range(source.m)))
        blocks += [[label[x] for x in blk] for blk in source.blocks]
    return BlockDesign(source.m, blocks)


class TestComplementProperties:
    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_involution(self, design):
        assert complement_design(complement_design(design)).blocks == design.blocks

    @settings(max_examples=60, deadline=None)
    @given(block_families())
    def test_cohesion_shifts_by_m_minus_2l(self, design):
        # |J^c & K^c| = m - 2l + |J & K| for blocks of size l
        comp = complement_design(design)
        assert cohesion(comp) == design.m - 2 * design.block_size + cohesion(design)

    @settings(max_examples=40, deadline=None)
    @given(two_designs())
    def test_two_design_complement_lambda(self, design):
        report = verify_design(design, 2)
        assert report.is_t_design[2]
        comp = verify_design(complement_design(design), 2)
        assert comp.is_t_design[2]
        assert comp.lambda_observed == (design.b - 2 * report.r_observed
                                        + report.lambda_observed)


class TestResolvability:
    def test_ag22_affine_with_bose_equality(self):
        res = resolvability(AG22)
        assert res.is_resolvable
        assert len(res.parallel_classes) == 3
        assert all(len(c) == 2 for c in res.parallel_classes)
        assert res.is_affine
        assert res.cross_intersection == 1
        report = verify_design(AG22, 2)
        assert AG22.b == AG22.m + report.r_observed - 1  # 6 = 4 + 3 - 1

    def test_fano_not_resolvable(self):
        res = resolvability(FANO)
        assert not res.is_resolvable  # 3 does not divide 7

    def test_ag23_four_classes_cross_intersection_one(self):
        d = BlockDesign(9, enumerate_affine_hyperplanes(3, 2))
        res = resolvability(d)
        assert res.is_resolvable and res.is_affine
        assert len(res.parallel_classes) == 4
        assert res.cross_intersection == 1  # l^2/m = 9/9

    def test_resolvable_classes_partition_points(self):
        d = BlockDesign(9, enumerate_affine_hyperplanes(3, 2))
        res = resolvability(d)
        for cls in res.parallel_classes:
            covered = sorted(p for i in cls for p in d.blocks[i])
            assert covered == list(range(9))


class TestHadamard:
    def test_order_two(self):
        h = gen_hadamard(2)
        assert np.array_equal(h.entries, [[1, 1], [1, -1]])

    def test_order_four_is_sylvester(self):
        h = gen_hadamard(4)
        h2 = np.array([[1, 1], [1, -1]])
        assert np.array_equal(h.entries, np.kron(h2, h2))
        assert np.array_equal(h.entries @ h.entries.T, 4 * np.eye(4, dtype=int))

    def test_order_twelve_paley(self):
        h = gen_hadamard(12)
        assert np.array_equal(h.entries @ h.entries.T, 12 * np.eye(12, dtype=int))

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16, 20, 24, 32, 44, 48])
    def test_reachable_orders_verify_exactly(self, order):
        h = gen_hadamard(order)
        assert np.array_equal(h.entries @ h.entries.T,
                              order * np.eye(order, dtype=int))

    def test_unreachable_orders(self):
        # 36 needs q = 1 mod 4 Paley or other constructions; 28 needs the
        # prime power 27
        for order in (3, 6, 28, 36):
            with pytest.raises(UnsupportedError):
                gen_hadamard(order)

    def test_constructor_rejects_non_hadamard(self):
        with pytest.raises(ParameterError):
            HadamardMatrix(np.ones((6, 6), dtype=int))
        with pytest.raises(ParameterError):
            HadamardMatrix([[1, 2], [1, 1]])

    def test_json_round_trip(self):
        h = gen_hadamard(12)
        back = hadamard_from_json(hadamard_to_json(h))
        assert np.array_equal(back.entries, h.entries)

    @pytest.mark.parametrize("order", [4.0, 4.5, "4"])
    def test_json_non_integral_order_rejected(self, order):
        obj = hadamard_to_json(gen_hadamard(4))
        obj["order"] = order
        with pytest.raises(ParameterError, match="order"):
            hadamard_from_json(obj)


class TestHadamardThreeDesign:
    def test_order_four(self):
        d = hadamard_to_3design(gen_hadamard(4))
        assert d.m == 4 and d.b == 6 and d.block_size == 2
        # the six blocks are exactly the six pairs: three matchings + complements
        assert sorted(d.blocks) == sorted(itertools.combinations(range(4), 2))
        # non-complementary pairs intersect in exactly t = 1 point
        for a, b in itertools.combinations(d.blocks, 2):
            inter = set(a) & set(b)
            if set(a) | set(b) != set(range(4)):
                assert len(inter) == 1
        report = verify_design(d, 3)
        assert report.is_t_design == {1: True, 2: True, 3: True}
        assert report.lambda_observed == 0  # 3-(4, 2, 0)

    def test_order_eight(self):
        d = hadamard_to_3design(gen_hadamard(8))
        assert d.b == 14 and d.block_size == 4
        for a, b in itertools.combinations(d.blocks, 2):
            if set(a) | set(b) != set(range(8)):
                assert len(set(a) & set(b)) == 2
        report = verify_design(d, 3)
        assert all(report.is_t_design.values())
        assert report.lambda_observed == 1  # 3-(8, 4, 1)

    def test_rejects_order_not_multiple_of_four(self):
        with pytest.raises(ParameterError):
            hadamard_to_3design(gen_hadamard(2))

    def test_design_reductions(self):
        # a t-design is also a (t-1)-design: 3-(8,4,1) gives 2-(8,4,3), 1-(8,4,7)
        d = hadamard_to_3design(gen_hadamard(8))
        rep2 = verify_design(d, 2)
        assert rep2.lambda_observed == 3
        assert rep2.r_observed == 7


class TestDesignRebase:
    def test_fano_to_nine_points(self):
        m_prime, rebased = design_rebase(FANO)
        assert m_prime == 9
        assert rebased.m == 9 and rebased.blocks == FANO.blocks
        assert 1 * m_prime == 3 * 3  # lambda m' = l^2

    def test_pg23_to_sixteen_points(self):
        d = BlockDesign(13, enumerate_projective_plane(3))
        m_prime, rebased = design_rebase(d)
        assert m_prime == 16
        assert 1 * m_prime == 4 * 4

    def test_menon_16_6_2_to_eighteen(self):
        d = menon_16_6_2()
        m_prime, _ = design_rebase(d)
        assert m_prime == 18
        assert 2 * m_prime == 6 * 6

    def test_rebased_blocks_meet_in_l2_over_mprime(self):
        m_prime, rebased = design_rebase(FANO)
        l = rebased.block_size
        for a, b in itertools.combinations(rebased.blocks, 2):
            assert len(set(a) & set(b)) * m_prime == l * l

    def test_non_integer_shift_rejected(self):
        # 3-(8,4,1) Hadamard design is not symmetric -> rejected before the
        # integrality check; a symmetric design with non-integer (m-l)/(l-1):
        # (11,5,2) biplane has (11-5)/4 = 1.5
        biplane = BlockDesign(11, [tuple(sorted((i + s) % 11 for s in (1, 3, 4, 5, 9)))
                                   for i in range(11)])
        report = verify_design(biplane, 2)
        assert report.is_symmetric and report.lambda_observed == 2
        with pytest.raises(ParameterError):
            design_rebase(biplane)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ParameterError):
            design_rebase(AG22)


class TestComplementaryHalves:
    def test_hadamard_design_halves_contain_zero(self):
        d = hadamard_to_3design(gen_hadamard(4))
        halves = complementary_halves(d)
        assert halves.b == 3
        assert all(0 in blk for blk in halves.blocks)

    def test_not_closed_raises(self):
        with pytest.raises(StructuralError):
            complementary_halves(BlockDesign(4, [(0, 1), (0, 2)]))


class TestIntersectionMatrix:
    def test_incidence_and_intersections(self):
        inc, meet = FANO.incidence, FANO.intersections
        assert inc.shape == (7, 7) and inc.dtype == np.float64
        assert [tuple(np.flatnonzero(col)) for col in inc.T] == list(FANO.blocks)
        assert meet.dtype == np.int64
        assert np.array_equal(meet, 2 * np.eye(7, dtype=np.int64) + 1)  # l = 3, lambda = 1

    def test_read_only_and_made_once(self):
        d = BlockDesign(4, [(0, 1), (2, 3), (0, 2)])
        for arr in (d.incidence, d.intersections):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 5
        assert d.incidence is d.incidence and d.intersections is d.intersections

    def test_not_part_of_equality_hash_or_json(self):
        used, fresh = BlockDesign(4, [(0, 1), (2, 3)]), BlockDesign(4, [(0, 1), (2, 3)])
        assert used.intersections.shape == (2, 2)  # made on first use
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert design_to_json(used) == design_to_json(fresh)

    def test_verify_design_counts_each_level_once(self, monkeypatch):
        from grasspack import designs
        calls = []
        real = designs._subset_counts

        def counting(design, t):
            calls.append(t)
            return real(design, t)

        monkeypatch.setattr(designs, "_subset_counts", counting)
        report = verify_design(FANO, 2)
        assert calls == [1, 2]
        assert report.r_observed == 3 and report.lambda_observed == 1


# The set-based readers the intersection matrix replaced, kept as references.

def reference_cohesion(design):
    sets = [frozenset(b) for b in design.blocks]
    return max(len(a & b) for a, b in itertools.combinations(sets, 2))


def reference_halves(design):
    remaining = list(range(design.b))
    sets = [frozenset(b) for b in design.blocks]
    full = frozenset(range(design.m))
    chosen = []
    while remaining:
        i = remaining.pop(0)
        comp = full - sets[i]
        j = next((k for k in remaining if sets[k] == comp), None)
        if j is None:
            raise StructuralError(f"block {design.blocks[i]} has no complement in the family")
        remaining.remove(j)
        chosen.append(i if 0 in sets[i] else j)
    return BlockDesign(design.m, [design.blocks[i] for i in sorted(chosen)])


def reference_resolvability(design):
    from grasspack.designs import ResolvabilityReport, _subset_counts
    m, l, b = design.m, design.block_size, design.b
    if l == m:
        return ResolvabilityReport(True, tuple((i,) for i in range(b)), False, None)
    if m % l != 0 or b % (m // l) != 0:
        return ResolvabilityReport(False, None, False, None)
    per_class = m // l
    sets = [frozenset(blk) for blk in design.blocks]

    def complete_class(partial, covered, unused):
        if len(partial) == per_class:
            yield tuple(partial)
            return
        for i in sorted(unused):
            if i <= partial[-1] or covered & sets[i]:
                continue
            partial.append(i)
            yield from complete_class(partial, covered | sets[i], unused - {i})
            partial.pop()

    def partition(unused):
        if not unused:
            return ()
        pivot = min(unused)
        for cls in complete_class([pivot], sets[pivot], unused - {pivot}):
            rest = partition(unused - set(cls))
            if rest is not None:
                return (cls,) + rest
        return None

    classes = partition(set(range(b)))
    if classes is None:
        return ResolvabilityReport(False, None, False, None)
    cross = {len(sets[i] & sets[j]) for ca, cb in itertools.combinations(classes, 2)
             for i in ca for j in cb}
    is_affine = len(cross) == 1
    if is_affine:
        ok2, _ = _subset_counts(design, 2)
        r_ok, r = _subset_counts(design, 1)
        if ok2 and r_ok and b != m + r - 1:
            raise ConsistencyError(
                f"affine design violates the b = m + r - 1 equality: b={b}, m={m}, r={r}")
    return ResolvabilityReport(True, classes, is_affine, cross.pop() if is_affine else None)


def reference_orthoplex_failure(halves):
    m, l = halves.m, halves.block_size
    for (i, a), (j, b) in itertools.combinations(enumerate(halves.blocks), 2):
        inter = len(set(a) & set(b))
        if m * inter != l * l:
            return f"blocks {i} and {j} meet in {inter} points; need l^2/m = {l * l}/{m}"
    return None


def outcome(read, design):
    """What ``read(design)`` returns, or the type and text of what it raises."""
    try:
        return read(design)
    except GrasspackError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def small_designs(draw):
    """Blocks of one size over m <= 8 points: arbitrary ones, complement-closed
    families (shuffled, sometimes with a repeated block) or unions of parallel
    classes, so that each reader meets its success and its failure cases."""
    m = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["any", "closed", "parallel"]))
    subsets = st.permutations(range(m))
    if kind == "closed" and m % 2 == 0:
        halves = [pts[:m // 2] for pts in draw(st.lists(subsets, min_size=1, max_size=5))]
        blocks = halves + [sorted(set(range(m)) - set(h)) for h in halves]
        blocks = [blocks[i] for i in draw(st.permutations(range(len(blocks))))]
        blocks += blocks[:draw(st.integers(0, 1))]
    elif kind == "parallel":
        l = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        blocks = [pts[s:s + l] for pts in draw(st.lists(subsets, min_size=1, max_size=4))
                  for s in range(0, m, l)]
        blocks = [blocks[i] for i in draw(st.permutations(range(len(blocks))))]
    else:
        l = draw(st.integers(1, m))
        blocks = [pts[:l] for pts in draw(st.lists(subsets, min_size=1, max_size=10))]
    return BlockDesign(m, blocks)


class TestIntersectionReaders:
    """Every reader of ``intersections`` agrees with the set-based code it
    replaced, errors included."""

    @settings(max_examples=300, deadline=None)
    @given(small_designs())
    def test_matches_set_based_reference(self, design):
        if design.b >= 2:
            assert cohesion(design) == reference_cohesion(design)
        halves = outcome(complementary_halves, design)
        expected = outcome(reference_halves, design)
        assert (halves.blocks if isinstance(halves, BlockDesign) else halves) == (
            expected.blocks if isinstance(expected, BlockDesign) else expected)
        assert outcome(resolvability, design) == outcome(reference_resolvability, design)
        if design.block_size < design.m:
            assert complement_design(design).blocks == tuple(
                tuple(sorted(set(range(design.m)) - set(b))) for b in design.blocks)
            family = MubFamily(design.m, COMPLEX, [np.eye(design.m)])
            failure = reference_orthoplex_failure(design)
            if failure is None:
                assert build_orthoplex_packing(family, design).n == 2 * design.b
            else:
                with pytest.raises(HypothesisError) as info:
                    build_orthoplex_packing(family, design)
                assert str(info.value) == failure
