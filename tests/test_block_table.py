"""The block table of a MUB-family packing: the exact pass grouped by
pattern against the per-pair pass it replaced, tightness decided in integers
against the float sum, builders that check no block per element, and
packings made as their table against packings made element by element."""

import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grasspack import packing
from grasspack.designs import BlockDesign, _incidence, complement_design
from grasspack.errors import ParameterError
from grasspack.mubs import MubFamily, gen_mubs, gen_mubs_prime, gen_mubs_small, mubs_from_json
from grasspack.numerics import COMPLEX, DEFAULT_TOL, Tolerance, matrix_rank
from grasspack.packing import (_PAIR_CLASSES, CoherenceReport, Packing, PairClassSummary,
                               _pair_class,
                               certificate_to_json, certify, check_tightness, coherence,
                               coordinate_projection, extract_hadamard, packing_from_json,
                               packing_to_json, span_of_achievers, spatial_complement)

from conftest import dense_copy, random_orthonormal
from test_packing import (BUILDER_FIXTURES, FANO, FANO_C, ORTHOPLEX_CASES,
                          assert_exact_matches_numeric, coordinate_packings, mub_packings,
                          paley_packing)


def per_pair_exact_pass(pk):
    """The exact pass as it was before the block table, kept as the
    reference: it forms every same-basis pair of elements, with its
    intersection read off an incidence of all n blocks, takes the exact ties
    of mu as achievers and decides the verdicts on mu as a Fraction."""
    m, n = pk.m, pk.n
    mub_dev = pk._block_table.mub_dev
    ranks, labels = pk.ranks, pk._block_table.labels
    crossed = bool(np.any(labels != labels[0]))
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    inc = _incidence(m, [pk.elements[i].block for i in order])
    first, second, common = [], [], []
    for s, e in zip(starts[:-1], starts[1:]):
        u, v = np.triu_indices(e - s, 1)
        first.append(order[s + u])
        second.append(order[s + v])
        common.append((inc[:, s:e].T @ inc[:, s:e])[u, v])
    first, second = np.concatenate(first), np.concatenate(second)
    common = np.rint(np.concatenate(common)).astype(np.int64)
    ri, rj = ranks[first], ranks[second]
    num = m * common - ri * rj
    codes, pair_id = np.unique((ri * (m + 1) + rj) * (m + 1) + common, return_inverse=True)
    as_float, exact = {Fraction(0): 0.0}, []
    for code in codes.tolist():
        sizes, c = divmod(code, m + 1)
        a, b = divmod(sizes, m + 1)
        nu, den = m * c - a * b, a * (m - a) * b * (m - b)
        exact.append(Fraction(nu * abs(nu), den))
        as_float.setdefault(exact[-1], nu / math.sqrt(den))
    ordered = sorted(as_float)
    rank_of = {v: r for r, v in enumerate(ordered)}
    floats = np.array([as_float[v] for v in ordered])
    key = np.array([rank_of[v] for v in exact], dtype=np.int64)[pair_id.ravel()]
    zero = rank_of[Fraction(0)] if crossed else -1
    best = np.full(n, zero)
    np.maximum.at(best, first, key)
    np.maximum.at(best, second, key)
    top = int(best.max())
    mu = float(floats[top])
    i = int(np.argmax(best == top))
    hit = key == top
    partners = [*second[hit & (first == i)], *first[hit & (second == i)]]
    if top == zero:
        partners.append(np.flatnonzero(labels != labels[i])[0])
    achievers = np.flatnonzero(best == top)
    classes = len(_PAIR_CLASSES)
    cls = _pair_class(labels[first], ri, labels[second], rj)
    same = np.bincount(cls, minlength=classes)
    same_top = np.full(classes, -1)
    np.maximum.at(same_top, cls, key)
    cells, size = np.unique((labels + 1) * (m + 1) + ranks, return_counts=True)
    cell_label, cell_rank = cells // (m + 1) - 1, cells % (m + 1)
    ordered_pairs = np.outer(size, size)
    np.fill_diagonal(ordered_pairs, size * (size - 1))
    cls = _pair_class(cell_label[:, None], cell_rank[:, None], cell_label, cell_rank)
    count = np.bincount(cls.ravel(), weights=ordered_pairs.ravel(),
                        minlength=classes).astype(np.int64) // 2
    pair_classes = {
        name: PairClassSummary(int(count[c]), float(floats[
            max(same_top[c], zero if count[c] > same[c] else -1)]))
        for c, name in enumerate(_PAIR_CLASSES) if count[c]}
    mu_raw = None
    if pk.mixture == 1:
        traces = [Fraction(int(common.max()))] if common.size else []
        mu_raw = float(max(traces + ([Fraction(int(ranks[0]) ** 2, m)] if crossed else [])))

    def antipodal_pairs():
        comp = (common == 0) & (ri + rj == m)
        degree = np.bincount(first[comp], minlength=n) + np.bincount(second[comp], minlength=n)
        return n // 2 if np.all(degree == 1) and not np.any(num[~comp]) else None

    report = CoherenceReport(mu, argmax_pair=(i, int(min(partners))), achievers=achievers,
                             pair_classes=pair_classes, n=n, mu_raw=mu_raw, method="exact",
                             mub_dev=mub_dev)
    return report, ordered[top] <= 0, ordered[top] * (n - 1) ** 2 == -1, antipodal_pairs


def same_report(rep, ref) -> bool:
    """Equal by value, achievers included, and in repr, which tells -0.0 from 0.0."""
    return rep == ref and repr(rep) == repr(ref)


def shuffled(pk, seed):
    """The same elements in a random order."""
    order = np.random.default_rng(seed).permutation(pk.n)
    return Packing(pk.m, pk.field, tuple(pk.elements[i] for i in order), pk.hypotheses, pk.mode)


def on_bases(family, runs):
    """Coordinate projections of ``family``: the blocks of each (basis, blocks) run in turn."""
    return Packing(family.m, family.field, tuple(
        coordinate_projection(family, a, blk) for a, blocks in runs for blk in blocks))


FANO7 = gen_mubs(7, COMPLEX)
PATTERN_CASES = {
    "paley19-shuffled": lambda: shuffled(paley_packing(19), 1),
    "fano-shuffled": lambda: shuffled(BUILDER_FIXTURES["fano-m7"](), 2),
    # bases 1 and 3 list the Fano blocks in order, basis 2 reversed: one pattern of 7 blocks
    "two-orders": lambda: on_bases(FANO7, [(1, FANO.blocks), (2, FANO.blocks[::-1]),
                                           (3, FANO.blocks)]),
    "one-element-basis": lambda: on_bases(FANO7, [(0, FANO.blocks), (5, FANO_C.blocks[:1]),
                                                  (6, FANO.blocks)]),
    "mixed-ranks-in-a-basis": lambda: shuffled(on_bases(FANO7, [
        (a, FANO.blocks + FANO_C.blocks) for a in (0, 2, 4)]), 3),
    "orthoplex-c4": BUILDER_FIXTURES["c4-hadamard"],
    "orthoplex-c8-shuffled": lambda: shuffled(BUILDER_FIXTURES["c8-hadamard"](), 4),
    # a block listed twice on a basis is a pair of one block id with itself: value 1
    "repeated-block": lambda: on_bases(FANO7, [(0, FANO.blocks + FANO.blocks[2:3]),
                                               (4, FANO.blocks)]),
}


def assert_matches_per_pair(pk, monkeypatch):
    """The exact pass gives the per-pair report and orthoplex check, and
    ``certify`` the same certificate bytes and report as with the per-pair
    pass in its place."""
    rep, *verdicts, pairs = packing._exact_pass(pk)
    ref, *ref_verdicts, ref_pairs = per_pair_exact_pass(pk)
    assert same_report(rep, ref) and verdicts == ref_verdicts and pairs() == ref_pairs()
    cert = certify(pk)
    with monkeypatch.context() as patch:
        patch.setattr(packing, "_exact_pass", per_pair_exact_pass)
        cert_ref = certify(pk)
    assert (json.dumps(certificate_to_json(cert), sort_keys=True)
            == json.dumps(certificate_to_json(cert_ref), sort_keys=True))
    assert same_report(cert.coherence, cert_ref.coherence)


class TestPatterns:
    @pytest.mark.parametrize("flip", [False, True], ids=["built", "complement"])
    @pytest.mark.parametrize("name", sorted({*PATTERN_CASES, *BUILDER_FIXTURES}))
    def test_matches_the_numeric_and_the_per_pair_pass(self, name, flip, monkeypatch):
        pk = {**BUILDER_FIXTURES, **PATTERN_CASES}[name]()
        pk = spatial_complement(pk) if flip else pk
        assert_exact_matches_numeric(pk)
        assert_matches_per_pair(pk, monkeypatch)

    def test_two_orders_are_one_pattern(self):
        """Bases 1 and 3 list the same blocks in the same order, basis 2 in
        reverse: the table has 7 distinct blocks, which all three bases hold
        once, so their one pattern's square is the Fano N^T N, and the five
        unused bases share the zero row."""
        pk = PATTERN_CASES["two-orders"]()
        table = pk._block_table
        assert len(table.blocks) == 7 and pk.n == 21
        assert np.array_equal(table.ids[7:14], table.ids[6::-1])
        assert table.patterns[0].tolist() == [0, 1, 1, 1, 0, 0, 0, 0]
        assert [sq.shape for sq in table.squares] == [(0, 0), (7, 7)]
        assert np.array_equal(table.squares[1], FANO.intersections)

    def test_orthoplex_pairs_are_found_by_pattern(self):
        pk = BUILDER_FIXTURES["c4-hadamard"]()
        cert = certify(pk)
        assert cert.status.value == "MaximalOrthoplex"
        assert cert.details["antipodal_pairs"] == pk.n // 2

    @pytest.mark.parametrize("flip", [False, True], ids=["built", "complement"])
    def test_paley71_matches_the_per_pair_pass(self, flip, monkeypatch):
        pk = paley_packing(71)
        assert_matches_per_pair(spatial_complement(pk) if flip else pk, monkeypatch)

    def test_a_design_with_a_repeated_block(self, monkeypatch):
        """A design may list a block twice: the built table keeps one block id
        for both positions, and the pair of them has value 1 (the hypotheses
        fail, so the report is compared and not the certificate)."""
        design = BlockDesign(7, FANO.blocks + FANO.blocks[:1])
        pk = packing.build_mixed_packing(FANO7, [design, FANO_C], [[0, 1, 2], [3, 4, 5]])
        table = pk._block_table
        assert not pk.hypotheses.ok and pk.n == 45 and len(table.blocks) == 14
        assert table.ids[7] == table.ids[0] == 0
        rep, *verdicts, pairs = packing._exact_pass(pk)
        ref, *ref_verdicts, ref_pairs = per_pair_exact_pass(pk)
        assert same_report(rep, ref) and verdicts == ref_verdicts and pairs() == ref_pairs()
        assert rep.mu_embedded == 1.0 and rep.argmax_pair == (0, 7)

    def test_the_m71_pass_calls_no_unique_or_isin(self, monkeypatch):
        """The pass reads the patterns off one byte string and the codes off
        one bincount: no np.unique or np.isin runs on the m = 71 table."""
        table = paley_packing(71)._block_table

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique or np.isin was called")

        with monkeypatch.context() as patch:
            patch.setattr(np, "unique", refuse)
            patch.setattr(np, "isin", refuse)
            values = packing._exact_values(table)
        assert not values.flat and values.report.n == 5112
        assert values.report.achievers.tolist() == list(range(5112))

    @settings(max_examples=80, deadline=None)
    @given(mub_packings(), st.integers(0, 2**32 - 1))
    def test_random_packings_match_the_per_pair_pass(self, pk, seed):
        for case in (pk, shuffled(pk, seed)):
            rep, *verdicts, pairs = packing._exact_pass(case)
            ref, *ref_verdicts, ref_pairs = per_pair_exact_pass(case)
            assert same_report(rep, ref) and verdicts == ref_verdicts
            assert pairs() == ref_pairs()


@st.composite
def mixed_builds(draw):
    """``build_mixed_packing`` of one to three random designs over gen_mubs(q),
    q <= 9, on disjoint random classes of a random part of its bases (a class
    may be empty): each design has its own block size, never empty or full,
    and one to six random blocks, a block listed twice allowed."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 9]))
    family = gen_mubs(q, COMPLEX)
    count, used = draw(st.integers(1, 3)), draw(st.integers(1, family.k))
    bases = draw(st.permutations(range(family.k)))[:used]
    cuts = sorted(draw(st.lists(st.integers(0, used), min_size=count - 1, max_size=count - 1)))
    classes = [bases[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, used])]
    designs = []
    for _ in range(count):
        size = draw(st.integers(1, q - 1))
        blocks = draw(st.lists(st.permutations(range(q)), min_size=1, max_size=6))
        designs.append(BlockDesign(q, [b[:size] for b in blocks]))
    return packing.build_mixed_packing(family, designs, classes)


class TestSquareSources:
    @settings(max_examples=80, deadline=None)
    @given(mixed_builds())
    def test_every_source_gives_one_report(self, pk):
        """The squares read off the designs' N^T N give the per-pair pass's
        report and verdicts; so do those formed from the incidence of the JSON
        round trip and of the same elements given one by one, and the
        complemented squares (but for the raw traces). On the elements, with
        no hypothesis failure recorded, certify decides as the numeric pass of
        their dense copy does."""
        assume(pk.n >= 2)
        rep, *verdicts, pairs = packing._exact_pass(pk)
        ref, *ref_verdicts, ref_pairs = per_pair_exact_pass(pk)
        assert same_report(rep, ref) and verdicts == ref_verdicts and pairs() == ref_pairs()
        back, loose = json_round_trip(pk), Packing(pk.m, pk.field, pk.elements)
        for other in (back, loose):
            assert "exact" not in vars(other._block_table)
            assert same_report(coherence(other), rep)
        flipped = coherence(spatial_complement(pk))
        assert same_report(dataclasses.replace(flipped, mu_raw=rep.mu_raw), rep)
        assert_exact_matches_numeric(loose)


class TestBuilders:
    def test_building_checks_no_block(self, monkeypatch):
        """The builders take the design's checked blocks as they are; the
        public ``coordinate_projection`` still checks its block."""
        calls = []
        check = packing.check_block

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(packing, "check_block", counting)
        pk = paley_packing(19)
        assert BUILDER_FIXTURES["rebased-fano-m9"]().n == 140
        assert pk.n == 380 and calls == []
        with pytest.raises(ParameterError, match="repeats a point"):
            coordinate_projection(pk.elements[0].family, 0, (1, 1))
        assert len(calls) == 1

    @pytest.mark.parametrize("index, message", [
        (8, "basis index 8 outside 0..7"),
        (-1, "basis index -1 outside 0..7"),
        (True, "basis index True is a bool, not an integer"),
        (1.5, "basis index 1.5 is not an integer"),
    ], ids=["above", "negative", "bool", "float"])
    def test_a_partition_class_is_range_checked(self, index, message):
        """A class of plain ints in range is checked at once; any other falls
        back to one check per index, with its message."""
        with pytest.raises(ParameterError, match=f"^{message}$"):
            packing.build_mixed_packing(FANO7, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, index]])

    def test_numpy_basis_indices_are_accepted(self):
        ref = packing.build_mixed_packing(FANO7, [FANO, FANO_C], [[3, 0, 1], range(4, 7)])
        pk = packing.build_mixed_packing(FANO7, [FANO, FANO_C],
                                         [np.array([3, 0, 1]), [np.int64(4), 5, np.int8(6)]])
        assert text(packing_to_json(pk)) == text(packing_to_json(ref))
        labels = [a for a in (0, 1, 3, 4, 5, 6) for _ in FANO.blocks]
        assert ref._block_table.labels.tolist() == labels

    def test_a_built_table_takes_the_designs_incidence(self, monkeypatch):
        """Every builder fixture's table is built with no ``_incidence`` call,
        its incidence, block sizes and each pattern's square of intersections
        (read off the designs' N^T N) bit-equal to those of its blocks formed
        anew; so are those of a design listing a block twice and of one
        design in two classes, whose second run brings no new block."""
        def refuse(*args):
            raise AssertionError("_incidence was called")

        repeated = BlockDesign(7, FANO.blocks[:3] + FANO.blocks[1:2] + FANO.blocks[3:])
        makers = {**BUILDER_FIXTURES,
                  "repeated": lambda: packing.build_mixed_packing(
                      FANO7, [FANO_C, repeated], [[1], [0, 2]]),
                  "twice": lambda: packing.build_mixed_packing(
                      FANO7, [FANO, FANO_C, FANO], [[0, 1], [2], [3, 6]])}
        for name, make in makers.items():
            with monkeypatch.context() as patch:
                patch.setattr(packing, "_incidence", refuse)
                table = make()._block_table
            inc = _incidence(table.family.m, table.blocks)
            meet = (inc.T @ inc).astype(np.int64)
            pairs = [(table.incidence, inc), (table.sizes, meet.diagonal())]
            pairs += [(sq, meet[np.ix_(s, s)]) for sq, s in zip(
                table.squares, (row.nonzero()[0] for row in table.patterns[1]))]
            assert len(table.squares) == len(table.patterns[1]), name
            pattern, rows = table.patterns  # only the zero row is formed from N
            assert {int(pattern[a]) for a, _ in table.known} == set(rows.any(axis=1).nonzero()[0])
            for got, ref in pairs:
                assert got.dtype == ref.dtype and got.shape == ref.shape, name
                assert got.tobytes() == ref.tobytes(), name
                assert not got.flags.writeable, name

    def test_a_mixed_table_keeps_the_designs_intersections(self):
        """Each class's square is its design's own N^T N, the same object."""
        table = packing.build_mixed_packing(FANO7, [FANO, FANO_C], [[0, 1, 2], [5, 6]])._block_table
        pattern = table.patterns[0]
        assert table.squares[pattern[0]] is table.squares[pattern[2]] is FANO.intersections
        assert table.squares[pattern[5]] is FANO_C.intersections


@st.composite
def phase_packings(draw):
    """Coordinate projections of random bases of the ``gen_mubs`` family of
    C^q, q in {3, 5, 7, 9}: each chosen basis takes one or two random
    partitions of the points (constant coverage) or random blocks (mostly
    not), so packings both tight and not are drawn."""
    q = draw(st.sampled_from([3, 5, 7, 9]))
    family = gen_mubs(q, COMPLEX)
    chosen = draw(st.lists(st.integers(0, q), min_size=1, max_size=4, unique=True))
    picks = []
    for a in chosen:
        if draw(st.booleans()):
            for _ in range(draw(st.integers(1, 2))):
                cuts = [0, *sorted(draw(st.sets(st.integers(1, q - 1), min_size=1))), q]
                points = draw(st.permutations(range(q)))
                picks += [(a, points[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        else:
            picks += draw(st.lists(st.tuples(st.just(a), st.sets(st.integers(0, q - 1),
                                                                  min_size=1, max_size=q - 1)),
                                   min_size=1, max_size=6))
    order = draw(st.permutations(range(len(picks))))
    return Packing(q, COMPLEX, tuple(coordinate_projection(family, *picks[i]) for i in order))


def float_form(pk):
    """The same coordinate projections over a copy of the family without its
    exponent table, so that tightness takes the float sum."""
    family = pk.elements[0].family
    copy = MubFamily(family.m, family.field, family.bases)
    return Packing(pk.m, pk.field, tuple(coordinate_projection(copy, p.basis_index, p.block)
                                         for p in pk.elements))


def dense_sum_tightness(pk):
    """The reference: the summed element matrices within eps_abs of (sum of ranks / m) I."""
    constant = sum(p.rank for p in pk.elements) / pk.m
    f = sum(p.matrix for p in pk.elements)
    return float(np.abs(f - constant * np.eye(pk.m)).max()) <= DEFAULT_TOL.eps_abs, constant


class TestTightnessGate:
    @settings(max_examples=150, deadline=None)
    @given(phase_packings())
    def test_integer_rule_matches_the_float_sum(self, pk):
        ref_pk = float_form(pk)
        assert pk._block_table.family.exact_verdict
        assert ref_pk._block_table.family.exact_verdict is None
        tight, constant = check_tightness(pk)
        ref_tight, ref_constant = check_tightness(ref_pk)
        assert tight == ref_tight == dense_sum_tightness(pk)[0]
        assert constant.hex() == ref_constant.hex()
        cover = np.zeros((pk.elements[0].family.k, pk.m), dtype=np.int64)
        for p in pk.elements:
            cover[p.basis_index, list(p.block)] += 1
        assert tight == all(len(set(row)) == 1 for row in cover.tolist())

    @settings(max_examples=40, deadline=None)
    @given(coordinate_packings())
    def test_non_mub_families_take_the_float_sum(self, pk):
        assert pk._block_table.family.exact_verdict is None
        tight, constant = check_tightness(pk)
        ref_tight, ref_constant = dense_sum_tightness(pk)
        assert tight == ref_tight and constant.hex() == ref_constant.hex()

    def test_the_verdict_forms_no_float_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the float sum was formed")

        monkeypatch.setattr(packing, "_summed_projections", refuse)
        assert check_tightness(paley_packing(19)) == (True, 190.0)
        assert check_tightness(spatial_complement(paley_packing(19))) == (True, 190.0)


class TestComplement:
    @pytest.mark.parametrize("make", [lambda: paley_packing(19),
                                      lambda: shuffled(paley_packing(19), 2)],
                             ids=["paley19", "paley19-shuffled"])
    def test_each_distinct_block_is_complemented_once(self, make, monkeypatch):
        """Complementing each distinct block once gives the same (basis, block)
        pairs in the same order, and the same packing file, as complementing
        each element's block."""
        pk = make()
        m, ref = pk.m, []
        for p in pk.elements:
            rest = tuple(sorted(set(range(m)) - set(p.block)))
            ref.append(coordinate_projection(p.family, p.basis_index, rest))
        ref = Packing(m, pk.field, tuple(ref), pk.hypotheses, mode="complement")
        comp = spatial_complement(pk)
        assert ([(p.family, p.basis_index, p.block) for p in comp.elements]
                == [(p.family, p.basis_index, p.block) for p in ref.elements])
        assert (json.dumps(packing.packing_to_json(comp))
                == json.dumps(packing.packing_to_json(ref)))

    def test_dense_elements_are_complemented_as_matrices(self):
        pk = dense_copy(paley_packing(7))
        assert pk._block_table is None
        comp = spatial_complement(pk)
        assert all(np.array_equal(c.matrix, np.eye(7) - p.matrix) and c.rank == 7 - p.rank
                   for p, c in zip(pk.elements, comp.elements))


def element_runs(family, runs, record, mode):
    """The builders' packing made as it was before the block table: one
    checked ``coordinate_projection`` per element, every block of each run on
    each of its bases in turn, and the table (its incidence by ``_incidence``)
    read off the elements; the run's own incidence and intersections are not read."""
    return Packing(family.m, family.field, tuple(
        coordinate_projection(family, k, blk) for bases, blocks, *_ in runs
        for k in bases for blk in blocks), record, mode)


def paley_by_elements(p):
    """``paley_packing(p)`` written out element by element: the design's
    blocks on each even basis, then its complement's on each odd one."""
    residues = sorted({x * x % p for x in range(1, p)})
    paley = BlockDesign(p, [[(q + t) % p for q in residues] for t in range(p)])
    family, comp = gen_mubs_prime(p), complement_design(paley)
    runs = [(paley, range(0, p + 1, 2)), (comp, range(1, p + 1, 2))]
    elements = [coordinate_projection(family, k, blk)
                for design, bases in runs for k in bases for blk in design.blocks]
    return Packing(p, COMPLEX, tuple(elements), paley_packing(p).hypotheses, "mixed")


def complement_by_elements(pk):
    """The spatial complement, each element's block complemented on its own."""
    m = pk.m
    return Packing(m, pk.field, tuple(
        coordinate_projection(p.family, p.basis_index, set(range(m)) - set(p.block))
        for p in pk.elements), pk.hypotheses, "complement")


def json_round_trip(pk):
    return packing_from_json(json.loads(json.dumps(packing_to_json(pk))))


def json_by_elements(pk):
    """The packing file of ``pk`` read back one ``coordinate_projection`` per element."""
    obj = json.loads(json.dumps(packing_to_json(pk)))
    family = mubs_from_json(obj["family"])
    return Packing(obj["m"], obj["field"], tuple(
        coordinate_projection(family, basis, obj["blocks"][i]) for basis, i in obj["elements"]),
        pk.hypotheses, obj["mode"])


TABLE_CASES = sorted([*BUILDER_FIXTURES, "paley-p7", "paley-p31", "paley-p71"])
VARIANTS = {  # (how the table makes it, how the elements do)
    "built": (lambda pk: pk, lambda ref: ref),
    "complement": (spatial_complement, complement_by_elements),
    "json": (json_round_trip, json_by_elements),
    "complement-json": (lambda pk: json_round_trip(spatial_complement(pk)),
                        lambda ref: json_by_elements(complement_by_elements(ref))),
}


def both_ways(name, monkeypatch):
    """(the packing ``name`` made as its table, the same made by elements)."""
    if name.startswith("paley-p"):
        p = int(name.removeprefix("paley-p"))
        return paley_packing(p), paley_by_elements(p)
    with monkeypatch.context() as patch:
        patch.setattr(packing, "_from_runs", element_runs)
        ref = BUILDER_FIXTURES[name]()
    return BUILDER_FIXTURES[name](), ref


def text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


class TestTableBorn:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", TABLE_CASES)
    def test_equals_the_packing_made_by_elements(self, name, variant, monkeypatch):
        pk, ref = both_ways(name, monkeypatch)
        by_table, by_elements = VARIANTS[variant]
        pk, ref = by_table(pk), by_elements(ref)
        assert "elements" not in vars(pk) and "elements" in vars(ref)
        table, ref_table = pk._block_table, ref._block_table
        for part in ("labels", "ids", "incidence", "sizes", "patterns", "squares"):
            got, want = getattr(table, part), getattr(ref_table, part)
            assert len(got) == len(want), part
            assert all(np.array_equal(x, y) for x, y in zip(got, want)) if part in (
                "patterns", "squares") else np.array_equal(got, want), part
        assert table.blocks == ref_table.blocks
        assert (pk.m, pk.field, pk.n, pk.hypotheses, pk.mode, pk.rank_profile, pk.mixture) == (
            ref.m, ref.field, ref.n, ref.hypotheses, ref.mode, ref.rank_profile, ref.mixture)
        assert np.array_equal(pk.ranks, ref.ranks)
        assert text(packing_to_json(pk)) == text(packing_to_json(ref))
        assert text(certificate_to_json(certify(pk))) == text(certificate_to_json(certify(ref)))
        assert coherence(pk) == coherence(ref)
        assert "elements" not in vars(pk)
        assert ([(p.basis_index, p.block, p.rank) for p in pk.elements]
                == [(p.basis_index, p.block, p.rank) for p in ref.elements])
        assert all(p.family is table.family for p in pk.elements)
        assert pk.elements is pk.elements  # made once

    def test_the_m71_pipeline_makes_no_element(self, monkeypatch):
        """Building, certifying, coherence, tightness, writing, complementing
        and reading back the Paley m = 71 packing form no Projection."""
        def refuse(*args):
            raise AssertionError("an element was made")

        monkeypatch.setattr(packing, "_coordinate", refuse)
        pk = paley_packing(71)
        assert certify(pk).status.value == "OptimalOrthoplexRegime"
        assert coherence(pk).method == "exact"
        assert check_tightness(pk) == (True, 71 * 72 / 2)
        comp = spatial_complement(pk)
        back = packing_from_json(json.loads(json.dumps(packing_to_json(comp))))
        assert certify(back).is_tight and back.n == pk.n == 5112
        assert all("elements" not in vars(x) for x in (pk, comp, back))

    def test_ranks_are_read_only_and_kept(self):
        pk = paley_packing(7)
        assert pk.ranks is pk.ranks and not pk.ranks.flags.writeable
        assert pk.rank_profile == ((28, 3), (28, 4)) and pk.mixture == 2

    def test_equality_is_identity(self):
        pk = paley_packing(7)
        assert pk == pk and pk != paley_packing(7)
        assert pk != Packing(pk.m, pk.field, pk.elements, pk.hypotheses, pk.mode)

    @pytest.mark.parametrize("point", [True, 1.0], ids=["bool", "float"])
    def test_an_equal_point_of_another_type_is_checked(self, point):
        """Each listed block is checked once, and [true, 2, 4] is not the block
        [1, 2, 4] it equals in Python: it is refused."""
        obj = packing_to_json(paley_packing(7))
        i = obj["blocks"].index([1, 2, 4])
        obj["blocks"][i] = [point, 2, 4]
        with pytest.raises(ParameterError, match=f"^block {i}: point label {point!r} is"):
            packing_from_json(obj)


# one basis holds the Fano blocks and the complement of the first, which meets
# every other Fano block in two points: 1/6 for those pairs, -1/6 and -1 else,
# so the first block's largest value is short of mu by 1/3 (by 1/6 when the
# Fano blocks also lie on a second basis, across which every value is 0)
UNEVEN_CASES = {
    "uneven-one-basis": lambda: on_bases(FANO7, [(0, FANO.blocks + FANO_C.blocks[:1])]),
    "uneven-two-bases": lambda: on_bases(FANO7, [(0, FANO.blocks + FANO_C.blocks[:1]),
                                                 (3, FANO.blocks)]),
}
SHARED_CASES = sorted([*BUILDER_FIXTURES, *UNEVEN_CASES, "paley-p7", "paley-p31", "paley-p71"])
LOOSE = Tolerance(0.5)  # within it of mu lies the uneven cases' first block, not an achiever


def shared_case(name):
    if name.startswith("paley-p"):
        return paley_packing(int(name.removeprefix("paley-p")))
    return {**BUILDER_FIXTURES, **UNEVEN_CASES}[name]()


def reports(pk, tolerances) -> dict:
    """What ``certify``, ``coherence``, ``check_tightness`` and
    ``span_of_achievers`` report on ``pk`` at each tolerance, in turn."""
    out = {}
    for tol in tolerances:
        cert, rep = certify(pk, tol), coherence(pk, tol)
        out[tol.eps_abs] = (text(certificate_to_json(cert)), cert.coherence, rep,
                            repr(cert.coherence), repr(rep),
                            check_tightness(pk, tol), span_of_achievers(pk, rep, tol=tol))
    return out


def kept_arrays(obj, seen=None):
    """Every array reachable from ``obj`` through the containers and the
    package's own objects, cached values included."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from kept_arrays(item, seen)
    elif type(obj).__module__.startswith("grasspack") and hasattr(obj, "__dict__"):
        yield from kept_arrays(vars(obj), seen)


C3 = gen_mubs_prime(3)
EPSILONS = (Tolerance(1e-9), Tolerance(1e-6), LOOSE)


class TestNoToleranceOnTheExactPath:
    def test_a_positive_mu_is_never_certified(self):
        """The 12 singletons on the 4 bases of C^3 and {0, 1} on basis 0: n = 13 >
        d + 1 = 9, but mu = 1/2 exactly, so no tolerance reaches the orthoplex regime."""
        pk = on_bases(C3, [(a, [(x,) for x in range(3)]) for a in range(4)] + [(0, [(0, 1)])])
        for tol in EPSILONS:
            cert = certify(pk, tol)
            assert cert.status.value == "NotCertified" and cert.mu_embedded == 0.5
            assert cert.coherence.method == "exact"
            assert cert.coherence.achievers.tolist() == [0, 1, 12]

    def test_the_simplex_bound_is_met_exactly(self):
        """The 3 singletons of the standard basis of C^3 have mu = -1/2 = -1/(n-1)."""
        pk = on_bases(C3, [(0, [(0,), (1,), (2,)])])
        for tol in EPSILONS:
            cert = certify(pk, tol)
            assert cert.status.value == "OptimalSimplexRegime" and cert.mu_embedded == -0.5

    @pytest.mark.parametrize("variant", ["built", "complement", "json"])
    @pytest.mark.parametrize("name", SHARED_CASES)
    def test_every_output_is_the_same_at_every_tolerance(self, name, variant):
        """A fresh packing at each tolerance: its coherence report, certify's
        report and the certificate bytes are the same at all three."""
        make = {"built": shared_case, "json": lambda n: json_round_trip(shared_case(n)),
                "complement": lambda n: spatial_complement(shared_case(n))}[variant]
        outs = []
        for tol in EPSILONS:
            pk = make(name)
            rep, cert = coherence(pk, tol), certify(pk, tol)
            assert rep.method == "exact"
            outs.append((rep, cert.coherence, repr(rep), repr(cert.coherence),
                         text(certificate_to_json(cert))))
        assert outs[0] == outs[1] == outs[2]


class TestSharedAnalysis:
    @pytest.mark.parametrize("case", ["c4-hadamard", "paley-p19"])
    def test_one_analysis_serves_every_reader(self, case, monkeypatch):
        """certify, coherence, check_tightness, the achiever span and
        extract_hadamard's own certify read one table analysis; the span
        forms no sum, as one basis is covered, and a family with a verdict
        decides tightness once off the table's patterns, with no coverage of
        the elements, where the float C^4 family sums once per table."""
        calls = Counter()

        def spy(name):
            real = getattr(packing, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(packing, name, counted)

        for name in ("_exact_values", "_coverage", "_summed_projections", "matrix_rank"):
            spy(name)
        pk, design = ORTHOPLEX_CASES["c4"]() if case == "c4-hadamard" else (paley_packing(19),
                                                                             None)
        for round_ in (1, 2):
            cert = certify(pk)
            rep = coherence(pk)
            assert rep == cert.coherence and rep.method == "exact"
            assert check_tightness(pk) == (True, cert.tight_constant)
            assert span_of_achievers(pk, rep, cert) == (pk.m, True)
            if design is not None:
                assert extract_hadamard(pk, design).order == 4
            assert calls["_exact_values"] == 1 and calls["matrix_rank"] == 0
        if design is None:  # one coverage of the achievers per span
            assert calls == {"_exact_values": 1, "_coverage": 2}
        else:  # one float sum per table, its coverage, and one coverage per span
            assert calls["_summed_projections"] == 1 and calls["_coverage"] == 3

    @pytest.mark.parametrize("name", SHARED_CASES)
    def test_reports_equal_those_of_a_fresh_copy(self, name):
        """The original is read at the loose tolerance first, its copy from
        JSON at the default one: whatever the table kept from the first
        call, every report equals the copy's, and the achievers are the
        exact ties of mu at both tolerances."""
        pk = shared_case(name)
        got = reports(pk, (LOOSE, DEFAULT_TOL))
        assert got == reports(json_round_trip(pk), (DEFAULT_TOL, LOOSE))
        assert "exact" in vars(pk._block_table)
        loose, default = (coherence(pk, tol).achievers for tol in (LOOSE, DEFAULT_TOL))
        assert np.array_equal(loose, default) and (0 not in default) == (name in UNEVEN_CASES)

    @pytest.mark.parametrize("name", sorted(BUILDER_FIXTURES))
    def test_the_span_is_the_rank_of_the_summed_matrices(self, name):
        pk = BUILDER_FIXTURES[name]()
        rep = coherence(pk)
        ref = matrix_rank(sum(pk.elements[i].matrix for i in rep.achievers), DEFAULT_TOL)
        assert span_of_achievers(pk, rep) == (ref, ref == pk.m)

    def test_a_second_call_forms_no_array_of_length_n(self):
        """certify and coherence at a tolerance asked for before read the kept
        report: at m = 71 (n = 5112) they allocate less than one bool array of
        length n, which picking the achievers again would form."""
        pk = paley_packing(71)
        cert, rep = certify(pk), coherence(pk)
        tracemalloc.start()
        try:
            again, rep_again = certify(pk), coherence(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pk.n == 5112
        assert again == cert and same_report(rep_again, rep)
        assert same_report(rep, again.coherence)

    def test_the_first_certify_forms_no_square_of_all_blocks(self):
        """The first certify of a freshly built m = 71 packing (n = 5112, B = 142),
        its patterns found within it, holds at its peak the ranks, two index
        arrays of length n and the two coded 71 x 71 squares of its patterns.
        The bound allows one more array of length n: less than a B x B int64
        array (8 B^2 bytes) or n Python ints (28 n bytes) would add."""
        pk = paley_packing(71)
        table = pk._block_table
        assert table.family.exact_verdict  # made once per family, outside the trace
        assert "patterns" not in vars(table)
        tracemalloc.start()
        try:
            cert = certify(pk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        codes = 8 * sum(np.count_nonzero(row) ** 2 for row in table.patterns[1])
        held = 3 * 8 * pk.n + codes
        bound = held + 8 * pk.n
        assert codes == 2 * 8 * 71 ** 2 and pk.n == 5112
        assert bound < held + min(8 * len(table.blocks) ** 2, 28 * pk.n)
        assert peak < bound
        assert cert.coherence.method == "exact" and len(cert.coherence.achievers) == pk.n

    @pytest.mark.parametrize("name", sorted(UNEVEN_CASES))
    def test_no_tolerance_picks_the_achievers(self, name):
        """The first block's largest value lies within the loose tolerance of
        mu, yet no call takes it among the achievers: the loose one, the
        default and the loose one again each give a fresh copy's report."""
        pk = shared_case(name)
        for tol in (LOOSE, DEFAULT_TOL, LOOSE):
            fresh = shared_case(name)
            assert np.array_equal(coherence(pk, tol).achievers,
                                  coherence(fresh, DEFAULT_TOL).achievers)
            assert same_report(certify(pk, tol).coherence, certify(fresh).coherence)
        assert 0 not in coherence(pk, LOOSE).achievers

    @pytest.mark.parametrize("name", ["c4-hadamard", "paley-p19"])
    def test_a_changed_result_does_not_reach_the_next(self, name):
        """Each call returns its own report and details: emptying one
        certificate's details and pair classes leaves the next call's whole."""
        pk = BUILDER_FIXTURES[name]()
        cert = certify(pk)
        details, classes = dict(cert.details), dict(cert.coherence.pair_classes)
        cert.details.clear()
        cert.coherence.pair_classes.clear()
        coherence(pk).pair_classes.clear()
        again = certify(pk)
        assert again.details == details and again.coherence.pair_classes == classes
        assert coherence(pk).pair_classes == classes

    def test_two_calls_share_one_small_family(self):
        """gen_mubs_small makes each family once per process, so projections
        made from two of its calls are of one family: they form a block table
        and take the exact pass, where two families made them dense before."""
        elements = tuple(coordinate_projection(gen_mubs_small(2, COMPLEX), a, [x])
                         for a in range(3) for x in range(2))
        pk = Packing(2, COMPLEX, elements)
        assert pk._block_table is not None
        cert = certify(pk)
        assert cert.coherence.method == "exact" and cert.status.value == "MaximalOrthoplex"

    def test_the_numeric_pass_keeps_nothing(self):
        """A dense packing keeps no array larger than O(n) after coherence
        and certify; nor does a table over bases that are not MUBs, whose
        table forms no exact values."""
        dense = dense_copy(BUILDER_FIXTURES["c8-hadamard"]())
        rep, cert = coherence(dense), certify(dense)
        assert rep.method == "numeric" and dense.n == 126
        assert max(a.size for a in kept_arrays((dense, rep, cert))) <= dense.n
        rng = np.random.default_rng(5)
        family = MubFamily(4, COMPLEX, [random_orthonormal(rng, 4, 4) for _ in range(3)])
        pk = on_bases(family, [(a, [(0,), (1, 2), (0, 3)]) for a in range(3)] * 4)
        rep, cert = coherence(pk), certify(pk)
        assert rep.method == "numeric" and pk.n == 36
        assert "exact" not in vars(pk._block_table)
        assert max(a.size for a in kept_arrays((pk, rep, cert))) <= max(pk.n, family.bases.size)


KEPT_PATTERN_CASES = {
    # bases 3, 4, 6 and 7 hold no block and share the zero row
    "unused-bases": lambda: packing.build_mixed_packing(FANO7, [FANO, FANO_C], [[0, 2], [5, 1]]),
    # two runs of one design hold equal rows: their bases share one pattern
    "one-design-twice": lambda: packing.build_mixed_packing(FANO7, [FANO, FANO],
                                                            [[0, 1], [2, 3, 4]]),
    "repeated-block": lambda: packing.build_mixed_packing(
        FANO7, [BlockDesign(7, FANO.blocks + FANO.blocks[:1]), FANO_C], [[0, 1, 2], [3, 4, 5]]),
}
KEPT_PATTERN_SOURCES = sorted([*SHARED_CASES, *KEPT_PATTERN_CASES])
PATTERN_VARIANTS = {"built": lambda pk: pk, "complement": spatial_complement,
                    "json": json_round_trip}


def pattern_groups(table):
    """The bases of each pattern, as a sorted list of sorted tuples."""
    pattern, _ = table.patterns
    return sorted(tuple(np.flatnonzero(pattern == p).tolist()) for p in set(pattern.tolist()))


class TestKeptPatterns:
    @pytest.mark.parametrize("variant", sorted(PATTERN_VARIANTS))
    @pytest.mark.parametrize("name", KEPT_PATTERN_SOURCES)
    def test_patterns_are_the_rows_of_block_counts(self, name, variant):
        """Each basis's pattern row is its count of each block, no two rows are
        equal, both arrays are read-only, and the exact pass and the tightness
        verdict read the patterns found once."""
        pk = PATTERN_VARIANTS[variant](KEPT_PATTERN_CASES.get(name, lambda: shared_case(name))())
        table = pk._block_table
        nb, k = len(table.blocks), table.family.k
        table.exact
        pattern, rows = vars(table)["patterns"]
        counts = np.bincount(table.labels * nb + table.ids, minlength=k * nb).reshape(k, nb)
        assert np.array_equal(rows[pattern], counts)
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert not pattern.flags.writeable and not rows.flags.writeable
        assert table.patterns is vars(table)["patterns"]
        cover = packing._coverage(table)
        assert table.evenly_covered == bool(np.all(cover == cover[:, :1]))

    def test_bases_with_equal_counts_share_a_pattern(self):
        table = KEPT_PATTERN_CASES["unused-bases"]()._block_table
        assert pattern_groups(table) == [(0, 2), (1, 5), (3, 4, 6, 7)]
        table = KEPT_PATTERN_CASES["one-design-twice"]()._block_table
        assert pattern_groups(table) == [(0, 1, 2, 3, 4), (5, 6, 7)]
        assert pattern_groups(paley_packing(7)._block_table) == [(0, 2, 4, 6), (1, 3, 5, 7)]
