"""The block table of a MUB-family packing: the exact pass grouped by
pattern against the per-pair pass it replaced, tightness decided in integers
against the float sum, and builders that check no block per element."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack import packing
from grasspack.designs import _incidence
from grasspack.errors import ParameterError
from grasspack.mubs import MubFamily, gen_mubs
from grasspack.numerics import COMPLEX, DEFAULT_TOL
from grasspack.packing import (_PAIR_CLASSES, CoherenceReport, Packing, PairClassSummary,
                               _basis_labels, _pair_class,
                               certificate_to_json, certify, check_tightness,
                               coordinate_projection, spatial_complement)

from test_packing import (BUILDER_FIXTURES, FANO, FANO_C, assert_exact_matches_numeric,
                          coordinate_packings, mub_packings, paley_packing)


def per_pair_exact_pass(pk, mub_dev, tol):
    """The exact pass as it was before the block table, kept as the
    reference: it forms every same-basis pair of elements, with its
    intersection read off an incidence of all n blocks."""
    m, n = pk.m, pk.n
    ranks, labels = pk.ranks, _basis_labels(pk.elements)
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
    achievers = tuple(int(x) for x in np.flatnonzero(floats[best] >= mu - tol.eps_abs))
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
    return report, antipodal_pairs


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
    # bases 1 and 3 share one pattern, basis 2 has the same blocks reversed: two patterns
    "two-orders": lambda: on_bases(FANO7, [(1, FANO.blocks), (2, FANO.blocks[::-1]),
                                           (3, FANO.blocks)]),
    "one-element-basis": lambda: on_bases(FANO7, [(0, FANO.blocks), (5, FANO_C.blocks[:1]),
                                                  (6, FANO.blocks)]),
    "mixed-ranks-in-a-basis": lambda: shuffled(on_bases(FANO7, [
        (a, FANO.blocks + FANO_C.blocks) for a in (0, 2, 4)]), 3),
    "orthoplex-c4": BUILDER_FIXTURES["c4-hadamard"],
    "orthoplex-c8-shuffled": lambda: shuffled(BUILDER_FIXTURES["c8-hadamard"](), 4),
}


def assert_matches_per_pair(pk, monkeypatch):
    """The exact pass gives the per-pair report and orthoplex check, and
    ``certify`` the same certificate bytes and report as with the per-pair
    pass in its place."""
    rep, pairs = packing._exact_pass(pk, 0.0, DEFAULT_TOL)
    ref, ref_pairs = per_pair_exact_pass(pk, 0.0, DEFAULT_TOL)
    assert repr(rep) == repr(ref) and pairs() == ref_pairs()
    cert = certify(pk)
    with monkeypatch.context() as patch:
        patch.setattr(packing, "_exact_pass", per_pair_exact_pass)
        cert_ref = certify(pk)
    assert (json.dumps(certificate_to_json(cert), sort_keys=True)
            == json.dumps(certificate_to_json(cert_ref), sort_keys=True))
    assert repr(cert.coherence) == repr(cert_ref.coherence)


class TestPatterns:
    @pytest.mark.parametrize("flip", [False, True], ids=["built", "complement"])
    @pytest.mark.parametrize("name", sorted(PATTERN_CASES))
    def test_matches_the_numeric_and_the_per_pair_pass(self, name, flip, monkeypatch):
        pk = PATTERN_CASES[name]()
        pk = spatial_complement(pk) if flip else pk
        assert_exact_matches_numeric(pk)
        assert_matches_per_pair(pk, monkeypatch)

    def test_two_orders_are_two_patterns(self):
        """Bases 1 and 3 list the same blocks in the same order, basis 2 in
        reverse: the table has 7 distinct blocks, and the pass pairs 14
        positions where there are 21 elements."""
        pk = PATTERN_CASES["two-orders"]()
        table = pk._block_table
        assert len(table.meet) == 7 and pk.n == 21
        assert np.array_equal(table.ids[7:14], table.ids[6::-1])
        assert np.array_equal(table.meet, FANO.intersections)

    def test_orthoplex_pairs_are_found_by_pattern(self):
        pk = BUILDER_FIXTURES["c4-hadamard"]()
        cert = certify(pk)
        assert cert.status.value == "MaximalOrthoplex"
        assert cert.details["antipodal_pairs"] == pk.n // 2

    @settings(max_examples=80, deadline=None)
    @given(mub_packings(), st.integers(0, 2**32 - 1))
    def test_random_packings_match_the_per_pair_pass(self, pk, seed):
        for case in (pk, shuffled(pk, seed)):
            rep, pairs = packing._exact_pass(case, 0.0, DEFAULT_TOL)
            ref, ref_pairs = per_pair_exact_pass(case, 0.0, DEFAULT_TOL)
            assert repr(rep) == repr(ref) and pairs() == ref_pairs()


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

    def test_a_partition_class_is_range_checked(self):
        with pytest.raises(ParameterError, match="basis index 8 outside 0..7"):
            packing.build_mixed_packing(FANO7, [FANO, FANO_C], [[0, 1, 2, 3], [4, 5, 6, 8]])


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
