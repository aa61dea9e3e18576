import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grasspack
from grasspack.cli import main

from conftest import dense_copy, packing_code_text, random_projection, reference_exponents


def run(*argv):
    return main([str(a) for a in argv])


def dense_file(elements, **changes) -> dict:
    """The version-3 file of a packing of dense ``elements`` in C^2
    (``"family": null``), with top-level keys replaced by ``changes``."""
    hypotheses = {"ok": True, "failures": [], "candidate_maximal": False}
    return dict({"version": 3, "m": 2, "field": "C", "mode": "manual",
                 "hypotheses": hypotheses, "family": None, "elements": elements}, **changes)


PAIR = [{"rows": 2, "cols": 2, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
        {"rows": 2, "cols": 2, "re": [0, 0, 0, 1], "im": [0, 0, 0, 0]}]


def rewrite_dense(path):
    """Rewrite the packing file ``path`` as the file of its dense copy."""
    from grasspack.packing import packing_from_json, packing_to_json
    pk = packing_from_json(json.loads(path.read_text()))
    path.write_text(json.dumps(packing_to_json(dense_copy(pk))))


@pytest.fixture
def mub7(tmp_path):
    path = tmp_path / "mub7.json"
    assert run("gen", "mub", "--m", 7, "--out", path) == 0
    return path


@pytest.fixture
def mub7_floats(tmp_path):
    """The m = 7 family in the float form, with no "version" key."""
    path = tmp_path / "mub7_floats.json"
    family = grasspack.gen_mubs_prime(7)
    path.write_text(json.dumps(grasspack.mubs_to_json(
        grasspack.MubFamily(7, "C", family.bases))))
    return path


@pytest.fixture
def fano(tmp_path):
    path = tmp_path / "fano.json"
    assert run("gen", "design", "--projective", 2, "--out", path) == 0
    return path


class TestGen:
    def test_projective_design_bytes_are_unchanged(self, tmp_path):
        """The lines of PG(2, 5), read in one chain of field lookups, are written
        as the per-line reading wrote them."""
        path = tmp_path / "pg5.json"
        assert run("gen", "design", "--projective", 5, "--out", path) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d350c99938664e57647ba36ccd6f7ca81b700ce0978a2d577f334817c911fe8b")

    def test_mub_file_has_eight_bases(self, mub7):
        obj = json.loads(mub7.read_text())
        assert obj == {"version": 3, "m": 7, "field": "C", "construction": "quadratic-phases"}
        assert grasspack.mubs_from_json(obj).k == 8

    def test_the_m71_mub_file_names_its_construction(self, tmp_path):
        """The m = 71 family file is under 1 KB: it holds no exponent table."""
        path = tmp_path / "mub71.json"
        assert run("gen", "mub", "--m", 71, "--out", path) == 0
        assert path.stat().st_size < 1000
        family = grasspack.mubs_from_json(json.loads(path.read_text()))
        assert family.k == 72 and family.exact_verdict

    @staticmethod
    def assert_one_error_line(tmp_path, capsys, argv, message):
        """One error line, the import hint given once, exit 2, and nothing written."""
        out = tmp_path / "x.json"
        capsys.readouterr()
        assert run("gen", "mub", *argv, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    def test_unsupported_real_mub_exits_2(self, tmp_path, capsys):
        self.assert_one_error_line(tmp_path, capsys, ("--m", 16, "--field", "R"),
                                   "no built-in real family for m=16; import required")

    def test_unsupported_complex_mub_exits_2(self, tmp_path, capsys):
        self.assert_one_error_line(tmp_path, capsys, ("--m", 8),
                                   "even-characteristic extension fields need Galois-ring "
                                   "phases; import such a family via JSON instead")

    def test_hadamard3_design(self, tmp_path):
        path = tmp_path / "h3.json"
        assert run("gen", "design", "--hadamard3", "--order", 4, "--out", path) == 0
        obj = json.loads(path.read_text())
        assert obj["m"] == 4 and len(obj["blocks"]) == 6

    def test_affine_design(self, tmp_path):
        path = tmp_path / "ag.json"
        assert run("gen", "design", "--affine", 2, "--dim", 2, "--out", path) == 0
        obj = json.loads(path.read_text())
        assert obj["m"] == 4 and len(obj["blocks"]) == 6

    def test_complement_and_rebase(self, tmp_path, fano):
        comp = tmp_path / "fano_c.json"
        assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
        assert all(len(b) == 4 for b in json.loads(comp.read_text())["blocks"])
        reb = tmp_path / "fano9.json"
        assert run("gen", "design", "--rebase-of", fano, "--out", reb) == 0
        assert json.loads(reb.read_text())["m"] == 9

    def test_hadamard_matrix(self, tmp_path):
        path = tmp_path / "h12.json"
        assert run("gen", "hadamard", "--order", 12, "--out", path) == 0
        rows = np.array(json.loads(path.read_text())["rows"])
        assert np.array_equal(rows @ rows.T, 12 * np.eye(12, dtype=int))

    def test_unreachable_hadamard_exits_2(self, tmp_path):
        assert run("gen", "hadamard", "--order", 6, "--out", tmp_path / "x.json") == 2

    def test_gen_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("gen", "mub", "--m", 5, "--out", a) == 0
        assert run("gen", "mub", "--m", 5, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBuildAndCertify:
    def test_mixed_pipeline_exits_0(self, tmp_path, mub7, fano):
        comp = tmp_path / "fano_c.json"
        assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
        pack = tmp_path / "packing.json"
        assert run("build", "--mub", mub7, "--design", fano, "--design", comp,
                   "--mode", "mixed", "--partition", "0,1,2,3;4,5,6,7",
                   "--out", pack) == 0
        obj = json.loads(pack.read_text())
        assert len(obj["elements"]) == 56
        cert_path = tmp_path / "cert.json"
        assert run("certify", pack, "--out", cert_path) == 0
        cert = json.loads(cert_path.read_text())
        assert cert["status"] == "OptimalOrthoplexRegime"
        assert cert["is_tight"] and cert["tight_constant"] == pytest.approx(28.0)

    def test_float_form_family_files_still_build_and_certify(self, tmp_path, mub7,
                                                              mub7_floats, fano):
        """A float-form m = 7 file builds the Fano packing with the same
        certificate bytes as the exponent-table file, and its packing file
        keeps the float form; the float-form C^8 file builds its orthoplex."""
        comp = tmp_path / "fano_c.json"
        assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
        certs = []
        for mub in (mub7, mub7_floats):
            pack, cert = tmp_path / f"pk_{mub.stem}.json", tmp_path / f"cert_{mub.stem}.json"
            assert run("build", "--mub", mub, "--design", fano, "--design", comp,
                       "--mode", "mixed", "--partition", "0,1,2,3;4,5,6,7", "--out", pack) == 0
            assert run("certify", pack, "--achievers", "--out", cert) == 0
            certs.append(cert.read_bytes())
        assert certs[0] == certs[1]
        family = json.loads((tmp_path / "pk_mub7_floats.json").read_text())["family"]
        assert "version" not in family and len(family["bases"]) == 8
        design, pack, cert = (tmp_path / f for f in ("h3.json", "ortho.json", "cert8.json"))
        assert run("gen", "design", "--hadamard3", "--order", 8, "--out", design) == 0
        assert run("build", "--mub", Path(__file__).parent / "data" / "mubs_c8.json",
                   "--design", design, "--mode", "orthoplex", "--out", pack) == 0
        assert run("certify", pack, "--out", cert) == 0
        assert json.loads(cert.read_text())["status"] == "MaximalOrthoplex"

    def test_overlapping_partition_exits_2(self, tmp_path, mub7, fano):
        code = run("build", "--mub", mub7, "--design", fano, "--design", fano,
                   "--mode", "mixed", "--partition", "0,1;1,2",
                   "--out", tmp_path / "x.json")
        assert code == 2

    def test_orthoplex_pipeline_with_extraction(self, tmp_path):
        mub = tmp_path / "mub4.json"
        assert run("gen", "mub", "--m", 4, "--out", mub) == 0
        design = tmp_path / "h3.json"
        assert run("gen", "design", "--hadamard3", "--order", 4, "--out", design) == 0
        pack = tmp_path / "packing.json"
        assert run("build", "--mub", mub, "--design", design,
                   "--mode", "orthoplex", "--out", pack) == 0
        assert len(json.loads(pack.read_text())["elements"]) == 30
        hout = tmp_path / "hadamard.json"
        cert_path = tmp_path / "cert.json"
        assert run("certify", pack, "--geometry", "--achievers",
                   "--extract-hadamard", hout, "--design", design,
                   "--out", cert_path) == 0
        cert = json.loads(cert_path.read_text())
        assert cert["status"] == "MaximalOrthoplex"
        assert cert["geometry"]["passes"]
        assert cert["achievers"]["span_is_full"]
        rows = np.array(json.loads(hout.read_text())["rows"])
        assert np.array_equal(rows @ rows.T, 4 * np.eye(4, dtype=int))

    def test_extraction_with_a_foreign_design_exits_2(self, tmp_path, capsys):
        design, pack = tmp_path / "h3.json", tmp_path / "ortho.json"
        assert run("gen", "design", "--hadamard3", "--order", 8, "--out", design) == 0
        assert run("build", "--mub", Path(__file__).parent / "data" / "mubs_c8.json",
                   "--design", design, "--mode", "orthoplex", "--out", pack) == 0
        obj = json.loads(design.read_text())
        swap = {0: 1, 1: 0}
        obj["blocks"] = [[swap.get(x, x) for x in blk] for blk in obj["blocks"]]
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("certify", pack, "--extract-hadamard", tmp_path / "h.json",
                   "--design", swapped) == 2
        assert "not the packing's blocks" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()

    def test_relabelled_blocks_exit_2_before_extraction(self, tmp_path, capsys):
        """Swapping points 0 and 1 in every listed block of the C^8 orthoplex
        file relabels the projections themselves: the file still certifies,
        but its blocks are not the design's, so the design check refuses it
        and the extraction never runs."""
        design, pack, h8 = tmp_path / "h3.json", tmp_path / "pk.json", tmp_path / "h8.json"
        assert run("gen", "design", "--hadamard3", "--order", 8, "--out", design) == 0
        assert run("build", "--mub", Path(__file__).parent / "data" / "mubs_c8.json",
                   "--design", design, "--mode", "orthoplex", "--out", pack) == 0
        obj = json.loads(pack.read_text())
        swap = {0: 1, 1: 0}
        relabelled = [sorted(swap.get(x, x) for x in blk) for blk in obj["blocks"]]
        assert sorted(relabelled) != sorted(obj["blocks"])
        pack.write_text(json.dumps(dict(obj, blocks=relabelled)))
        capsys.readouterr()
        assert run("certify", pack) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "MaximalOrthoplex"
        assert run("certify", pack, "--extract-hadamard", h8, "--design", design) == 2
        err = capsys.readouterr().err
        assert err == "error: the design's blocks are not the packing's blocks on basis 0\n"
        assert not h8.exists()

    def test_hypothesis_failure_exits_3_but_writes(self, tmp_path, mub7, fano):
        pack = tmp_path / "packing.json"
        code = run("build", "--mub", mub7, "--design", fano,
                   "--mode", "mixed", "--partition", "0", "--out", pack)
        assert code == 3
        obj = json.loads(pack.read_text())
        assert len(obj["elements"]) == 7
        assert not obj["hypotheses"]["ok"]
        # certify refuses the tagged packing with exit 3
        assert run("certify", pack) == 3

    def test_random_packing_not_certified_exits_1(self, tmp_path, rng):
        from grasspack.packing import Packing, Projection, packing_to_json
        els = tuple(Projection(random_projection(rng, 4, 2)) for _ in range(20))
        path = tmp_path / "random.json"
        path.write_text(json.dumps(packing_to_json(Packing(4, "C", els))))
        assert run("certify", path) == 1

    def test_malformed_packing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dense_file([
            {"rows": 2, "cols": 2, "re": [1, 0, 0, 0.5], "im": [0, 0, 0, 0]}])))
        assert run("certify", path) == 2
        assert "element 0" in capsys.readouterr().err

    def test_nan_packing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dense_file([
            {"rows": 2, "cols": 2, "re": [1, float("nan"), float("nan"), 0],
             "im": [0, 0, 0, 0]}])))
        assert "NaN" in path.read_text()
        assert run("certify", path) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_mub_exits_2(self, tmp_path, mub7_floats, fano, capsys):
        # basis 7 is outside the partition, so only the import can catch it
        obj = json.loads(mub7_floats.read_text())
        obj["bases"][7]["im"][3] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("build", "--mub", bad, "--design", fano, "--mode", "mixed",
                   "--partition", "0,1,2,3", "--out", tmp_path / "x.json")
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_non_integral_m_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dense_file(PAIR, m=2.5)))
        assert run("certify", path) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_non_orthonormal_mub_exits_2(self, tmp_path, mub7_floats, fano, capsys):
        # basis 7 is outside the partition, so only the import can catch it
        obj = json.loads(mub7_floats.read_text())
        obj["bases"][7]["re"][0] *= 1.001
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = run("build", "--mub", bad, "--design", fano, "--mode", "mixed",
                   "--partition", "0,1,2,3", "--out", tmp_path / "x.json")
        assert code == 2
        assert "not orthonormal" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("block", [[0.5, "x"], [1.0], ["1"], [0, 0], [7], [], 5])
    def test_malformed_listed_block_exits_2(self, tmp_path, mub7, fano, block, capsys):
        pk = tmp_path / "pk.json"
        assert run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
                   "--partition", "0,1,2,3,4,5,6,7", "--out", pk) == 0
        obj = json.loads(pk.read_text())
        obj["blocks"][4] = block
        pk.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("certify", pk) == 2
        assert capsys.readouterr().err.startswith("error: block 4: ")

    def test_certify_achievers_computes_the_gram_once(self, tmp_path, mub7, fano,
                                                      monkeypatch, capsys):
        from grasspack import packing
        comp = tmp_path / "fano_c.json"
        pk = tmp_path / "pk.json"
        assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
        assert run("build", "--mub", mub7, "--design", fano, "--design", comp,
                   "--mode", "mixed", "--partition", "0,1,2,3;4,5,6,7", "--out", pk) == 0
        calls = []
        embedded_gram = packing._embedded_gram

        def counting(pk):
            calls.append(pk.n)
            return embedded_gram(pk)

        monkeypatch.setattr(packing, "_embedded_gram", counting)
        capsys.readouterr()
        assert run("certify", pk, "--achievers") == 0
        assert calls == []  # the file keeps its family: the exact pass
        exact = json.loads(capsys.readouterr().out)
        rewrite_dense(pk)
        assert run("certify", pk, "--achievers") == 0
        assert calls == [56]
        obj = json.loads(capsys.readouterr().out)
        assert obj["achievers"]["indices"] == list(range(56))
        assert obj["achievers"]["span_is_full"]
        # the numeric pass differs from the exact one only by rounding in mu
        assert exact["mu_embedded"] == 0.0 and abs(obj["mu_embedded"]) < 1e-12
        assert dict(obj, mu_embedded=0.0) == exact

    def test_report_mirrors_json(self, tmp_path, mub7, fano, capsys):
        """Without ``--out`` the certificate is printed; with it, the file
        holds the same certificate and one summary line is printed."""
        pack = tmp_path / "packing.json"
        run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
            "--partition", "0,1,2,3,4,5,6,7", "--out", pack)
        capsys.readouterr()  # drop the build command's output
        assert run("certify", pack) == 0
        printed = capsys.readouterr().out
        cert_path = tmp_path / "cert.json"
        assert run("certify", pack, "--out", cert_path) == 0
        cert = json.loads(cert_path.read_text())
        assert json.loads(printed) == cert
        assert capsys.readouterr().out == (
            f"wrote certificate to {cert_path}: {cert['status']}, n = {cert['n']}, "
            f"d = {cert['d']}, mu = {cert['mu_embedded']!r}\n")


def real_tagged_c3_packing():
    """The dense file of the singleton blocks of bases 0-2 of C^3 (n = 9,
    mu = 0), tagged "R": over R, d = 5 and n > d + 1 would certify it."""
    from grasspack import packing_to_json
    return dict(packing_to_json(dense_copy(c3_singletons())), field="R")


def c3_singletons():
    from grasspack import Packing, coordinate_projection, gen_mubs_prime
    family = gen_mubs_prime(3)
    return Packing(3, "C", tuple(coordinate_projection(family, a, (x,))
                                 for a in range(3) for x in range(3)))


def v3_case(**changes):
    """The version-3 file of ``c3_singletons`` (blocks [0], [1], [2] on bases
    0-2 of 4) with top-level keys replaced; an ``element`` change replaces
    element 4, and a ``block`` change replaces block 2."""
    from grasspack import packing_to_json
    obj = packing_to_json(c3_singletons())
    assert obj["blocks"] == [[0], [1], [2]]
    if "element" in changes:
        obj["elements"][4] = changes.pop("element")
    if "block" in changes:
        obj["blocks"][2] = changes.pop("block")
    return dict(obj, **changes)


def r4_orthoplex_as_complex():
    """The R^4 orthoplex file, its field changed to "C" (the family stays "R")."""
    from grasspack import (build_orthoplex_packing, complementary_halves, gen_hadamard,
                           gen_mubs_small, hadamard_to_3design, packing_to_json)
    halves = complementary_halves(hadamard_to_3design(gen_hadamard(4)))
    return dict(packing_to_json(build_orthoplex_packing(gen_mubs_small(4, "R"), halves)),
                field="C")


def mub_v2():
    """The version-2 file of the m = 7 family, which wrote its exponent table."""
    return {"version": 2, "m": 7, "field": "C",
            "phases": {"p": 7, "exponents": reference_exponents(7).tolist()}}


MUB_V3 = {"version": 3, "m": 7, "field": "C", "construction": "quadratic-phases"}

def without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


HYPOTHESES = dense_file(PAIR)["hypotheses"]

MALFORMED = {
    "packing-list": ("certify", [dense_file(PAIR)]),
    "elements-5": ("certify", dense_file(5)),
    "element-5": ("certify", dense_file([5, PAIR[1]])),
    "re-object": ("certify", dense_file([dict(PAIR[0], re={"a": 1}), PAIR[1]])),
    "re-missing": ("certify", dense_file([without(PAIR[0], "re"), PAIR[1]])),
    "hypotheses-5": ("certify", dense_file(PAIR, hypotheses=5)),
    "re-strings": ("certify", dense_file([dict(PAIR[0], re=["1", "0", "0", "0"]), PAIR[1]])),
    "re-bool": ("certify", dense_file([dict(PAIR[0], re=[True, 0, 0, 0]), PAIR[1]])),
    "failures-not-strings": ("certify", dense_file(PAIR, hypotheses=dict(
        HYPOTHESES, failures=[1, {"a": 2}]))),
    "ok-string": ("certify", dense_file(PAIR, hypotheses=dict(HYPOTHESES, ok="false"))),
    "ok-missing": ("certify", dense_file(PAIR, hypotheses=without(HYPOTHESES, "ok"))),
    "candidate-maximal-string": ("certify", dense_file(PAIR, hypotheses=dict(
        HYPOTHESES, candidate_maximal="false"))),
    "mode-5": ("certify", dense_file(PAIR, mode=5)),
    "mode-missing": ("certify", without(dense_file(PAIR), "mode")),
    "family-missing": ("certify", without(dense_file(PAIR), "family")),
    "version-1": ("certify", without(without(dense_file(PAIR), "version"), "family")),
    "version-2": ("certify", dense_file(PAIR, version=2)),
    "version-string": ("certify", dense_file(PAIR, version="3")),
    "blocks-5": ("design", {"m": 7, "blocks": 5}),
    "design-list": ("design", [[0, 1, 2]]),
    "design-no-m": ("design", {"blocks": [[0, 1, 2]]}),
    "bases-5": ("mub", {"m": 7, "field": "C", "bases": 5}),
    "mub-list": ("mub", []),
    "mub-basis-wrong-size": ("mub", {"m": 2, "field": "C",
                                     "bases": [PAIR[0], {"rows": 3, "cols": 3,
                                                         "re": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                                                         "im": [0] * 9}]}),
    "mub-no-field": ("mub", {"m": 7, "bases": []}),
    "field-R-complex-elements": ("certify", real_tagged_c3_packing()),
    "mub-v2": ("mub", mub_v2()),
    "mub-v3-construction": ("mub", dict(MUB_V3, construction="quadratic")),
    "mub-v3-m-8": ("mub", dict(MUB_V3, m=8)),
    "mub-v3-m-103": ("mub", dict(MUB_V3, m=103)),
    "mub-v3-field-R": ("mub", dict(MUB_V3, field="R")),
    "mub-v3-no-construction": ("mub", without(MUB_V3, "construction")),
    "mub-v3-no-m": ("mub", without(MUB_V3, "m")),
    "v3-version-2": ("certify", v3_case(version=2)),
    "v3-version-1": ("certify", without(v3_case(), "version")),
    "v3-element-5": ("certify", v3_case(element=5)),
    "v3-element-object": ("certify", v3_case(element={"basis": 1, "block": [0]})),
    "v3-element-bool": ("certify", v3_case(element=[True, 0])),
    "v3-element-float": ("certify", v3_case(element=[1, 1.0])),
    "v3-element-triple": ("certify", v3_case(element=[1, 0, 0])),
    "v3-basis-k": ("certify", v3_case(element=[4, 0])),
    "v3-basis-negative": ("certify", v3_case(element=[-1, 0])),
    "v3-block-id-B": ("certify", v3_case(element=[1, 3])),
    "v3-block-repeated": ("certify", v3_case(block=[0])),
    "v3-block-unused": ("certify", v3_case(blocks=[[0], [1], [2], [0, 1]])),
    "v3-block-repeats-a-point": ("certify", v3_case(block=[0, 0])),
    "v3-block-outside": ("certify", v3_case(block=[3])),
    "v3-no-blocks": ("certify", without(v3_case(), "blocks")),
    "v3-no-elements": ("certify", v3_case(blocks=[], elements=[])),
    "v3-family-wrong-m": ("certify", v3_case(
        family=grasspack.mubs_to_json(grasspack.gen_mubs_prime(5)))),
    "v3-family-wrong-field": ("certify", r4_orthoplex_as_complex()),
    "v3-dense-elements": ("certify", v3_case(elements=PAIR)),
}

# what the error line of some cases says: the version or the key it names
NAMED = {
    "version-1": "packing version 1 is not read, only version 3 "
                 "(make the file again with grasspack build)",
    "version-2": "packing version 2 is not read",
    "v3-version-2": "packing version 2 is not read",
    "version-string": "packing version '3' is not an integer",
    "mub-v2": "MUB family version 2 is not read, only version 3 "
              "(make the file again with grasspack gen mub)",
    "design-no-m": "design has no 'm' key",
    "mub-no-field": "MUB family has no 'field' key",
    "mub-v3-no-m": "MUB family has no 'm' key",
    "mode-missing": "packing has no 'mode' key",
    "v3-no-blocks": "packing has no 'blocks' key",
    "ok-missing": "hypotheses has no 'ok' key",
    "re-missing": "element 0: matrix has no 're' key",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_exits_2(tmp_path, fano, case, capsys):
    kind, content = MALFORMED[case]
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(content))
    argv = {
        "certify": ("certify", bad),
        "design": ("gen", "design", "--complement-of", bad, "--out", out),
        "mub": ("build", "--mub", bad, "--design", fano, "--mode", "mixed",
                "--partition", "0", "--out", out),
    }[kind]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {NAMED.get(case, '')}") and err.count("\n") == 1


# each case: the arguments, {name} standing for a file of the test's, and its error line
USAGE_ERRORS = {
    "mixed-without-partition": (["build", "--mub", "{mub}", "--design", "{fano}",
                                 "--mode", "mixed", "--out", "{out}"],
                                "--mode mixed requires --partition"),
    "orthoplex-two-designs": (["build", "--mub", "{mub}", "--design", "{fano}", "--design",
                               "{fano}", "--mode", "orthoplex", "--out", "{out}"],
                              "--mode orthoplex takes exactly one design (the halves)"),
    "extract-without-design": (["certify", "{pk}", "--extract-hadamard", "{out}"],
                               "--extract-hadamard needs --design (the block family used)"),
    "design-without-source": (["gen", "design", "--out", "{out}"],
                              "choose one of --hadamard3/--projective/--affine/"
                              "--complement-of/--rebase-of"),
    "hadamard3-without-order": (["gen", "design", "--hadamard3", "--out", "{out}"],
                                "--hadamard3 needs --order"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_missing_or_extra_option_exits_2(tmp_path, mub7, fano, case, capsys):
    """A command missing an option its mode needs, or given one design too
    many, exits 2 with one error line and writes nothing."""
    pk, out = tmp_path / "pk.json", tmp_path / "out.json"
    assert run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
               "--partition", "0,1,2,3,4,5,6,7", "--out", pk) == 0
    argv, message = USAGE_ERRORS[case]
    files = {"mub": mub7, "fano": fano, "pk": pk, "out": out}
    capsys.readouterr()
    assert run(*(a.format(**files) for a in argv)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_rebasing_blocks_of_one_point_exits_2(tmp_path, capsys):
    """The 5 singletons of 0..4 pass the symmetric 2-design check, but have
    no rebase: one error line, exit 2, and nothing written."""
    source, out = tmp_path / "singletons.json", tmp_path / "out.json"
    source.write_text(json.dumps({"m": 5, "blocks": [[x] for x in range(5)]}))
    capsys.readouterr()
    assert run("gen", "design", "--rebase-of", source, "--out", out) == 2
    err = capsys.readouterr().err
    assert err == "error: blocks of one point cannot be rebased: (m-l)/(l-1) divides by 0\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def pg31_packing(tmp_path_factory):
    """The file of the m = 31 mixed packing of PG(2, 5) and its complement
    (n = 992), built once for the tests that read it."""
    work = tmp_path_factory.mktemp("pg31")
    mub, pg, pgc, pk = (work / f for f in ("mub.json", "pg.json", "pgc.json", "pk.json"))
    assert run("gen", "mub", "--m", 31, "--out", mub) == 0
    assert run("gen", "design", "--projective", 5, "--out", pg) == 0
    assert run("gen", "design", "--complement-of", pg, "--out", pgc) == 0
    assert run("build", "--mub", mub, "--design", pg, "--design", pgc,
               "--mode", "mixed", "--partition", ",".join(map(str, range(16))) + ";"
               + ",".join(map(str, range(16, 32))), "--out", pk) == 0
    return pk


def test_pg31_packing_file_holds_its_family(pg31_packing, capsys):
    """The m = 31 packing is written as its block table, 42 KB (its 62
    distinct blocks and one [basis, block id] pair per element) where dense
    matrices took 56 MB, and read back onto the exact pass."""
    from grasspack.packing import coherence, packing_from_json
    assert pg31_packing.stat().st_size < 50e3
    pk = packing_from_json(json.loads(pg31_packing.read_text()))
    assert pk.n == 992 and coherence(pk).method == "exact"
    capsys.readouterr()
    assert run("certify", pg31_packing) == 0
    assert json.loads(capsys.readouterr().out)["mu_embedded"] == 0.0


def child_env():
    """The environment of a fresh interpreter that imports this grasspack."""
    src = os.path.dirname(os.path.dirname(grasspack.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# Linux carries the memory a process was started from over exec into the
# child's peak RSS, so the command is started from a small interpreter that
# reports the peak with wait4, not from this one.
_PEAK_RSS = ("import os, subprocess, sys\n"
             "proc = subprocess.Popen(sys.argv[1:])\n"
             "_, status, usage = os.wait4(proc.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def test_pg31_embed_streams_in_bounded_memory(pg31_packing):
    """``embed`` streams the 28 MB code of the m = 31 packing (952,320
    coordinates): a fresh process peaks below 100 MB, and the bytes are
    those of the reference text."""
    from grasspack.packing import packing_from_json
    out = pg31_packing.with_name("code.json")
    reply = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "grasspack.cli",
         "embed", str(pg31_packing), "--out", str(out)],
        env=child_env(), capture_output=True, text=True, check=True).stdout.split()
    code, peak_kb = int(reply[-2]), int(reply[-1])
    assert code == 0
    assert peak_kb < 100 * 1024
    pk = packing_from_json(json.loads(pg31_packing.read_text()))
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == hashlib.sha256(packing_code_text(pk).encode()).hexdigest())


def embed_case(name, tmp_path, fano, pg31_packing) -> Path:
    """The packing file of the ``embed`` byte-test case ``name``, made with the CLI."""
    path = tmp_path / f"{name}.json"
    if name == "pg31":
        return pg31_packing
    if name == "pg31-complement":
        assert run("complement", pg31_packing, "--out", path) == 0
        return path
    if name in ("fano", "dense"):
        mub = tmp_path / "mub7.json"
        assert run("gen", "mub", "--m", 7, "--out", mub) == 0
        assert run("build", "--mub", mub, "--design", fano, "--mode", "mixed",
                   "--partition", "0,1,2,3,4,5,6,7", "--out", path) == 0
        if name == "dense":
            rewrite_dense(path)
            assert json.loads(path.read_text())["family"] is None
        return path
    mub, design = tmp_path / "mub.json", tmp_path / "design.json"
    if name == "rebased-fano":  # q = 9, a prime power
        assert run("gen", "mub", "--m", 9, "--out", mub) == 0
        assert run("gen", "design", "--rebase-of", fano, "--out", design) == 0
    else:  # "c4-orthoplex", a float-form family
        assert run("gen", "mub", "--m", 4, "--out", mub) == 0
        assert run("gen", "design", "--hadamard3", "--order", 4, "--out", design) == 0
        assert "bases" in json.loads(mub.read_text())
    assert run("build", "--mub", mub, "--design", design, "--mode", "orthoplex",
               "--out", path) == 0
    return path


@pytest.mark.parametrize("name", ["fano", "pg31", "pg31-complement", "rebased-fano",
                                  "c4-orthoplex", "dense"])
def test_embed_bytes_are_the_library_reference(tmp_path, fano, pg31_packing, name, capsys):
    """``grasspack embed`` writes, byte for byte, the library's reference text
    of the packing it reads: ``json.dumps`` of ``embedded_code_to_json`` of
    ``embed(p.matrix)`` for every element, the check the benchmark's replay
    makes. The cases cover the phase families of a prime and a prime power
    (read off their block tables), their complements, a float-form family and
    a ``"family": null`` file of dense matrices."""
    from grasspack.packing import packing_from_json
    path, out = embed_case(name, tmp_path, fano, pg31_packing), tmp_path / "code.json"
    capsys.readouterr()
    assert run("embed", path, "--out", out) == 0
    pk = packing_from_json(json.loads(path.read_text()))
    assert capsys.readouterr().out == (f"wrote {pk.n} embedded unit vectors in "
                                       f"R^{json.loads(out.read_text())['d']} to {out}\n")
    assert out.read_text() == packing_code_text(pk)
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


def failing_file(kind) -> dict:
    """A packing file whose last element has no sphere image: the identity
    after the 60 elements of a dense m = 19 packing, or the full block on
    basis 1 after 16 elements of the C^7 phase family's block table."""
    from test_packing import paley_packing
    from grasspack.packing import Packing, Projection, packing_to_json
    if kind == "dense":
        pk = paley_packing(19)
        return packing_to_json(Packing(19, "C", pk.elements[:60] + (Projection(np.eye(19)),)))
    obj = packing_to_json(paley_packing(7))  # blocks 0..6 on bases 0, 2, 4 and 6 first
    return dict(obj, blocks=obj["blocks"][:7] + [list(range(7))],
                elements=obj["elements"][:16] + [[1, 7]])


@pytest.mark.parametrize("kind", ["dense", "phase"])
@pytest.mark.parametrize("existing", [False, True], ids=["absent", "present"])
def test_failed_embed_after_many_vectors_leaves_out_as_it_was(tmp_path, capsys, existing,
                                                              kind):
    """``embed`` fails on the last element after writing many vectors: the
    command exits 2 with one error line, --out stays absent or keeps its
    bytes, and no temporary file is left."""
    path, out = tmp_path / "pk.json", tmp_path / "code.json"
    path.write_text(json.dumps(failing_file(kind)))
    if existing:
        out.write_bytes(b"earlier bytes\n")
    capsys.readouterr()
    assert run("embed", path, "--out", out) == 2
    err = capsys.readouterr().err
    m = 19 if kind == "dense" else 7
    assert err.startswith("error: ") and err.count("\n") == 1 and f"rank-{m} " in err
    if existing:
        assert out.read_bytes() == b"earlier bytes\n"
    else:
        assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == ["code.json", "pk.json"][not existing:]


def test_embed_forks_nothing(tmp_path, monkeypatch, mub7, fano):
    """``embed`` formats the code in its own process: it succeeds with
    ``os.fork`` made to raise."""
    def refuse():
        raise AssertionError("embed forked")

    pack, out = tmp_path / "packing.json", tmp_path / "code.json"
    assert run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
               "--partition", "0,1,2,3,4,5,6,7", "--out", pack) == 0
    monkeypatch.setattr(os, "fork", refuse)
    assert run("embed", pack, "--out", out) == 0
    from grasspack.packing import packing_from_json
    assert out.read_text() == packing_code_text(packing_from_json(json.loads(pack.read_text())))


def test_numeric_pass_beyond_physical_memory_exits_2(tmp_path, monkeypatch, capsys):
    """An imported packing takes the numeric pass, whose arrays are sized
    against physical memory before any is allocated: n = 2 and d = 3 need
    8 n d + 9 n^2 = 84 bytes, so 83 bytes are too few."""
    from grasspack import packing
    monkeypatch.setattr(packing, "_physical_memory", lambda: 83)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dense_file(PAIR)))
    assert run("certify", path) == 2
    err = capsys.readouterr().err
    assert "needs at least 84 bytes, more than the 83 bytes of physical memory" in err


def test_eps_above_ceiling_exits_2(tmp_path, capsys):
    """Five rank-1 projections on a great circle of the Bloch sphere have
    mu = cos(2 pi / 5) = 0.309 > 0: not certified, unless --eps 0.5 lets
    mu <= eps pass for the orthoplex bound."""
    from grasspack.packing import Packing, Projection, packing_to_json
    els = []
    for k in range(5):
        t = 2 * np.pi * k / 5
        els.append(Projection(0.5 * np.array([[1 + np.cos(t), np.sin(t)],
                                              [np.sin(t), 1 - np.cos(t)]])))
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(packing_to_json(Packing(2, "C", tuple(els)))))
    assert run("certify", path) == 1
    assert json.loads(capsys.readouterr().out)["mu_embedded"] == pytest.approx(
        np.cos(2 * np.pi / 5))
    assert run("--eps", 0.5, "certify", path) == 2
    assert "--eps" in capsys.readouterr().err


class TestComplementAndEmbed:
    def test_complement_round_trip(self, tmp_path, mub7, fano):
        pack = tmp_path / "packing.json"
        run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
            "--partition", "0,1,2,3,4,5,6,7", "--out", pack)
        comp = tmp_path / "comp.json"
        assert run("complement", pack, "--out", comp) == 0
        obj = json.loads(comp.read_text())
        assert len(obj["elements"]) == 56
        # certifies identically
        assert run("certify", comp) == 0

    def test_embed_dumps_unit_vectors(self, tmp_path):
        mub = tmp_path / "mub2.json"
        run("gen", "mub", "--m", 2, "--out", mub)
        design = tmp_path / "s.json"
        design.write_text(json.dumps({"m": 2, "blocks": [[0]]}))
        pack = tmp_path / "packing.json"
        assert run("build", "--mub", mub, "--design", design,
                   "--mode", "orthoplex", "--out", pack) == 0
        out = tmp_path / "code.json"
        assert run("embed", pack, "--out", out) == 0
        obj = json.loads(out.read_text())
        assert obj["d"] == 3 and len(obj["vectors"]) == 6
        for v in obj["vectors"]:
            assert np.linalg.norm(v["coords"]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "present"])
    def test_failed_embed_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        """A dense packing of m = 2 whose element 1 is the identity loads,
        and ``embed`` fails on that element after writing element 0: --out
        stays absent, or keeps its bytes, and no temporary file is left."""
        from grasspack.numerics import matrix_to_json
        pack = tmp_path / "pk.json"
        pack.write_text(json.dumps(dense_file([
            matrix_to_json(np.diag([1.0, 0.0])), matrix_to_json(np.eye(2))])))
        out = tmp_path / "code.json"
        if existing:
            out.write_bytes(b"earlier bytes\n")
        capsys.readouterr()
        assert run("embed", pack, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rank-2" in err
        if existing:
            assert out.read_bytes() == b"earlier bytes\n"
        else:
            assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["code.json", "pk.json"][not existing:]

    def test_missing_file_exits_2(self, tmp_path):
        assert run("certify", tmp_path / "nope.json") == 2


FANO_PIPELINE_SHA256 = {
    "pk.json": "42ef76aa4e964e8b69e50595605c03f7835932b88140229c52fa94ea9713f2c2",
    "cert.json": "5dfe4346fe3dcad02e58e111276f72b4948d17b2d702268a1c3a35d8b3962eda",
    "comp.json": "376041f785759789768fd30d7c4ed112a8130034afc0a3e2103c8235b8e5e5f9",
    "code.json": "a4dae6f392a8c14d914c3a3da460eb91dcb171070e9fd457dc5e942803ae991f",
}


def test_fano_pipeline_bytes_are_pinned(tmp_path, mub7, fano):
    """gen, build, certify --achievers, complement and embed on the Fano m = 7
    mixed packing write files of fixed bytes: a change to any of them is a
    change of format, to be versioned on purpose."""
    comp, out = tmp_path / "fano_c.json", {name: tmp_path / name for name in FANO_PIPELINE_SHA256}
    assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
    assert run("build", "--mub", mub7, "--design", fano, "--design", comp, "--mode", "mixed",
               "--partition", "0,1,2,3;4,5,6,7", "--out", out["pk.json"]) == 0
    assert run("certify", out["pk.json"], "--achievers", "--out", out["cert.json"]) == 0
    assert run("complement", out["pk.json"], "--out", out["comp.json"]) == 0
    assert run("embed", out["pk.json"], "--out", out["code.json"]) == 0
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()} == FANO_PIPELINE_SHA256


def readme_block(heading, language):
    """The first ``language`` code block under the README's ``heading``."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    return text.split(f"## {heading}", 1)[1].split(f"```{language}\n", 1)[1].split("```", 1)[0]


def readme_commands():
    """The ``grasspack`` lines of the README's "Command line" block, with
    backslash continuations joined."""
    lines = readme_block("Command line", "sh").replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("grasspack ")]


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[:2] == ["certify", "ortho.json"]:
            printed = json.loads(capsys.readouterr().out)
            assert printed["status"] == "MaximalOrthoplex"
            assert printed["hadamard_order"] == 4


def test_readme_library_tour():
    """The README's "Library tour" runs, and what its comments state holds."""
    scope = {}
    exec(readme_block("Library tour", "python"), scope)
    cert = scope["cert"]
    assert cert.status is grasspack.CertStatus.OPTIMAL_ORTHOPLEX
    assert (cert.n, cert.d, cert.mu_embedded) == (56, 48, 0.0)
    assert cert.tight_constant == 28
    assert cert.coherence.method == "exact"


# Registered first, so it runs after the command, even one that exits.
_LIST_MODULES = ("import atexit, sys\n"
                 "atexit.register(lambda: print('modules:', *sorted(sys.modules)))\n")


@pytest.mark.parametrize("command, loads_numpy", [
    ("import grasspack", False),
    ("import runpy, sys\n"
     "sys.argv = ['grasspack', '--help']\n"
     "runpy.run_module('grasspack.cli', run_name='__main__', alter_sys=True)", False),
    ("import grasspack\n"
     "grasspack.certify", True),
], ids=["import", "cli-help", "first-use"])
def test_fresh_process_loads_no_scipy(command, loads_numpy):
    """``import grasspack`` and ``grasspack --help`` load no NumPy; the first
    use of a public name imports its module, NumPy with it, and never SciPy."""
    out = subprocess.run([sys.executable, "-c", _LIST_MODULES + command], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    modules = out.splitlines()[-1].split()
    assert modules[0] == "modules:" and "grasspack" in modules
    assert [m for m in modules if m.partition(".")[0] == "scipy"] == []
    numpy = [m for m in modules if m.partition(".")[0] == "numpy"]
    if loads_numpy:
        assert {"grasspack.packing", "grasspack.numerics", "numpy"} <= set(modules)
    else:
        assert numpy == []
    if "--help" in command:
        assert out.startswith("usage:")


def test_fresh_process_verifies_a_design_without_packing():
    """Building and verifying a design, all that the benchmark's set-up does
    in process, imports none of the packing, MUB or embedding modules."""
    command = ("import grasspack\n"
               "residues = sorted({x * x % 19 for x in range(1, 19)})\n"
               "design = grasspack.BlockDesign(19, [[(q + t) % 19 for q in residues]\n"
               "                                    for t in range(19)])\n"
               "assert grasspack.verify_design(design, 2).lambda_observed == 4\n")
    out = subprocess.run([sys.executable, "-c", _LIST_MODULES + command], env=child_env(),
                         capture_output=True, text=True, timeout=60, check=True).stdout
    modules = out.splitlines()[-1].split()
    assert modules[0] == "modules:" and "grasspack.designs" in modules
    assert not {"grasspack.packing", "grasspack.mubs", "grasspack.embedding"} & set(modules)


def test_fresh_process_exact_pipeline_loads_no_numpy_ma():
    """Building, certifying, complementing and writing a packing of one
    phase family, or certifying the orthoplex packing of the float-form C^8
    family read from its file, never imports ``numpy.ma``, which NumPy 2
    loads on the first plain ``np.unique`` (about 0.5 MB of peak memory per
    process)."""
    c8_file = str(Path(__file__).parent / "data" / "mubs_c8.json")
    command = ("import json, sys, numpy\n"
               "eager = 'numpy.ma' in sys.modules  # NumPy 1 imports it with numpy\n"
               "import grasspack as gp\n"
               "residues = sorted({x * x % 19 for x in range(1, 19)})\n"
               "design = gp.BlockDesign(19, [[(q + t) % 19 for q in residues] for t in range(19)])\n"
               "pk = gp.build_mixed_packing(gp.gen_mubs_prime(19),\n"
               "                            [design, gp.complement_design(design)],\n"
               "                            [list(range(0, 20, 2)), list(range(1, 20, 2))])\n"
               "for p in (pk, gp.spatial_complement(pk)):\n"
               "    gp.certify(p), gp.coherence(p), gp.check_tightness(p), gp.packing_to_json(p)\n"
               f"c8 = gp.mubs_from_json(json.loads(open({c8_file!r}).read()))\n"
               "halves = gp.complementary_halves(gp.hadamard_to_3design(gp.gen_hadamard(8)))\n"
               "pk = gp.build_orthoplex_packing(c8, halves)\n"
               "assert gp.certify(pk).status.value == 'MaximalOrthoplex'\n"
               "assert gp.coherence(pk).method == 'exact'\n"
               "assert eager or 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    subprocess.run([sys.executable, "-c", command], env=child_env(), capture_output=True,
                   text=True, timeout=60, check=True)
