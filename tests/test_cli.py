import json

import numpy as np
import pytest

from grasspack.cli import main

from conftest import random_projection


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def mub7(tmp_path):
    path = tmp_path / "mub7.json"
    assert run("gen", "mub", "--m", 7, "--out", path) == 0
    return path


@pytest.fixture
def fano(tmp_path):
    path = tmp_path / "fano.json"
    assert run("gen", "design", "--projective", 2, "--out", path) == 0
    return path


class TestGen:
    def test_mub_file_has_eight_bases(self, mub7):
        obj = json.loads(mub7.read_text())
        assert obj["m"] == 7 and len(obj["bases"]) == 8

    def test_unsupported_real_mub_exits_2(self, tmp_path, capsys):
        code = run("gen", "mub", "--m", 16, "--field", "R",
                   "--out", tmp_path / "x.json")
        assert code == 2
        assert "import required" in capsys.readouterr().err

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
        path.write_text(json.dumps({
            "m": 2, "field": "C",
            "elements": [{"rows": 2, "cols": 2, "re": [1, 0, 0, 0.5],
                          "im": [0, 0, 0, 0]}],
        }))
        assert run("certify", path) == 2
        assert "element 0" in capsys.readouterr().err

    def test_nan_packing_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "m": 2, "field": "C",
            "elements": [{"rows": 2, "cols": 2, "re": [1, float("nan"), float("nan"), 0],
                          "im": [0, 0, 0, 0]}],
        }))
        assert "NaN" in path.read_text()
        assert run("certify", path) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_mub_exits_2(self, tmp_path, mub7, fano, capsys):
        # basis 7 is outside the partition, so only the import can catch it
        obj = json.loads(mub7.read_text())
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
        path.write_text(json.dumps({
            "m": 2.5, "field": "C",
            "elements": [{"rows": 2, "cols": 2, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]},
                         {"rows": 2, "cols": 2, "re": [0, 0, 0, 1], "im": [0, 0, 0, 0]}],
        }))
        assert run("certify", path) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_certify_achievers_computes_the_gram_once(self, tmp_path, mub7, fano,
                                                      monkeypatch, capsys):
        from grasspack import packing
        comp = tmp_path / "fano_c.json"
        pk = tmp_path / "pk.json"
        assert run("gen", "design", "--complement-of", fano, "--out", comp) == 0
        assert run("build", "--mub", mub7, "--design", fano, "--design", comp,
                   "--mode", "mixed", "--partition", "0,1,2,3;4,5,6,7", "--out", pk) == 0
        calls = []
        trace_gram = packing._trace_gram

        def counting(pk):
            calls.append(pk.n)
            return trace_gram(pk)

        monkeypatch.setattr(packing, "_trace_gram", counting)
        capsys.readouterr()
        assert run("certify", pk, "--achievers") == 0
        assert calls == [56]
        obj = json.loads(capsys.readouterr().out)
        assert obj["achievers"]["indices"] == list(range(56))
        assert obj["achievers"]["span_is_full"]

    def test_report_mirrors_json(self, tmp_path, mub7, fano, capsys):
        pack = tmp_path / "packing.json"
        run("build", "--mub", mub7, "--design", fano, "--mode", "mixed",
            "--partition", "0,1,2,3,4,5,6,7", "--out", pack)
        capsys.readouterr()  # drop the build command's output
        cert_path = tmp_path / "cert.json"
        assert run("certify", pack, "--out", cert_path) == 0
        printed = capsys.readouterr().out
        assert json.loads(printed) == json.loads(cert_path.read_text())


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

    def test_missing_file_exits_2(self, tmp_path):
        assert run("certify", tmp_path / "nope.json") == 2
