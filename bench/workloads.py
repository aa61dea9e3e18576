"""The benchmark workloads. Each drives grasspack through its public API or
its command line, one operation at a time (a closed loop with one operation
in flight), and checks every output before the next operation starts.

An operation returns the facts its correctness gate needs; the gate runs
outside the timed region. A failed check or an exception marks the operation
failed; it is never dropped from the counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from inputs import balanced_partition, paley_design, partition_arg
from tracing import NullTracer

MU_TOL = 1e-9
CONSTANT_TOL = 1e-6
STEP_TIMEOUT_S = 150
OPTIMAL = "OptimalOrthoplexRegime"
MAXIMAL = "MaximalOrthoplex"


@dataclass
class OpResult:
    name: str
    seconds: float
    failures: list[str]
    certs: int = 0
    output_bytes: int = 0
    child_rss_mb: float = 0.0
    mode: str = "plain"  # "plain", "traced" or "alloc": how it was traced
    timed: bool = True


@dataclass
class Facts:
    """What an operation hands to its gate."""

    certs: int = 0
    output_bytes: int = 0
    child_rss_mb: float = 0.0
    values: dict = field(default_factory=dict)


def trace_mode(tracer) -> str:
    return "alloc" if tracer.alloc else "traced" if tracer.enabled else "plain"


def run_op(name, tracer, body, gate) -> OpResult:
    """Time ``body(tracer)`` and check its facts with ``gate``."""
    start = time.perf_counter()
    try:
        with tracer.operation(name):
            facts = body(tracer)
    except Exception as exc:  # a failing operation is counted, not fatal
        traceback.print_exc()
        return OpResult(name, time.perf_counter() - start,
                        [f"{type(exc).__name__}: {exc}"], mode=trace_mode(tracer))
    seconds = time.perf_counter() - start
    try:
        failures = gate(facts)
    except Exception as exc:  # malformed output is a failed check
        traceback.print_exc()
        failures = [f"gate {type(exc).__name__}: {exc}"]
    for message in failures:
        print(f"FAILED {name}: {message}", file=sys.stderr)
    return OpResult(name, seconds, failures, facts.certs, facts.output_bytes,
                    facts.child_rss_mb, trace_mode(tracer))


def dump_json(obj, path: Path) -> int:
    """Write JSON as the command line does; return the bytes written."""
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    path.write_bytes(data)
    return len(data)


def load_json(path: Path):
    return json.loads(path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_certificate(tr, gp, cert, path: Path) -> int:
    obj = tr.call("packing.certificate_to_json", gp.certificate_to_json, cert)
    return tr.call("io.json_dump", dump_json, obj, path)


def check_certificate(failures, got: dict, *, status, n, m, constant) -> None:
    """Check a certificate (as a dict) against values derived from the
    construction, never from the program under test."""
    expected = {"status": status, "n": n, "d": m * m - 1, "is_tight": True}
    for key, value in expected.items():
        if got[key] != value:
            failures.append(f"certificate {key} = {got[key]!r}, expected {value!r}")
    if abs(got["tight_constant"] - constant) > CONSTANT_TOL:
        failures.append(f"tight_constant {got['tight_constant']} != {constant}")
    if abs(got["mu_embedded"]) > MU_TOL:
        failures.append(f"|mu_embedded| = {abs(got['mu_embedded']):.3e} > {MU_TOL}")


def cert_dict(cert) -> dict:
    return {"status": cert.status.value, "n": cert.n, "d": cert.d,
            "is_tight": cert.is_tight, "tight_constant": cert.tight_constant,
            "mu_embedded": cert.mu_embedded}


def check_design(failures, report, *, lam, symmetric=True, label="design") -> None:
    if not report.is_t_design[2] or report.lambda_observed != lam \
            or report.is_symmetric != symmetric:
        failures.append(f"{label}: is_t_design {report.is_t_design}, lambda "
                        f"{report.lambda_observed} (expected {lam}), symmetric "
                        f"{report.is_symmetric}")


class Workload:
    """Defaults shared by the workloads."""

    name: str
    min_iterations = 1  # untraced rounds a run makes at the least
    uses_children = False  # peak RSS is read from child processes
    alloc_round = True  # a traced run adds a round that records allocation peaks
    mem_need_mb = 300

    def warm_up(self) -> list[OpResult]:
        return []

    def close(self) -> None:
        pass


class Paley(Workload):
    """Library pipeline on the relabelled Paley design at m = p."""

    name = "paley71"

    def __init__(self, gp, seed: int, smoke: bool, out: Path, root: Path):
        rng = random.Random(seed)
        self.gp = gp
        self.p = 7 if smoke else 71
        self.design = paley_design(gp, self.p, rng)
        self.partition = balanced_partition(self.p + 1, rng)
        self.cert_path = out / f"{self.name}-certificate.json"
        # the dense n x m^2 stack, two n x n Grams and their temporaries
        self.mem_need_mb = 2500 if self.p == 71 else 200

    def iteration(self, tr) -> list[OpResult]:
        return [run_op(self.name, tr, self._op, self._gate)]

    def _op(self, tr) -> Facts:
        gp, p, design = self.gp, self.p, self.design
        rep = tr.call("designs.verify_design", gp.verify_design, design, 2)
        comp = tr.call("designs.complement_design", gp.complement_design, design)
        rep_c = tr.call("designs.verify_design", gp.verify_design, comp, 2)
        mubs = tr.call("mubs.gen_mubs_prime", gp.gen_mubs_prime, p)
        mub_report = tr.call("mubs.verify_mubs", gp.verify_mubs, mubs)
        pk = tr.call("packing.build_mixed_packing", gp.build_mixed_packing,
                     mubs, [design, comp], self.partition)
        cert = tr.call("packing.certify", gp.certify, pk)
        coh = tr.call("packing.coherence", gp.coherence, pk)
        tight = tr.call("packing.check_tightness", gp.check_tightness, pk)
        written = write_certificate(tr, gp, cert, self.cert_path)
        return Facts(certs=1, output_bytes=written, values=dict(
            rep=rep, rep_c=rep_c, mubs_ok=mub_report.ok, k=mubs.k,
            cert=cert_dict(cert), coh_mu=coh.mu_embedded, tight=tight))

    def _gate(self, facts: Facts) -> list[str]:
        p, v, failures = self.p, facts.values, []
        check_design(failures, v["rep"], lam=(p - 3) // 4, label="Paley design")
        check_design(failures, v["rep_c"], lam=(p + 1) // 4, label="complement")
        if not v["mubs_ok"] or v["k"] != p + 1:
            failures.append(f"MUB family: ok={v['mubs_ok']}, k={v['k']}")
        constant = p * (p + 1) / 2
        check_certificate(failures, v["cert"], status=OPTIMAL, n=p * (p + 1), m=p,
                          constant=constant)
        if v["coh_mu"] != v["cert"]["mu_embedded"]:
            failures.append("coherence and certify disagree on mu")
        if not v["tight"][0] or abs(v["tight"][1] - constant) > CONSTANT_TOL:
            failures.append(f"check_tightness = {v['tight']}")
        return failures


class Ladder(Workload):
    """Small certificate cases, each one operation, repeated in seed-shuffled
    passes after one untimed warm-up pass."""

    name = "small-ladder"
    CASES = ("c2-octahedron", "c4-hadamard", "c8-hadamard", "c7-fano",
             "c9-rebased-fano", "c19-paley")
    # m, status, n, tight constant, Hadamard order, orthoplex geometry passes
    EXPECT = {
        "c2-octahedron": (2, MAXIMAL, 6, 3, 2, True),
        "c4-hadamard": (4, MAXIMAL, 30, 15, 4, True),
        "c8-hadamard": (8, MAXIMAL, 126, 63, 8, True),
        "c7-fano": (7, OPTIMAL, 56, 28, None, None),
        "c9-rebased-fano": (9, OPTIMAL, 140, 70, None, False),
        "c19-paley": (19, OPTIMAL, 380, 190, None, None),
    }

    def __init__(self, gp, seed: int, smoke: bool, out: Path, root: Path):
        rng = random.Random(seed)
        self.gp = gp
        self.c8_json = load_json(root / "tests" / "data" / "mubs_c8.json")
        self.fano_partition = balanced_partition(8, rng)
        self.paley19 = paley_design(gp, 19, rng)
        self.paley19_partition = balanced_partition(20, rng)
        self.order = list(self.CASES)
        rng.shuffle(self.order)
        self.cert_path = out / f"{self.name}-certificate.json"

    def warm_up(self) -> list[OpResult]:
        results = self.iteration(NullTracer())
        for r in results:
            r.timed = False
        return results

    def iteration(self, tr) -> list[OpResult]:
        return [run_op(f"case.{case}", tr, getattr(self, "_" + case.replace("-", "_")),
                       lambda facts, case=case: self._gate(case, facts))
                for case in self.order]

    def _certify(self, tr, pk, **values) -> Facts:
        gp = self.gp
        cert = tr.call("packing.certify", gp.certify, pk)
        coh = tr.call("packing.coherence", gp.coherence, pk)
        span = tr.call("packing.span_of_achievers", gp.span_of_achievers, pk, coh, cert)
        written = write_certificate(tr, gp, cert, self.cert_path)
        return Facts(certs=1, output_bytes=written, values=dict(
            values, cert=cert_dict(cert), coh_mu=coh.mu_embedded, span=span))

    def _orthoplex(self, tr, mubs, halves, design3):
        gp = self.gp
        pk = tr.call("packing.build_orthoplex_packing", gp.build_orthoplex_packing,
                     mubs, halves)
        geo = tr.call("packing.verify_orthoplex_geometry",
                      gp.verify_orthoplex_geometry, pk)
        facts = self._certify(tr, pk, geometry=(geo.passes, geo.reason))
        h = tr.call("packing.extract_hadamard", gp.extract_hadamard, pk, design3)
        facts.values["hadamard"] = h.entries
        return facts

    def _hadamard_case(self, tr, mubs, order):
        gp = self.gp
        h = tr.call("designs.gen_hadamard", gp.gen_hadamard, order)
        design3 = tr.call("designs.hadamard_to_3design", gp.hadamard_to_3design, h)
        halves = tr.call("designs.complementary_halves", gp.complementary_halves, design3)
        return self._orthoplex(tr, mubs, halves, design3)

    def _c2_octahedron(self, tr) -> Facts:
        gp = self.gp
        mubs = tr.call("mubs.gen_mubs_small", gp.gen_mubs_small, 2, gp.COMPLEX)
        return self._orthoplex(tr, mubs, gp.BlockDesign(2, [(0,)]),
                               gp.BlockDesign(2, [(0,), (1,)]))

    def _c4_hadamard(self, tr) -> Facts:
        gp = self.gp
        mubs = tr.call("mubs.gen_mubs_small", gp.gen_mubs_small, 4, gp.COMPLEX)
        return self._hadamard_case(tr, mubs, 4)

    def _c8_hadamard(self, tr) -> Facts:
        mubs = tr.call("mubs.mubs_from_json", self.gp.mubs_from_json, self.c8_json)
        return self._hadamard_case(tr, mubs, 8)

    def _fano(self, tr):
        gp = self.gp
        blocks = tr.call("fields.enumerate_projective_plane",
                         gp.enumerate_projective_plane, 2)
        return gp.BlockDesign(7, blocks)

    def _mixed(self, tr, design, mubs, partition) -> Facts:
        gp = self.gp
        rep = tr.call("designs.verify_design", gp.verify_design, design, 2)
        comp = tr.call("designs.complement_design", gp.complement_design, design)
        rep_c = tr.call("designs.verify_design", gp.verify_design, comp, 2)
        pk = tr.call("packing.build_mixed_packing", gp.build_mixed_packing,
                     mubs, [design, comp], partition)
        return self._certify(tr, pk, rep=rep, rep_c=rep_c)

    def _c7_fano(self, tr) -> Facts:
        fano = self._fano(tr)
        mubs = tr.call("mubs.gen_mubs_prime", self.gp.gen_mubs_prime, 7)
        return self._mixed(tr, fano, mubs, self.fano_partition)

    def _c9_rebased_fano(self, tr) -> Facts:
        gp = self.gp
        m9, fano9 = tr.call("designs.design_rebase", gp.design_rebase, self._fano(tr))
        mubs = tr.call("mubs.gen_mubs_prime_power", gp.gen_mubs_prime_power, 9)
        pk = tr.call("packing.build_orthoplex_packing", gp.build_orthoplex_packing,
                     mubs, fano9)
        geo = tr.call("packing.verify_orthoplex_geometry",
                      gp.verify_orthoplex_geometry, pk)
        return self._certify(tr, pk, m9=m9, geometry=(geo.passes, geo.reason))

    def _c19_paley(self, tr) -> Facts:
        mubs = tr.call("mubs.gen_mubs_prime", self.gp.gen_mubs_prime, 19)
        return self._mixed(tr, self.paley19, mubs, self.paley19_partition)

    def _gate(self, case: str, facts: Facts) -> list[str]:
        import numpy as np

        m, status, n, constant, order, geometry = self.EXPECT[case]
        v, failures = facts.values, []
        check_certificate(failures, v["cert"], status=status, n=n, m=m, constant=constant)
        if v["coh_mu"] != v["cert"]["mu_embedded"]:
            failures.append("coherence and certify disagree on mu")
        if v["span"] != (m, True):
            failures.append(f"achiever span {v['span']}, expected ({m}, True)")
        if "rep" in v:  # Fano (7, 3, 1) and Paley (19, 9, 4), both (m, ., (m-3)/4)
            check_design(failures, v["rep"], lam=(m - 3) // 4, label="design")
            check_design(failures, v["rep_c"], lam=(m + 1) // 4, label="complement")
        if geometry is not None:
            passes, reason = v["geometry"]
            if passes != geometry:
                failures.append(f"orthoplex geometry passes={passes} ({reason})")
            if not geometry and "n != 2d" not in (reason or ""):
                failures.append(f"geometry not rejected for n != 2d: {reason}")
        if case == "c9-rebased-fano" and v["m9"] != 9:
            failures.append(f"rebased Fano has {v['m9']} points, expected 9")
        if order is not None:
            h = np.asarray(v["hadamard"], dtype=np.int64)
            if h.shape != (order, order) or not np.array_equal(
                    h @ h.T, order * np.eye(order, dtype=np.int64)):
                failures.append(f"extracted matrix of shape {h.shape} is not "
                                f"Hadamard of order {order}")
        return failures


CLI_STEPS = ("startup", "gen_mub", "gen_design", "gen_complement", "build",
             "certify_achievers", "complement", "embed")
HASHED = ("pk.json", "code.json", "cert.json")


class CliRoundTrip(Workload):
    """Command-line round trip at m = q^2 + q + 1 on PG(2, q) and its
    complement, each command a child process in a temporary directory.

    Two operations at the least, so that their outputs can be compared byte
    for byte. Allocation peaks are not recorded: the packing layer runs in
    the children, and only the in-process replay is traced."""

    name = "cli-pg31"
    min_iterations = 2
    uses_children = True
    alloc_round = False

    def __init__(self, gp, seed: int, smoke: bool, out: Path, root: Path):
        rng = random.Random(seed)
        self.gp = gp
        self.q = 2 if smoke else 5
        self.m = self.q * self.q + self.q + 1
        self.partition = balanced_partition(self.m + 1, rng)
        self.out = out
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.hashes: dict[str, str] | None = None
        self.replayed = False
        self.mem_need_mb = 1500 if self.q == 5 else 200
        self.spawner: subprocess.Popen | None = None

    def close(self) -> None:
        if self.spawner is not None:
            self.spawner.stdin.close()
            try:
                self.spawner.wait(timeout=STEP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.spawner.kill()
                self.spawner.wait()
            self.spawner = None

    def commands(self):
        m, q = str(self.m), str(self.q)
        return (
            ("startup", ["--help"], None),
            ("gen_mub", ["gen", "mub", "--m", m, "--out", "mub.json"], "mub.json"),
            ("gen_design", ["gen", "design", "--projective", q, "--out", "pg.json"],
             "pg.json"),
            ("gen_complement", ["gen", "design", "--complement-of", "pg.json",
                                "--out", "pgc.json"], "pgc.json"),
            ("build", ["build", "--mub", "mub.json", "--design", "pg.json",
                       "--design", "pgc.json", "--mode", "mixed", "--partition",
                       partition_arg(self.partition), "--out", "pk.json"], "pk.json"),
            ("certify_achievers", ["certify", "pk.json", "--achievers", "--out",
                                   "cert.json"], "cert.json"),
            ("complement", ["complement", "pk.json", "--out", "comp.json"], "comp.json"),
            ("embed", ["embed", "pk.json", "--out", "code.json"], "code.json"),
        )

    def iteration(self, tr) -> list[OpResult]:
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        work = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out))
        try:
            results = [run_op(self.name, tr, lambda t: self._op(t, work),
                              lambda facts: self._gate(facts, work))]
            if tr.enabled and not self.replayed:
                self.replayed = True
                results.append(run_op(
                    f"replay.{self.name}", tr, lambda t: self._replay(t, work),
                    lambda facts: self._replay_gate(facts, work)))
                results[-1].timed = False
            return results
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run(self, args, cwd: Path) -> tuple[int, float]:
        """Run one command through the spawner; return its exit code and its
        peak RSS in MB (read with wait4). Its stderr goes to stderr.txt."""
        request = {"argv": [sys.executable, "-m", "grasspack.cli", *args],
                   "cwd": str(cwd), "env": self.env, "stderr": str(cwd / "stderr.txt"),
                   "timeout": STEP_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(reply)
        return reply["code"], reply["rss_mb"]

    def _op(self, tr, work: Path) -> Facts:
        facts = Facts(values={"codes": {}})
        for step, args, output in self.commands():
            with tr.span(f"cli.{step}") as attrs:
                code, rss_mb = self._run(args, work)
                written = (work / output).stat().st_size if output and code == 0 else 0
                attrs.update(peak_rss_mb=rss_mb, bytes_written=written)
            facts.values["codes"][step] = code
            facts.child_rss_mb = max(facts.child_rss_mb, rss_mb)
            facts.output_bytes += written
            facts.certs += step == "certify_achievers" and code == 0
            if code != 0:
                facts.values["stderr"] = (work / "stderr.txt").read_text()[-500:]
                break
        return facts

    def _gate(self, facts: Facts, work: Path) -> list[str]:
        import numpy as np

        codes, failures = facts.values["codes"], []
        for step, code in codes.items():
            if code != 0:
                failures.append(f"{step} exited {code}: {facts.values['stderr']}")
        if failures or len(codes) != len(CLI_STEPS):
            return failures or ["not every command ran"]
        m, q = self.m, self.q
        cert = load_json(work / "cert.json")
        check_certificate(failures, cert, status=OPTIMAL, n=m * (m + 1), m=m,
                          constant=m * (m + 1) / 2)
        ach = cert["achievers"]
        if ach["span_dim"] != m or not ach["span_is_full"]:
            failures.append(f"achiever span {ach['span_dim']}, full={ach['span_is_full']}")
        code = load_json(work / "code.json")
        coords = np.array([v["coords"] for v in code["vectors"]])
        ranks = {v["rank"] for v in code["vectors"]}
        if code["d"] != m * m - 1 or coords.shape != (m * (m + 1), m * m - 1):
            failures.append(f"embedded code has d={code['d']}, shape {coords.shape}")
        elif np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() > MU_TOL:
            failures.append("embedded vectors are not unit vectors")
        if ranks != {q + 1, q * q}:
            failures.append(f"embedded ranks {sorted(ranks)}")
        hashes = {f: sha256(work / f) for f in HASHED}
        if self.hashes is None:
            self.hashes = hashes
        for f in HASHED:
            if hashes[f] != self.hashes[f]:
                failures.append(f"{f} differs from the first operation of this seed")
        return failures

    def _replay(self, tr, work: Path) -> Facts:
        """The same steps in-process, with a span around every call, so the
        command-line time can be split by layer."""
        gp, m, q = self.gp, self.m, self.q
        out = work / "replay"
        out.mkdir()

        def dump(obj, name):
            return tr.call("io.json_dump", dump_json, obj, out / name)

        def load(name):
            return tr.call("io.json_load", load_json, out / name)

        fam = tr.call("mubs.gen_mubs_prime", gp.gen_mubs_prime, m)
        tr.call("mubs.verify_mubs", gp.verify_mubs, fam)
        dump(tr.call("mubs.mubs_to_json", gp.mubs_to_json, fam), "mub.json")
        blocks = tr.call("fields.enumerate_projective_plane",
                         gp.enumerate_projective_plane, q)
        pg = gp.BlockDesign(m, blocks, declared_t=2, declared_lambda=1)
        tr.call("designs.verify_design", gp.verify_design, pg, 2)
        dump(tr.call("designs.design_to_json", gp.design_to_json, pg), "pg.json")
        source = tr.call("designs.design_from_json", gp.design_from_json, load("pg.json"))
        comp = tr.call("designs.complement_design", gp.complement_design, source)
        dump(tr.call("designs.design_to_json", gp.design_to_json, comp), "pgc.json")

        mubs = tr.call("mubs.mubs_from_json", gp.mubs_from_json, load("mub.json"))
        designs = [tr.call("designs.design_from_json", gp.design_from_json, load(f))
                   for f in ("pg.json", "pgc.json")]
        pk = tr.call("packing.build_mixed_packing", gp.build_mixed_packing,
                     mubs, designs, self.partition)
        dump(tr.call("packing.packing_to_json", gp.packing_to_json, pk), "pk.json")

        pk = tr.call("packing.packing_from_json", gp.packing_from_json, load("pk.json"))
        cert = tr.call("packing.certify", gp.certify, pk)
        obj = tr.call("packing.certificate_to_json", gp.certificate_to_json, cert)
        coh = tr.call("packing.coherence", gp.coherence, pk)
        dim, full = tr.call("packing.span_of_achievers", gp.span_of_achievers, pk, coh)
        obj["achievers"] = {"indices": list(coh.achievers), "span_dim": dim,
                            "span_is_full": full}
        dump(obj, "cert.json")

        pk = tr.call("packing.packing_from_json", gp.packing_from_json, load("pk.json"))
        flipped = tr.call("packing.spatial_complement", gp.spatial_complement, pk)
        dump(tr.call("packing.packing_to_json", gp.packing_to_json, flipped), "comp.json")

        pk = tr.call("packing.packing_from_json", gp.packing_from_json, load("pk.json"))
        space = tr.call("embedding.build_space", gp.build_space, pk.m, pk.field)
        vectors = [tr.call("embedding.embed", gp.embed, p.matrix, space, source_index=i)
                   for i, p in enumerate(pk.elements)]
        code = tr.call("embedding.embedded_code_to_json", gp.embedded_code_to_json,
                       space, vectors)
        dump(code, "code.json")
        return Facts()

    def _replay_gate(self, facts: Facts, work: Path) -> list[str]:
        return [f"in-process {f} differs from the command line's"
                for f in HASHED if sha256(work / "replay" / f) != sha256(work / f)]
