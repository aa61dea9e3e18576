"""Command-line pipelines: generate MUB/design/Hadamard artifacts, build
packings, certify them, and convert between the JSON formats.

Exit codes: 0 certified (or generation/build succeeded), 1 not certified /
verification failed, 2 input error, 3 construction-hypothesis failure.

Each command imports only the modules it runs, so ``--help`` loads no NumPy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import GrasspackError, HypothesisError, ParameterError

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

MAX_EPS = 1e-6


def _write_json(path: str, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _tolerance(args):
    from .numerics import Tolerance

    if args.eps > MAX_EPS:
        raise ParameterError(f"--eps {args.eps} is above {MAX_EPS}; a tolerance that "
                             "loose would certify packings that miss the bounds")
    return Tolerance(eps_abs=args.eps)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_gen(args) -> int:
    tol = _tolerance(args)
    if args.kind == "mub":
        from . import mubs as M

        fam = M.gen_mubs(args.m, args.field)  # an UnsupportedError's hint names the import
        report = M.verify_mubs(fam, tol)
        if not report.ok:
            return _fail(f"generated family failed verification: {report.failures}",
                         EXIT_NOT_CERTIFIED)
        _write_json(args.out, M.mubs_to_json(fam))
        print(f"wrote {fam.k} mutually unbiased bases for {fam.field}^{fam.m} to {args.out}")
        return EXIT_OK

    from . import designs as D

    if args.kind == "design":
        from .fields import enumerate_affine_hyperplanes, enumerate_projective_plane

        if args.hadamard3:
            if args.order is None:
                return _fail("--hadamard3 needs --order", EXIT_INPUT)
            dsgn = D.hadamard_to_3design(D.gen_hadamard(args.order))
            report = D.verify_design(dsgn, 3)
            ok = all(report.is_t_design.values())
        elif args.projective is not None:
            dsgn = D.BlockDesign(
                args.projective ** 2 + args.projective + 1,
                enumerate_projective_plane(args.projective),
                declared_t=2, declared_lambda=1)
            report = D.verify_design(dsgn, 2)
            ok = report.is_t_design[2] and report.lambda_observed == 1 and report.is_symmetric
        elif args.affine is not None:
            dsgn = D.BlockDesign(args.affine ** args.dim,
                                 enumerate_affine_hyperplanes(args.affine, args.dim))
            report = D.verify_design(dsgn, 2)
            ok = report.is_t_design[2] and report.is_resolvable
        elif args.complement_of is not None:
            source = D.design_from_json(_read_json(args.complement_of))
            dsgn = D.complement_design(source)
            # exact involution check stands in for a design-level verifier:
            # complementing need not preserve t-design status declarations
            ok = D.complement_design(dsgn).blocks == source.blocks
        elif args.rebase_of is not None:
            # design_rebase verifies symmetry and the lambda m' = l^2 identity
            _, dsgn = D.design_rebase(D.design_from_json(_read_json(args.rebase_of)))
            ok = True
        else:
            return _fail("choose one of --hadamard3/--projective/--affine/"
                         "--complement-of/--rebase-of", EXIT_INPUT)
        if not ok:
            return _fail("generated design failed verification", EXIT_NOT_CERTIFIED)
        _write_json(args.out, D.design_to_json(dsgn))
        print(f"wrote {dsgn.b} blocks of size {dsgn.block_size} over "
              f"{dsgn.m} points to {args.out}")
        return EXIT_OK

    # kind == "hadamard"; the constructor verifies H H^T = order I exactly
    h = D.gen_hadamard(args.order)
    _write_json(args.out, D.hadamard_to_json(h))
    print(f"wrote Hadamard matrix of order {h.order} to {args.out}")
    return EXIT_OK


def _parse_partition(text: str) -> list[list[int]]:
    classes = []
    for part in text.split(";"):
        part = part.strip()
        classes.append([int(x) for x in part.split(",")] if part else [])
    return classes


def cmd_build(args) -> int:
    from . import designs as D
    from . import mubs as M
    from . import packing as P

    mubs = M.mubs_from_json(_read_json(args.mub))
    design_list = [D.design_from_json(_read_json(f)) for f in args.design]
    if args.mode == "mixed":
        if args.partition is None:
            return _fail("--mode mixed requires --partition", EXIT_INPUT)
        partition = _parse_partition(args.partition)
        pk = P.build_mixed_packing(mubs, design_list, partition)
    else:
        if len(design_list) != 1:
            return _fail("--mode orthoplex takes exactly one design (the halves)",
                         EXIT_INPUT)
        halves = design_list[0]
        try:
            # complement-closed families (e.g. generated Hadamard 3-designs)
            # are split into one block per complementary pair
            halves = D.complementary_halves(halves)
            print(f"design is complement-closed; using its {halves.b} halves",
                  file=sys.stderr)
        except GrasspackError:
            pass
        pk = P.build_orthoplex_packing(mubs, halves)
    _write_json(args.out, P.packing_to_json(pk))
    profile = ", ".join(f"{cnt} of rank {rk}" for cnt, rk in pk.rank_profile)
    print(f"wrote packing of {pk.n} projections ({profile}) to {args.out}")
    if not pk.hypotheses.ok:
        print("hypothesis failures:", "; ".join(pk.hypotheses.failures), file=sys.stderr)
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import designs as D
    from . import packing as P

    tol = _tolerance(args)
    pk = P.packing_from_json(_read_json(args.packing), tol)
    cert = P.certify(pk, tol=tol)
    obj = P.certificate_to_json(cert)
    if args.geometry:
        geo = P.verify_orthoplex_geometry(pk, tol=tol)
        obj["geometry"] = {
            "passes": geo.passes,
            "reason": geo.reason,
            "n": geo.n,
            "d": geo.d,
            "antipodal_pairs": [list(p) for p in geo.antipodal_pairs],
            "max_offdiag_dev": geo.max_offdiag_dev,
        }
    if args.achievers:
        dim, full = P.span_of_achievers(pk, cert.coherence, tol=tol)
        obj["achievers"] = {
            "indices": cert.coherence.achievers.tolist(),
            "span_dim": dim,
            "span_is_full": full,
        }
    if args.extract_hadamard:
        if not args.design:
            return _fail("--extract-hadamard needs --design (the block family used)",
                         EXIT_INPUT)
        h = P.extract_hadamard(pk, D.design_from_json(_read_json(args.design)), tol)
        _write_json(args.extract_hadamard, D.hadamard_to_json(h))
        obj["hadamard_order"] = h.order
    if args.out:
        _write_json(args.out, obj)
        print(f"wrote certificate to {args.out}: {cert.status.value}, n = {cert.n}, "
              f"d = {cert.d}, mu = {float(cert.mu_embedded)!r}")
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))
    certified = cert.status != P.CertStatus.NOT_CERTIFIED
    return EXIT_OK if certified else EXIT_NOT_CERTIFIED


def cmd_complement(args) -> int:
    from . import packing as P

    tol = _tolerance(args)
    pk = P.packing_from_json(_read_json(args.packing), tol)
    _write_json(args.out, P.packing_to_json(P.spatial_complement(pk)))
    print(f"wrote spatial complement of {pk.n} projections to {args.out}")
    return EXIT_OK


def cmd_embed(args) -> int:
    from . import embedding as E
    from . import packing as P

    tol = _tolerance(args)
    pk = P.packing_from_json(_read_json(args.packing), tol)
    # the code is streamed, so it goes to --out only once all of it is written
    out = Path(args.out)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as fp:
            count = P._write_code(fp, pk)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {count} embedded unit vectors in R^{E.embedding_dim(pk.m, pk.field)} "
          f"to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspack",
        description="Construct and certify optimally spread subspace packings.")
    parser.add_argument("--eps", type=float, default=1e-9,
                        help="absolute tolerance for numeric comparisons "
                             f"(at most {MAX_EPS})")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a MUB family, design, or Hadamard matrix")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gm = gen_sub.add_parser("mub")
    gm.add_argument("--m", type=int, required=True)
    # numerics.REAL and COMPLEX, spelled out so that --help loads no NumPy
    gm.add_argument("--field", choices=["R", "C"], default="C")
    gm.add_argument("--out", required=True)
    gd = gen_sub.add_parser("design")
    gd.add_argument("--hadamard3", action="store_true",
                    help="3-design read off a Hadamard matrix (give --order)")
    gd.add_argument("--order", type=int,
                    help="Hadamard matrix order for --hadamard3")
    gd.add_argument("--projective", type=int, metavar="Q",
                    help="lines of the projective plane of prime-power order Q")
    gd.add_argument("--affine", type=int, metavar="P",
                    help="hyperplane cosets of GF(P)^dim (P prime)")
    gd.add_argument("--dim", type=int, default=2, help="dimension for --affine")
    gd.add_argument("--complement-of", metavar="FILE", help="complement of a design file")
    gd.add_argument("--rebase-of", metavar="FILE",
                    help="re-declare a symmetric design over m + (m-l)/(l-1) points")
    gd.add_argument("--out", required=True)
    gh = gen_sub.add_parser("hadamard")
    gh.add_argument("--order", type=int, required=True)
    gh.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    build = sub.add_parser("build", help="build a packing from a MUB file and designs")
    build.add_argument("--mub", required=True)
    build.add_argument("--design", action="append", required=True,
                       help="design file; repeat for several designs")
    build.add_argument("--mode", choices=["mixed", "orthoplex"], required=True)
    build.add_argument("--partition",
                       help="basis indices per design, e.g. '0,1,2,3;4,5,6,7'")
    build.add_argument("--out", required=True)
    build.set_defaults(func=cmd_build)

    cert = sub.add_parser("certify", help="certify a packing file")
    cert.add_argument("packing")
    cert.add_argument("--geometry", action="store_true",
                      help="also verify the orthoplex geometry")
    cert.add_argument("--achievers", action="store_true",
                      help="also report the span of packing-constant achievers")
    cert.add_argument("--extract-hadamard", metavar="OUT",
                      help="recover the Hadamard matrix (needs --design)")
    cert.add_argument("--design", help="block family used by the packing")
    cert.add_argument("--out", help="write the certificate JSON here")
    cert.set_defaults(func=cmd_certify)

    comp = sub.add_parser("complement", help="spatial complement of a packing file")
    comp.add_argument("packing")
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=cmd_complement)

    emb = sub.add_parser("embed", help="dump the embedded code of a packing file")
    emb.add_argument("packing")
    emb.add_argument("--out", required=True)
    emb.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        return _fail(str(exc), EXIT_HYPOTHESIS)
    except (GrasspackError, OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
